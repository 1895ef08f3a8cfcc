import weakref
from fractions import Fraction

import pytest

from fermiphon.errors import ModeOutOfWindow, UnknownIdentity
from fermiphon.focklab import (SUPPORTED_IDENTITIES, build_space, charge_op,
                               density_op, field_op, free_hamiltonian,
                               identity_residual, klein_factor, ladder_op,
                               reconstructed_field, reconstruction_report)
from fermiphon.focklab import identities, operators
from fermiphon.focklab.identities import _BUILDERS, _reconstruction_residuals
from fermiphon.focklab.operators import Columns, Monomial, twice_hamiltonian
from fermiphon.focklab.reconstruction import FieldSeries
from fermiphon.focklab.space import FockSpace
from oracles import run_identity_suite


def test_full_suite_exact_k2(space_k2):
    for rep in run_identity_suite(space_k2):
        assert rep.max_residual == 0, (rep.identity, rep.max_residual,
                                       rep.worst_pair)


def test_schwinger_vacuum_eigenvalues(space_k2):
    # [J_+(p), J_+(-p)] Omega = (L p / 2 pi) Omega: 1 at p = 2 pi / L,
    # 2 at p = 4 pi / L (lab units)
    sp = space_k2
    for m in (1, 2):
        comm = density_op(sp, +1, m).commutator(density_op(sp, +1, -m))
        vec = comm.cols.get(sp.vacuum, {})
        assert vec == {sp.vacuum: m}


def test_kronig_window_k2(space_k2):
    rep = identity_residual(space_k2, "KRONIG")
    assert rep.window == Fraction(1)
    assert rep.max_residual == 0


def test_unknown_identity(space_k2):
    with pytest.raises(UnknownIdentity):
        identity_residual(space_k2, "NOPE")


def test_full_suite_exact_k3():
    sp = build_space(3)
    reports = run_identity_suite(sp) + [reconstruction_report(sp)]
    assert [rep.identity for rep in reports] == [
        *SUPPORTED_IDENTITIES, "RECONSTRUCTION"]
    for rep in reports:
        assert rep.window == 2 and rep.checks > 0
        assert rep.max_residual == 0, (rep.identity, rep.worst_pair)


def test_fresh_operator_computes_columns(space_k2):
    # cols.get computes a column on first read: a vacuous `not
    # op.cols.get(c)` would pass on an operator that never evaluates
    sp = space_k2
    op = field_op(sp, +1, Fraction(1, 2), dagger=True)
    one = sp.vacuum | 1 << sp.mode_position(+1, Fraction(1, 2))
    assert op.cols.get(sp.vacuum) == {one: 1}
    assert op.cols[sp.vacuum] == {one: 1}


def test_amplitudes_are_rationals(monkeypatch):
    # the lab computes in ints: each operator kind's images and columns on
    # the interior, and every column and field series vector computed
    # through `Columns` or `FieldSeries.vector` while every column of every
    # check of every identity is read, hold int amplitudes only (each
    # residual's own column too: off the interior the truncation leaves
    # entries in SCHWINGER, J_R and KRONIG).  Only the public H0, in units
    # of 2 pi / L, and the public reconstructed field hold Fractions, and
    # those are exact rationals.
    sp = build_space(2)
    half = Fraction(1, 2)
    h0 = free_hamiltonian(sp)
    assert {type(h0.cols[c][c]) for c in sp.interior_indices()
            if h0.cols[c]} == {int, Fraction}
    field = reconstructed_field(sp, +1, -half, sp.vacuum)
    assert field and {type(amp) for amp in field.values()} == {Fraction}

    seen = []
    compute, vector = Columns.__missing__, FieldSeries.vector

    def spy_column(self, c):
        col = compute(self, c)
        seen.extend(col.values() if col else ())
        return col

    def spy_vector(self, t):
        v, d = vector(self, t)
        seen.extend([*v.values(), d])
        return v, d

    monkeypatch.setattr(Columns, "__missing__", spy_column)
    monkeypatch.setattr(FieldSeries, "vector", spy_vector)
    ops = [ladder_op(sp, +1, half), ladder_op(sp, -1, -half, dagger=True),
           field_op(sp, +1, half), field_op(sp, -1, half, dagger=True),
           density_op(sp, +1, 1), density_op(sp, -1, 2),
           twice_hamiltonian(sp), charge_op(sp, +1), klein_factor(sp, +1),
           klein_factor(sp, -1, dagger=True)]
    for op in ops:
        for c in sp.interior_indices():
            op.cols[c]
            if isinstance(op, Monomial) and op.image(c)[0] is not None:
                seen.append(op.image(c)[1])
    builders = dict(_BUILDERS, RECONSTRUCTION=_reconstruction_residuals)
    for build in builders.values():
        for op, _ in build(sp):
            for c in range(sp.dim):
                try:
                    op.cols[c]
                except ModeOutOfWindow:
                    pass
    assert len(seen) > 5_000
    assert {type(amp) for amp in seen} == {int}


def test_schwinger_frees_densities_after_their_last_block(monkeypatch):
    # the checks run in blocks (r, r') = (+,+), (+,-), (-,+), (-,-) of
    # 4 (K - 1)^2 each; no + density is read after (-,+), so all of them
    # are freed before (-,-) fills the - densities' columns
    made = []
    build = identities.density_op

    def spy(space, r, m):
        op = build(space, r, m)
        made.append((r, weakref.ref(op)))
        return op

    monkeypatch.setattr(identities, "density_op", spy)
    sp = build_space(3)
    checks = identities._schwinger_residuals(sp)
    for _ in range(3 * 4 * (sp.K - 1) ** 2):
        next(checks)
    last_block = [next(checks)]
    assert {r for r, _ in made} == {+1, -1}
    assert all((ref() is None) == (r == +1) for r, ref in made)
    last_block += list(checks)
    assert len(last_block) == 4 * (sp.K - 1) ** 2


def test_corrupted_sign_fails_car(monkeypatch):
    # negative control: dropping the fermionic signs breaks the CAR
    orig = FockSpace.move

    def no_sign(self, mask, pos, create):
        new, s = orig(self, mask, pos, create)
        return new, abs(s)

    monkeypatch.setattr(FockSpace, "move", no_sign)
    sp = build_space(2)
    rep = identity_residual(sp, "CAR")
    assert rep.max_residual > 0
    assert rep.worst_pair is not None


def test_klein_without_sign_fails_rr_anti(monkeypatch):
    # negative control: a Klein map without its sign commutes R_+ with R_-
    # instead of anticommuting them; the fermion signs play no part in it
    apply = operators._klein_apply

    def no_sign(*args):
        image = apply(*args)
        return None if image is None else (image[0], abs(image[1]))

    monkeypatch.setattr(operators, "_klein_apply", no_sign)
    sp = build_space(2)
    assert identity_residual(sp, "RR_ANTI").max_residual > 0
    assert identity_residual(sp, "CAR").max_residual == 0
