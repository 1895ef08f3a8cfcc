from fractions import Fraction
from functools import partial

import pytest

from fermiphon.errors import UnknownIdentity
from fermiphon.focklab import (SUPPORTED_IDENTITIES, SparseOperator,
                               build_space, charge_op, density_op, field_op,
                               free_hamiltonian, identity_residual,
                               klein_factor, ladder_op, reconstructed_field,
                               reconstruction_report, run_identity_suite)
from fermiphon.focklab import operators
from fermiphon.focklab.identities import _BUILDERS, _reconstruction_residuals
from fermiphon.focklab.operators import Columns
from fermiphon.focklab.space import FockSpace


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
    # every column computed while the interior columns of each operator kind
    # and of one residual per identity are read holds int or Fraction
    # amplitudes only; the spy also sees the dict-column terms of each
    # residual (a monomial term adds its one entry to the residual's column
    # directly), which cancel to empty columns where the identity holds
    computed = []
    compute = Columns.__missing__

    def spy(self, c):
        col = compute(self, c)
        if col:
            computed.append(col)
        return col

    monkeypatch.setattr(Columns, "__missing__", spy)
    sp = build_space(2)
    half = Fraction(1, 2)
    ops = [ladder_op(sp, +1, half), ladder_op(sp, -1, -half, dagger=True),
           field_op(sp, +1, half), field_op(sp, -1, half, dagger=True),
           density_op(sp, +1, 1), density_op(sp, -1, 2), free_hamiltonian(sp),
           charge_op(sp, +1), klein_factor(sp, +1),
           klein_factor(sp, -1, dagger=True),
           SparseOperator(sp, partial(reconstructed_field, sp, +1, -half))]
    ops += [next(_BUILDERS[name](sp))[0] for name in SUPPORTED_IDENTITIES]
    ops.append(next(_reconstruction_residuals(sp))[0])
    for op in ops:
        for c in sp.interior_indices():
            op.cols[c]
    assert len(computed) > len(ops)
    types = {type(amp) for col in computed for amp in col.values()}
    assert types <= {int, Fraction}, types


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
