from fractions import Fraction

import pytest

from fermiphon.errors import ModeOutOfWindow
from fermiphon.focklab import (build_space, field_op, klein_factor,
                               reconstructed_field, reconstruction_report)
from fermiphon.focklab import reconstruction
from oracles import mode_position, partition_reconstructed_field

HALF = Fraction(1, 2)


def test_annihilates_vacuum(space_k2):
    # V_r(k) Omega = 0 for r k > 0
    sp = space_k2
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            if r * nu > 0:
                assert reconstructed_field(sp, r, nu, sp.vacuum) == {}


def test_klein_shift_on_vacuum(space_k2):
    # sqrt(2 pi / L) V_+(-pi/L) Omega = R_+^{-1} Omega and the mirror
    sp = space_k2
    vec = reconstructed_field(sp, +1, -HALF, sp.vacuum)
    ref = klein_factor(sp, +1, dagger=True).cols[sp.vacuum]
    assert vec == ref
    vec = reconstructed_field(sp, -1, HALF, sp.vacuum)
    ref = klein_factor(sp, -1).cols[sp.vacuum]
    assert vec == ref


def test_matches_field_operator_interior(space_k2):
    # <eta, V_r(k) eta'> = <eta, psi_r(k) eta'> exactly on the interior
    sp = space_k2
    interior = sp.interior_indices()
    rows = set(interior)
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            psi = field_op(sp, r, nu)
            for col in interior:
                vec = reconstructed_field(sp, r, nu, col)
                ref = psi.cols.get(col, {})
                for row in rows | (set(vec) & rows):
                    a = vec.get(row, 0)
                    b = ref.get(row, 0)
                    assert a - b == 0, (r, nu, row, col)


def test_mode_out_of_window(space_k2):
    # a target mode outside K = 2, and a nu+ series that needs J_-(4) on
    # state 35 (the + modes at 3/2 and 1/2 and the - mode at 1/2 occupied,
    # energy 5/2)
    cases = [(+1, Fraction(7, 2), space_k2.vacuum, "target momentum"),
             (-1, HALF, 35, "density mode 4 exceeds the truncated window")]
    for r, nu, state, message in cases:
        with pytest.raises(ModeOutOfWindow, match=message):
            reconstructed_field(space_k2, r, nu, state)


# the columns compared with the partition sum at each K, and the number of
# (r, nu, column) cases where only the partition sum refuses: one chain of
# densities reaches a mode above 2K - 1, but the sum over the partitions of
# that n- cancels, so the recursion never applies the mode
ORACLE_COLUMNS = {
    1: (lambda sp: range(sp.dim), 0),
    2: (lambda sp: range(sp.dim), 12),
    3: (lambda sp: sp.interior_indices(3), 0),
    4: (lambda sp: sp.interior_indices(), 0),
}


@pytest.mark.parametrize("K", list(ORACLE_COLUMNS))
def test_recursion_matches_partition_sum(K):
    # the recursion gives the partition sum's vector, entry order included,
    # and refuses only where the partition sum refuses; where only the
    # partition sum refuses, it gives psi-hat's column
    sp = build_space(K)
    columns, expected_only_oracle = ORACLE_COLUMNS[K]
    only_oracle = 0
    ops = {}                    # densities and Klein factors of sp
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            psi = field_op(sp, r, nu)
            for col in columns(sp):
                try:
                    ref = partition_reconstructed_field(sp, r, nu, col, ops)
                except ModeOutOfWindow:
                    ref = None
                if ref is None:
                    try:
                        vec = reconstructed_field(sp, r, nu, col, ops)
                    except ModeOutOfWindow:
                        continue
                    only_oracle += 1
                    assert vec == psi.cols.get(col, {}), (r, nu, col)
                else:
                    vec = reconstructed_field(sp, r, nu, col, ops)
                    assert list(vec.items()) == list(ref.items()), (r, nu, col)
    assert only_oracle == expected_only_oracle


def test_klein_shift_out_of_window(space_k2):
    # R_+^{-1} shifts a + mode at -3 pi / L to -5 pi / L, outside K = 2
    sp = space_k2
    state = 1 << mode_position(sp, +1, Fraction(-3, 2))
    assert klein_factor(sp, +1, dagger=True).cols[state] is None
    with pytest.raises(ModeOutOfWindow):
        reconstructed_field(sp, +1, HALF, state)


@pytest.mark.parametrize("K, pairs", [(2, 22), (3, 72)])
def test_report_builds_each_series_once(monkeypatch, K, pairs):
    # RECONSTRUCTION builds one lowered series per (r, interior state),
    # shared by the 2K momenta: 22 at K = 2 and 72 at K = 3, where building
    # one per momentum took 88 and 432
    built, lowered = [], []
    init, extend = reconstruction.FieldSeries.__init__, reconstruction._extend

    def spy_init(self, space, ops, r, state):
        built.append((r, state))
        init(self, space, ops, r, state)

    def spy_extend(space, ops, r, s, terms, top):
        if s == +1:
            lowered.append(r)
        return extend(space, ops, r, s, terms, top)

    monkeypatch.setattr(reconstruction.FieldSeries, "__init__", spy_init)
    monkeypatch.setattr(reconstruction, "_extend", spy_extend)
    sp = build_space(K)
    assert reconstruction_report(sp).passed
    assert len(built) == len(lowered) == pairs
    assert sorted(built) == sorted((r, c) for r in (+1, -1)
                                   for c in sp.interior_indices())
