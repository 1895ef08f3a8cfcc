from fractions import Fraction

import pytest

from fermiphon.errors import ModeOutOfWindow
from fermiphon.focklab import field_op, klein_factor, reconstructed_field

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
    with pytest.raises(ModeOutOfWindow):
        reconstructed_field(space_k2, +1, Fraction(7, 2), space_k2.vacuum)


def test_klein_shift_out_of_window(space_k2):
    # R_+^{-1} shifts a + mode at -3 pi / L to -5 pi / L, outside K = 2
    sp = space_k2
    state = 1 << sp.mode_position(+1, Fraction(-3, 2))
    assert klein_factor(sp, +1, dagger=True).cols[state] is None
    with pytest.raises(ModeOutOfWindow):
        reconstructed_field(sp, +1, HALF, state)
