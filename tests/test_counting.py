from fractions import Fraction

import pytest

from fermiphon.errors import BadArgument
from fermiphon.focklab import degeneracy_counts, jacobi_check


def test_vacuum_level(space_k2):
    counts = degeneracy_counts(space_k2, 0)
    assert counts[Fraction(0)] == (1, 1)


@pytest.mark.parametrize("e_max", [-0.5, -1, -3])
def test_negative_energy_counts_nothing(space_k2, e_max):
    assert degeneracy_counts(space_k2, e_max) == {}


def test_first_level(space_k2):
    # E = pi / L: one excitation at k = +-pi/L per chirality on the fermion
    # side, (q+, q-) in {(+-1, 0), (0, +-1)} on the boson side
    counts = degeneracy_counts(space_k2, Fraction(1, 2))
    assert counts[Fraction(1, 2)] == (4, 4)


def test_all_levels_match_k3(space_k3):
    counts = degeneracy_counts(space_k3, 2)
    assert len(counts) == 5
    for e, (dim_f, dim_b) in counts.items():
        assert dim_f == dim_b, e


def test_jacobi_examples():
    resid, tail = jacobi_check(0.5, 60)
    assert resid < 1e-12
    assert resid <= tail + 1e-12
    resid, tail = jacobi_check(0.9, 400)
    assert resid <= tail + 1e-12
    # z -> 0+: both sides -> 1
    resid, tail = jacobi_check(1e-10, 3)
    assert resid <= tail + 1e-12


def test_jacobi_bad_arguments():
    with pytest.raises(BadArgument):
        jacobi_check(0.0, 10)
    with pytest.raises(BadArgument):
        jacobi_check(1.0, 10)
    with pytest.raises(BadArgument):
        jacobi_check(0.5, 0)
