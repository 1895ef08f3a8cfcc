import math
from fractions import Fraction

import pytest

from fermiphon.errors import BadArgument
from fermiphon.focklab import counting, degeneracy_counts
from oracles import jacobi_check


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


@pytest.mark.parametrize("degree", [0, 1, 9, 60, 400])
def test_exact_jacobi_report(degree):
    rep = counting.jacobi_check(degree)
    assert (rep.identity, rep.K, rep.window) == ("JACOBI", None, degree)
    assert rep.max_residual == 0 and rep.passed
    assert rep.checks == degree + 1


def test_exact_jacobi_coefficients():
    # sum_k q^{k^2}: 1 at q^0, 2 at q^1, q^4 and q^9
    want = [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    assert counting._product_coefficients(9) == want
    assert counting._theta_coefficients(9) == want


def test_exact_jacobi_residual_is_the_largest_difference(monkeypatch):
    # a theta side without its squares differs by 2 at each of them
    monkeypatch.setattr(counting, "_theta_coefficients",
                        lambda degree: [1] + [0] * degree)
    rep = counting.jacobi_check(60)
    assert rep.max_residual == 2 and not rep.passed


def test_exact_jacobi_bad_degree():
    with pytest.raises(BadArgument):
        counting.jacobi_check(-1)


def test_exact_jacobi_polynomials_agree_with_the_float_oracle():
    # both exact polynomials to q^196 at z = 1/2, in Fractions: they equal
    # sum_{|k|<=60} z^{k^2} to 2 z^225 / (1 - z) < 1e-67, so divided by the
    # truncated Euler product they are the oracle's right side, and their
    # distance from its left side is the oracle's residual
    z = Fraction(1, 2)
    lhs, rhs = (sum(c * z**e for e, c in enumerate(coefficients(196)))
                for coefficients in (counting._product_coefficients,
                                     counting._theta_coefficients))
    assert lhs == rhs
    euler = math.prod(1 - z**(2 * n) for n in range(1, 61))
    left = math.prod(1 + z**(2 * n - 1) for n in range(1, 61)) ** 2
    resid, tail = jacobi_check(0.5, 60)
    gap = abs(lhs / euler - left)
    assert gap <= tail
    assert math.isclose(gap, resid, rel_tol=1e-12)
