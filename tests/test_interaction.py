"""The Bogoliubov blocks and the charge energy, derived from the fermions.

With v_F = 1 and the lab's units 2 pi / L = 1, the lambda term adds
gamma1 sum_{|m| <= M} J_+(m) J_-(-m) to H0, M playing n_a.  In units of
pi / L, H = 2 H0 + 2 gamma1 sum_{|m| <= M} J_+(m) J_-(-m), and the lab shows
exactly

    [H, J_r(p)] = -2 r p J_r(p) - 2 gamma1 r p J_{-r}(p)    (1 <= |p| <= M)

and the bare [H, J_r(p)] = -2 r p J_r(p) at |p| = M + 1.  On Phi = J_+ + J_-
and Pi = J_+ - J_- it reads [H, Phi] = -2 p (1 - gamma1) Pi and
[H, Pi] = -2 p (1 + gamma1) Phi: the (1 - gamma1) of `block_matrices`' A and
the (1 + gamma1) of its B.  The lowest state of the charge sector
(Q_+, Q_-) has <H> = Q_+^2 + Q_-^2 + 2 gamma1 Q_+ Q_-, the charge energy of
`bogoliubov._sectors`.

gamma1 is a Fraction n / d, and the lab holds d H, so that every amplitude
is an integer.
"""

import math
from fractions import Fraction

import pytest

from fermiphon import ModelParams
from fermiphon.bogoliubov import _sectors, block_matrices, solve_closed_form
from fermiphon.focklab import SparseOperator, build_space, density_op
from fermiphon.focklab.operators import linear, twice_hamiltonian
from fermiphon.params import mode_count


def scaled_hamiltonian(space, gamma1, M):
    """d H for gamma1 = n / d, with its columns kept once read (every
    product with it reads them many times)."""
    n, d = gamma1.as_integer_ratio()
    H = linear(space, (d, twice_hamiltonian(space)), *[
        (2 * n, density_op(space, +1, m) @ density_op(space, -1, -m))
        for m in range(-M, M + 1)])
    return SparseOperator(space, H.cols.reader(), keep=True)


def window_budget(K, p):
    """The largest 2E <= 2K - 2 up to which the truncated densities obey
    the commutator with J_r(p): its residual first reads nonzero at
    2E = 2K + 1 - 2 floor(|p| / 2), whatever M, so the whole window
    2E <= 2K - 2 holds for |p| <= 3, and it shrinks past that."""
    return min(2 * K - 2, 2 * K - 2 * (abs(p) // 2))


def density_residual(space, dH, gamma1, M, r, p):
    """d ([H, J_r(p)] + 2 r p J_r(p) + 2 gamma1 r p J_{-r}(p)), without the
    gamma1 term at |p| > M."""
    n, d = gamma1.as_integer_ratio()
    J = density_op(space, r, p)
    terms = [(1, dH @ J), (-1, J @ dH), (2 * r * p * d, J)]
    if abs(p) <= M:
        terms.append((2 * r * p * n, density_op(space, -r, p)))
    return linear(space, *terms)


@pytest.mark.parametrize("gamma1", [Fraction(1, 3), Fraction(-2, 5)])
@pytest.mark.parametrize("K, M", [(3, 1), (3, 2), (4, 2), (4, 3)])
def test_density_commutator_with_interaction(K, M, gamma1):
    space = build_space(K)
    dH = scaled_hamiltonian(space, gamma1, M)
    for r in (+1, -1):
        for p in [q for q in range(-M - 1, M + 2) if q]:
            res = density_residual(space, dH, gamma1, M, r, p)
            budget = window_budget(K, p)
            window = space.states_below(budget)
            assert res.max_entry(set(window), window)[0] == 0, (r, p)
            if budget < 2 * K - 2:
                # the derived window is the largest: one step above it, the
                # truncation shows (at (K, M) = (4, 3), |p| = 4)
                window = space.states_below(budget + 1)
                assert res.max_entry(set(window), window)[0] != 0, (r, p)


# v_F = 1 as in the lab, and n_a = floor(L / 2a) = 1, so that mode 1
# couples and mode 2 does not, as in the lab at M = 1
MODELS = [ModelParams(v_f=1.0, v_p=0.3, lam=lam, g=0.2, a=7.0, L=20.0)
          for lam in (1.0, -2.5)]


def block_coefficient(space, dH, d, X, Y, p):
    """c with [H, X] = -2 p c Y, read off one entry of Y's vacuum column and
    then checked on every entry of the window 2E <= 2K - 2."""
    comm = dH.commutator(X)
    row, amp = next(iter(Y.cols[space.vacuum].items()))
    c = Fraction(comm.cols[space.vacuum].get(row, 0), -2 * p * amp * d)
    window = space.states_below(2 * space.K - 2)
    res = linear(space, (1, comm), (2 * p * c * d, Y))
    assert res.max_entry(set(window), window)[0] == 0
    return c


@pytest.mark.parametrize("params", MODELS)
def test_block_coefficients_from_the_lab(params):
    # the lab's coefficients at the engine's float gamma1, taken exactly,
    # against A = diag(1 - gamma1, 1) and B = p^2 diag(v_f^2 (1 + gamma1),
    # v_p^2) inside the coupled modes, and the bare ones outside
    assert mode_count(params.L, params.a) == 1
    gamma1 = Fraction(solve_closed_form(params).couplings.gamma1)
    space = build_space(3)
    dH = scaled_hamiltonian(space, gamma1, 1)
    d = gamma1.denominator
    for m, coupled in ((1, 1), (2, 0)):
        Jp, Jm = density_op(space, +1, m), density_op(space, -1, m)
        phi, pi = Jp + Jm, Jp - Jm
        a = block_coefficient(space, dH, d, phi, pi, m)
        b = block_coefficient(space, dH, d, pi, phi, m)
        assert (a, b) == (1 - coupled * gamma1, 1 + coupled * gamma1)
        p = 2 * math.pi / params.L * m
        blocks = block_matrices(params, p)
        assert blocks.A[0][0] == float(a)
        assert math.isclose(blocks.B[0][0], p * p * float(b), rel_tol=1e-15)


@pytest.mark.parametrize("params", MODELS)
def test_charge_energy_from_the_lab(params):
    # <Omega_Q| H |Omega_Q> on each sector's lowest state, times
    # pi v_F / L, against the base energies of the m_p0 = 0 sectors
    sol = solve_closed_form(params)
    gamma1 = Fraction(sol.couplings.gamma1)
    space = build_space(3)
    dH = scaled_hamiltonian(space, gamma1, 1)
    lowest = {}
    for mask in space.states_below(8):
        q = (space.charge(mask, +1), space.charge(mask, -1))
        if q[0] * q[0] + q[1] * q[1] == space.twice_energy(mask):
            lowest[q] = Fraction(dH.cols[mask].get(mask, 0),
                                 gamma1.denominator)
    assert len(lowest) == 25
    scale = math.pi * params.v_f / params.L
    engine = {(qp, qm): e for qp, qm, mp0, e in _sectors(
        params, sol, 13 * scale) if mp0 == 0 and (qp, qm) in lowest}
    assert engine.keys() == lowest.keys()
    for (qp, qm), lab in lowest.items():
        assert lab == qp * qp + qm * qm + 2 * gamma1 * qp * qm
        assert math.isclose(engine[qp, qm], float(lab) * scale,
                            rel_tol=1e-14), (qp, qm)
