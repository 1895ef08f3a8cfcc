"""The zero-mode phase of `field_vertex`, derived from the fermions.

With v_F = 1 and the lab's units 2 pi / L = 1, the lambda term adds
gamma1 sum_{|m| <= M} J_+(m) J_-(-m) to H0, M playing n_a; its m = 0 term is
Q_+ Q_-, which `bogoliubov._sectors` prices as 2 gamma1 q_+ q_- (units
pi v_F / L).  In units of pi / L, H = 2 H0 + 2 gamma1 sum_{|m| <= M} ...,
and the lab shows exactly

    [H, R_r] = r {Q_r, R_r} + 2 gamma1 r R_r Q_{-r}.

R_r raises Q_r by r, so e^{iHt} R_r^{qr} e^{-iHt} = R_r^{qr} e^{i t A} with A
linear in the charges: Q_r enters with q r 2 r = 2 q and Q_{-r} with
q r 2 gamma1 r = 2 q gamma1, times pi v_F / L.  `field_vertex`'s letter
(r, q) is R_r^{qr}, and its zero_c holds the exponent's coefficients of
(Q_+, Q_-).
"""

import math
import random
from fractions import Fraction

import pytest

from fermiphon import ModelParams
from fermiphon.bogoliubov import solve_closed_form
from fermiphon.focklab import build_space, charge_op, density_op, klein_factor
from fermiphon.focklab.operators import linear, twice_hamiltonian
from fermiphon.params import momentum_grid, validate_params
from fermiphon.vertex import field_vertex


def interacting_hamiltonian(space, gamma1, M):
    """H = 2 H0 + 2 gamma1 sum_{|m| <= M} J_+(m) J_-(-m), units pi / L."""
    return linear(space, (1, twice_hamiltonian(space)), *[
        (2 * gamma1, density_op(space, +1, m) @ density_op(space, -1, -m))
        for m in range(-M, M + 1)])


def klein_residual(space, H, r, coefficient):
    """[H, R_r] - r {Q_r, R_r} - coefficient R_r Q_{-r}."""
    R = klein_factor(space, r)
    return (H.commutator(R) - charge_op(space, r).anticommutator(R) * r
            - (R @ charge_op(space, -r)) * coefficient)


@pytest.mark.parametrize("gamma1", [Fraction(1, 3), Fraction(-2, 5)])
@pytest.mark.parametrize("K, M", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_klein_commutator_with_interaction(K, M, gamma1):
    # H moves a fermion by up to M steps, so from 2E = 2K - 1 - 2M a column
    # of R_r H can reach chirality r's top mode, which R_r shifts out of the
    # window: the truncation leaves that column undefined.  Every defined
    # column of the window 2E <= 2K - 2 is exact; dropping the gamma1 term
    # leaves 2 |gamma1| (times K - 2) and flipping its sign twice that.
    space = build_space(K)
    H = interacting_hamiltonian(space, gamma1, M)
    window = space.states_below(2 * K - 2)
    rows = set(window)
    for r in (+1, -1):
        exact, dropped, flipped = (klein_residual(space, H, r, c * gamma1 * r)
                                   for c in (2, 0, -2))
        undefined = [c for c in window if exact.cols[c] is None]
        assert min(map(space.twice_energy, undefined)) == 2 * K - 1 - 2 * M
        assert exact.max_entry(rows, window)[0] == 0
        assert dropped.max_entry(rows, window)[0] == 2 * abs(gamma1) * (K - 2)
        assert flipped.max_entry(rows, window)[0] == 4 * abs(gamma1) * (K - 2)


def _random_model(seed):
    rng = random.Random(f"zero-mode:{seed}")
    v_f, v_p = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
    L = rng.uniform(5.0, 50.0)
    gamma1 = rng.choice((1, -1)) * rng.uniform(0.1, 0.6)
    return validate_params(ModelParams(
        v_f=v_f, v_p=v_p, lam=gamma1 * 2 * math.pi * v_f,
        g=0.3 * v_p * math.sqrt(math.pi * v_f), a=L / 10, L=L)), rng


def _lab_coefficients(gamma1, r):
    """(alpha, beta) with [H, R_r] = alpha r {Q_r, R_r} + beta R_r Q_{-r},
    read off at K = 3, M = 1 from the vacuum (Q = 0) and from the state
    with one chirality -r fermion at |nu| = 1/2 (Q_{-r} = 1, Q_r = 0);
    R_r raises Q_r by r, so {Q_r, R_r} = R_r (2 r Q_r + 1)."""
    space = build_space(3)
    R = klein_factor(space, r)
    comm = interacting_hamiltonian(space, gamma1, 1).commutator(R)
    vac = space.vacuum
    row, sign = R.image(vac)
    alpha = Fraction(comm.cols[vac][row], sign)
    one = vac ^ 1 << space.positions[(-r, -r)]
    assert (space.charge(one, r), space.charge(one, -r)) == (0, 1)
    row, sign = R.image(one)
    assert set(comm.cols[one]) == {row}
    beta = Fraction(comm.cols[one][row], sign) - alpha
    return alpha, beta


def _phase_coefficients(seed, r, q):
    """The t-parts of zero_c's (Q_r, Q_{-r}) coefficients, and those the
    lab derives at the engine's float gamma1, both in physical units."""
    params, rng = _random_model(seed)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=params.L, K=8, a=params.a)
    x, t = rng.uniform(-3, 3), rng.uniform(0.2, 3)
    own, other = (0, 1) if r == +1 else (1, 0)
    at_t = field_vertex(r, q, x, t, 1e-3, sol, grid).zero_c
    at_0 = field_vertex(r, q, x, 0.0, 1e-3, sol, grid).zero_c
    engine = ((at_t[own] - at_0[own]).real, (at_t[other] - at_0[other]).real)
    alpha, beta = _lab_coefficients(Fraction(sol.couplings.gamma1), r)
    assert alpha == 1 and beta == 2 * Fraction(sol.couplings.gamma1) * r
    unit = math.pi * params.v_f * t / params.L
    derived = (float(q * r * 2 * alpha * r) * unit, float(q * r * beta) * unit)
    return engine, derived


@pytest.mark.parametrize("r, q", [(+1, +1), (+1, -1), (-1, +1), (-1, -1)])
@pytest.mark.parametrize("seed", range(2))
def test_field_vertex_zero_mode_phase(seed, r, q):
    # the own-chirality coefficient and the size of the gamma1 v_F t Q_{-r}
    # term agree; its sign does not (the known failure below)
    (own, other), (want_own, want_other) = _phase_coefficients(seed, r, q)
    assert math.isclose(own, want_own, rel_tol=1e-12)
    assert math.isclose(abs(other), abs(want_other), rel_tol=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "field_vertex's gamma1 v_F t Q_{-r} term has the sign of a charge "
    "energy with -2 gamma1 q_+ q_-, not the +2 gamma1 q_+ q_- that spectrum "
    "and the fermion Hamiltonian give"))
@pytest.mark.parametrize("r", [+1, -1])
def test_field_vertex_cross_charge_sign(r):
    (_own, other), (_want_own, want_other) = _phase_coefficients(0, r, +1)
    assert math.isclose(other, want_other, rel_tol=1e-12)
