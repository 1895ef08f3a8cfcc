import gc
import math
import time

import numpy as np
import pytest

from fermiphon import ModelParams, derived_couplings, momentum_grid
from fermiphon.bogoliubov import (block_matrices, diagonalize_numeric,
                                  solve_closed_form, spectrum)
from fermiphon.errors import DegenerateBranches, GridTooSmall, ZeroMode
from fermiphon.focklab import degeneracy_counts

TWO_PI = 2.0 * math.pi


def stable_sample(rng, a=0.02, L=50.0):
    """One random parameter point inside the stability region."""
    while True:
        v_f = rng.uniform(0.5, 3.0)
        v_p = rng.uniform(0.05, 0.95) * v_f
        g1 = rng.uniform(-0.95, 0.95)
        lam = g1 * TWO_PI * v_f
        g2 = rng.uniform(-0.98, 0.98) * math.sqrt(1.0 + g1)
        g = g2 * v_p * math.sqrt(math.pi * v_f)
        params = ModelParams(v_f=v_f, v_p=v_p, lam=lam, g=g, a=a, L=L)
        if derived_couplings(params).W > 1e-8 * v_f * v_f:
            return params


def test_block_matrices_outside_cutoff(generic_params):
    p = 2.0 * math.pi / generic_params.a  # |p| > pi / a
    blocks = block_matrices(generic_params, p)
    assert np.allclose(blocks.A, np.eye(2))
    assert np.allclose(blocks.C, np.diag([p**2 * 1.0**2, p**2 * 0.3**2]))


def test_block_matrices_inside(generic_params):
    cpl = derived_couplings(generic_params)
    p = TWO_PI / generic_params.L
    C = block_matrices(generic_params, p).C
    g1, g2 = cpl.gamma1, cpl.gamma2
    vf, vp = 1.0, 0.3
    expect = p * p * np.array(
        [[vf**2 * (1 - g1**2), vf * vp * g2 * math.sqrt(1 - g1)],
         [vf * vp * g2 * math.sqrt(1 - g1), vp**2]])
    assert np.allclose(C, expect, rtol=1e-14, atol=0)


def test_block_matrices_decoupled():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.0, a=0.05, L=20.0)
    C = block_matrices(params, 0.5).C
    assert C[0, 1] == 0 and C[1, 0] == 0
    with pytest.raises(ZeroMode):
        block_matrices(params, 0.0)


def test_numeric_decoupled_frequencies():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.0, a=0.05, L=20.0)
    g1 = derived_couplings(params).gamma1
    p = 0.7
    d = diagonalize_numeric(params, p)
    assert math.isclose(d["omega_f"], math.sqrt(1 - g1 * g1) * p, rel_tol=1e-14)
    assert math.isclose(d["omega_p"], 0.3 * p, rel_tol=1e-14)


def test_numeric_free_is_trivial(free_params):
    d = diagonalize_numeric(free_params, 0.3)
    assert np.allclose(d["curly_c"], np.eye(2), atol=1e-14)
    assert np.allclose(d["curly_s"], np.zeros((2, 2)), atol=1e-14)


def test_numeric_consistency_rows(generic_params):
    d = diagonalize_numeric(generic_params, 0.5)
    rows = np.sum(d["curly_c"]**2 - d["curly_s"]**2, axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-12


def test_degenerate_branches_rejected():
    # tune v_p so the two branches collide at gamma2 = 0
    params = ModelParams(v_f=1.0, v_p=math.sqrt(1 - 0.25) - 1e-12, lam=math.pi,
                         g=0.0, a=0.05, L=20.0)
    with pytest.raises(DegenerateBranches):
        diagonalize_numeric(params, 0.5)
    with pytest.raises(DegenerateBranches):
        solve_closed_form(params)


def test_closed_form_free(free_params):
    sol = solve_closed_form(free_params)
    assert (sol.vtilde_f, sol.vtilde_p) == (1.0, 0.3)
    assert (sol.rho_f, sol.sigma_f, sol.rho_p, sol.sigma_p) == (1, 0, 0, 0)
    assert sol.e0 == 0.0


def test_closed_form_thirring_limit():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=math.pi, g=0.0, a=0.01, L=100.0)
    sol = solve_closed_form(params)
    vt = math.sqrt(1 - 0.25)
    assert math.isclose(sol.vtilde_f, vt, rel_tol=1e-15)
    assert sol.vtilde_p == 0.3
    assert math.isclose(sol.rho_f, math.sqrt((1 + vt) / (2 * vt)), rel_tol=1e-15)
    assert math.isclose(sol.sigma_f, math.sqrt((1 - vt) / (2 * vt)), rel_tol=1e-15)
    assert sol.rho_p == 0.0 and sol.sigma_p == 0.0
    # lambda < 0 flips the sigma_F sign
    sol_neg = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=-math.pi,
                                            g=0.0, a=0.01, L=100.0))
    assert sol_neg.sigma_f < 0


def test_e0_two_mode_oracle():
    # L = 2 pi, a = pi/2 -> n_a = 2; direct sum over p in {+-1, +-2}
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=math.pi / 2,
                         L=TWO_PI)
    sol = solve_closed_form(params)
    dv = sol.vtilde_f - 1.0 + sol.vtilde_p - 0.3
    direct = 0.5 * sum(dv * abs(m) for m in (-2, -1, 1, 2))
    assert math.isclose(sol.e0, direct, rel_tol=1e-14)
    assert math.isclose(sol.e0, 3.0 * dv, rel_tol=1e-14)


def test_ground_state_energy_examples():
    free = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0,
                                         a=0.01, L=100.0))
    assert free.e0 == 0.0
    # n_a = 1 at L = 2 pi, a = pi: single-mode sum
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=math.pi, L=TWO_PI)
    sol = solve_closed_form(params)
    dv = sol.vtilde_f - 1.0 + sol.vtilde_p - 0.3
    assert math.isclose(sol.e0, dv, rel_tol=1e-14)
    # halving a roughly quadruples E0 (a << L)
    p1 = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=1e-3, L=100.0)
    p2 = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=5e-4, L=100.0)
    e1 = solve_closed_form(p1).e0
    e2 = solve_closed_form(p2).e0
    assert math.isclose(e2 / e1, 4.0, rel_tol=5e-4)


def test_monotone_g_to_zero_limit():
    # within the restricted region the solution converges to the decoupled
    # formulas as g -> 0, monotonically over g = 10^-1 .. 10^-6
    base = dict(v_f=1.0, v_p=0.3, lam=1.0, a=0.01, L=100.0)
    target = solve_closed_form(ModelParams(g=0.0, **base))
    gaps = []
    for k in range(1, 7):
        sol = solve_closed_form(ModelParams(g=10.0**-k, **base))
        gaps.append(max(
            abs(sol.vtilde_f - target.vtilde_f),
            abs(sol.vtilde_p - target.vtilde_p),
            abs(sol.rho_f - target.rho_f), abs(sol.sigma_f - target.sigma_f),
            abs(sol.rho_p - target.rho_p), abs(sol.sigma_p - target.sigma_p)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


def test_closed_vs_numeric_sample():
    rng = np.random.default_rng(42)
    for _ in range(100):
        params = stable_sample(rng)
        sol = solve_closed_form(params)
        p = 3 * TWO_PI / params.L
        d = diagonalize_numeric(params, p)
        assert abs(d["omega_f"] / p - sol.vtilde_f) < 1e-10
        assert abs(d["omega_p"] / p - sol.vtilde_p) < 1e-10
        assert abs(d["curly_c"][0, 0] - sol.rho_f) < 1e-10
        assert abs(d["curly_c"][0, 1] - sol.rho_p) < 1e-10
        assert abs(-d["curly_s"][0, 0] - sol.sigma_f) < 1e-10
        assert abs(-d["curly_s"][0, 1] - sol.sigma_p) < 1e-10


def test_spectrum_charged_levels():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=math.pi / 2,
                         L=TWO_PI)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=TWO_PI, K=12, a=math.pi / 2)
    g1 = sol.couplings.gamma1
    entries = spectrum(params, sol, 1.2, grid)
    assert entries[0].q_plus == 0 and entries[0].q_minus == 0
    assert entries[0].energy == sol.e0
    assert entries[0].occupations == ()
    # lowest charged excitations at pi v_f / L
    charged = [e for e in entries
               if abs(e.q_plus) + abs(e.q_minus) == 1 and not e.occupations
               and e.m_p0 == 0]
    assert len(charged) == 4
    for e in charged:
        assert math.isclose(e.energy - sol.e0, 0.5, rel_tol=1e-12)
    # (1, 1) vs (1, -1) split by 4 gamma1 pi v_f / L
    pair = {(e.q_plus, e.q_minus): e.energy - sol.e0 for e in entries
            if not e.occupations and e.m_p0 == 0}
    assert math.isclose(pair[(1, 1)], (2 + 2 * g1) * 0.5, rel_tol=1e-12)
    assert math.isclose(pair[(1, -1)], (2 - 2 * g1) * 0.5, rel_tol=1e-12)


def test_spectrum_leaves_no_garbage():
    # nothing cyclic outlives the call: the unsorted level list is freed by
    # reference counting as soon as spectrum returns
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.05, L=20.0)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=params.L, K=40, a=params.a)
    gc.collect()
    gc.disable()
    try:
        entries = spectrum(params, sol, 1.2, grid)
        freed = gc.collect()
    finally:
        gc.enable()
    assert len(entries) > 60000
    assert freed < 10


def test_spectrum_charge_rows_stay_near_their_sectors():
    # gamma1 = 1 - 1e-14 stretches the charge sectors along q+ = -q-:
    # qmax = 5047, so the (2 qmax + 1)^2 square holds 1e8 pairs, but the
    # 7145 levels lie in a thin band that each q+ row scans alone
    params = ModelParams(v_f=1.0, v_p=0.3, lam=TWO_PI * (1 - 1e-14), g=0.0,
                         a=0.05, L=20.0)
    sol = solve_closed_form(params)
    e_max = 0.9 * sol.vtilde_f * TWO_PI / params.L
    start = time.perf_counter()
    entries = spectrum(params, sol, e_max,
                       momentum_grid(L=params.L, K=8, a=params.a))
    assert time.perf_counter() - start < 2.0
    assert len(entries) == 7145
    assert all(not e.occupations and e.m_p0 == 0 for e in entries)


def test_spectrum_grid_too_small():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=math.pi / 2,
                         L=TWO_PI)
    sol = solve_closed_form(params)
    with pytest.raises(GridTooSmall):
        spectrum(params, sol, 1.2, momentum_grid(L=TWO_PI, K=2, a=math.pi / 2))


def test_free_spectrum_matches_fock_ladder(space_k3):
    # free case: fermion-sector levels match fock-lab degeneracies, with the
    # free phonon ladder on top
    params = ModelParams(v_f=1.0, v_p=0.25, lam=0.0, g=0.0, a=math.pi / 2,
                         L=TWO_PI, omega0=0.25)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=TWO_PI, K=16, a=math.pi / 2)
    e_max = 2.0
    entries = spectrum(params, sol, e_max, grid)

    counts = degeneracy_counts(space_k3, 2)

    def fermion_count(e):
        from fractions import Fraction
        return counts.get(Fraction(e).limit_denominator(4), (0, 0))[0]

    # collapse the phonon labels: count spectrum entries with no phonon
    # excitations, grouped by fermion-sector energy
    fermionic = {}
    for e in entries:
        if e.m_p0 or any(fl == "P" for fl, _m, _n in e.occupations):
            continue
        key = round((e.energy - sol.e0) / 0.5)  # units of pi v_f / L
        fermionic[key] = fermionic.get(key, 0) + 1
    for key, n in fermionic.items():
        assert n == fermion_count(key / 2.0), key
