import math

import numpy as np
import pytest

from fermiphon import (ModelParams, derived_couplings, momentum_grid,
                       validate_params)
from fermiphon.bogoliubov import block_matrices, solve_closed_form, spectrum
from fermiphon.errors import BadGeometry, GridTooSmall, UnstableCouplings
from fermiphon.vertex import field_vertex

TWO_PI = 2.0 * math.pi


def test_free_case_accepted(free_params):
    assert validate_params(free_params) is free_params


def test_gamma1_boundary_rejected():
    # lambda = 2 pi v_f sits exactly on the stability boundary
    with pytest.raises(UnstableCouplings):
        validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=TWO_PI, g=0.0,
                                    a=0.01, L=100.0, omega0=0.1))


def test_gamma2_boundary_rejected():
    # 2 (g / v_p)^2 = 2 pi v_f + lambda violates the strict inequality
    v_p = 0.3
    g = v_p * math.sqrt(math.pi * 1.0)
    with pytest.raises(UnstableCouplings):
        validate_params(ModelParams(v_f=1.0, v_p=v_p, lam=0.0, g=g,
                                    a=0.01, L=100.0, omega0=0.1))


def test_bad_geometry():
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1.0, v_p=1.5, lam=0.0, g=0.0,
                                    a=0.01, L=100.0, omega0=0.1))
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0,
                                    a=200.0, L=100.0, omega0=0.1))
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=float("nan"),
                                    g=0.0, a=0.01, L=100.0, omega0=0.1))
    # L / 2a = inf: the mode count n_a cannot be formed
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2,
                                    a=1e-300, L=1e10))
    # L / 2a is finite, the mode sum (2 pi / L) n_a (n_a + 1) behind E0 is not
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2,
                                    a=1e-200, L=1e100))
    # v_p sqrt(pi v_f), the scale of gamma2, underflows to 0
    with pytest.raises(BadGeometry):
        validate_params(ModelParams(v_f=1e-299, v_p=1e-300, lam=0.0, g=0.0,
                                    a=0.01, L=100.0, omega0=0.1))
    # the grid forms n_a as well: L / 2a = inf there is BadGeometry too,
    # not an OverflowError from floor(inf)
    with pytest.raises(BadGeometry):
        momentum_grid(L=1e300, K=1, a=1e-10)


def test_free_couplings_collapse(free_params):
    cpl = derived_couplings(free_params)
    assert cpl.gamma1 == 0.0
    assert cpl.gamma2 == 0.0
    assert math.isclose(cpl.W, 1.0 - 0.09, rel_tol=1e-15)


def test_gamma1_direct_substitution():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=math.pi, g=0.0, a=0.01,
                         L=100.0, omega0=0.1)
    assert math.isclose(derived_couplings(params).gamma1, 0.5, rel_tol=1e-15)


def test_w_matches_eigenvalue_gap():
    # oracle: W equals the eigenvalue gap of C(p) / p^2
    params = validate_params(ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2,
                                         a=0.01, L=100.0, omega0=0.1))
    cpl = derived_couplings(params)
    p = TWO_PI / params.L * 5
    C = block_matrices(params, p).C / p**2
    evals = np.linalg.eigvalsh(C)
    assert abs((evals[1] - evals[0]) - cpl.W) < 1e-12


def test_w_triangle_bound_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v_f = rng.uniform(0.2, 4.0)
        v_p = rng.uniform(0.05, 0.95) * v_f
        lam = rng.uniform(-3.0, 0.99) * TWO_PI * v_f / 2.0
        g1 = lam / (TWO_PI * v_f)
        g2 = rng.uniform(-0.99, 0.99) * math.sqrt(max(1.0 + g1, 0.0))
        g = g2 * v_p * math.sqrt(math.pi * v_f)
        try:
            params = validate_params(ModelParams(v_f=v_f, v_p=v_p, lam=lam,
                                                 g=g, a=0.01, L=10.0))
        except (UnstableCouplings, BadGeometry):
            continue
        cpl = derived_couplings(params)
        assert cpl.gamma1 < 1.0
        assert cpl.gamma2**2 < 1.0 + cpl.gamma1
        lower = abs(v_f**2 * (1.0 - cpl.gamma1**2) - v_p**2)
        assert cpl.W >= lower - 1e-12


def test_momentum_grid_unit():
    grid = momentum_grid(L=TWO_PI, K=2, a=math.pi / 2.0)
    assert grid.n_a == 2


def test_momentum_grid_na_values():
    assert momentum_grid(L=TWO_PI, K=1, a=math.pi).n_a == 1
    assert momentum_grid(L=10.0, K=3, a=0.5).n_a == 10


def test_momentum_grid_rejects():
    with pytest.raises(BadGeometry):
        momentum_grid(L=10.0, K=0, a=0.5)
    with pytest.raises(BadGeometry):
        momentum_grid(L=10.0, K=3, a=6.0)


def test_default_omega0_one_mode_spacing():
    params = ModelParams(v_f=1.0, v_p=0.4, lam=0.0, g=0.0, a=0.01, L=10.0)
    assert math.isclose(params.omega0, TWO_PI * 0.4 / 10.0, rel_tol=1e-15)


@pytest.mark.parametrize("L, a, n_a", [(7.0, 7.0 / 26, 13),
                                       (20.0, 20.0 / 58, 28)])
def test_tie_geometries_one_coupled_mode_set(L, a, n_a):
    # L / 2a rounds onto an integer: at L = 7 it is 13.0 and
    # 13 * 2 pi / L > pi / a in floats; at L = 20 it is 28.999... and
    # 29 * 2 pi / L <= pi / a.  E0, the spectrum, the 2x2 blocks and the
    # vertex engine must still couple the same modes m.
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=a, L=L)
    sol = solve_closed_form(params)
    spacing = TWO_PI / L
    # E0 = (1/2) sum_X (vtilde_X - v_X) (2 pi / L) n (n + 1); solve for n
    x = sol.e0 / (0.5 * (sol.vtilde_f - 1.0 + sol.vtilde_p - 0.3) * spacing)
    n_e0 = round((math.sqrt(1.0 + 4.0 * x) - 1.0) / 2.0)
    assert n_e0 == n_a and math.isclose(n_e0 * (n_e0 + 1), x, rel_tol=1e-9)
    vertex = field_vertex(+1, -1, 0.0, 0.0, 1e-3, sol,
                          momentum_grid(L=L, K=4, a=a))
    # a relative change of 1e-12 in a moves n_a across the tie; spectrum
    # refuses such a grid instead of pricing other modes than E0 counts
    (other,) = [g for g in (momentum_grid(L=L, K=4, a=a * (1 + s))
                            for s in (-1e-12, 1e-12)) if g.n_a != n_a]
    with pytest.raises(GridTooSmall, match="disagree"):
        spectrum(params, sol, 0.1, other)

    def spectrum_prices_f(m, energy):
        # With the grid ending at m - 1, spectrum refuses an e_max that one
        # F boson in mode m reaches, naming F; below that it names the
        # cheaper P mode m instead, so no level is ever enumerated.
        short = momentum_grid(L=L, K=m - 1, a=a)
        named_f = []
        for e_max in (energy * (1 + 1e-12), energy * (1 - 1e-12)):
            with pytest.raises(GridTooSmall) as exc:
                spectrum(params, sol, e_max, short)
            named_f.append("flavor F" in str(exc.value))
        return named_f == [True, False]

    for m in (n_a, n_a + 1):
        coupled = m <= n_e0
        level = spectrum_prices_f(m, sol.vtilde_f * m * spacing)
        assert level != spectrum_prices_f(m, 1.0 * m * spacing)
        assert level == coupled, m
        for p in (m * spacing, m * TWO_PI / L):
            assert (block_matrices(params, p).B[0, 1] != 0.0) == coupled, m
        assert (m <= vertex.n_a) == coupled, m
