import cmath
import math

import numpy as np
import pytest

from fermiphon import ModelParams
from fermiphon.bogoliubov import BogoliubovSolution, solve_closed_form
from fermiphon.correlators import (CorrelatorSpec, InsertionPoint,
                                   exponents, free_finite_L, klein_sign,
                                   npoint_continuum)
from fermiphon.errors import BadArgument
from oracles import (SelectionViolated, SingularConfiguration,
                     cauchy_residual, order_correlator, regulated_power,
                     sum_rules, two_point)


@pytest.fixture(scope="module")
def free_sol():
    return solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0,
                                         a=0.05, L=20.0))


@pytest.fixture(scope="module")
def coupled_sol():
    return solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2,
                                         a=0.05, L=20.0))


def reorder_oracle(word):
    """Stepwise reduction of a Klein word with the power-counting rules:
    adjacent cross-chirality swaps contribute (-1)^(w w'); the VEV is the
    delta on zero net winding per chirality."""
    letters = [(r, q * r) for r, q in word]
    sign = 1
    for i in range(len(letters)):
        for j in range(len(letters) - 1, i, -1):
            if letters[j][0] == +1 and letters[j - 1][0] == -1:
                if (letters[j][1] * letters[j - 1][1]) % 2:
                    sign = -sign
                letters[j], letters[j - 1] = letters[j - 1], letters[j]
    if sum(w for r, w in letters if r == +1) or \
       sum(w for r, w in letters if r == -1):
        return 0
    return sign


def test_klein_sign_examples():
    assert klein_sign([(+1, +1), (+1, -1)]) == +1
    assert klein_sign([(-1, +1), (-1, -1)]) == +1
    assert klein_sign([(+1, +1), (-1, -1)]) == 0
    assert klein_sign([(+1, -1), (-1, +1), (-1, -1), (+1, +1)]) == +1
    assert klein_sign([(+1, +1), (-1, +1), (+1, -1), (-1, -1)]) == -1


def test_klein_sign_matches_reorder_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = rng.integers(1, 9)
        word = [(int(rng.choice((1, -1))), int(rng.choice((1, -1))))
                for _ in range(n)]
        assert klein_sign(word) == reorder_oracle(word)


def test_klein_sign_same_chirality_four_factor():
    # all-equal-chirality balanced word: the reordering rules give the plain
    # product of powers, R^+1 R^+1 R^-1 R^-1 = I, hence VEV +1 (a naive
    # two-point pairing sum would give 0 here)
    for r in (+1, -1):
        word = [(r, +1), (r, +1), (r, -1), (r, -1)]
        assert klein_sign(word) == +1
        assert reorder_oracle(word) == +1


def test_sum_rules():
    assert sum_rules([(+1, +1), (+1, -1)]) == {"same": -1, "cross": 0}
    word4 = [(+1, -1), (-1, +1), (-1, -1), (+1, +1)]
    assert sum_rules(word4) == {"same": -2, "cross": 0}
    with pytest.raises(SelectionViolated):
        sum_rules([(+1, +1), (+1, +1)])


def test_regulated_power_examples():
    assert regulated_power(1.0, +1, 2.0, 0.0, 1.0, 0.0, 1e-8) == 1.0
    val = regulated_power(1.0, +1, 2.0, 0.0, 1.0, 1.0, 1e-6)
    assert abs(val - 1j / (2.0 + 1e-6j)) < 1e-14
    # Cauchy sequence as the regulator shrinks (off the light cone)
    prev = None
    vals = [regulated_power(1.0, +1, 0.7, 0.3, 1.0, 0.37, 10.0**-k)
            for k in range(3, 10)]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))


def test_free_finite_L_two_point_kernel():
    reg = 1e-2
    L = 17.0
    x1, x2 = 2.2, -1.3
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x1, 0.0),
                    InsertionPoint(+1, +1, x2, 0.0)),
        regulator=reg)
    val = free_finite_L(spec, L)
    u = (math.pi / L) * ((x1 - x2) + 1j * reg)
    assert abs(val - 1j / (2 * L * cmath.sin(u))) < 1e-15
    # L -> infinity approaches the 1 / 2 pi form
    big = free_finite_L(spec, 1e7)
    lim = 1j / (2 * math.pi * ((x1 - x2) + 1j * reg))
    assert abs(big - lim) / abs(lim) < 1e-9
    # selection violation returns 0
    bad = CorrelatorSpec(insertions=(InsertionPoint(+1, -1, x1, 0.0),
                                     InsertionPoint(-1, +1, x2, 0.0)),
                         regulator=reg)
    assert free_finite_L(bad, L) == 0


def test_free_finite_L_momentum_oracle():
    # (1/L) sum_{rk>0} e^{ik(x1-x2)} e^{-reg |k|}, summed term by term
    L, reg = 12.0, 0.02
    x1, x2 = 1.7, -0.4
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x1, 0.0),
                    InsertionPoint(+1, +1, x2, 0.0)),
        regulator=reg)
    val = free_finite_L(spec, L)
    series = 0.0j
    m = 0
    while True:
        k = (2 * math.pi / L) * (m + 0.5)
        term = cmath.exp(1j * k * (x1 - x2) - reg * k) / L
        series += term
        m += 1
        if abs(term) < 1e-17:
            break
    assert abs(val - series) < 1e-10 * abs(val)


def test_two_point_free_collapse(free_sol):
    reg = 1e-7
    for r in (+1, -1):
        val = two_point(r, 1.4, 0.6, free_sol, ell=1.0, regulator=reg)
        expect = 1j / (2 * math.pi * (r * 1.4 - 0.6 + 1j * reg))
        assert abs(val - expect) / abs(expect) < 1e-12


def test_two_point_thirring_exponents():
    # g = 0: the exponents are the decoupled-limit rho_F^2, sigma_F^2
    sol = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=math.pi, g=0.0,
                                        a=0.05, L=20.0))
    vt = math.sqrt(1 - 0.25)
    rho2 = (1 + vt) / (2 * vt)
    sigma2 = (1 - vt) / (2 * vt)
    x, t, reg = 1.1, 0.2, 1e-8
    val = two_point(+1, x, t, sol, 1.0, reg)
    expect = (1.0 / (2 * math.pi)) \
        * cmath.exp(rho2 * cmath.log(1j / (x - vt * t + 1j * reg))) \
        * cmath.exp(sigma2 * cmath.log(1j / (-x - vt * t + 1j * reg)))
    assert abs(val - expect) / abs(expect) < 1e-13


def test_two_point_equals_npoint(coupled_sol):
    x, t = 0.8, -0.35
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x, t),
                    InsertionPoint(+1, +1, 0.0, 0.0)),
        ell=1.0, regulator=1e-8)
    a = two_point(+1, x, t, coupled_sol, 1.0, 1e-8)
    b = npoint_continuum(spec, coupled_sol)
    assert abs(a - b) / abs(b) < 1e-12


def test_two_point_hermiticity(coupled_sol):
    reg = 1e-6
    for (x, t) in ((0.9, 0.4), (-1.3, 0.7), (0.5, -0.2)):
        a = two_point(+1, x, t, coupled_sol, 1.0, reg)
        b = two_point(+1, -x, -t, coupled_sol, 1.0, reg)
        assert abs(a - b.conjugate()) < 1e-12 * abs(a)


def test_npoint_free_matches_finite_L_limit(free_sol):
    # free equal-time N-point equals the L -> infinity finite-L form
    reg = 1e-9
    xs = (1.9, -0.3, 0.8, -1.5)
    qs = (+1, -1, +1, -1)
    ins = tuple(InsertionPoint(+1, q, x, 0.0) for q, x in zip(qs, xs))
    spec = CorrelatorSpec(insertions=ins, ell=1.0, regulator=reg)
    val = npoint_continuum(spec, free_sol)
    sign = klein_sign([(p.r, p.q) for p in ins])
    expect = sign * (1.0 / (2 * math.pi)) ** 2
    for n in range(4):
        for m in range(n + 1, 4):
            base = 1j / ((xs[n] - xs[m]) + 1j * reg)
            expect *= cmath.exp(-qs[n] * qs[m] * cmath.log(base))
    assert abs(val - expect) / abs(expect) < 1e-12


def test_npoint_selection_zero(coupled_sol):
    spec = CorrelatorSpec(insertions=(InsertionPoint(+1, +1, 0.5, 0.0),
                                      InsertionPoint(+1, +1, -0.5, 0.0)),
                          regulator=1e-8)
    assert npoint_continuum(spec, coupled_sol) == 0


def test_order_correlator(free_sol, coupled_sol):
    # free case: both kinds reduce to the single-flavor exponent-1 form
    reg = 1e-8
    for kind in ("CDW", "SC"):
        val = order_correlator(kind, 1.5, 0.3, free_sol, 1.0, reg)
        expect = (1.0 / (2 * math.pi)) ** 2 \
            / (1.5**2 - (0.3 - 1j * reg) ** 2)
        assert abs(val - expect) / abs(expect) < 1e-12
    # t = 0: real and positive
    for kind in ("CDW", "SC"):
        val = order_correlator(kind, 0.9, 0.0, coupled_sol, 1.0, reg)
        assert abs(val.imag) < 1e-10 * abs(val)
        assert val.real > 0
    # CDW / SC ratio at fixed (x, 0) follows the exponent difference
    tab = exponents(coupled_sol)
    x = 2.7
    ratio = (order_correlator("CDW", x, 0.0, coupled_sol, 1.0, reg)
             / order_correlator("SC", x, 0.0, coupled_sol, 1.0, reg))
    expect = (x * x) ** (tab.delta_sc - tab.delta_cdw)
    assert abs(ratio - expect) / abs(expect) < 1e-8
    with pytest.raises(BadArgument):
        order_correlator("XYZ", 1.0, 0.0, coupled_sol)


def test_exponents(free_sol):
    tab = exponents(free_sol)
    assert tab.delta_cdw == 1.0 and tab.delta_sc == 1.0
    assert tab.fermion_dimension == 1.0
    # g = 0, gamma1 = 1/2: Delta_CDW = sqrt(1/3), Delta_SC = sqrt(3)
    sol = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=math.pi, g=0.0,
                                        a=0.05, L=20.0))
    tab = exponents(sol)
    assert math.isclose(tab.delta_cdw, math.sqrt(1.0 / 3.0), rel_tol=1e-13)
    assert math.isclose(tab.delta_sc, math.sqrt(3.0), rel_tol=1e-13)


def test_exponent_products_consistent(coupled_sol):
    tab = exponents(coupled_sol)
    sol = coupled_sol
    lhs = tab.delta_cdw * tab.delta_sc
    rhs = (sum((sol.rho(fl) - sol.sigma(fl)) ** 2 for fl in ("F", "P"))
           * sum((sol.rho(fl) + sol.sigma(fl)) ** 2 for fl in ("F", "P")))
    assert abs(lhs - rhs) < 1e-12


def test_exponent_sum_rule_random_words(coupled_sol):
    # -sum_{n<m} q_n q_m sum_{r,X} c = (N/2)(1 + 2 sigma_F^2 + 2 sigma_P^2)
    rng = np.random.default_rng(23)
    sol = coupled_sol
    ssum = sol.sigma_f**2 + sol.sigma_p**2
    c_same = 1.0 + 2.0 * ssum
    c_cross = 2.0 * (sol.rho_f * sol.sigma_f + sol.rho_p * sol.sigma_p)
    found = 0
    while found < 50:
        n = int(rng.choice((2, 4, 6)))
        word = [(int(rng.choice((1, -1))), int(rng.choice((1, -1))))
                for _ in range(n)]
        if klein_sign(word) == 0:
            continue
        found += 1
        rules = sum_rules(word)
        total = -(rules["same"] * c_same + rules["cross"] * c_cross)
        assert abs(total - (n / 2.0) * (1.0 + 2.0 * ssum)) < 1e-12
        assert rules["same"] == -n // 2
        assert rules["cross"] == 0


def test_degenerate_reduction():
    # a hand-built solution with rho_P = sigma_P = 0 makes every N-point
    # function independent of vtilde_P
    base = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=math.pi,
                                         g=0.0, a=0.05, L=20.0))
    tweaked = BogoliubovSolution(
        params=base.params, couplings=base.couplings,
        vtilde_f=base.vtilde_f, vtilde_p=0.123456,
        rho_f=base.rho_f, rho_p=0.0, sigma_f=base.sigma_f, sigma_p=0.0,
        e0=base.e0)
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, 0.7, 0.1),
                    InsertionPoint(-1, -1, -0.4, 0.0),
                    InsertionPoint(-1, +1, 1.2, -0.2),
                    InsertionPoint(+1, +1, 0.0, 0.0)),
        ell=1.0, regulator=1e-8)
    assert npoint_continuum(spec, base) == npoint_continuum(spec, tweaked)


def test_cauchy_examples():
    assert cauchy_residual([0.4], [1.1]) == 0.0
    assert cauchy_residual([0.3, 1.1], [0.5, 2.0]) < 1e-12
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        U = rng.uniform(0.0, math.pi, 5)
        V = rng.uniform(0.0, math.pi, 5)
        # keep the kernel well conditioned so the absolute residual is
        # meaningful (near-coincident arguments blow up both sides)
        if min(abs(math.sin(u - v)) for u in U for v in V) < 0.1:
            continue
        res = cauchy_residual(list(U), list(V))
        done += 1
        assert res < 1e-10
    with pytest.raises(SingularConfiguration):
        cauchy_residual([0.3], [0.3])
    with pytest.raises(BadArgument):
        cauchy_residual([0.1] * 9, [0.2] * 9)
