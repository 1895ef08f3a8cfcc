import cmath
import math

import numpy as np
import pytest

from fermiphon import ModelParams, momentum_grid
from fermiphon.bogoliubov import solve_closed_form
from fermiphon.correlators import (CorrelatorSpec, InsertionPoint,
                                   free_finite_L, klein_sign)
from fermiphon.errors import BadRegulator, GridTooSmall
from fermiphon import vertex
from fermiphon.vertex import (EULER_GAMMA, NormalOrderedProduct,
                              field_vertex, finite_correlator,
                              normal_order_product, vacuum_expectation,
                              z_renorm, _bernoulli_ratios, _direct_rounding,
                              _e1, _e1_small, _log_sums, _DIRECT_SUM_MAX,
                              _E1_SERIES_MIN, _U)
from oracles import _channel_contraction, pair_contraction, two_point

L, A = 20.0, 0.05
TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def free_setup():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0, a=A, L=L)
    return params, solve_closed_form(params), momentum_grid(L=L, K=4, a=A)


@pytest.fixture(scope="module")
def coupled_setup():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=A, L=L)
    return params, solve_closed_form(params), momentum_grid(L=L, K=4, a=A)


def test_field_vertex_free_reduction(free_setup):
    # free case at t = 0: only the (r, F) channel survives, with the
    # coefficient pattern of the free regularized field, uniformly across
    # the pi/a boundary
    params, sol, grid = free_setup
    v = field_vertex(+1, -1, 0.7, 0.0, 1e-3, sol, grid)
    assert v.klein == ((+1, -1),)
    assert v.inside[(+1, "F")].amp == -1
    assert v.inside[(+1, "F")].u == 0.7
    assert v.outside[(+1, "F")].amp == -1
    assert v.outside[(+1, "F")].u == 0.7
    for ch in ((+1, "P"), (-1, "F"), (-1, "P")):
        assert v.inside[ch].amp == 0
    assert v.prefactor == 1.0 / math.sqrt(L)  # Z = 1 when sigma = 0
    with pytest.raises(BadRegulator):
        field_vertex(+1, -1, 0.7, 0.0, 0.0, sol, grid)


def test_grid_must_match_the_model(coupled_setup):
    # the model's a = 0.05 gives n_a = 200, a grid built with a = 0.1 has
    # n_a = 100; Z and E0 read the model, so the grid's split cannot be used
    params, sol, grid = coupled_setup
    wrong = momentum_grid(L=L, K=4, a=0.1)
    spec = CorrelatorSpec(insertions=(InsertionPoint(+1, -1, 0.5, 0.0),
                                      InsertionPoint(+1, +1, 0.0, 0.0)),
                          regulator=1e-3)
    with pytest.raises(GridTooSmall):
        finite_correlator(spec, params, sol, wrong)
    with pytest.raises(GridTooSmall):
        field_vertex(+1, -1, 0.5, 0.0, 1e-3, sol, wrong)
    with pytest.raises(GridTooSmall):
        field_vertex(+1, -1, 0.5, 0.0, 1e-3, sol,
                     momentum_grid(L=2.0 * L, K=4, a=2.0 * A))
    assert finite_correlator(spec, params, sol, grid)["value"] != 0


def test_field_vertex_time_dependence(coupled_setup):
    # mode p of channel (r, X) rides on x -+ r vtilde_X(p) t
    params, sol, grid = coupled_setup
    x, t = 0.4, 0.9
    v = field_vertex(+1, +1, x, t, 1e-3, sol, grid)
    assert math.isclose(v.inside[(+1, "F")].u, x - sol.vtilde_f * t)
    assert math.isclose(v.inside[(+1, "P")].u, x - sol.vtilde_p * t)
    assert math.isclose(v.inside[(-1, "F")].u, x + sol.vtilde_f * t)
    assert math.isclose(v.outside[(+1, "F")].u, x - params.v_f * t)
    # piecewise coefficients at the pi/a boundary
    assert math.isclose(v.inside[(+1, "F")].amp, sol.rho_f)
    assert v.outside[(+1, "F")].amp == 1
    assert math.isclose(v.inside[(-1, "P")].amp, -sol.sigma_p)
    assert v.outside[(-1, "P")].amp == 0


def test_channel_contraction_oracle(coupled_setup):
    # direct mode-sum oracle for one channel contraction
    params, sol, grid = coupled_setup
    v1 = field_vertex(+1, -1, 0.9, 0.2, 2e-3, sol, grid)
    v2 = field_vertex(+1, +1, -0.4, -0.1, 1e-3, sol, grid)
    s = TWO_PI / L
    for ch in ((+1, "F"), (-1, "P")):
        val, _mag = _channel_contraction(ch, v1, v2)
        rp = ch[0]
        brute = 0.0j
        for m in range(1, 40000):
            piece1 = v1.inside[ch] if m <= grid.n_a else v1.outside[ch]
            piece2 = v2.inside[ch] if m <= grid.n_a else v2.outside[ch]
            zeta = cmath.exp(s * m * (1j * rp * (piece1.u - piece2.u)
                                      - (piece1.eps + piece2.eps) / 2.0))
            brute += piece1.amp * piece2.amp * zeta / m
        assert abs(val - brute) < 1e-12


def test_pair_contraction_free_kernel(free_setup):
    # two free same-chirality fields at equal time reproduce the sine kernel
    params, sol, grid = free_setup
    eps1, eps2 = 1.5e-3, 0.5e-3
    x1, x2 = 1.1, -0.6
    q1, q2 = -1, +1
    v1 = field_vertex(+1, q1, x1, 0.0, eps1, sol, grid)
    v2 = field_vertex(+1, q2, x2, 0.0, eps2, sol, grid)
    c = pair_contraction(v1, v2)[0]
    u = (math.pi / L) * ((x1 - x2) + 0.5j * (eps1 + eps2))
    kernel = 1j * math.exp(math.pi * (eps1 + eps2) / (2 * L)) / (2 * cmath.sin(u))
    expect = kernel ** (-q1 * q2)
    assert abs(c - expect) / abs(expect) < 1e-13


def test_normal_order_product_basics(free_setup):
    params, sol, grid = free_setup
    v1 = field_vertex(+1, -1, 0.5, 0.0, 1e-3, sol, grid)
    single = normal_order_product([v1])
    assert single.prefactor == v1.prefactor
    # three factors: pairwise prefactor independent of evaluation order
    v2 = field_vertex(+1, +1, -0.5, 0.0, 1e-3, sol, grid)
    v3 = field_vertex(-1, +1, 0.2, 0.0, 1e-3, sol, grid)
    p123 = normal_order_product([v1, v2, v3]).prefactor
    direct = (v1.prefactor * v2.prefactor * v3.prefactor
              * pair_contraction(v1, v2)[0] * pair_contraction(v1, v3)[0]
              * pair_contraction(v2, v3)[0])
    assert abs(p123 - direct) < 1e-15 * abs(direct)


def test_vacuum_expectation_selection(free_setup):
    params, sol, grid = free_setup
    v1 = field_vertex(+1, -1, 0.5, 0.0, 1e-3, sol, grid)
    v3 = field_vertex(-1, +1, 0.2, 0.0, 1e-3, sol, grid)
    # opposite-chirality windings: zero unless both vanish
    assert vacuum_expectation(normal_order_product([v1, v3])) == 0
    assert vacuum_expectation(normal_order_product([v1])) == 0


def test_mutually_inverse_pair_norm(free_setup):
    # <psi(x) psi^dag(x)> at coincident points: the diagonal normalization
    # N_eps^2 / (2 pi eps) = 1 / (L (1 - e^{-2 pi eps / L})), a geometric
    # resummation of the log series
    params, sol, grid = free_setup
    eps = 2e-3
    x = 0.3
    va = field_vertex(+1, -1, x, 0.0, eps, sol, grid)
    vb = field_vertex(+1, +1, x, 0.0, eps, sol, grid)
    val = vacuum_expectation(normal_order_product([va, vb]))
    expect = 1.0 / (L * (1.0 - math.exp(-TWO_PI * eps / L)))
    assert abs(val - expect) / expect < 1e-13


def test_exchange_consistency(free_setup):
    # swapping two same-chirality factors flips the sign in the eps -> 0
    # limit at distinct points (CAR recovered through the sine kernel)
    params, sol, grid = free_setup
    x1, x2 = 1.0, -1.2
    for eps in (1e-2, 1e-3, 1e-4):
        v1 = field_vertex(+1, -1, x1, 0.0, eps, sol, grid)
        v2 = field_vertex(+1, +1, x2, 0.0, eps, sol, grid)
        a = vacuum_expectation(normal_order_product([v1, v2]))
        b = vacuum_expectation(normal_order_product([v2, v1]))
        assert abs(a / b + 1.0) < 6.0 * eps


def _klein_word_sign(word) -> int:
    """VEV sign of a Klein word of vertex letters (r, w) by stepwise
    reordering (von Delft & Schoeller, cond-mat/9805275): adjacent
    transpositions of letters on opposite chiralities contribute
    (-1)^(w w'); the reordered word must reduce to zero net winding per
    chirality.  Independent of correlators.klein_sign."""
    letters = list(word)
    sign = 1
    # bubble all + letters to the front
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i][0] == -1 and letters[i + 1][0] == +1:
                w1, w2 = letters[i][1], letters[i + 1][1]
                if (w1 * w2) % 2:
                    sign = -sign
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    net_plus = sum(w for r, w in letters if r == +1)
    net_minus = sum(w for r, w in letters if r == -1)
    if net_plus != 0 or net_minus != 0:
        return 0
    return sign


def test_klein_word_sign_matches_correlators():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = rng.integers(1, 9)
        word = [(int(rng.choice((1, -1))), int(rng.choice((1, -1))))
                for _ in range(n)]
        # the oracle reads windings w = q r; vertex letters are (r, q)
        windings = [(r, q * r) for r, q in word]
        assert _klein_word_sign(windings) == klein_sign(word)
        # the production path: vacuum_expectation on the same Klein word
        product = NormalOrderedProduct(prefactor=1.0 + 0.0j,
                                       klein=tuple(word), rounding=0.0)
        assert vacuum_expectation(product) == _klein_word_sign(windings)


def test_z_renorm(coupled_setup):
    params, sol, grid = coupled_setup
    # sigma = 0 gives Z = 1
    free = solve_closed_form(ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0,
                                         a=A, L=L))
    assert z_renorm(free.params, free, 0.0)["Z"] == 1.0
    # two-mode direct sum at n_a = 2
    p2 = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=math.pi / 2,
                     L=TWO_PI)
    s2 = solve_closed_form(p2)
    z = z_renorm(p2, s2, 0.0)["Z"]
    expect = math.exp(-(s2.sigma_f**2 + s2.sigma_p**2) * 1.5)
    assert math.isclose(z, expect, rel_tol=1e-14)
    # ratio to the small-a asymptote (e^gamma L / 2a)^{-(sigma_F^2 +
    # sigma_P^2)} -> 1 like O(a / L)
    prev = None
    for ratio in (1e2, 1e3, 1e4):
        pr = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=1.0 / ratio,
                         L=1.0)
        sr = solve_closed_form(pr)
        rep = z_renorm(pr, sr, 0.0)
        ssum = sr.sigma_f ** 2 + sr.sigma_p ** 2
        asymptote = (math.exp(EULER_GAMMA) * pr.L / (2.0 * pr.a)) ** (-ssum)
        gap = abs(rep["Z"] / asymptote - 1.0)
        if prev is not None:
            assert gap < prev / 5.0
        prev = gap
    with pytest.raises(BadRegulator):
        z_renorm(params, sol, -1.0)


def test_finite_correlator_free_two_point(free_setup):
    # agrees with the exact finite-eps kernel within the reported bound, and
    # with free_finite_L after the known e^{N pi reg / 2L} kernel factor
    params, sol, grid = free_setup
    reg = 1e-3
    x1, x2 = 1.3, -0.7
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x1, 0.0),
                    InsertionPoint(+1, +1, x2, 0.0)),
        ell=1.0, regulator=reg)
    rep = finite_correlator(spec, params, sol, grid)
    u = (math.pi / L) * ((x1 - x2) + 1j * reg)
    kernel = (1.0 / L) * 1j * math.exp(math.pi * reg / L) / (2 * cmath.sin(u))
    assert abs(rep["value"] - kernel) <= rep["tail_bound"]
    f = free_finite_L(spec, L) * math.exp(2 * math.pi * reg / (2 * L))
    assert abs(rep["value"] - f) <= rep["tail_bound"]


def test_finite_correlator_momentum_series(free_setup):
    # fock-lab-independent check: the free 2-point equals the damped
    # momentum sum (1/L) sum_{k>0} e^{ik(x-x') - reg k} resummed
    # geometrically, up to the exact finite-eps kernel factor
    params, sol, grid = free_setup
    reg = 5e-3
    x1, x2 = 0.9, -0.2
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x1, 0.0),
                    InsertionPoint(+1, +1, x2, 0.0)),
        ell=1.0, regulator=reg)
    v = finite_correlator(spec, params, sol, grid)["value"]
    series = 0.0j
    m = 0
    while True:
        k = (TWO_PI / L) * (m + 0.5)
        term = cmath.exp(1j * k * (x1 - x2) - reg * k) / L
        series += term
        m += 1
        if abs(term) < 1e-18 * L:
            break
    assert abs(v - series * math.exp(math.pi * reg / L)) < 1e-12


def test_finite_correlator_selection(free_setup):
    params, sol, grid = free_setup
    spec = CorrelatorSpec(insertions=(InsertionPoint(+1, -1, 0.5, 0.0),),
                          regulator=1e-3)
    assert finite_correlator(spec, params, sol, grid)["value"] == 0


def test_finite_correlator_bound_infinite_when_phase_is_lost(free_setup):
    # at x = 5e19 the zero-mode phase keeps no digits and e^{2r} - 1
    # overflows: the bound is infinite rather than an OverflowError
    params, sol, grid = free_setup
    spec = CorrelatorSpec(insertions=(InsertionPoint(+1, -1, 5e19, 0.0),
                                      InsertionPoint(+1, +1, 0.0, 0.0)),
                          regulator=1e-3)
    assert finite_correlator(spec, params, sol, grid)["tail_bound"] == math.inf


def test_finite_correlator_free_time_dependence(free_setup):
    # unequal times, free case: the Heisenberg fields ride the light cone,
    # G = (1/L) sum_{rk>0} e^{i|k|(rx - v_F t)} e^{-reg|k|}; this pins the
    # v_F t part of the zero-mode phase independently
    params, sol, grid = free_setup
    reg = 2e-3
    for r in (+1, -1):
        for (x, t) in ((0.8, 0.45), (-1.1, -0.3)):
            spec = CorrelatorSpec(
                insertions=(InsertionPoint(r, -1, x, t),
                            InsertionPoint(r, +1, 0.0, 0.0)),
                ell=1.0, regulator=reg)
            v = finite_correlator(spec, params, sol, grid)["value"]
            arg = r * x - params.v_f * t
            series = 0.0j
            m = 0
            while True:
                kappa = (TWO_PI / L) * (m + 0.5)
                term = cmath.exp(1j * kappa * arg - reg * kappa) / L
                series += term
                m += 1
                if abs(term) < 1e-18:
                    break
            assert abs(v - series * math.exp(math.pi * reg / L)) < 1e-12


def test_finite_correlator_antiperiodicity(coupled_setup):
    # each insertion is antiperiodic in its position over the circle; the
    # mode sums are all L-periodic, so the sign flip is carried entirely by
    # the zero-mode phases and Klein bookkeeping
    params, sol, grid = coupled_setup
    reg = 5e-3
    base = [InsertionPoint(+1, -1, 0.7, 0.2), InsertionPoint(-1, +1, -0.4, 0.0),
            InsertionPoint(-1, -1, 1.1, -0.3), InsertionPoint(+1, +1, 0.0, 0.1)]
    ref = finite_correlator(
        CorrelatorSpec(insertions=tuple(base), ell=1.0, regulator=reg),
        params, sol, grid)["value"]
    for j in range(4):
        shifted = [InsertionPoint(p.r, p.q, p.x + (L if i == j else 0.0), p.t)
                   for i, p in enumerate(base)]
        v = finite_correlator(
            CorrelatorSpec(insertions=tuple(shifted), ell=1.0, regulator=reg),
            params, sol, grid)["value"]
        assert abs(v + ref) < 1e-12 * abs(ref)


def _chunked_direct_sum(zeta, n, chunk=1 << 20):
    """sum_{m=1}^{n} zeta^m / m added term by term in numpy, a chunk at a
    time so that n = 1e7 stays small in memory."""
    total = 0.0j
    for start in range(1, n + 1, chunk):
        m = np.arange(start, min(n, start + chunk - 1) + 1, dtype=np.float64)
        total += complex(np.sum(zeta ** m / m))
    return total


def test_mode_sum_closed_form_matches_direct_sum():
    # above the threshold the head and tail come from the Euler-Maclaurin
    # closed form; the direct sum is the oracle, and the two agree within
    # the sum of their error bounds (the direct sum's grows like n u log n,
    # the closed form's does not).  zeta = e^{i theta - eps s}.
    rng = np.random.default_rng(2024)
    s = TWO_PI / L
    pinned = [(math.pi - 1e-9, 1e-3, _DIRECT_SUM_MAX + 1),
              (0.0, 1e-3, 10 ** 7),
              (0.0, 0.0, 54321)]           # w = 0: the harmonic number
    drawn = [(rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 0.05),
              int(10 ** rng.uniform(math.log10(_DIRECT_SUM_MAX + 1), 7)))
             for _ in range(9)]
    for theta, eps, n in pinned + drawn:
        zeta = cmath.exp(complex(-eps * s, theta))
        (head, tail, err), = _log_sums([zeta], n)
        assert err < 1e-13     # the closed form keeps near full precision
        direct = _chunked_direct_sum(zeta, n)
        bound = err + _direct_rounding([zeta], n)[0]
        assert abs(head - direct) <= bound, (theta, eps, n)
        if zeta != 1.0:
            assert abs(tail + cmath.log(1.0 - zeta) + direct) <= bound
        else:
            assert math.isinf(tail.real)
    # a regulator so large that zeta underflows to 0 on either path
    for n in (_DIRECT_SUM_MAX, 10 ** 6):
        assert _log_sums([0.0j], n) == [(0.0, 0.0, 0.0)]


def test_e1_series_within_its_bound():
    # the asymptotic series against 120-bit mpmath.e1 at the same float z:
    # |z| log-uniform from the series threshold R to 1e8 at phases uniform
    # over the right half-plane (mostly where e^{-z} underflows), then at
    # phases near the imaginary axis (where the mode sums call it), then at
    # pinned points: |z| = R and just above, phases +-pi / 2 exactly and
    # within 1e-6 of them, and arguments where e^{-z} is subnormal or 0
    import mpmath
    rng = np.random.default_rng(17)
    log_r = rng.uniform(math.log(_E1_SERIES_MIN), math.log(1e8), 500)
    half = math.pi / 2
    phases = np.concatenate([
        rng.uniform(-half, half, 250),
        np.sign(rng.uniform(-1.0, 1.0, 250))
        * (half - 10.0 ** rng.uniform(-8.0, -1.0, 250))])
    zs = [cmath.rect(math.exp(lr), ph) for lr, ph in zip(log_r, phases)]
    for r in (_E1_SERIES_MIN, math.nextafter(_E1_SERIES_MIN, 50.0), 40.7,
              1e4, 1e8):
        zs += [complex(0.0, r), complex(0.0, -r), complex(r, 0.0),
               cmath.rect(r, half - 1e-6), cmath.rect(r, 1e-6 - half)]
    zs += [complex(709.0, 50.0), complex(740.0, -3.0), complex(746.0, 1e3)]
    ratios = []
    with mpmath.workprec(120):
        for z in zs:
            value, bound = _e1(z)
            exact = mpmath.e1(mpmath.mpc(z.real, z.imag))
            error = abs(mpmath.mpc(value.real, value.imag) - exact)
            assert error <= bound, z
            if z.real < 700.0:      # e^{-z} normal: the bound is tight
                assert bound <= 64.0 * _U * abs(value), z
                ratios.append(float(error / bound))
    assert len(ratios) > 250 and max(ratios) > 0.01


def test_e1_small_within_its_bound():
    # the power series and the continued fraction below R against 120-bit
    # mpmath.e1 at the same float z: |z| log-uniform from 1e-300 to R at
    # phases uniform over the right half-plane, then within 1e-6 of +-pi / 2
    # and on it, then pinned points: |z| = 1 and just below, and 1.5 and
    # 2 and just below (where the series hands over to the fraction, by
    # modulus and by its bound), and just below R.  The bound is
    # at most 64u |E1| everywhere (|E1| >= e^{-40} / 42 on this domain)
    import mpmath
    rng = np.random.default_rng(27)
    half = math.pi / 2
    log_r = rng.uniform(math.log(1e-300), math.log(_E1_SERIES_MIN), 500)
    phases = np.concatenate([
        rng.uniform(-half, half, 250),
        np.sign(rng.uniform(-1.0, 1.0, 250))
        * (half - 10.0 ** rng.uniform(-12.0, -6.0, 250))])
    zs = [cmath.rect(math.exp(lr), ph) for lr, ph in zip(log_r, phases)]
    zs += [complex(0.0, math.exp(lr)) * sign
           for lr, sign in zip(log_r[:50], (1, -1) * 25)]
    for r in (1e-300, 1e-8, math.nextafter(1.0, 0.0), 1.0, 1.5,
              math.nextafter(2.0, 0.0), 2.0, 3.0,
              math.nextafter(_E1_SERIES_MIN, 0.0)):
        zs += [complex(0.0, r), complex(0.0, -r), complex(r, 0.0),
               cmath.rect(r, half - 1e-6), cmath.rect(r, 1e-6 - half)]
    ratios = []
    with mpmath.workprec(120):
        for z in zs:
            value, bound = _e1_small(z)
            exact = mpmath.e1(mpmath.mpc(z.real, z.imag))
            error = abs(mpmath.mpc(value.real, value.imag) - exact)
            assert error <= bound, z
            assert bound <= 64.0 * _U * abs(exact), z
            ratios.append(float(error / bound))
    assert max(ratios) > 0.01


def test_bernoulli_ratios_from_tangent_numbers():
    # bit for bit the ratios rounded from mpmath's Bernoulli numbers
    import mpmath
    assert [x.hex() for x in _bernoulli_ratios()] == [
        (float(mpmath.bernoulli(2 * k)) / (2 * k)).hex()
        for k in range(1, 61)]


def _oracle_log_sums(zeta: complex, n: int):
    """(S, T) of -log(1 - zeta) = S + T split at m = n, to 50 digits:
    T = zeta^{n+1} Phi(zeta, 1, n + 1), Lerch's transcendent."""
    import mpmath
    with mpmath.workdps(50):
        z = mpmath.mpc(zeta.real, zeta.imag)
        tail = z ** (n + 1) * mpmath.lerchphi(z, 1, n + 1)
        return -mpmath.log(1 - z) - tail, tail


def test_mode_sums_carry_the_e1_bound(monkeypatch):
    # closed-form mode sums whose E1 argument N w lies below R (Z's sum at
    # n_a = 1e4 and eps = 1e-3, N w = 3.14; |N w| = 0.3 on the series side;
    # 15 on the fraction's; 1e-10, where E1 and the anchor nearly cancel)
    # against the 50-digit oracle, and Z with them.  Then again with an E1
    # that is off by 1e-9 of its value and adds that to its bound: the E1
    # term is then the largest of the mode-sum bound, and each error is
    # more than the bound holds without it.  With the E1 as it is, its
    # term is below the rounding term wherever N w < R and n > 400
    # (|log(1 - zeta)| >= log(N / |N w|) > |E1(N w)| there)
    import mpmath
    monkeypatch.setattr(vertex, "_renorm_log_sum",
                        vertex._renorm_log_sum.__wrapped__)
    cases = [(complex(math.exp(-1e-3 * TWO_PI / L)), 10 ** 4)] + [
        (cmath.exp(-w), n) for w, n in ((complex(3e-6, -3e-5), 10 ** 4),
                                       (complex(1e-4, 1.5e-3), 10 ** 4),
                                       (complex(2e-13, 1e-13),
                                        _DIRECT_SUM_MAX + 1))]
    oracles = [_oracle_log_sums(zeta, n) for zeta, n in cases]
    near = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=1e-3, L=L)
    sol = solve_closed_form(near)
    ssum = sol.sigma_f ** 2 + sol.sigma_p ** 2
    with mpmath.workdps(50):
        z_exact = mpmath.exp(-ssum * oracles[0][0].real)
    exact_e1 = _e1_small
    e1_bounds = []

    def cruder(z):
        value, bound = exact_e1(z)
        slip = 1e-9 * abs(value)
        e1_bounds.append(bound + slip)
        return value + slip, bound + slip

    for e1 in (exact_e1, cruder):
        monkeypatch.setattr(vertex, "_e1_small", e1)
        for (zeta, n), (head, tail) in zip(cases, oracles):
            (got_head, got_tail, err), = _log_sums([zeta], n)
            errors = [abs(mpmath.mpc(got.real, got.imag) - exact)
                      for got, exact in ((got_head, head), (got_tail, tail))]
            assert max(errors) <= err, (zeta, n)
            if e1 is cruder:
                assert e1_bounds[-1] > err / 2
                assert max(errors) > err - e1_bounds[-1], (zeta, n)
        rep = z_renorm(near, sol, 1e-3)
        error = abs(rep["Z"] - z_exact) / z_exact
        assert error <= rep["rounding"]
        if e1 is cruder:
            assert error > rep["rounding"] - ssum * e1_bounds[-1]


def test_mode_sums_take_the_series_near_the_continuum(monkeypatch):
    # at n_a = 1e6 (L = 20) every E1 argument N w of the Euler-Maclaurin
    # mode sums lies at |N w| >= R, where the series serves it; at
    # n_a = 1e4, Z's sum at eps = 1e-3 has N w near 3 and calls _e1_small
    def refuse(z):
        raise AssertionError("_e1_small called")
    monkeypatch.setattr(vertex, "_e1_small", refuse)
    monkeypatch.setattr(vertex, "_renorm_log_sum",
                        vertex._renorm_log_sum.__wrapped__)
    s = TWO_PI / L
    zeta = cmath.exp(complex(-1e-3 * s, 0.05))
    (head, tail, err), = _log_sums([zeta], 10 ** 6)
    assert err < 1e-13 and math.isfinite(abs(tail))
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=1e-5, L=L)
    spec = CorrelatorSpec(insertions=(InsertionPoint(+1, -1, 0.5, 0.0),
                                      InsertionPoint(+1, +1, 0.0, 0.0)),
                          ell=1.0, regulator=1e-3)
    out = finite_correlator(spec, params, solve_closed_form(params),
                            momentum_grid(L=L, K=8, a=1e-5))
    assert math.isfinite(out["tail_bound"]) and abs(out["value"]) > 0.0
    calls = []
    monkeypatch.setattr(vertex, "_e1_small",
                        lambda z: calls.append(z) or (1.0, 0.0))
    near = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=1e-3, L=L)
    z_renorm(near, solve_closed_form(near), 1e-3)
    assert len(calls) == 1 and abs(calls[0]) < _E1_SERIES_MIN


def test_continuum_ladder_diagnostic():
    # diagnostic, not a gate: acceptance criterion 7's ladder carried on to
    # s = 64 and 256 (n_a up to 3.3e9, out of reach of a direct mode sum)
    ell = 1.0
    for x, t in ((1.0, 0.0), (1.3, 0.4), (0.7, -0.2)):
        errs = []
        for scale in (1, 4, 16, 64, 256):
            length, a, eps = scale * 1e3 * ell, ell / (scale * 1e2), \
                ell / (scale * 1e1)
            params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=a,
                                 L=length)
            sol = solve_closed_form(params)
            grid = momentum_grid(L=length, K=4, a=a)
            spec = CorrelatorSpec(
                insertions=(InsertionPoint(+1, -1, x, t),
                            InsertionPoint(+1, +1, 0.0, 0.0)),
                ell=ell, regulator=eps)
            value = finite_correlator(spec, params, sol, grid)["value"]
            ssum = sol.sigma_f ** 2 + sol.sigma_p ** 2
            renorm = (TWO_PI * ell / length) ** ssum \
                / z_renorm(params, sol, eps)["Z"]
            target = two_point(+1, x, t, sol, ell=ell, regulator=1e-8 * ell)
            errs.append(abs(renorm ** 2 * value - target) / abs(target))
        print(f"ladder (x, t) = ({x}, {t}): "
              + ", ".join(f"s={sc}: {e:.3e}"
                          for sc, e in zip((1, 4, 16, 64, 256), errs)))
        assert all(math.isfinite(e) for e in errs)
