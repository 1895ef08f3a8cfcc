"""Whole-grid `scan`, swept `correlate` and the shared-tree `spectrum`
against per-point oracles.

The oracles below are the per-point code the grid kernel, the sweeps and
the shared occupation tree replaced: the scalar closed form (Python floats,
`x ** 2` through libm pow), one `scan` row per solve, one correlator
evaluation per point with every factor recomputed, and one recursive
occupation enumeration per spectrum sector.  The new code must give the
same `_fmt` strings, or the same spectrum entries, bit for bit.  The oracles
format each field on its own, by a route other than the commands' row
templates.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from fermiphon import ModelParams
from fermiphon import cli
from fermiphon.bogoliubov import (DEGENERACY_FLOOR, BogoliubovSolution,
                                  SpectrumEntry, degeneracies,
                                  solve_closed_form, spectrum)
from fermiphon.correlators import (FLAVORS, SWEEP_BLOCK, CorrelatorSpec,
                                   InsertionPoint, _pair_exponent, klein_sign,
                                   npoint_continuum)
from fermiphon.errors import (BadArgument, DegenerateBranches, FermiphonError,
                              GridTooSmall)
from fermiphon.params import (TWO_PI, DerivedCouplings, check_grid,
                              coupled_abs_p_sum, mode_count, momentum_grid,
                              validate_params)
from fermiphon.vertex import (_DIRECT_SUM_MAX, _HEAD_BLOCK_TERMS,
                              field_vertex, finite_correlator,
                              normal_order_product, vacuum_expectation)
from oracles import pair_contraction, regulated_power


def _fmt(x):
    return f"{x:.17g}"


def fields(rows):
    """The fields of each CSV line a command produced."""
    rows = list(rows)
    assert all(line.endswith("\r\n") for line in rows)
    return [line[:-2].split(",") for line in rows]


# -- oracles --------------------------------------------------------------


def oracle_solve(params):
    """The scalar closed form, one point at a time."""
    validate_params(params)
    vf, vp = params.v_f, params.v_p
    g1 = params.lam / (TWO_PI * vf)
    g2 = params.g / (vp * math.sqrt(math.pi * vf))
    d0 = vf**2 * (1.0 - g1**2) - vp**2
    W = math.sqrt(d0 * d0 + 4.0 * vf**2 * vp**2 * g2**2 * (1.0 - g1))
    if W <= DEGENERACY_FLOOR * vf * vf:
        raise DegenerateBranches("W floor")
    if g2 == 0.0:
        vt_f = vf * math.sqrt(1.0 - g1 * g1)
        vt_p = vp
        rho_f = math.sqrt((vf + vt_f) / (2.0 * vt_f))
        sigma_f = math.copysign(
            math.sqrt((vf - vt_f) / (2.0 * vt_f)), params.lam) \
            if params.lam != 0.0 else 0.0
        rho_p = sigma_p = 0.0
    else:
        c2 = vf * vf * (1.0 - g1 * g1)
        s = c2 + vp * vp
        d = c2 - vp * vp
        e = 4.0 * vf * vf * vp * vp * g2 * g2 * (1.0 - g1)
        vt_f = math.sqrt((s + W) / 2.0)
        vt_p = math.sqrt((4.0 * c2 * vp * vp - e) / (2.0 * (s + W)))
        gap_f = e / (2.0 * (W + d)) if d > 0 else (W - d) / 2.0
        gap_p = e / (2.0 * (W - d)) if d < 0 else (W + d) / 2.0
        if gap_f == 0.0 or gap_p == 0.0:
            raise BadArgument("g^2 underflows")
        den_f = 2.0 * math.sqrt(W) * math.sqrt(gap_f)
        den_p = 2.0 * math.sqrt(W) * math.sqrt(gap_p)
        rho_f = math.sqrt(vf / vt_f) * g2 * vp * (vt_f + vf * (1.0 - g1)) \
            / den_f
        sigma_f = math.sqrt(vf / vt_f) * g2 * vp * (vt_f - vf * (1.0 - g1)) \
            / den_f
        rho_p = -math.sqrt(vf / vt_p) * g2 * vp * (vt_p + vf * (1.0 - g1)) \
            / den_p
        sigma_p = -math.sqrt(vf / vt_p) * g2 * vp \
            * (vt_p - vf * (1.0 - g1)) / den_p
    e0 = 0.5 * (vt_f - vf + vt_p - vp) * coupled_abs_p_sum(params.L, params.a)
    return BogoliubovSolution(
        params=params, couplings=DerivedCouplings(g1, g2, W), vtilde_f=vt_f,
        vtilde_p=vt_p, rho_f=rho_f, rho_p=rho_p, sigma_f=sigma_f,
        sigma_p=sigma_p, e0=e0)


def oracle_scan(cfg):
    """One solve per `scan` row."""
    lam_min, lam_max, n_lam, g_min, g_max, n_g = cfg.scan_grid
    base = cfg.model

    def row(lam, g):
        params = ModelParams(v_f=base.v_f, v_p=base.v_p, lam=lam, g=g,
                             a=base.a, L=base.L, omega0=base.omega0)
        try:
            sol = oracle_solve(params)
        except FermiphonError:
            return [_fmt(lam), _fmt(g), "", "", "", "", "", "", "0"]
        cdw = sum((sol.rho(fl) - sol.sigma(fl)) ** 2 for fl in FLAVORS)
        sc = sum((sol.rho(fl) + sol.sigma(fl)) ** 2 for fl in FLAVORS)
        return [_fmt(lam), _fmt(g), _fmt(sol.couplings.gamma1),
                _fmt(sol.couplings.gamma2), _fmt(sol.vtilde_f),
                _fmt(sol.vtilde_p), _fmt(cdw), _fmt(sc), "1"]

    return [row(lam_min + (lam_max - lam_min) * i / max(n_lam - 1, 1),
                g_min + (g_max - g_min) * j / max(n_g - 1, 1))
            for i in range(n_lam) for j in range(n_g)]


def oracle_continuum(spec, sol):
    """Every regulated factor of every pair, recomputed at each point."""
    pts = spec.insertions
    sign = klein_sign([(p.r, p.q) for p in pts])
    if sign == 0:
        return 0.0j
    out = complex(sign) * (1.0 / (2.0 * math.pi * spec.ell)) \
        ** (len(pts) / 2.0)
    for n in range(len(pts)):
        for m in range(n + 1, len(pts)):
            dx = pts[n].x - pts[m].x
            dt = pts[n].t - pts[m].t
            qq = pts[n].q * pts[m].q
            for r in (+1, -1):
                for flavor in FLAVORS:
                    c = _pair_exponent(r, flavor, pts[n].r, pts[m].r, sol)
                    out *= regulated_power(spec.ell, r, dx, dt,
                                           sol.vtilde(flavor), -qq * c,
                                           spec.regulator)
    return out


def oracle_finite(spec, sol, grid):
    """Every vertex factor and every pair contraction, recomputed, each
    contraction one channel and one mode sum (its own np.sum) at a time."""
    factors = [field_vertex(p.r, p.q, p.x, p.t, spec.regulator, sol, grid)
               for p in spec.insertions]
    product = normal_order_product(factors, [
        pair_contraction(factors[j], factors[k])
        for j in range(len(factors)) for k in range(j + 1, len(factors))])
    value = vacuum_expectation(product)
    growth = math.expm1(2.0 * product.rounding) \
        if product.rounding < 354.0 else math.inf
    return {"value": value, "tail_bound": abs(value) * growth}


def oracle_specs(cfg):
    """(x, CorrelatorSpec) at each x of a `correlate` sweep."""
    x_min, x_max, n, t = cfg.correlate_grid
    xs = [x_min + (x_max - x_min) * i / max(n - 1, 1) for i in range(n)]
    return [(x, CorrelatorSpec(
        insertions=tuple(InsertionPoint(r=p.r, q=p.q, x=p.x + x, t=p.t + t)
                         if i == 0 else p
                         for i, p in enumerate(cfg.insertions)),
        ell=cfg.ell, regulator=cfg.regulator)) for x in xs]


def oracle_correlate(cfg, mode):
    """One CorrelatorSpec and one evaluation per x."""
    sol = solve_closed_form(cfg.model)
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a)
    t = cfg.correlate_grid[3]
    selected = klein_sign([(p.r, p.q) for p in cfg.insertions]) != 0

    def one(spec):
        if not selected:
            return 0.0j
        if mode == "finite":
            return oracle_finite(spec, sol, grid)["value"]
        return oracle_continuum(spec, sol)

    return [[_fmt(x), _fmt(t), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
            for x, v in ((x, one(spec)) for x, spec in oracle_specs(cfg))]


def oracle_occupations(modes, idx, spent, e_max, occ):
    """(energy, occupations) of every boson occupation of modes[idx:] on top
    of `spent`, up to e_max, depth first: each state before its extensions."""
    yield spent, tuple(occ)
    for i in range(idx, len(modes)):
        fl, m, e = modes[i]
        if spent + e > e_max:
            break
        n = 1
        while spent + n * e <= e_max:
            occ.append((fl, m, n))
            yield from oracle_occupations(modes, i + 1, spent + n * e, e_max,
                                          occ)
            occ.pop()
            n += 1


def oracle_spectrum(params, solution, e_max, grid):
    """One recursive occupation enumeration per (q+, q-, m_p0) sector, then
    a stable sort on (energy, -q+, -q-)."""
    check_grid(params, grid)
    spacing = TWO_PI / params.L
    modes = []
    for flavor in ("F", "P"):
        for m in range(1, grid.K + 2):
            v = solution.vtilde(flavor) if m <= grid.n_a \
                else solution.v_bare(flavor)
            e = v * m * spacing
            if e > e_max:
                continue
            if m > grid.K:
                raise GridTooSmall(
                    f"mode |m| = {m} of flavor {flavor} still reaches "
                    f"e_max; enlarge K")
            modes.append((flavor, m, e))
    modes = [(fl, sgn * m, e) for (fl, m, e) in modes for sgn in (1, -1)]
    modes.sort(key=lambda t: t[2])

    g1 = solution.couplings.gamma1
    charge_scale = math.pi * params.v_f / params.L

    def charge_energy(qp, qm):
        return charge_scale * (qp * qp + qm * qm + 2.0 * g1 * qp * qm)

    qmax = int(math.floor(math.sqrt(e_max / (charge_scale * (1.0 - abs(g1))))
                          )) + 1 if e_max > 0 else 0

    levels = []
    for qp in range(-qmax, qmax + 1):
        for qm in range(-qmax, qmax + 1):
            e_q = charge_energy(qp, qm)
            if e_q > e_max:
                continue
            mp0 = 0
            while e_q + mp0 * params.omega0 <= e_max:
                for spent, occ in oracle_occupations(
                        modes, 0, e_q + mp0 * params.omega0, e_max, []):
                    levels.append((qp, qm, mp0, occ, solution.e0 + spent))
                mp0 += 1

    levels.sort(key=lambda t: (t[4], -t[0], -t[1]))
    return [SpectrumEntry(*level, deg) for level, deg in zip(
        levels, oracle_degeneracies([level[4] for level in levels]))]


def oracle_degeneracies(energies):
    """Level by level: a group is anchored at its first energy and takes
    the following levels within 1e-12 max(1, |e|) of it."""
    out = []
    i = 0
    while i < len(energies):
        e_i = energies[i]
        j = i
        while j < len(energies) and abs(energies[j] - e_i) \
                <= 1e-12 * max(1.0, abs(e_i)):
            j += 1
        out += [j - i] * (j - i)
        i = j
    return out


# -- configs --------------------------------------------------------------

MODEL = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.5, L=20.0)


def run_config(model=MODEL, scan=(0.0, 0.0, 1, 0.0, 0.0, 1), insertions=(),
               correlate=(0.1, 1.0, 3, 0.0), regulator=1e-3):
    return cli.RunConfig(model=model, K=4, ell=1.0, regulator=regulator,
                         insertions=list(insertions),
                         correlate_grid=correlate, scan_grid=scan)


SCANS = {
    # crosses gamma1 = 1 (lambda = 2 pi), 1 + gamma1 = 0 (lambda = -2 pi)
    # and the gamma2 boundary; holds a g = 0 column and a lambda = 0 row
    "boundary": run_config(scan=(-8.0, 8.0, 101, -0.9, 0.9, 101)),
    # vtilde_F = v_P at g = 0: W below the branch-identification floor
    "w-floor": run_config(
        model=ModelParams(v_f=1.0, v_p=0.6, lam=1.0, g=0.2, a=0.5, L=20.0),
        scan=(0.8 * TWO_PI, 0.8 * TWO_PI, 1, 0.0, 0.0, 1)),
    # g^2 underflows in the mixing coefficients
    "g-underflow": run_config(scan=(-1.0, 1.0, 3, 1e-200, 1e-200, 1)),
    # g = nan at the first column, +inf after it
    "g-max-inf": run_config(scan=(-1.0, 1.0, 3, 0.0, math.inf, 3)),
    # libm pow(gamma1, 2) and gamma1 * gamma1 differ in the last bit here,
    # and the difference reaches W (about one lambda in 10^4 does)
    "pow-square": run_config(scan=(1.6675000000000004, 1.6675000000000004, 1,
                                   -0.5, 0.5, 21)),
}


@pytest.mark.parametrize("name", list(SCANS))
def test_scan_matches_per_point_oracle(name):
    cfg = SCANS[name]
    code, table = cli.cmd_scan(cfg)
    assert code == 0
    assert fields(table.rows) == oracle_scan(cfg)


def test_scan_grids_reach_their_cases():
    rows = {name: fields(cli.cmd_scan(cfg)[1].rows)
            for name, cfg in SCANS.items()}
    lam = {r[0] for r in rows["boundary"]}
    g = {r[1] for r in rows["boundary"]}
    assert "0" in lam and "0" in g
    stable = [r[-1] for r in rows["boundary"]]
    assert 0.2 < stable.count("0") / len(stable) < 0.8
    assert [r[-1] for r in rows["w-floor"]] == ["0"]
    assert [r[-1] for r in rows["g-underflow"]] == ["0", "0", "0"]
    assert [r[1] for r in rows["g-max-inf"][:3]] == ["nan", "inf", "inf"]
    g1 = 1.6675000000000004 / TWO_PI
    assert g1 ** 2 != g1 * g1
    with pytest.raises(DegenerateBranches):
        solve_closed_form(ModelParams(v_f=1.0, v_p=0.6, lam=0.8 * TWO_PI,
                                      g=0.0, a=0.5, L=20.0))


def test_solve_matches_scalar_oracle():
    for lam in (-3.0, -0.0, 0.0, 1.0, 5.5):
        for g in (-0.5, -0.0, 0.0, 1e-150, 0.2, 0.55):
            params = ModelParams(v_f=1.0, v_p=0.3, lam=lam, g=g, a=0.05,
                                 L=20.0)
            try:
                want = oracle_solve(params)
            except FermiphonError as exc:
                with pytest.raises(type(exc)):
                    solve_closed_form(params)
                continue
            got = solve_closed_form(params)
            assert repr(got) == repr(want)
            assert all(type(getattr(got, f)) is float for f in (
                "vtilde_f", "vtilde_p", "rho_f", "rho_p", "sigma_f",
                "sigma_p", "e0"))


WORDS = {
    "2pt": [(+1, -1, 0.0, 0.3), (+1, +1, -0.7, 0.0)],
    "4pt": [(+1, -1, 0.0, 0.2), (+1, +1, -0.8, 0.0), (-1, -1, -1.7, 0.1),
            (-1, +1, -2.6, 0.0)],
    "6pt": [(+1, -1, 0.0, 0.2), (+1, +1, -0.8, 0.0), (-1, -1, -1.7, 0.1),
            (-1, +1, -2.6, -0.4), (+1, -1, -3.3, 0.05), (+1, +1, -4.1, 0.0)],
    # a fixed insertion at x = -0.0, and the swept one at -0.0 at x = 0
    "neg-zero": [(+1, -1, -0.0, 0.0), (-1, -1, -0.0, 0.0),
                 (+1, +1, 1.5, -0.0), (-1, +1, 0.5, 0.0)],
    "empty": [],
    "unselected": [(+1, -1, 0.0, 0.0)],
}


# (word, model, points) of each sweep
SWEEPS = {name: (word, MODEL, 41) for name, word in WORDS.items()}
SWEEPS.update({
    # n_a = 1000 > _DIRECT_SUM_MAX: Euler-Maclaurin mode sums
    "4pt-n_a-1000": (WORDS["4pt"], replace(MODEL, a=0.01), 41),
    # free couplings: every cross-chirality exponent is 0
    "4pt-free": (WORDS["4pt"], replace(MODEL, lam=0.0, g=0.0), 41),
    # every fixed insertion at t != 0
    "4pt-fixed-t": ([(+1, -1, 0.0, 0.2), (+1, +1, -0.8, 0.3),
                     (-1, -1, -1.7, -0.25), (-1, +1, -2.6, 0.6)], MODEL, 41),
    # more points than one sweep block holds (and so more zetas than one
    # block of direct sums)
    "4pt-long": (WORDS["4pt"], MODEL, 2 * SWEEP_BLOCK + 3),
})


@pytest.mark.parametrize("mode", ["continuum", "finite"])
@pytest.mark.parametrize("word", list(SWEEPS))
def test_correlate_matches_per_point_oracle(word, mode):
    ins, model, points = SWEEPS[word]
    cfg = run_config(model=model, insertions=[InsertionPoint(*p) for p in ins],
                     correlate=(-2.0, 2.0, points, 0.35))
    code, table = cli.cmd_correlate(cfg, mode)
    assert code == 0
    assert fields(table.rows) == oracle_correlate(cfg, mode)
    if mode == "finite":
        # the error bound of every swept point, too
        sol = solve_closed_form(model)
        grid = momentum_grid(L=model.L, K=cfg.K, a=model.a)
        specs = oracle_specs(cfg)
        xs = [spec.insertions[0].x if ins else x for x, spec in specs]
        got = finite_correlator(specs[0][1], model, sol, grid, xs=xs)
        want = [oracle_finite(spec, sol, grid) for _x, spec in specs]
        assert [[_fmt(r["value"].real), _fmt(r["value"].imag),
                 _fmt(r["tail_bound"])] for r in got] \
            == [[_fmt(r["value"].real), _fmt(r["value"].imag),
                 _fmt(r["tail_bound"])] for r in want]


def test_sweep_cases_reach_their_paths():
    model = SWEEPS["4pt-n_a-1000"][1]
    assert mode_count(model.L, model.a) > _DIRECT_SUM_MAX
    n_a = mode_count(MODEL.L, MODEL.a)
    assert n_a <= _DIRECT_SUM_MAX
    # each point of a 4-point sweep contracts 3 pairs: at least 12 zetas
    assert SWEEPS["4pt-long"][2] > SWEEP_BLOCK
    assert 12 * SWEEP_BLOCK > _HEAD_BLOCK_TERMS // n_a
    sol = solve_closed_form(SWEEPS["4pt-free"][1])
    assert sol.rho_f * sol.sigma_f == 0.0 and sol.rho_p * sol.sigma_p == 0.0


@pytest.mark.parametrize("word", ["2pt", "4pt", "6pt", "neg-zero"])
def test_one_point_calls_match_oracle(word):
    sol = solve_closed_form(MODEL)
    grid = momentum_grid(L=MODEL.L, K=4, a=MODEL.a)
    spec = CorrelatorSpec(insertions=[InsertionPoint(*p)
                                      for p in WORDS[word]], regulator=1e-3)
    got = npoint_continuum(spec, sol)
    want = oracle_continuum(spec, sol)
    assert (_fmt(got.real), _fmt(got.imag)) == (_fmt(want.real),
                                                _fmt(want.imag))
    got = finite_correlator(spec, MODEL, sol, grid)
    want = oracle_finite(spec, sol, grid)
    assert [_fmt(got["value"].real), _fmt(got["value"].imag),
            _fmt(got["tail_bound"])] == [_fmt(want["value"].real),
                                         _fmt(want["value"].imag),
                                         _fmt(want["tail_bound"])]


def test_sweep_checks_every_point():
    # the swept insertion leaves the finite range at the last point only
    sol = solve_closed_form(MODEL)
    grid = momentum_grid(L=MODEL.L, K=4, a=MODEL.a)
    spec = CorrelatorSpec(insertions=[InsertionPoint(*p)
                                      for p in WORDS["2pt"]], regulator=1e-3)
    xs = [0.5, 1.0, math.inf]
    with pytest.raises(BadArgument, match="must be finite"):
        npoint_continuum(spec, sol, xs=xs)
    with pytest.raises(BadArgument, match="must be finite"):
        finite_correlator(spec, MODEL, sol, grid, xs=xs)
    values = npoint_continuum(spec, sol, xs=xs[:2])
    assert len(values) == 2
    assert all(cmath.isfinite(v) for v in values)


def test_finite_sweep_raises_the_first_failing_point():
    # alone, the first point fails on the grid before the second fails on
    # its x; a sweep checks all its x before it builds a vertex factor
    sol = solve_closed_form(MODEL)
    wrong = momentum_grid(L=MODEL.L, K=4, a=2.0 * MODEL.a)
    spec = CorrelatorSpec(insertions=[InsertionPoint(+1, -1, 0.5, 0.0)],
                          regulator=1e-3)
    with pytest.raises(GridTooSmall):
        finite_correlator(spec, MODEL, sol, wrong, xs=[0.5, math.inf])


def test_sweep_underflow_names_the_first_failing_point(tmp_path, capsys):
    # at ell = 1e-150 the base i ell / (r x - v t + i reg) underflows to 0
    # at separations past about 4e173: the swept insertion's pair with the
    # last insertion fails first, at an earlier point than its pair with the
    # second, whose columns a sweep evaluates first
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nv_f = 1.0\nv_p = 0.3\nlambda = 1.0\ng = 0.2\na = 0.5\n"
        "L = 20.0\n\n[correlator]\nell = 1e-150\nregulator = 0.001\n"
        "insertions = +:-:0:0 ; +:+:0:0 ; -:-:-1e173:0 ; -:+:-2e173:0\n"
        "x_min = 0.0\nx_max = 6e173\npoints = 9\nt = 0.0\n")
    cfg = cli.load_config(str(ini))
    specs = [spec for _x, spec in oracle_specs(cfg)]

    def first_failure(m):
        """Index of the first point at which pair (0, m) underflows."""
        for i, spec in enumerate(specs):
            try:
                regulated_power(cfg.ell, +1, spec.insertions[0].x
                                - spec.insertions[m].x, 0.0, 1.0, 1.0,
                                cfg.regulator)
            except BadArgument:
                return i
    first = {m: first_failure(m) for m in (1, 2, 3)}
    assert first[3] < first[2] < first[1] < len(specs)
    sol = solve_closed_form(cfg.model)
    with pytest.raises(BadArgument) as lone:
        oracle_continuum(specs[first[3]], sol)
    message = str(lone.value)
    late = specs[first[1]].insertions[0].x - specs[first[1]].insertions[1].x
    assert f"x = {late:.3g}," not in message
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    assert cli.main(["--config", str(ini), "--output", str(out),
                     "correlate", "--mode", "continuum"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_bytes() == b"earlier result\n"


# -- spectrum ---------------------------------------------------------------

REFERENCE = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.05, L=20.0)


def _boundary_e_max():
    """The energy above E0 of the costliest vacuum-sector level at e_max =
    0.6, as that sector's enumeration sums it: as e_max it sits exactly on
    the cut."""
    sol = solve_closed_form(REFERENCE)
    spacing = TWO_PI / REFERENCE.L
    modes = sorted(((fl, sgn * m, sol.vtilde(fl) * m * spacing)
                    for fl in ("F", "P") for m in range(1, 41)
                    for sgn in (1, -1)), key=lambda t: t[2])
    modes = [t for t in modes if t[2] <= 0.6]
    return max(spent for spent, _ in oracle_occupations(modes, 0, 0.0, 0.6,
                                                        []))


# (model, K, e_max)
SPECTRA = {
    "reference": (REFERENCE, 40, 1.2),
    # L / 2a rounds onto an integer (test_params' tie geometries)
    "tie-7": (ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=7.0 / 26,
                          L=7.0), 14, 1.5),
    "tie-20": (ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=20.0 / 58,
                           L=20.0), 30, 0.9),
    # free: the fermion and phonon ladders are commensurate, so energies tie
    "free": (ModelParams(v_f=1.0, v_p=0.25, lam=0.0, g=0.0, a=math.pi / 2,
                         L=TWO_PI, omega0=0.25), 16, 2.0),
    "lambda-negative": (ModelParams(v_f=1.0, v_p=0.3, lam=-1.5, g=0.2,
                                    a=0.05, L=20.0), 40, 0.8),
    "e_max-0": (REFERENCE, 4, 0.0),
    "e_max-negative": (REFERENCE, 4, -0.5),
    "e_max-on-a-level": (REFERENCE, 40, _boundary_e_max()),
    # gamma1 = 1 - 1e-8: the charge sectors spread along q+ = -q- out to
    # |q+| = 195 (qmax = 277); e_max lies below three F quanta (4.4e-5)
    "gamma1-near-1": (ModelParams(v_f=1.0, v_p=0.3, lam=TWO_PI * (1 - 1e-8),
                                  g=0.0, a=0.05, L=20.0), 8, 1.2e-4),
    # n_a = 2 < K: modes |m| >= 3 move at the bare velocities
    "bare-modes": (ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=4.0,
                               L=20.0), 8, 0.6),
}


def _spectrum_pair(name):
    params, K, e_max = SPECTRA[name]
    sol = solve_closed_form(params)
    grid = momentum_grid(L=params.L, K=K, a=params.a)
    return (spectrum(params, sol, e_max, grid),
            oracle_spectrum(params, sol, e_max, grid))


@pytest.mark.parametrize("name", list(SPECTRA))
def test_spectrum_matches_per_sector_oracle(name):
    got, want = _spectrum_pair(name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is SpectrumEntry
        assert g._replace(energy=None) == w._replace(energy=None)
        assert g.energy.hex() == w.energy.hex()


def test_spectrum_configs_reach_their_cases():
    levels = {}
    for name in ("free", "e_max-0", "e_max-negative", "e_max-on-a-level",
                 "bare-modes"):
        params, K, e_max = SPECTRA[name]
        levels[name] = spectrum(params, solve_closed_form(params), e_max,
                                momentum_grid(L=params.L, K=K, a=params.a))
    assert max(e.degeneracy for e in levels["free"]) > 1
    assert [e.occupations for e in levels["e_max-0"]] == [()]
    assert len(levels["e_max-negative"]) == 0
    sol = solve_closed_form(REFERENCE)
    assert max(e.energy for e in levels["e_max-on-a-level"]
               if (e.q_plus, e.q_minus, e.m_p0) == (0, 0, 0)) \
        == sol.e0 + SPECTRA["e_max-on-a-level"][2]
    assert any(abs(m) > 2 for e in levels["bare-modes"]
               for _fl, m, _n in e.occupations)


def _chain(start, step, n):
    """n energies from start, each `step` tolerances above the last."""
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] + step * 1e-12 * max(1.0, abs(out[-1])))
    return out


DEGENERACY_LISTS = {
    # steps of 0.6 tolerances: a chained rule would take the whole list
    "chain-below-1": _chain(0.5, 0.6, 9),
    "chain-above-1": _chain(3.0, 0.6, 9),
    "chain-negative": _chain(-7.0, 0.6, 9),
    # the tolerance switches from absolute to relative at |e| = 1
    "ties-across-1": [1.0 - 1.5e-12, 1.0 - 0.6e-12, 1.0 - 0.2e-12, 1.0,
                      1.0 + 0.5e-12, 1.0 + 1.1e-12, 1.0 + 1.6e-12],
    "ties-across-minus-1": [-1.0 - 1.6e-12, -1.0 - 0.9e-12, -1.0, -1.0,
                            -1.0 + 0.4e-12, -1.0 + 1.2e-12, -1.0 + 1.3e-12],
    "exact-ties": [-2.0, -2.0, -2.0 + 1e-12, 0.0, 0.0, 0.0, 0.7e-12, 4.0,
                   4.0 + 4e-12, 4.0 + 4e-12, 4.0 + 5e-12],
    "negative": [-3.0, -3.0 + 2e-12, -3.0 + 3.5e-12, -1e-3, -1e-3 + 1e-12,
                 -1e-13, 0.0],
    "single": [0.25],
    "singles": [-1.0, 0.0, 1.0, 2.0],
    "empty": [],
}


@pytest.mark.parametrize("name", list(DEGENERACY_LISTS))
def test_degeneracies_match_anchored_loop(name):
    energies = DEGENERACY_LISTS[name]
    assert energies == sorted(energies)
    got = degeneracies(np.array(energies, dtype=float)).tolist()
    assert got == oracle_degeneracies(energies)
    if name.startswith("chain"):
        # anchored: 0.6 + 0.6 tolerances leave the group
        assert got == [2] * 8 + [1]


def test_degeneracies_match_anchored_loop_on_random_steps():
    rng = np.random.default_rng(5)
    for _ in range(200):
        start = rng.choice([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        steps = rng.choice([0.0, 0.3, 0.6, 0.99, 1.0, 1.01, 2.0], size=30)
        energies = [start]
        for step in steps:
            energies.append(energies[-1] + step * 1e-12
                            * max(1.0, abs(energies[-1])))
        assert degeneracies(np.array(energies)).tolist() \
            == oracle_degeneracies(energies)
