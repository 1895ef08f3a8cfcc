"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from fermiphon import ModelParams, derived_couplings, momentum_grid
from fermiphon.bogoliubov import (diagonalize_numeric, solve_closed_form)
from fermiphon.correlators import (CorrelatorSpec, InsertionPoint,
                                   free_finite_L, npoint_continuum)
from fermiphon.focklab import (build_space, degeneracy_counts, density_op,
                               field_op, reconstructed_field)
from fermiphon.vertex import finite_correlator, z_renorm
from fermiphon import cli
from oracles import jacobi_check, run_identity_suite, two_point

TWO_PI = 2.0 * math.pi


def report(n, ok, desc):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_fock_identity_suite():
    t0 = time.time()
    space = build_space(2)
    reports = run_identity_suite(space)
    ok = all(r.max_residual == 0 for r in reports)
    # Schwinger eigenvalues on the vacuum: r L p / 2 pi = m at p = m 2 pi / L
    for m in (1, 2):
        comm = density_op(space, +1, m).commutator(density_op(space, +1, -m))
        ok = ok and comm.cols.get(space.vacuum) == {space.vacuum: m}
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, "all identities exactly 0 on the interior window at K=2, "
           f"L=2pi ({elapsed:.1f}s)")


def test_criterion_2_boson_fermion_correspondence():
    space = build_space(3)
    counts = degeneracy_counts(space, 2)
    ok = Fraction(2) in counts
    for e, (dim_f, dim_b) in counts.items():
        ok = ok and dim_f == dim_b
    resid, _tail = jacobi_check(0.5, 60)
    ok = ok and resid < 1e-12
    report(2, ok, "dim_F(E) = dim_B(E) for all E <= 2 (2 pi / L) at K=3; "
           f"Jacobi residual {resid:.2e} < 1e-12")


def test_criterion_3_field_reconstruction():
    space = build_space(2)
    interior = space.interior_indices()
    rows = set(interior)
    ok = True
    checked = 0
    for r in (+1, -1):
        for nu in space.fermion_modes():
            psi = field_op(space, r, nu)
            for col in interior:
                vec = reconstructed_field(space, r, nu, col)
                ref = psi.cols.get(col, {})
                for row in rows:
                    a = vec.get(row, 0)
                    b = ref.get(row, 0)
                    checked += 1
                    ok = ok and a - b == 0
    report(3, ok, f"reconstructed field equals psi-hat entrywise (exact) on "
           f"{checked} interior matrix elements at K=2, all k in window")


def test_criterion_4_bogoliubov_cross_validation():
    rng = np.random.default_rng(2024)
    ok = True
    n_pts = 0
    worst_num = worst_id = worst_sum = 0.0
    while n_pts < 1000:
        v_f = rng.uniform(0.5, 3.0)
        v_p = rng.uniform(0.05, 0.95) * v_f
        g1 = rng.uniform(-0.95, 0.95)
        lam = g1 * TWO_PI * v_f
        g2 = rng.uniform(-0.98, 0.98) * math.sqrt(1.0 + g1)
        g = g2 * v_p * math.sqrt(math.pi * v_f)
        params = ModelParams(v_f=v_f, v_p=v_p, lam=lam, g=g, a=0.02, L=50.0)
        if derived_couplings(params).W <= 1e-8 * v_f * v_f:
            continue
        n_pts += 1
        sol = solve_closed_form(params)
        p = 3 * TWO_PI / params.L
        d = diagonalize_numeric(params, p)
        worst_num = max(
            worst_num,
            abs(d["omega_f"] / p - sol.vtilde_f),
            abs(d["omega_p"] / p - sol.vtilde_p),
            abs(d["curly_c"][0, 0] - sol.rho_f),
            abs(d["curly_c"][0, 1] - sol.rho_p),
            abs(-d["curly_s"][0, 0] - sol.sigma_f),
            abs(-d["curly_s"][0, 1] - sol.sigma_p))
        worst_id = max(worst_id, abs(
            sol.rho_f**2 - sol.sigma_f**2 + sol.rho_p**2 - sol.sigma_p**2
            - 1.0))
        worst_sum = max(worst_sum, abs(
            (sol.rho_f**2 + sol.sigma_f**2) * sol.vtilde_f
            + (sol.rho_p**2 + sol.sigma_p**2) * sol.vtilde_p - v_f))
    ok = worst_num < 1e-10 and worst_id < 1e-12 and worst_sum < 1e-12

    # Thirring limit at g = 0 (restricted region)
    worst_th = 0.0
    for g1 in (-0.7, -0.3, 0.2, 0.5, 0.8):
        params = ModelParams(v_f=1.0, v_p=0.3, lam=g1 * TWO_PI, g=0.0,
                             a=0.02, L=50.0)
        sol = solve_closed_form(params)
        vt = math.sqrt(1.0 - g1 * g1)
        worst_th = max(
            worst_th,
            abs(sol.vtilde_f - vt), abs(sol.vtilde_p - 0.3),
            abs(sol.rho_f - math.sqrt((1 + vt) / (2 * vt))),
            abs(abs(sol.sigma_f) - math.sqrt((1 - vt) / (2 * vt))),
            abs(sol.rho_p), abs(sol.sigma_p),
            abs((sol.rho_f - sol.sigma_f) ** 2
                - math.sqrt((1 - g1) / (1 + g1))))
    ok = ok and worst_th < 1e-12
    report(4, ok, f"1000 random stable points: closed vs numeric {worst_num:.1e}"
           f" < 1e-10; identities {max(worst_id, worst_sum):.1e} < 1e-12; "
           f"Thirring limit {worst_th:.1e} < 1e-12")


def test_criterion_5_free_correlator_oracles():
    L, a = 20.0, 0.05
    params = ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0, a=a, L=L)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=L, K=4, a=a)
    reg = 1e-3
    x1, x2 = 1.3, -0.7
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(+1, -1, x1, 0.0),
                    InsertionPoint(+1, +1, x2, 0.0)),
        ell=1.0, regulator=reg)

    # momentum-sum geometric-series oracle
    f_val = free_finite_L(spec, L)
    series = 0.0j
    m = 0
    while True:
        k = (TWO_PI / L) * (m + 0.5)
        term = cmath.exp(1j * k * (x1 - x2) - reg * k) / L
        series += term
        m += 1
        if abs(term) < 1e-18:
            break
    ok = abs(f_val - series) < 1e-10 * abs(series)

    # vertex-engine finite correlator within its reported bound (the exact
    # finite-eps kernel carries the factor e^{N pi reg / 2L} relative to the
    # i0+ closed form)
    rep = finite_correlator(spec, params, sol, grid)
    target = f_val * math.exp(2.0 * math.pi * reg / (2.0 * L))
    ok = ok and abs(rep["value"] - target) <= rep["tail_bound"]

    # Wick/Cauchy: same-chirality free 2M-point equal-time functions match
    # the determinant of two-point functions
    rng = np.random.default_rng(77)
    wick_reg = 1e-12
    worst = 0.0
    for M in (1, 2, 3, 4):
        done = 0
        while done < 10:
            x = np.sort(rng.uniform(-4.0, 4.0, 2 * M))
            if 2 * M > 1 and np.min(np.diff(x)) < 0.5:
                continue
            x = rng.permutation(x)
            done += 1
            ins = tuple(InsertionPoint(+1, +1, x[n], 0.0) for n in range(M)) \
                + tuple(InsertionPoint(+1, -1, x[M + n], 0.0)
                        for n in range(M))
            lhs = npoint_continuum(
                CorrelatorSpec(insertions=ins, ell=1.0, regulator=wick_reg),
                sol)
            G = [[two_point(+1, x[2 * M - 1 - m] - x[n], 0.0, sol, 1.0,
                            wick_reg) for m in range(M)] for n in range(M)]
            det = ((-1) ** M) * np.linalg.det(np.array(G, dtype=complex))
            worst = max(worst, abs(lhs - det) / abs(det))
    ok = ok and worst < 1e-10
    report(5, ok, "free 2-point matches momentum-sum oracle to 1e-10 and the "
           "vertex engine within its reported bound; Wick determinant "
           f"worst {worst:.1e} < 1e-10 for M <= 4")


def test_criterion_6_four_point_closed_form():
    params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.05, L=20.0)
    sol = solve_closed_form(params)
    reg = 1e-8

    def paper_four_point(xs, ts):
        def d(n, m):
            return xs[n - 1] - xs[m - 1], ts[n - 1] - ts[m - 1]

        out = (1.0 / (2.0 * math.pi)) ** 2
        for r in (+1, -1):
            for fl in ("F", "P"):
                vt = sol.vtilde(fl)
                rs = sol.rho(fl) * sol.sigma(fl)
                x13, t13 = d(1, 3)
                x12, t12 = d(1, 2)
                out *= cmath.exp(rs * cmath.log(
                    (r * x13 - vt * t13 + 1j * reg)
                    / (r * x12 - vt * t12 + 1j * reg)))
                x24, t24 = d(2, 4)
                x34, t34 = d(3, 4)
                out *= cmath.exp(rs * cmath.log(
                    (r * x24 - vt * t24 + 1j * reg)
                    / (r * x34 - vt * t34 + 1j * reg)))
        for fl in ("F", "P"):
            vt = sol.vtilde(fl)
            r2, s2 = sol.rho(fl) ** 2, sol.sigma(fl) ** 2
            x14, t14 = d(1, 4)
            x23, t23 = d(2, 3)
            out *= cmath.exp(r2 * cmath.log(1j / (x14 - vt * t14 + 1j * reg)))
            out *= cmath.exp(s2 * cmath.log(1j / (-x14 - vt * t14 + 1j * reg)))
            out *= cmath.exp(s2 * cmath.log(1j / (x23 - vt * t23 + 1j * reg)))
            out *= cmath.exp(r2 * cmath.log(1j / (-x23 - vt * t23 + 1j * reg)))
        return out

    rng = np.random.default_rng(99)
    worst = 0.0
    done = 0
    while done < 50:
        xs = rng.uniform(-2.0, 2.0, 4)
        ts = rng.uniform(-1.0, 1.0, 4)
        clear = True
        for n in range(4):
            for m in range(n + 1, 4):
                for fl in ("F", "P"):
                    for r in (+1, -1):
                        if abs(r * (xs[n] - xs[m])
                               - sol.vtilde(fl) * (ts[n] - ts[m])) < 0.05:
                            clear = False
        if not clear:
            continue
        done += 1
        spec = CorrelatorSpec(
            insertions=(InsertionPoint(+1, -1, xs[0], ts[0]),
                        InsertionPoint(-1, +1, xs[1], ts[1]),
                        InsertionPoint(-1, -1, xs[2], ts[2]),
                        InsertionPoint(+1, +1, xs[3], ts[3])),
            ell=1.0, regulator=reg)
        mine = npoint_continuum(spec, sol)
        ref = paper_four_point(xs, ts)
        worst = max(worst, abs(mine - ref) / abs(ref))
    ok = worst < 1e-12
    report(6, ok, f"four-point closed form factor-by-factor, worst relative "
           f"deviation {worst:.1e} < 1e-12 over 50 configurations")


def test_criterion_7_continuum_limit_convergence():
    t0 = time.time()
    ell = 1.0
    pts = [(1.0, 0.0), (1.3, 0.4), (0.7, -0.2)]
    ok = True
    finals = []
    for (x, t) in pts:
        errs = []
        for s in (1, 4, 16):
            L = s * 1e3 * ell
            a = ell / (s * 1e2)
            eps = ell / (s * 1e1)
            params = ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=a, L=L)
            sol = solve_closed_form(params)
            grid = momentum_grid(L=L, K=4, a=a)
            spec = CorrelatorSpec(
                insertions=(InsertionPoint(+1, -1, x, t),
                            InsertionPoint(+1, +1, 0.0, 0.0)),
                ell=ell, regulator=eps)
            value = finite_correlator(spec, params, sol, grid)["value"]
            # per-field multiplicative renormalization of the finite model;
            # its eps -> 0, a << L asymptote is (e^gamma pi ell / a)^{sigma^2}
            ssum = sol.sigma_f**2 + sol.sigma_p**2
            z = z_renorm(params, sol, eps)["Z"]
            renorm = (TWO_PI * ell / L) ** ssum / z
            target = two_point(+1, x, t, sol, ell=ell, regulator=1e-8 * ell)
            errs.append(abs(renorm ** 2 * value - target) / abs(target))
        ok = ok and all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        ok = ok and errs[-1] < 0.02
        finals.append(errs[-1])
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(7, ok, "renormalized finite 2-point converges monotonically to the "
           f"continuum closed form, final errors {[f'{e:.4f}' for e in finals]}"
           f" < 0.02 ({elapsed:.0f}s < 300s)")


def test_criterion_8_exponent_scan(tmp_path):
    import csv
    config = tmp_path / "scan.ini"
    config.write_text(
        "[model]\nv_f = 1.0\nv_p = 0.3\nlambda = 0.0\ng = 0.0\n"
        "a = 0.05\nL = 20.0\n\n[grid]\nK = 4\n\n[scan]\n"
        f"lambda_min = {-0.9 * TWO_PI}\nlambda_max = {0.9 * TWO_PI}\n"
        "n_lambda = 37\ng_min = 0.0\ng_max = 0.0\nn_g = 1\n")
    out = tmp_path / "scan.csv"
    code = cli.main(["--config", str(config), "--output", str(out), "scan"])
    ok = code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    ok = ok and len(rows) == 37
    worst_prod = worst_v = 0.0
    for row in rows:
        ok = ok and row["stable"] == "1"
        g1 = float(row["gamma1"])
        worst_prod = max(worst_prod, abs(
            float(row["delta_cdw"]) * float(row["delta_sc"]) - 1.0))
        worst_v = max(worst_v, abs(
            float(row["vtilde_f"]) - math.sqrt(1.0 - g1 * g1)))
    ok = ok and worst_prod < 1e-12 and worst_v < 1e-12
    report(8, ok, f"scan at g=0 over gamma1 in (-0.9, 0.9): "
           f"|Delta_CDW Delta_SC - 1| {worst_prod:.1e} and "
           f"|vtilde_f - v_f sqrt(1-gamma1^2)| {worst_v:.1e}, both < 1e-12")
