"""Command-line front end: config ingestion and the five subcommands.

Outputs are deterministic: fixed summation orders, floats printed with 17
significant digits, CSV with '.' decimals and complex values split into
re/im columns.  Exit codes: 0 success, 1 verification failure, 2 invalid
input or instability.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

from . import focklab
from .bogoliubov import solve_closed_form, spectrum
from .correlators import (CorrelatorSpec, InsertionPoint, exponents,
                          klein_sign, npoint_continuum)
from .errors import (BadArgument, BadGeometry, FermiphonError,
                     UnstableCouplings)
from .params import ModelParams, momentum_grid, validate_params
from .vertex import finite_correlator


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    model: ModelParams
    K: int
    ell: float
    regulator: float
    insertions: List[InsertionPoint]
    out_format: str
    out_path: Optional[str]
    correlate_grid: tuple        # (x_min, x_max, n, t)
    scan_grid: tuple             # (lam_min, lam_max, n_lam, g_min, g_max, n_g)


def load_config(path: str) -> RunConfig:
    """Parse the INI-style config (sections model/grid/correlator/output/scan)."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    m = cp["model"]
    model = ModelParams(
        v_f=m.getfloat("v_f"), v_p=m.getfloat("v_p"),
        lam=m.getfloat("lambda"), g=m.getfloat("g"),
        a=m.getfloat("a"), L=m.getfloat("L"),
        omega0=m.getfloat("omega0", fallback=0.0))
    K = cp.getint("grid", "K", fallback=2)
    co = cp["correlator"] if cp.has_section("correlator") else {}
    ell = float(co.get("ell", 1.0))
    regulator = float(co.get("regulator", 1e-8))
    insertions = _parse_insertions(co.get("insertions", "+:-:0:0 ; +:+:0:0"))
    cg = (float(co.get("x_min", 0.1)), float(co.get("x_max", 10.0)),
          int(co.get("points", 100)), float(co.get("t", 0.0)))
    sc = cp["scan"] if cp.has_section("scan") else {}
    sg = (float(sc.get("lambda_min", 0.0)), float(sc.get("lambda_max", 0.0)),
          int(sc.get("n_lambda", 1)), float(sc.get("g_min", 0.0)),
          float(sc.get("g_max", 0.0)), int(sc.get("n_g", 1)))
    for name, count in (("points", cg[2]), ("n_lambda", sg[2]),
                        ("n_g", sg[5])):
        if count <= 0:
            raise BadArgument(f"{name} must be positive, got {count}")
    out = cp["output"] if cp.has_section("output") else {}
    return RunConfig(model=model, K=K, ell=ell, regulator=regulator,
                     insertions=insertions,
                     out_format=out.get("format", "csv"),
                     out_path=out.get("path"), correlate_grid=cg, scan_grid=sg)


def _parse_insertions(text: str) -> List[InsertionPoint]:
    """Insertions as 'r:q:x:t' quadruples separated by ';', signs as +/-."""
    sgn = {"+": 1, "-": -1, "+1": 1, "-1": -1}
    out = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        r, q, x, t = (s.strip() for s in tok.split(":"))
        out.append(InsertionPoint(r=sgn[r], q=sgn[q], x=float(x), t=float(t)))
    return out


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


def _write_rows(out, fmt: str, header, rows):
    """Rows of already-formatted strings, as CSV or a JSON list of objects."""
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)


def _n_threads() -> int:
    try:
        return max(1, int(os.environ.get("THREADS", "1")))
    except ValueError:
        return 1


def _map_ordered(fn, items):
    n = _n_threads()
    if n == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))


# --------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, out) -> int:
    sol = solve_closed_form(cfg.model)
    tab = exponents(sol)
    doc = {
        "model": {
            "v_f": cfg.model.v_f, "v_p": cfg.model.v_p,
            "lambda": cfg.model.lam, "g": cfg.model.g, "a": cfg.model.a,
            "L": cfg.model.L, "omega0": cfg.model.omega0},
        "couplings": {"gamma1": sol.couplings.gamma1,
                      "gamma2": sol.couplings.gamma2, "W": sol.couplings.W},
        "solution": {
            "vtilde_f": sol.vtilde_f, "vtilde_p": sol.vtilde_p,
            "rho_f": sol.rho_f, "rho_p": sol.rho_p,
            "sigma_f": sol.sigma_f, "sigma_p": sol.sigma_p, "e0": sol.e0},
        "exponents": {
            "delta_cdw": tab.delta_cdw, "delta_sc": tab.delta_sc,
            "fermion_dimension": tab.fermion_dimension},
    }
    json.dump(doc, out, indent=2)
    out.write("\n")
    return 0


def cmd_verify(cfg: RunConfig, out) -> int:
    if cfg.K > 5:
        print("error: verify requires K <= 5", file=sys.stderr)
        return 2
    K = cfg.K
    grid = momentum_grid(L=2.0 * math.pi, K=K, a=math.pi / 2.0)
    space = focklab.build_space(grid)
    reports = []
    ok = True
    for rep in focklab.run_identity_suite(space):
        reports.append({
            "identity": rep.identity, "K": rep.K, "L": grid.L,
            "window": str(rep.window), "residual": str(rep.max_residual),
            "pass": rep.passed,
            "worst_pair": list(rep.worst_pair) if rep.worst_pair else None})
        ok = ok and rep.passed

    counts = focklab.degeneracy_counts(space, space.K - 1)
    deg_ok = all(f == b for f, b in counts.values())
    reports.append({
        "identity": "DEGENERACY", "K": K, "L": grid.L,
        "window": str(space.K - 1),
        "residual": "0" if deg_ok else "mismatch", "pass": deg_ok,
        "worst_pair": None})
    ok = ok and deg_ok

    resid, tail = focklab.jacobi_check(0.5, 60)
    jac_ok = resid <= tail + 1e-12
    reports.append({
        "identity": "JACOBI", "K": K, "L": grid.L, "window": "z=0.5,order=60",
        "residual": _fmt(resid), "pass": jac_ok, "worst_pair": None})
    ok = ok and jac_ok

    rec_ok = True
    rec_worst = None
    interior = space.interior_indices()
    rows = set(interior)
    for r in (+1, -1):
        for nu in space.fermion_modes():
            psi = focklab.field_op(space, r, nu)
            for col in interior:
                vec = focklab.reconstructed_field(space, r, nu, col)
                ref = psi.cols.get(col, {})
                keys = (set(vec) | set(ref)) & rows
                for row in keys:
                    a = vec.get(row)
                    b = ref.get(row)
                    if (a is None) != (b is None) or (a is not None and
                                                     not (a - b).is_zero()):
                        rec_ok = False
                        rec_worst = rec_worst or [row, col]
    reports.append({
        "identity": "RECONSTRUCTION", "K": K, "L": grid.L,
        "window": str(space.interior_window()),
        "residual": "0" if rec_ok else "mismatch", "pass": rec_ok,
        "worst_pair": rec_worst})
    ok = ok and rec_ok

    json.dump(reports, out, indent=2)
    out.write("\n")
    return 0 if ok else 1


def cmd_spectrum(cfg: RunConfig, e_max: float, out) -> int:
    sol = solve_closed_form(cfg.model)
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a)
    entries = spectrum(cfg.model, sol, e_max, grid)
    rows = []
    for e in entries:
        modes = ";".join(f"{fl}:{m}:{n}" for fl, m, n in e.occupations)
        rows.append([str(e.q_plus), str(e.q_minus), str(e.m_p0), modes,
                     str(e.degeneracy), _fmt(e.energy)])
    _write_rows(out, cfg.out_format,
                ["q_plus", "q_minus", "m_p0", "modes", "degeneracy", "energy"],
                rows)
    return 0


def cmd_correlate(cfg: RunConfig, mode: str, out) -> int:
    sol = solve_closed_form(cfg.model)
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a)
    x_min, x_max, n, t = cfg.correlate_grid
    word = [(p.r, p.q) for p in cfg.insertions]
    selected = klein_sign(word) != 0
    if not selected:
        print("warning: insertion word violates charge selection; "
              "emitting zero rows", file=sys.stderr)

    xs = [x_min + (x_max - x_min) * i / max(n - 1, 1) for i in range(n)]

    def one(x):
        if not selected:
            return 0.0j
        pts = [InsertionPoint(r=p.r, q=p.q, x=p.x + x, t=p.t + t)
               if i == 0 else p for i, p in enumerate(cfg.insertions)]
        spec = CorrelatorSpec(insertions=tuple(pts), ell=cfg.ell,
                              regulator=cfg.regulator)
        if mode == "finite":
            return finite_correlator(spec, cfg.model, sol, grid)["value"]
        return npoint_continuum(spec, sol)

    values = _map_ordered(one, xs)
    rows = [[_fmt(x), _fmt(t), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
            for x, v in zip(xs, values)]
    _write_rows(out, cfg.out_format, ["x", "t", "re", "im", "abs"], rows)
    return 0


def cmd_scan(cfg: RunConfig, out) -> int:
    lam_min, lam_max, n_lam, g_min, g_max, n_g = cfg.scan_grid
    points = []
    for i in range(n_lam):
        lam = lam_min + (lam_max - lam_min) * i / max(n_lam - 1, 1)
        for j in range(n_g):
            g = g_min + (g_max - g_min) * j / max(n_g - 1, 1)
            points.append((lam, g))

    base = cfg.model

    def one(pt):
        lam, g = pt
        params = ModelParams(v_f=base.v_f, v_p=base.v_p, lam=lam, g=g,
                             a=base.a, L=base.L, omega0=base.omega0)
        try:
            validate_params(params)
            sol = solve_closed_form(params)
        except FermiphonError as exc:
            return (lam, g, None, str(exc))
        tab = exponents(sol)
        return (lam, g, (sol.couplings.gamma1, sol.couplings.gamma2,
                         sol.vtilde_f, sol.vtilde_p, tab.delta_cdw,
                         tab.delta_sc), "")

    try:
        results = _map_ordered(one, points)
        rows = []
        for lam, g, vals, err in results:
            if vals is None:
                rows.append([_fmt(lam), _fmt(g), "", "", "", "", "", "", "0"])
            else:
                g1, g2, vtf, vtp, dcdw, dsc = vals
                rows.append([_fmt(lam), _fmt(g), _fmt(g1), _fmt(g2),
                             _fmt(vtf), _fmt(vtp), _fmt(dcdw), _fmt(dsc),
                             "1"])
        _write_rows(out, cfg.out_format,
                    ["lambda", "g", "gamma1", "gamma2", "vtilde_f",
                     "vtilde_p", "delta_cdw", "delta_sc", "stable"], rows)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermiphon",
        description="Exact solution engine for the 1D fermion-phonon model")
    ap.add_argument("--config", required=True, help="path to INI config")
    ap.add_argument("--output", default=None, help="output path (default stdout)")
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("solve")
    sub.add_parser("verify")
    sp = sub.add_parser("spectrum")
    sp.add_argument("--e-max", type=float, required=True)
    co = sub.add_parser("correlate")
    co.add_argument("--mode", choices=("finite", "continuum"),
                    default="continuum")
    co.add_argument("--regulator", type=float, default=None)
    co.add_argument("--ell", type=float, default=None)
    sub.add_parser("scan")
    return ap


def main(argv=None) -> int:
    """Run one subcommand; a FermiphonError becomes exit 2 with one line on
    stderr."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except UnstableCouplings as exc:
        print(f"unstable couplings: {exc}", file=sys.stderr)
    except FermiphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        validate_params(cfg.model)
    except (BadGeometry, BadArgument, KeyError, ValueError,
            configparser.Error, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.output:
        cfg.out_path = args.output
    if args.format:
        cfg.out_format = args.format
    if getattr(args, "regulator", None) is not None:
        cfg.regulator = args.regulator
    if getattr(args, "ell", None) is not None:
        cfg.ell = args.ell

    out = _open_out(cfg.out_path)
    try:
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.e_max, out)
        if args.command == "correlate":
            return cmd_correlate(cfg, args.mode, out)
        if args.command == "scan":
            return cmd_scan(cfg, out)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
