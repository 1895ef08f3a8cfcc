"""Command-line front end: config ingestion and the five subcommands.

Outputs are deterministic: fixed summation orders, floats written as "%.17g",
complex values split into re/im columns.  A table row is one CSV line ending
in '\\r\\n' as csv.writer's did, and no field is ever quoted (none holds a
comma, quote, backslash or control character).  A value that many rows
share is formatted once: `scan` formats lambda and gamma1 once per lambda
and g and gamma2 once per g, `spectrum` each tree node's modes, each
sector's charges and zero-mode level and each distinct energy, and
`correlate` its t.  A JSON table is `json.dump(rows, indent=2)` of the CSV
rows as strings.  Exit codes: 0 success, 1 failed verification, 2 a usage
error, invalid input, instability, a grid past GRID_CAP or too large for
memory, or an output that cannot be written.

Importing this module loads neither numpy nor the Fock lab: `verify` loads
the Fock lab (pure Python) and never numpy; `solve`, `spectrum`, `correlate`
and `scan` load numpy in the kernels that use it and never the Fock lab.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, NamedTuple

from .bogoliubov import closed_form, solve_closed_form, spectrum
from .correlators import (CorrelatorSpec, InsertionPoint, exponents,
                          klein_sign, npoint_continuum)
from .errors import (BadArgument, BadGeometry, FermiphonError,
                     TruncationTooLarge, UnstableCouplings)
from .params import ModelParams, _gammas, momentum_grid, validate_params
from .vertex import finite_correlator

if TYPE_CHECKING:
    import numpy as np

# most rows one `scan` writes and most points one `correlate` sweeps: 25 times
# the 200 x 200 scan and 50 times the 2e4-point continuum sweep of the
# benchmark.  In process on a 2-core Xeon that many take about 7 s as a scan
# (135 MB of CSV) and 10 s and 240 MB as a continuum 4-point sweep.
GRID_CAP = 1_000_000


@dataclass
class RunConfig:
    model: ModelParams
    K: int
    ell: float
    regulator: float
    insertions: List[InsertionPoint]
    correlate_grid: tuple        # (x_min, x_max, n, t)
    scan_grid: tuple             # (lam_min, lam_max, n_lam, g_min, g_max, n_g)


def load_config(path: str) -> RunConfig:
    """Parse the INI-style config (sections model/grid/correlator/scan)."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    m = cp["model"]
    model = ModelParams(
        v_f=float(m["v_f"]), v_p=float(m["v_p"]),
        lam=float(m["lambda"]), g=float(m["g"]),
        a=float(m["a"]), L=float(m["L"]),
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
    return RunConfig(model=model, K=K, ell=ell, regulator=regulator,
                     insertions=insertions, correlate_grid=cg, scan_grid=sg)


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


class Table(NamedTuple):
    """A header and rows as CSV lines ending in '\\r\\n', written as CSV or
    JSON; rows may be an iterator that formats each row as it is written."""

    header: List[str]
    rows: Iterable[str]


def _write(out, fmt: str, payload):
    """A Table as CSV or as a JSON list of objects (each CSV line's fields
    fill one object template); any other payload as a JSON document."""
    if not isinstance(payload, Table):
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        out.write(",".join(payload.header) + "\r\n")
        out.writelines(payload.rows)
    else:
        obj = "{\n    %s\n  }" % ",\n    ".join(
            f'"{name}": "%s"' for name in payload.header)
        rows = iter(payload.rows)
        sep = "[\n  "
        # a block of lines is split into fields at once and fills one
        # template of as many objects
        while block := list(islice(rows, 2048)):
            fields = "".join(block)[:-2].replace("\r\n", ",").split(",")
            out.write(sep + ",\n  ".join([obj] * len(block)) % tuple(fields))
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")


# --------------------------------------------------------------------------
# Each command returns (exit code, payload); the caller writes the payload.


def cmd_solve(cfg: RunConfig):
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
    return 0, doc


def cmd_verify(cfg: RunConfig):
    if cfg.K > 6:
        raise BadArgument("verify requires K <= 6")
    from . import focklab
    K = cfg.K
    space = focklab.build_space(K)

    def row(name, window, residual, passed, worst=None):
        # the lab works in units of the mode spacing, i.e. at L = 2 pi
        return {"identity": name, "K": K, "L": 2.0 * math.pi,
                "window": str(window), "residual": residual, "pass": passed,
                "worst_pair": list(worst) if worst else None}

    def report_row(rep):
        return row(rep.identity, rep.window, str(rep.max_residual),
                   rep.passed, rep.worst_pair)

    reports = [report_row(rep) for rep in focklab.run_identity_suite(space)]
    counts = focklab.degeneracy_counts(space, K - 1)
    deg_ok = all(f == b for f, b in counts.values())
    reports.append(row("DEGENERACY", K - 1, "0" if deg_ok else "mismatch",
                       deg_ok))
    resid, tail = focklab.jacobi_check(0.5, 60)
    reports.append(row("JACOBI", "z=0.5,order=60", "%.17g" % resid,
                       resid <= tail + 1e-12))
    reports.append(report_row(focklab.reconstruction_report(space)))
    return (0 if all(r["pass"] for r in reports) else 1), reports


def cmd_spectrum(cfg: RunConfig, e_max: float):
    import numpy as np
    sol = solve_closed_form(cfg.model)
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a)
    levels = spectrum(cfg.model, sol, e_max, grid)

    def rows():
        # levels share tree nodes, sectors and energies: each node's modes,
        # each sector's prefix and each energy (with the degeneracy of its
        # group) is formatted once
        modes = [";".join(f"{fl}:{m}:{n}" for fl, m, n in occ)
                 for occ in levels.occupations]
        bits = levels.energy.view(np.int64)
        new = np.ones(len(bits), dtype=bool)
        new[1:] = bits[1:] != bits[:-1]
        tails = ["%d,%.17g\r\n" % pair for pair in zip(
            levels.degeneracy[new].tolist(), levels.energy[new].tolist())]
        prefixes = {}
        sectors = zip(levels.q_plus.tolist(), levels.q_minus.tolist(),
                      levels.m_p0.tolist())
        for sector, k, run in zip(sectors, levels.node.tolist(),
                                  (np.cumsum(new) - 1).tolist()):
            prefix = prefixes.get(sector)
            if prefix is None:
                prefix = prefixes[sector] = "%d,%d,%d," % sector
            yield prefix + modes[k] + "," + tails[run]
    return 0, Table(
        ["q_plus", "q_minus", "m_p0", "modes", "degeneracy", "energy"],
        rows())


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points lo + (hi - lo) i / (n - 1); non-finite ends give inf or nan
    points, without warnings."""
    import numpy as np
    with np.errstate(all="ignore"):
        return lo + (hi - lo) * np.arange(n) / max(n - 1, 1)


def _check_cap(what: str, count: int):
    """Raise TruncationTooLarge when a grid asks for more than GRID_CAP
    rows or points."""
    if count > GRID_CAP:
        raise TruncationTooLarge(f"{count} {what} asked for, more than "
                                 f"{GRID_CAP}; use a coarser grid")


def cmd_correlate(cfg: RunConfig, mode: str):
    x_min, x_max, n, t = cfg.correlate_grid
    _check_cap("correlate points", n)
    sol = solve_closed_form(cfg.model)
    # only the vertex engine reads the grid
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a) \
        if mode == "finite" else None
    word = [(p.r, p.q) for p in cfg.insertions]
    xs = _grid(x_min, x_max, n).tolist()
    if klein_sign(word) == 0:
        print("warning: insertion word violates charge selection; "
              "emitting zero rows", file=sys.stderr)
        values = [0.0j] * n
    else:
        # the first insertion sweeps x and moves by t; the spec holds it at
        # the first point
        pts = list(cfg.insertions)
        positions = xs
        if pts:
            positions = [pts[0].x + x for x in xs]
            pts[0] = replace(pts[0], x=positions[0], t=pts[0].t + t)
        spec = CorrelatorSpec(insertions=tuple(pts), ell=cfg.ell,
                              regulator=cfg.regulator)
        if mode == "finite":
            values = [res["value"] for res in finite_correlator(
                spec, cfg.model, sol, grid, xs=positions)]
        else:
            values = npoint_continuum(spec, sol, xs=positions)
    # t is one value for every row: formatted once
    row = "%%.17g,%.17g,%%.17g,%%.17g,%%.17g\r\n" % t
    rows = [row % (x, v.real, v.imag, abs(v)) for x, v in zip(xs, values)]
    return 0, Table(["x", "t", "re", "im", "abs"], rows)


def cmd_scan(cfg: RunConfig):
    import numpy as np
    lam_min, lam_max, n_lam, g_min, g_max, n_g = cfg.scan_grid
    _check_cap("scan rows", n_lam * n_g)
    lams = _grid(lam_min, lam_max, n_lam)
    gs = _grid(g_min, g_max, n_g)

    def rows():
        # lambda and gamma1 depend on the lambda axis only, g and gamma2 on
        # the g axis: each is formatted once per grid line; gamma1 and
        # gamma2 are the float operations closed_form takes at each point
        with np.errstate(all="ignore"):
            g1s, g2s = _gammas(replace(cfg.model, lam=lams, g=gs))
        lam_s, g_s, g1_s, g2_s = (["%.17g" % v for v in axis.tolist()]
                                  for axis in (lams, gs, g1s, g2s))
        # blocks of 2048 points k = (lams[k // n_g], gs[k % n_g]) keep the
        # kernel's arrays small; each is written before the next is solved
        for lo in range(0, n_lam * n_g, 2048):
            lam_at, g_at = np.divmod(
                np.arange(lo, min(lo + 2048, n_lam * n_g)), n_g)
            # points without a solution may hold inf or nan: no warnings
            with np.errstate(all="ignore"):
                sol, status = closed_form(replace(cfg.model, lam=lams[lam_at],
                                                  g=gs[g_at]))
                tab = exponents(sol)
                table = np.column_stack((
                    sol.vtilde_f, sol.vtilde_p, tab.delta_cdw,
                    tab.delta_sc)).tolist()
            for i, j, stable, vals in zip(lam_at.tolist(), g_at.tolist(),
                                          (status == 0).tolist(), table):
                yield ("%s,%s,%s,%s,%.17g,%.17g,%.17g,%.17g,1\r\n" % (
                    lam_s[i], g_s[j], g1_s[i], g2_s[j], *vals) if stable
                    else "%s,%s,,,,,,,0\r\n" % (lam_s[i], g_s[j]))
    return 0, Table(["lambda", "g", "gamma1", "gamma2", "vtilde_f",
                     "vtilde_p", "delta_cdw", "delta_sc", "stable"], rows())


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise BadArgument (one line,
    exit 2 through `main`) instead of printing usage and exiting; the
    subcommand parsers are of this class too."""

    def error(self, message):
        # a token may hold a line break; escaped, the message stays one line
        raise BadArgument(message.translate({
            ord(c): repr(c)[1:-1]
            for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one
    (parse_args keeps nothing between calls)."""
    ap = _Parser(
        prog="fermiphon",
        description="Exact solution engine for the 1D fermion-phonon model")
    ap.add_argument("--config", required=True, help="path to INI config")
    ap.add_argument("--output", default=None,
                    help="output path (default stdout); written only once "
                         "the command has a result")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("solve")
    sub.add_parser("verify")
    sp = sub.add_parser("spectrum")
    sp.add_argument("--e-max", type=float, required=True)
    co = sub.add_parser("correlate")
    co.add_argument("--mode", choices=("finite", "continuum"),
                    default="continuum")
    sub.add_parser("scan")
    return ap


def main(argv=None) -> int:
    """Run one subcommand; a usage error, a FermiphonError, a grid too large
    for memory or an I/O failure becomes exit 2 with one line on stderr
    (-h prints help and exits 0)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -1e-3 or -inf after --e-max (or an
    # abbreviation it accepts for it, such as --e-m) as an option; joined as
    # --e-max=VALUE it is read as the value it is
    i = 0
    while i < len(argv) - 1:
        if len(argv[i]) > 2 and "--e-max".startswith(argv[i]):
            argv[i:i + 2] = ["--e-max=" + argv[i + 1]]
        i += 1
    try:
        return _run(build_parser().parse_args(argv))
    except UnstableCouplings as exc:
        print(f"unstable couplings: {exc}", file=sys.stderr)
    except FermiphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print("out of memory:", str(exc) or "grid too large", file=sys.stderr)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
    return 2


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        validate_params(cfg.model)
    except (BadGeometry, BadArgument, KeyError, ValueError,
            configparser.Error, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    if args.command == "solve":
        code, payload = cmd_solve(cfg)
    elif args.command == "verify":
        code, payload = cmd_verify(cfg)
    elif args.command == "spectrum":
        code, payload = cmd_spectrum(cfg, args.e_max)
    elif args.command == "correlate":
        code, payload = cmd_correlate(cfg, args.mode)
    else:
        code, payload = cmd_scan(cfg)
    # opened only now, so a command that fails leaves an existing file alone
    if args.output:
        with open(args.output, "w", newline="") as out:
            _write(out, args.format, payload)
    else:
        _write(sys.stdout, args.format, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
