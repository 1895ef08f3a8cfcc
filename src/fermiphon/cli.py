"""Command-line front end: config ingestion and the five subcommands.

Outputs are deterministic: fixed summation orders, floats written as "%.17g",
complex values split into re/im columns.  A table row is one CSV line ending
in '\\r\\n' as csv.writer's did, and no field is ever quoted (none holds a
comma, quote, backslash or control character).  A value that many rows
share is formatted once: `scan` formats lambda and gamma1 once per lambda
and g and gamma2 once per g, `spectrum` each tree node's modes once, each
sector's charges and zero-mode level once per process and each distinct
energy once per block, and `correlate` its t.  A JSON table is
`json.dump(rows, indent=2)` of the CSV rows as strings.  Exit codes: 0
success, 1 failed verification, 2 a usage error, invalid input,
instability, a grid past GRID_CAP or too large for memory, or an output
that cannot be written.

Importing this module loads neither numpy nor the Fock lab: `verify` loads
the Fock lab (pure Python) and never numpy; `solve`, `spectrum`, `correlate`
and `scan` load numpy in the kernels that use it and never the Fock lab.
Every `verify` row is an exact identity: its residual is an exact rational,
and the row passes exactly when it is 0.

Every command but `solve` builds its rows on up to one process per CPU
this process may run on and per task: itself and workers forked from it,
which take the tasks from one pipe and send each result back as soon as it
is built (`run_tasks`).  A `verify` task is one report row, handed out
longest first; a `scan` task is 2048 grid points, a `spectrum` task 2048
levels (enumerated before any worker forks) and a `correlate` task 256
positions, each solved or formatted to its CSV lines by the process that
takes it, in table order.  The rows come back in order, so the output
does not depend on the process count, and a command of one task never forks.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, NamedTuple

from .bogoliubov import closed_form, solve_closed_form, spectrum
from .correlators import (SWEEP_BLOCK, CorrelatorSpec, InsertionPoint,
                          exponents, klein_sign, npoint_continuum)
from .errors import (BadArgument, BadGeometry, FermiphonError,
                     TruncationTooLarge, UnstableCouplings)
from .params import ModelParams, _gammas, momentum_grid, validate_params
from .vertex import finite_correlator

if TYPE_CHECKING:
    import numpy as np

# most rows one `scan` writes and most points one `correlate` sweeps: 25 times
# the 200 x 200 scan and 50 times the 2e4-point continuum sweep of the
# benchmark.  As CSV to a file in fresh processes on a shared 2-core Xeon,
# that many take 1.6-2.1 s at 32.3 MB peak RSS (25.7 MB in the worker) as a
# scan and 3.8-5.3 s at 44.2 MB (30.1 MB in the worker) as a continuum
# 4-point sweep; on one CPU (one process) 2.3 s at 31.3 MB and 6.7-7.7 s at
# 44.3 MB.
GRID_CAP = 1_000_000

# points of one `scan` task and levels of one `spectrum` task
SCAN_BLOCK = 2048


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
    JSON.  Each element of rows is one or more whole lines, and rows may be
    an iterator that formats its elements as they are written."""

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
        rows, take = iter(payload.rows), 1
        sep = "[\n  "
        # a block of about 2048 lines is split into fields at once and fills
        # one template of as many objects; a row holds one line or a block
        # of them, so the first block is one row and each next block as
        # many rows as held 2048 lines in the last
        while block := list(islice(rows, take)):
            fields = "".join(block)[:-2].replace("\r\n", ",").split(",")
            lines = len(fields) // len(payload.header)
            out.write(sep + ",\n  ".join([obj] * lines) % tuple(fields))
            sep = ",\n  "
            take = max(1, take * 2048 // lines)
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


# the rows of a `verify` report in report order, and the order in which
# they are handed out, longest first at every K from 4 to 7 (serial, one
# process): the first five take 90-97 % of the time at every K from 3 to 7
VERIFY_ROWS = ("CAR", "SCHWINGER", "J_PSI", "H0_J", "J_R", "H0_R", "RR_ANTI",
               "KRONIG", "DEGENERACY", "JACOBI", "RECONSTRUCTION")
LONGEST_FIRST = ("J_PSI", "CAR", "RECONSTRUCTION", "SCHWINGER", "H0_J",
                 "J_R", "KRONIG", "H0_R", "DEGENERACY", "RR_ANTI", "JACOBI")


def cmd_verify(cfg: RunConfig):
    from . import focklab
    K = cfg.K
    space = focklab.build_space(K)

    def build(index):
        name = VERIFY_ROWS[index]
        if name == "DEGENERACY":
            counts = focklab.degeneracy_counts(space, K - 1)
            rep = focklab.IdentityReport(
                name, K, window=K - 1, checks=len(counts),
                max_residual=max(abs(f - b) for f, b in counts.values()))
        elif name == "JACOBI":
            # an identity of integer coefficients, the same at every K
            rep = focklab.jacobi_check(60)
        elif name == "RECONSTRUCTION":
            rep = focklab.reconstruction_report(space)
        else:
            rep = focklab.identities.identity_residual(space, name)
        # the lab works in units of the mode spacing, i.e. at L = 2 pi
        return {"identity": name, "K": K, "L": 2.0 * math.pi,
                "window": str(rep.window), "residual": str(rep.max_residual),
                "pass": rep.passed,
                "worst_pair": list(rep.worst_pair) if rep.worst_pair else None}

    reports = list(run_tasks(build, len(VERIFY_ROWS), [
        VERIFY_ROWS.index(name) for name in LONGEST_FIRST]))
    return (0 if all(r["pass"] for r in reports) else 1), reports


def cpu_count() -> int:
    """CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


# most results that wait here for an earlier one while this process still
# takes tasks of its own
WAITING = 4


def _attempt(build, index: int):
    """(True, build(index)), or (False, the exception it raised)."""
    try:
        return True, build(index)
    except Exception as exc:
        return False, exc


def _take(tasks: int):
    """The next task index in the pipe `tasks`, or None once it is empty."""
    data = os.read(tasks, 4)
    return int.from_bytes(data, "little") if data else None


def _read(fd: int, size: int) -> bytes:
    """size bytes from the pipe fd, or fewer if it ends first."""
    parts, left = [], size
    while left and (part := os.read(fd, left)):
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _send(out, index: int, attempt):
    """Write (index, attempt) pickled, after its size in 8 bytes, to the
    binary file out and flush it."""
    import pickle
    data = pickle.dumps((index, attempt))
    out.write(len(data).to_bytes(8, "little") + data)
    out.flush()


def _receive(back: int, done: dict) -> bool:
    """Read the next result a worker sent through the pipe `back` into done
    ({index: attempt}); False if the pipe ends before a whole one, which
    happens only once the worker has ended."""
    import pickle
    head = _read(back, 8)
    size = int.from_bytes(head, "little")
    data = _read(back, size)
    if len(head) < 8 or len(data) < size:
        return False
    index, attempt = pickle.loads(data)
    done[index] = attempt
    return True


def _reap(workers: dict, kill: bool):
    """Close the result pipe of each worker in workers ({pipe: pid}) and
    reap it, killed first if kill; workers is left empty."""
    for back, pid in workers.items():
        if kill:
            import signal
            os.kill(pid, signal.SIGKILL)
        os.close(back)
        os.waitpid(pid, 0)
    workers.clear()


def run_tasks(build, count: int, order: Iterable[int] = ()):
    """Yield build(i) for i in range(count), in index order, built by this
    process and up to W - 1 forked workers, W = min(cpu_count(), count).

    The task indices wait in one pipe, four bytes each, in `order`
    (ascending by default), and every process takes one at a time until
    the pipe is empty; if the pipe cannot hold them all, or W = 1, nothing
    forks.  A worker sends each result, or the exception its task raised,
    pickled through its own pipe as soon as it has it, and leaves with
    os._exit once the pipe is empty.  This process reads what the workers
    sent between its own tasks and yields each result that is next in
    order; while more than WAITING results wait for an earlier one, it
    takes no task and waits for the workers instead.  A worker that ends
    other than by exit 0 may take a task with it: the other workers are
    then killed too.  Once no worker is left, this process builds each
    task it still lacks in index order.  The exception of the first
    failing index is raised, as a serial loop would raise it.  Every worker
    is reaped before this returns, and killed first if it is still running
    when this leaves by an exception or is closed."""
    import select
    tasks, feed = os.pipe()
    data = b"".join(i.to_bytes(4, "little") for i in order or range(count))
    # a new pipe holds 4-64 KiB and nothing reads this one yet: written
    # without blocking, a pipe too small for every index leaves this
    # process to build them all
    os.set_blocking(feed, False)
    width = min(cpu_count(), count)
    if os.write(feed, data) < len(data):
        width = 1
    os.close(feed)
    workers = {}                # result pipe -> pid of each unreaped worker
    try:
        for _ in range(width - 1):
            back, send = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(back)
                    with open(send, "wb") as out:
                        while (index := _take(tasks)) is not None:
                            _send(out, index, _attempt(build, index))
                    code = 0
                finally:
                    os._exit(code)
            os.close(send)
            workers[back] = pid
        done = {}               # index -> attempt, until it is yielded
        more = True             # the pipe may still hold tasks
        for i in range(count):
            while i not in done:
                if not workers:
                    # none was forked or none is left: the pipe is not read
                    # again, and each task still lacking is built here
                    done[i] = _attempt(build, i)
                    continue
                free = more and len(done) <= WAITING
                ready = select.select(list(workers), [], [],
                                      0 if free else None)[0]
                for back in ready:
                    if back in workers and not _receive(back, done):
                        # the worker has ended
                        os.close(back)
                        if os.waitpid(workers.pop(back), 0)[1]:
                            _reap(workers, kill=True)
                if free and not ready:
                    index = _take(tasks)
                    if index is None:
                        more = False
                    else:
                        done[index] = _attempt(build, index)
            # no name here holds a result once it is yielded
            if not done[i][0]:
                raise done[i][1]
            yield done.pop(i)[1]
    except BaseException:
        _reap(workers, kill=True)
        raise
    finally:
        os.close(tasks)
        _reap(workers, kill=False)


def cmd_spectrum(cfg: RunConfig, e_max: float):
    import numpy as np
    sol = solve_closed_form(cfg.model)
    grid = momentum_grid(L=cfg.model.L, K=cfg.K, a=cfg.model.a)
    levels = spectrum(cfg.model, sol, e_max, grid)
    # each node's modes are formatted once, in preorder as its parent's plus
    # its own label, each sector's prefix once per process and each energy
    # (with its group's degeneracy) once per block
    modes = [""]
    for up, (fl, m, n) in zip(levels.parent[1:], levels.label[1:]):
        modes.append(f"{modes[up]};{fl}:{m}:{n}" if up else f"{fl}:{m}:{n}")
    prefix = functools.cache("%d,%d,%d,".__mod__)

    def block(k):
        """The rows of the k-th SCAN_BLOCK levels as one string."""
        part = slice(k * SCAN_BLOCK, (k + 1) * SCAN_BLOCK)
        bits = levels.energy[part].view(np.int64)
        new = np.insert(bits[1:] != bits[:-1], 0, True)
        tails = ["%d,%.17g\r\n" % pair for pair in zip(
            levels.degeneracy[part][new].tolist(),
            levels.energy[part][new].tolist())]
        columns = (levels.q_plus, levels.q_minus, levels.m_p0)
        sectors = zip(*(column[part].tolist() for column in columns))
        return "".join([prefix(sector) + modes[node] + "," + tails[run]
                        for sector, node, run in zip(
                            sectors, levels.node[part].tolist(),
                            (np.cumsum(new) - 1).tolist())])

    header = ["q_plus", "q_minus", "m_p0", "modes", "degeneracy", "energy"]
    return 0, Table(header, run_tasks(block, -(-len(levels) // SCAN_BLOCK)))


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
    xs = _grid(x_min, x_max, n)
    if klein_sign(word) == 0:
        print("warning: insertion word violates charge selection; "
              "emitting zero rows", file=sys.stderr)

        def values(xs_k):
            return [0.0j] * len(xs_k)
    else:
        # the first insertion sweeps x and moves by t; the spec holds it at
        # the first point
        pts = list(cfg.insertions)
        x0 = pts[0].x if pts else 0.0
        if pts:
            pts[0] = replace(pts[0], x=x0 + xs[0].item(), t=pts[0].t + t)
        spec = CorrelatorSpec(insertions=tuple(pts), ell=cfg.ell,
                              regulator=cfg.regulator)

        def values(xs_k):
            positions = [x0 + x for x in xs_k] if pts else xs_k
            if mode == "finite":
                return [res["value"] for res in finite_correlator(
                    spec, cfg.model, sol, grid, xs=positions)]
            return npoint_continuum(spec, sol, xs=positions)
    # t is one value for every row: formatted once
    row = "%%.17g,%.17g,%%.17g,%%.17g,%%.17g\r\n" % t

    def block(k):
        """The rows of the k-th SWEEP_BLOCK positions as one string."""
        xs_k = xs[k * SWEEP_BLOCK:(k + 1) * SWEEP_BLOCK].tolist()
        return "".join([row % (x, v.real, v.imag, abs(v))
                        for x, v in zip(xs_k, values(xs_k))])

    # a lazy stream, as `scan` returns
    return 0, Table(["x", "t", "re", "im", "abs"],
                    run_tasks(block, -(-n // SWEEP_BLOCK)))


def cmd_scan(cfg: RunConfig):
    import numpy as np
    lam_min, lam_max, n_lam, g_min, g_max, n_g = cfg.scan_grid
    n = n_lam * n_g
    _check_cap("scan rows", n)
    lams = _grid(lam_min, lam_max, n_lam)
    gs = _grid(g_min, g_max, n_g)
    # lambda and gamma1 depend on the lambda axis only, g and gamma2 on the
    # g axis: each is formatted once per grid line; gamma1 and gamma2 are
    # the float operations closed_form takes at each point
    with np.errstate(all="ignore"):
        g1s, g2s = _gammas(replace(cfg.model, lam=lams, g=gs))
    lam_s, g_s, g1_s, g2_s = (["%.17g" % v for v in axis.tolist()]
                              for axis in (lams, gs, g1s, g2s))

    def block(k):
        """The rows of the k-th SCAN_BLOCK points (lams[i // n_g],
        gs[i % n_g]) as one string, solved by one kernel call."""
        lam_at, g_at = np.divmod(
            np.arange(k * SCAN_BLOCK, min((k + 1) * SCAN_BLOCK, n)), n_g)
        # points without a solution may hold inf or nan: no warnings
        with np.errstate(all="ignore"):
            sol, status = closed_form(replace(cfg.model, lam=lams[lam_at],
                                              g=gs[g_at]))
            tab = exponents(sol)
            table = np.column_stack((
                sol.vtilde_f, sol.vtilde_p, tab.delta_cdw,
                tab.delta_sc)).tolist()
        return "".join([
            "%s,%s,%s,%s,%.17g,%.17g,%.17g,%.17g,1\r\n" % (
                lam_s[i], g_s[j], g1_s[i], g2_s[j], *vals) if stable
            else "%s,%s,,,,,,,0\r\n" % (lam_s[i], g_s[j])
            for i, j, stable, vals in zip(lam_at.tolist(), g_at.tolist(),
                                          (status == 0).tolist(), table)])

    # a lazy stream: each block is written once it and every block before
    # it are built
    return 0, Table(["lambda", "g", "gamma1", "gamma2", "vtilde_f",
                     "vtilde_p", "delta_cdw", "delta_sc", "stable"],
                    run_tasks(block, -(-n // SCAN_BLOCK)))


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
                    help="output path (default stdout); a file is written "
                         "only once the whole output is built")
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
    if args.output:
        _write_file(args.output, args.format, payload)
    else:
        _write(sys.stdout, args.format, payload)
    return code


def _write_file(path: str, fmt: str, payload):
    """Write payload to the file at path so that a command that fails part
    way, by any exception, leaves an existing file as it was.

    A new path, or a regular file this process may write, owns and that
    has no other hard link, is written through a new file in the same
    directory, which replaces it (through any symlinks, which stay; group
    and mode bits kept) only once the payload is whole, and is removed
    otherwise.  Everything else is written directly, as the payload is
    produced: a name for an open descriptor (/dev/stdout, /dev/fd/N,
    /proc/self/fd/N), a FIFO or device, an existing file that replacing
    would change more than its bytes (its links, owner or group), and a
    path beside which no new file can be made (open then raises what it
    raises there)."""
    import stat
    target = os.path.realpath(path) if os.path.islink(path) else path
    try:
        st = os.stat(target)
    except FileNotFoundError:
        st = None
    whole = os.path.abspath(path)
    head, name = os.path.split(whole)
    descriptor = whole in ("/dev/stdout", "/dev/stderr") or (
        name.isdigit() and head in ("/dev/fd", "/proc/self/fd"))
    replaceable = st is None or (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1
        and st.st_uid == os.geteuid() and os.access(target, os.W_OK))
    temp = None
    if replaceable and not descriptor:
        temp = _new_file_beside(target, st)
    if temp is None:
        with open(path, "w", newline="") as out:
            _write(out, fmt, payload)
        return
    fd, temp = temp
    try:
        with open(fd, "w", newline="") as out:
            _write(out, fmt, payload)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _new_file_beside(target: str, st):
    """(descriptor, name) of a new file opened for writing in target's
    directory, with the group and mode bits of st, the target's stat (or,
    for None, those open(target, "w") gives a new file), or None where no
    such file can be made there."""
    head, name = os.path.split(target)
    tries = 0
    while True:
        temp = os.path.join(head, f".{name}.{os.getpid()}.{tries}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            tries += 1
            continue
        except OSError:
            return None
        if st is not None:
            try:
                if os.fstat(fd).st_gid != st.st_gid:
                    os.fchown(fd, -1, st.st_gid)
                os.fchmod(fd, st.st_mode & 0o7777)
            except OSError:
                os.close(fd)
                os.unlink(temp)
                return None
        return fd, temp


if __name__ == "__main__":
    sys.exit(main())
