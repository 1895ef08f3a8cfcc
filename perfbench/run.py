"""fermiphon benchmark: seeded CLI workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-form-sweep --seed 3 \
        --seconds 30 --trace 0

The run is one fresh Python process with one client in a closed loop: it
imports `fermiphon.cli` from `src/` once, writes the seeded configs to a
scratch directory under `.perfbench/`, and calls `fermiphon.cli.main(argv)`
for each job back to back, each writing to its own output file.  A cycle is
every job of the workload once; after the first cycle, another starts only
while it is expected to end within `--seconds` of the start.  THREADS and
the BLAS thread variables are pinned to 1.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: timings sum
each job's median over the cycles, and `setup_s` is the median over fresh
interpreters of the time from spawn to `import fermiphon.cli` done; those
interpreters are spawned in groups between the jobs of the first cycle.
`--trace 1` alternates one untraced and one traced cycle (see tracing.py)
and reports the per-layer metrics, per cycle, plus the tracing overhead.

Every output is checked (checks.py); a job that exits with a code other
than 0 or fails its check counts in `failed`.  Each run also feeds corrupted
copies of its outputs and references to the checks, which must reject them,
and regenerates its configs to confirm the generator is deterministic.  The
last line of stdout is the result JSON.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process
THREAD_ENV = {"THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from workloads import REFERENCE_SEEDS, WORKLOADS, jobs_for  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 18

JOB_METRICS = ("verify", "correlate_finite", "correlate_continuum", "scan",
               "spectrum")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- measurements ---------------------------------------------------------------


def setup_samples(n: int):
    """Seconds from spawning a fresh interpreter to `import fermiphon.cli`
    being done, read off the shared monotonic clock."""
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "import fermiphon.cli; print(time.monotonic_ns())")
    out = []
    for _ in range(n):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        out.append((int(done.stdout.split()[-1]) - t0) * 1e-9)
    return out


def tail_percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    xs = sorted(samples)
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        k = max(0, min(len(xs) - 1, int(q / 100.0 * len(xs) + 0.5) - 1))
        if len(xs) - 1 - k >= 10:
            best = (f"p{q:g}", xs[k])
    return best


class Runner:
    """Runs jobs through the in-process CLI and keeps their outputs."""

    def __init__(self, cli, jobs, workdir):
        self.cli = cli
        self.jobs = jobs
        self.workdir = workdir
        self.first = {}          # job name -> bytes of its first output
        self.attempts = {job.name: 0 for job in jobs}
        self.fails = {job.name: 0 for job in jobs}
        self.problems = []
        for job in jobs:
            with open(self._path(job, "ini"), "w") as fh:
                fh.write(job.config)

    def _path(self, job, ext):
        return os.path.join(self.workdir, f"{job.name}.{ext}")

    def cycle(self, tracer=None, between=None):
        """Every job once; returns {job name: seconds}.  `between`, if
        given, is called before each job and after the last."""
        times = {}
        for i, job in enumerate(self.jobs):
            if between is not None:
                between()
            out = self._path(job, job.fmt)
            argv = ["--config", self._path(job, "ini"), "--output", out,
                    *job.args]
            if tracer is not None:
                tracer.begin_job(i)
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed job, not a stop
                rc = f"{type(exc).__name__}: {exc}"
            times[job.name] = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            self._record(job, rc, out)
        if between is not None:
            between()
        return times

    @property
    def attempted(self):
        return sum(self.attempts.values())

    @property
    def failed(self):
        return sum(self.fails.values())

    def _record(self, job, rc, out):
        self.attempts[job.name] += 1
        problem = None
        if rc != 0:
            problem = f"exit {rc}"
        else:
            with open(out, "rb") as fh:
                data = fh.read()
            if job.name not in self.first:
                self.first[job.name] = data
            elif data != self.first[job.name]:
                problem = "output differs from the first cycle"
        if problem:
            self.fails[job.name] += 1
            self.problems.append(f"{job.name}: {problem}")

    def check(self, refs):
        """Check each job's first output against its oracle and its entry
        in `refs` (every job but `verify` needs one; `refs` is None only
        while references are recorded).  A failed check fails every attempt
        of that job.  Returns the negative controls that were missed."""
        import checks
        missed = []
        for job in self.jobs:
            data = self.first.get(job.name)
            if data is None:
                continue
            ref = refs.get(job.name) if refs is not None else None
            try:
                problems = checks.check(job, data, ref)
            except Exception as exc:  # an unreadable output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if refs is not None and ref is None and job.kind != "verify":
                problems.append("no reference recorded")
            if problems:
                self.fails[job.name] = self.attempts[job.name]
                self.problems += [f"{job.name}: {p}" for p in problems[:3]]
                if len(problems) > 3:
                    self.problems.append(
                        f"{job.name}: {len(problems) - 3} more problems")
            else:
                missed += checks.negative_controls(job, data, ref)
        return missed

    def rows_out(self):
        """Data rows written by one cycle (CSV rows, JSON list entries, or
        one `solve` document)."""
        rows = 0
        for job in self.jobs:
            data = self.first.get(job.name, b"")
            if job.fmt == "csv":
                rows += max(data.count(b"\n") - 1, 0)
            elif data:
                doc = json.loads(data)
                rows += len(doc) if isinstance(doc, list) else 1
        return rows


def job_metrics(jobs, cycles):
    """wall_s and per-subcommand seconds: sums of per-job medians over the
    cycles (a per-job median drops a burst of machine noise that hits one
    job in one cycle, where the median of cycle sums would keep part of
    it)."""
    med = {j.name: statistics.median(c[j.name] for c in cycles) for j in jobs}
    out = {"wall_s": sum(med.values())}
    for kind in JOB_METRICS:
        sel = [med[j.name] for j in jobs if j.kind == kind]
        if sel:
            out[f"{kind}_s"] = sum(sel)
    return out


# -- environment facts -------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout; None when the checkout itself is not a git
    repository (a repository around it does not count)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(SRC, "fermiphon")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_facts():
    import mpmath
    import numpy
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        size = _read(os.path.join(base, idx, "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "l2": caches.get("L2"), "l3": caches.get("L3"),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "git_commit": git_commit(),
            "src_sha256": src_digest(), "env": THREAD_ENV}


# -- modes ------------------------------------------------------------------------


def another_fits(start, done, seconds):
    """Whether one more round, as long as the mean round so far, would end
    within `seconds` of `start`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def timed(runner, seconds):
    """Cycles for `seconds`, plus SETUP_SAMPLES setup samples taken in equal
    groups before each job of the first cycle and after it, so that they
    spread over the cycle; the sampling time does not count against
    `seconds`."""
    setup, paused = [], 0.0
    group = math.ceil(SETUP_SAMPLES / (len(runner.jobs) + 1))

    def sample():
        nonlocal paused
        t0 = time.perf_counter()
        setup.extend(setup_samples(min(group, SETUP_SAMPLES - len(setup))))
        paused += time.perf_counter() - t0

    start = time.perf_counter()
    cycles = [runner.cycle(between=sample)]
    start += paused
    while another_fits(start, len(cycles), seconds):
        cycles.append(runner.cycle())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return cycles, setup, peak


def traced(runner, seconds, workload):
    """Alternate untraced and traced cycles; per-layer values per cycle."""
    import tracing
    tracer = tracing.Tracer()
    plain, with_trace, totals, distinct = [], [], {}, 0
    path = os.path.join(OUT_DIR, f"spans-{workload}.csv")
    start = time.perf_counter()
    with open(path, "w") as fh:
        fh.write("kind,job,start_ns,end_ns,parent\n")
        while not plain or another_fits(start, len(plain), seconds):
            plain.append(runner.cycle())
            tracing.install(tracer)
            try:
                with_trace.append(runner.cycle(tracer))
            finally:
                tracer.restore()
            for kind, agg in tracer.summary().items():
                acc = totals.setdefault(kind, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += agg[i]
            distinct += len(tracer.z_keys)
            tracer.z_keys.clear()
            tracer.flush(fh)
    n = len(with_trace)
    per = {k: [x / n for x in v] for k, v in totals.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    counts["vertex.z_renorm.distinct"] = distinct / n
    return plain, with_trace, per, counts


def layer_metrics(jobs, per, cnt, plain, with_trace, rows_out, fail_rate):
    def calls(k):
        return per.get(k, [0, 0.0, 0.0])[0]

    def incl(k):
        return per.get(k, [0, 0.0, 0.0])[1]

    def self_s(k):
        return per.get(k, [0, 0.0, 0.0])[2]

    m = {}
    m["cli.self_s"] = self_s("cli")
    m["cli.rows_out"] = rows_out
    for k in ("params.validate_params", "bogoliubov.solve_closed_form",
              "correlators.exponents", "correlators.npoint_continuum",
              "vertex.finite_correlator", "vertex.z_renorm", "focklab.ops",
              "focklab.reconstructed_field"):
        m[f"{k}.calls"] = calls(k)
        m[f"{k}.s"] = incl(k)
    for k in ("bogoliubov.spectrum", "vertex.normal_order_product",
              "focklab.build_space", "focklab.degeneracy_counts",
              "focklab.jacobi_check"):
        m[f"{k}.s"] = incl(k)
    m["bogoliubov.spectrum.levels"] = cnt.get("bogoliubov.spectrum.levels", 0)
    m["vertex.pair_contractions"] = cnt.get("vertex.pair_contractions", 0)
    m["vertex.mode_terms"] = cnt.get("vertex.mode_terms", 0)
    sum_s = incl("vertex.normal_order_product") + incl("vertex.z_renorm")
    m["vertex.mode_terms_per_s"] = m["vertex.mode_terms"] / sum_s \
        if sum_s else 0.0
    z_calls = calls("vertex.z_renorm")
    m["vertex.z_renorm.distinct_ratio"] = \
        cnt.get("vertex.z_renorm.distinct", 0) / z_calls if z_calls else 0.0
    m["vertex.field_vertex.self_s"] = self_s("vertex.field_vertex")
    basis = cnt.get("focklab.basis_states", 0)
    interior = cnt.get("focklab.interior_states", 0)
    m["focklab.basis_states"] = basis
    m["focklab.interior_states"] = interior
    m["focklab.useful_ratio"] = interior / basis if basis else 0.0
    for name in ("CAR", "SCHWINGER", "J_PSI", "H0_J", "J_R", "H0_R",
                 "RR_ANTI", "KRONIG"):
        m[f"focklab.identity.{name}.s"] = incl(f"focklab.identity.{name}")
    m["focklab.identity.checks"] = cnt.get("focklab.identity.checks", 0)
    m["focklab.ops.entries"] = cnt.get("focklab.ops.entries", 0)

    untraced = job_metrics(jobs, plain)
    traced_wall = job_metrics(jobs, with_trace)["wall_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    # self times of one cycle, averaged, against the same cycles' job time
    mean_wall = statistics.mean(sum(c.values()) for c in with_trace)
    m["trace.accounted_ratio"] = sum(v[2] for v in per.values()) / mean_wall
    for kind in JOB_METRICS:
        m[f"{kind}_s"] = untraced.get(f"{kind}_s", 0.0)
    m["fail_rate"] = fail_rate
    return m, per


def determinism(workload, seed):
    """Same seed, same configs; another seed, other configs (fock-verify is
    seed-independent by design)."""
    a = [j.config for j in jobs_for(workload, seed)]
    b = [j.config for j in jobs_for(workload, seed)]
    c = [j.config for j in jobs_for(workload, seed + 1)]
    seeded = workload != "fock-verify"
    return a == b and (a != c) == seeded


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fermiphon", "cli.py")):
        print(f"error: no fermiphon sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    sys.path.insert(0, SRC)
    import fermiphon.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: fermiphon imported from {cli.__file__}",
              file=sys.stderr)
        return 2
    import checks

    jobs = jobs_for(args.workload, args.seed)
    refs = checks.load_references(
        os.path.join(HERE, "reference", f"{args.workload}.json")
    ).get(str(args.seed % REFERENCE_SEEDS), {})
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = Runner(cli, jobs, workdir)
        if args.trace == 0:
            cycles, setup, peak = timed(runner, args.seconds)
        else:
            plain, with_trace, per, cnt = traced(runner, args.seconds,
                                                 args.workload)
        missed = runner.check(refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    det_ok = determinism(args.workload, args.seed)
    correct = runner.failed == 0 and not missed and det_ok
    fail_rate = runner.failed / runner.attempted

    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs/cycle {len(jobs)}  attempted {runner.attempted}  "
          f"failed {runner.failed}  fail_rate {fail_rate:g}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"checks: references for this seed: {sorted(refs) or 'none'}; "
          f"negative controls missed: {missed or 'none'}; "
          f"configs deterministic: {det_ok}")
    for p in runner.problems:
        print("problem: " + p)

    if args.trace == 0:
        values = job_metrics(jobs, cycles)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = peak
        samples = {j.name: [c[j.name] for c in cycles] for j in jobs}
        samples["setup_s"] = setup
        for k, xs in samples.items():
            tail = tail_percentile(xs)
            print(f"  {k:24s} median {statistics.median(xs):.6f} s of "
                  f"n={len(xs)}" + (f", {tail[0]}={tail[1]:.6f} s" if tail
                                    else ", no percentile with >= 10 "
                                    "samples above it"))
        for k in sorted(values):
            unit = "MB" if k == "peak_rss_mb" else "s"
            print(f"  {k:24s} {values[k]:.6f} {unit}")
        wanted = bench["end_to_end"]
    else:
        values, per = layer_metrics(jobs, per, cnt, plain, with_trace,
                                    runner.rows_out(), fail_rate)
        for kind in sorted(per):
            c, s_incl, s_self = per[kind]
            print(f"  span {kind:36s} calls {c:10.0f}  s {s_incl:10.4f}  "
                  f"self_s {s_self:10.4f}")
        wanted = bench["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace == 1:
        for name, v in metrics.items():
            print(f"  {name:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
