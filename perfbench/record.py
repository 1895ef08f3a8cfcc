"""Record the reference outputs that later runs are compared against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record.py

For each seeded workload and each seed below `REFERENCE_SEEDS` it runs one
cycle, requires every job to exit 0 and pass its seed-independent oracle,
and stores what `checks.reference_entry` keeps (a SHA-256 of the output, or
sampled finite correlator rows) in `reference/<workload>.json`.  The
references in this
directory were recorded at commit 9045619; recording them again on a
changed program would hide the change from the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # pins the thread variables before numpy loads
from workloads import REFERENCE_SEEDS, jobs_for

SEEDED = ("vertex-modesum", "closed-form-sweep")


def write_references(path, commit, digest, seeds):
    """One line per seed, so the file stays readable."""
    with open(path, "w") as fh:
        fh.write(f'{{"commit": {json.dumps(commit)}, '
                 f'"src_sha256": {json.dumps(digest)}, "seeds": {{\n')
        fh.write(",\n".join(f"{json.dumps(seed)}: "
                             f"{json.dumps(entry, sort_keys=True)}"
                             for seed, entry in seeds.items()))
        fh.write("\n}}\n")


def main() -> int:
    sys.path.insert(0, run.SRC)
    import checks
    import fermiphon.cli as cli

    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in SEEDED:
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            jobs = jobs_for(workload, seed)
            workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
            try:
                runner = run.Runner(cli, jobs, workdir)
                runner.cycle()
                missed = runner.check(None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if runner.failed or missed:
                print(f"{workload} seed {seed}: {runner.problems + missed}",
                      file=sys.stderr)
                return 1
            seeds[str(seed)] = {
                job.name: checks.reference_entry(job, runner.first[job.name])
                for job in jobs}
            print(f"{workload} seed {seed} recorded", flush=True)
        path = os.path.join(run.HERE, "reference", f"{workload}.json")
        write_references(path, run.git_commit(), run.src_digest(), seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
