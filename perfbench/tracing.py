"""Outside-in tracing: spans around calls into each fermiphon module.

The package has no instrumentation of its own, so the benchmark wraps the
public functions it wants to time.  Each wrapper replaces the name in the
module that looks it up at call time (for example
`fermiphon.cli.finite_correlator` or `fermiphon.focklab.identities.density_op`),
so calls made inside a module through its own globals stay untraced and are
part of the caller's self time.

A span is `[kind, job, start_ns, end_ns, parent]`; spans live in memory for
one traced cycle and are appended to a CSV afterwards.  A span's self time
is its duration minus its direct children's durations (the runner is single
threaded with THREADS=1, so children never overlap).  The job span that
`begin_job`/`end_job` open covers one `cli.main` call; its self time is
`cli.self_s`: config parsing, formatting and writing output.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

JOB = "cli"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.z_keys = set()
        self.job = -1
        self._job_span = -1

    # -- spans ----------------------------------------------------------------

    def _open(self, kind: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, self.job, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def begin_job(self, job: int):
        self.job = job
        self._job_span = self._open(JOB)

    def end_job(self):
        self._close(self._job_span)

    def wrap(self, module, attr: str, kind,
             count: Optional[Callable] = None):
        """Replace module.attr by a span-recording wrapper.  `kind` is a span
        name or a function of the call's positional arguments.  `count(tracer,
        args, result)` runs after the span closes; its cost is tracing
        overhead and lands in the parent's self time."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._open(kind(args) if callable(kind) else kind)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def restore(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per kind: calls, inclusive seconds, self seconds."""
        child = [0] * len(self.spans)
        for kind, job, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (kind, job, t0, t1, parent) in enumerate(self.spans):
            agg = out[kind]
            agg[0] += 1
            agg[1] += (t1 - t0) * 1e-9
            agg[2] += (t1 - t0 - child[i]) * 1e-9
        return dict(out)

    def flush(self, fh):
        """Append the spans to an open CSV and clear them."""
        for span in self.spans:
            fh.write(",".join(map(str, span)) + "\n")
        self.spans.clear()


# -- what the benchmark wraps ---------------------------------------------------


def _n_a(params) -> int:
    """Modes in one z_renorm sum, as vertex.z_renorm counts them."""
    return int(math.floor(params.L / (2.0 * params.a)))


def _count_spectrum(tr, args, result):
    tr.counts["bogoliubov.spectrum.levels"] += len(result)


def _count_nop(tr, args, result):
    """Pair contractions and mode terms: every pair of factors sums n_a
    modes once per channel and region whose amplitude product is nonzero."""
    factors = args[0]
    n = len(factors)
    tr.counts["vertex.pair_contractions"] += n * (n - 1) // 2
    for j in range(n):
        for k in range(j + 1, n):
            f1, f2 = factors[j], factors[k]
            for p1, p2 in ((f1.inside, f2.inside), (f1.outside, f2.outside)):
                sums = sum(1 for ch in p1 if p1[ch].amp * p2[ch].amp != 0.0)
                tr.counts["vertex.mode_terms"] += sums * f1.n_a


def _count_z(tr, args, result):
    params, _sol, eps = args
    tr.z_keys.add((params, eps))
    tr.counts["vertex.mode_terms"] += _n_a(params)


def _count_space(tr, args, space):
    tr.counts["focklab.basis_states"] += space.dim
    tr.counts["focklab.interior_states"] += len(space.interior_indices())


def _count_op(tr, args, op):
    tr.counts["focklab.ops.entries"] += sum(len(c) for c in op.cols.values())


def _count_identity(tr, args, report):
    tr.counts["focklab.identity.checks"] += report.checks


OPS = ("field_op", "density_op", "klein_factor", "free_hamiltonian",
       "charge_op")


def install(tr: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    import fermiphon.bogoliubov as bogoliubov
    import fermiphon.cli as cli
    import fermiphon.focklab as focklab
    import fermiphon.focklab.identities as identities
    import fermiphon.focklab.reconstruction as reconstruction
    import fermiphon.vertex as vertex

    # names cli imported from the layers below it
    tr.wrap(cli, "validate_params", "params.validate_params")
    tr.wrap(bogoliubov, "validate_params", "params.validate_params")
    tr.wrap(cli, "solve_closed_form", "bogoliubov.solve_closed_form")
    tr.wrap(cli, "spectrum", "bogoliubov.spectrum", _count_spectrum)
    tr.wrap(cli, "exponents", "correlators.exponents")
    tr.wrap(cli, "npoint_continuum", "correlators.npoint_continuum")
    tr.wrap(cli, "finite_correlator", "vertex.finite_correlator")
    # calls inside the vertex engine
    tr.wrap(vertex, "field_vertex", "vertex.field_vertex")
    tr.wrap(vertex, "z_renorm", "vertex.z_renorm", _count_z)
    tr.wrap(vertex, "normal_order_product", "vertex.normal_order_product",
            _count_nop)
    # the Fock lab, through the package namespace cli uses and the modules
    # that build operators
    tr.wrap(focklab, "build_space", "focklab.build_space", _count_space)
    tr.wrap(identities, "identity_residual",
            lambda args: f"focklab.identity.{args[1]}", _count_identity)
    for name in OPS:
        for module in (focklab, identities, reconstruction):
            if hasattr(module, name):
                tr.wrap(module, name, "focklab.ops", _count_op)
    tr.wrap(focklab, "reconstructed_field", "focklab.reconstructed_field")
    tr.wrap(focklab, "degeneracy_counts", "focklab.degeneracy_counts")
    tr.wrap(focklab, "jacobi_check", "focklab.jacobi_check")
