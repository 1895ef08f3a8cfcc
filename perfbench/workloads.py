"""Seeded job lists for the three benchmark workloads.

A workload is a list of `Job`s that the runner sends, one after another,
through `fermiphon.cli.main`.  Each job carries the INI config text it reads;
the program sees nothing else.  Every random choice comes from
`random.Random("<workload>:<seed>")`, so one seed always gives the same
configs and the configs do not depend on numpy's generator.

Costs below were measured at the seed commit on a 2-core Xeon; the job
sizes keep one cycle (every job once) near 5 s on the two seeded
workloads, so a 30 s run holds several cycles and reports a median.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

TWO_PI = 2.0 * math.pi

WORKLOADS = ("fock-verify", "vertex-modesum", "closed-form-sweep")

# `reference/*.json` holds outputs recorded at the seed commit for seeds
# 0 .. REFERENCE_SEEDS - 1.  The seeded workloads build their configs from
# `seed % REFERENCE_SEEDS`, so every output of every seed is compared with a
# recorded reference, and consecutive seeds still give different configs.
REFERENCE_SEEDS = 32

# The reference model of the test suite; `verify` validates it but the Fock
# lab itself is pinned to L = 2 pi.
REFERENCE_MODEL = dict(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.05, L=20.0)

# Spectrum size on the reference model is 62,129 levels; the seeded jitter
# of lambda and g below keeps it within about 2% of that.
SPECTRUM_K = 40
SPECTRUM_E_MAX = 1.2

SCAN_N = 200


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `--config <config> --output <file> <args...>`."""

    name: str                 # unique within the workload
    kind: str                 # metric bucket, e.g. "scan", "correlate_finite"
    config: str               # INI text
    args: Tuple[str, ...]     # subcommand and its options

    @property
    def fmt(self) -> str:
        return "json" if self.args[0] in ("solve", "verify") else "csv"


def _ini(model: dict, K: int = 4, correlator: dict = None,
         scan: dict = None) -> str:
    lines = ["[model]"]
    for key, name in (("v_f", "v_f"), ("v_p", "v_p"), ("lam", "lambda"),
                      ("g", "g"), ("a", "a"), ("L", "L")):
        lines.append(f"{name} = {model[key]!r}")
    lines += ["", "[grid]", f"K = {K}"]
    for title, sec in (("correlator", correlator), ("scan", scan)):
        if sec:
            lines += ["", f"[{title}]"]
            lines += [f"{k} = {v}" for k, v in sec.items()]
    return "\n".join(lines) + "\n"


def _interacting(rng: random.Random) -> dict:
    """Stable couplings well inside the stability region."""
    v_p = rng.uniform(0.25, 0.35)
    gamma1 = rng.uniform(0.05, 0.3)
    gamma2 = rng.uniform(0.2, 0.6) * math.sqrt(1.0 + gamma1)
    return dict(v_f=1.0, v_p=v_p, lam=gamma1 * TWO_PI,
                g=gamma2 * v_p * math.sqrt(math.pi), a=0.05, L=20.0)


def _word(points) -> str:
    return " ; ".join(f"{r}:{q}:{x!r}:{t!r}" for r, q, x, t in points)


def _corr(rng: random.Random, word, points: int, reg: float) -> dict:
    x_min = rng.uniform(0.2, 0.5)
    return {"ell": "1.0", "regulator": repr(reg), "insertions": _word(word),
            "x_min": repr(x_min), "x_max": repr(x_min + rng.uniform(2.0, 4.0)),
            "points": str(points), "t": "0.0"}


def _two_point(rng: random.Random, t0: float):
    """psi_+(x + sweep, t0) psi_+^dag(x1, 0); the swept x stays right of x1."""
    return [("+", "-", 0.0, t0), ("+", "+", rng.uniform(-1.0, -0.5), 0.0)]


def _four_point(rng: random.Random, t0: float):
    """A selection-passing word on both chiralities at separated points."""
    return [("+", "-", 0.0, t0), ("+", "+", rng.uniform(-1.0, -0.5), 0.0),
            ("-", "-", rng.uniform(-2.0, -1.5), rng.uniform(0.0, 0.3)),
            ("-", "+", rng.uniform(-3.0, -2.5), 0.0)]


def fock_verify(seed: int) -> List[Job]:
    """`verify` at K = 2 then K = 3; the lab is pinned to L = 2 pi, so the
    inputs do not depend on the seed."""
    del seed
    return [Job(f"verify-k{K}", "verify", _ini(REFERENCE_MODEL, K=K),
                ("verify",)) for K in (2, 3)]


def vertex_modesum(seed: int) -> List[Job]:
    """Finite-(L, a, eps) correlators where the O(n_a) mode sums dominate:
    a 2-point n_a ladder 1e4 / 1e5 / 1e6 (L = 20), a 4-point word and a free
    (lambda = g = 0) 2-point job at n_a = 1e5."""
    rng = random.Random(f"vertex-modesum:{seed}")
    model = _interacting(rng)
    reg = rng.uniform(1e-3, 4e-3)
    t0 = rng.uniform(0.0, 0.5)
    jobs = []
    for a, n_a, points in ((1e-3, "1e4", 24), (1e-4, "1e5", 4),
                           (1e-5, "1e6", 1)):
        jobs.append(Job(
            f"finite-2pt-na{n_a}", "correlate_finite",
            _ini(dict(model, a=a),
                 correlator=_corr(rng, _two_point(rng, t0), points, reg)),
            ("correlate", "--mode", "finite")))
    jobs.append(Job(
        "finite-4pt-na1e5", "correlate_finite",
        _ini(dict(model, a=1e-4),
             correlator=_corr(rng, _four_point(rng, t0), 1, reg)),
        ("correlate", "--mode", "finite")))
    jobs.append(Job(
        "finite-free-na1e5", "correlate_finite",
        _ini(dict(model, lam=0.0, g=0.0, a=1e-4),
             correlator=_corr(rng, _two_point(rng, 0.0), 4, reg)),
        ("correlate", "--mode", "finite")))
    return jobs


def closed_form_sweep(seed: int) -> List[Job]:
    """Many cheap closed-form calls: a 200 x 200 `scan` across the gamma2
    stability boundary, a 62k-level `spectrum`, a 2e4-point continuum
    4-point sweep, a 1e3-point finite sweep at n_a = 20 and three `solve`s."""
    rng = random.Random(f"closed-form-sweep:{seed}")
    v_p = rng.uniform(0.28, 0.32)
    shift = rng.uniform(-0.05, 0.05)
    # gamma2 reaches +-c sqrt(1 + gamma1_max) with c > 1, so roughly a fifth
    # of the grid is unstable whatever the seed
    c = rng.uniform(1.18, 1.22)
    g_max = c * v_p * math.sqrt(math.pi)
    scan = {"lambda_min": repr(TWO_PI * (-0.5 + shift)),
            "lambda_max": repr(TWO_PI * (0.5 + shift)),
            "n_lambda": str(SCAN_N), "g_min": repr(-g_max),
            "g_max": repr(g_max), "n_g": str(SCAN_N)}
    jobs = [Job("scan", "scan",
                _ini(dict(REFERENCE_MODEL, v_p=v_p), scan=scan), ("scan",))]

    spec_model = dict(REFERENCE_MODEL,
                      lam=REFERENCE_MODEL["lam"] + rng.uniform(-0.02, 0.02),
                      g=REFERENCE_MODEL["g"] + rng.uniform(-0.01, 0.01))
    jobs.append(Job("spectrum", "spectrum", _ini(spec_model, K=SPECTRUM_K),
                    ("spectrum", "--e-max", repr(SPECTRUM_E_MAX))))

    model = _interacting(rng)
    t0 = rng.uniform(0.0, 0.5)
    jobs.append(Job(
        "continuum-4pt", "correlate_continuum",
        _ini(model, correlator=_corr(rng, _four_point(rng, t0), 20000, 1e-3)),
        ("correlate", "--mode", "continuum")))
    jobs.append(Job(
        "finite-4pt-na20", "correlate_finite",
        _ini(dict(model, a=0.5),
             correlator=_corr(rng, _four_point(rng, t0), 1000, 1e-3)),
        ("correlate", "--mode", "finite")))
    for i in range(3):
        jobs.append(Job(f"solve-{i}", "solve", _ini(_interacting(rng)),
                        ("solve",)))
    return jobs


_BUILDERS = {"fock-verify": fock_verify, "vertex-modesum": vertex_modesum,
             "closed-form-sweep": closed_form_sweep}


def jobs_for(workload: str, seed: int) -> List[Job]:
    return _BUILDERS[workload](seed % REFERENCE_SEEDS)
