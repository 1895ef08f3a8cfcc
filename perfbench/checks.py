"""Output checks for benchmark jobs, and the negative controls that prove
each check can fail.

Every check takes a job and the exact bytes its run wrote and returns a list
of problems; an empty list means the output is accepted.  Two kinds of
check apply:

* seed-independent oracles, run on every seed: the `verify` report must be
  all-pass with exact "0" residuals, the free-coupling correlator must
  equal `free_finite_L` times e^{N pi reg / 2L} within the engine's
  reported `tail_bound` (acceptance criterion 5), stable `scan` rows must
  match the numeric `diagonalize_numeric` frequencies, `spectrum` energies
  must follow from their labels, `solve` must satisfy the Bogoliubov
  normalization and velocity sum rule, and CSV `abs` columns must equal
  |re + i im|;
* references recorded at the seed commit (`reference/<workload>.json`; the
  seeded workloads take their configs from one of the recorded seeds, see
  `workloads.REFERENCE_SEEDS`): byte-identical outputs for `scan`,
  `spectrum`, continuum `correlate` and `solve`, and finite `correlate`
  values within 1e-10 relative of the recorded rows.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import random
from typing import Dict, List, Optional

from fermiphon.bogoliubov import diagonalize_numeric, solve_closed_form
from fermiphon.correlators import (CorrelatorSpec, InsertionPoint,
                                   free_finite_L)
from fermiphon.params import ModelParams, momentum_grid
from fermiphon.vertex import finite_correlator

from workloads import Job

IDENTITIES = ("CAR", "SCHWINGER", "J_PSI", "H0_J", "J_R", "H0_R", "RR_ANTI",
              "KRONIG")
EXACT_ROWS = IDENTITIES + ("DEGENERACY", "RECONSTRUCTION")
FINITE_REL_TOL = 1e-10
SCAN_SAMPLE = 200
SCAN_VELOCITY_TOL = 1e-9
ENERGY_REL_TOL = 1e-11


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(job: Job) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_string(job.config)
    return cp


def _model(cp) -> ModelParams:
    m = cp["model"]
    return ModelParams(v_f=float(m["v_f"]), v_p=float(m["v_p"]),
                       lam=float(m["lambda"]), g=float(m["g"]),
                       a=float(m["a"]), L=float(m["L"]))


def _csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def _to_csv(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def flip_digit(text: str) -> str:
    """Change the leading nonzero digit of a number (1->2, ..., 9->1)."""
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str(int(ch) % 9 + 1) + text[i + 1:]
    raise ValueError(f"no digit to flip in {text!r}")


# -- seed-independent oracles -------------------------------------------------


def check_verify(job: Job, data: bytes) -> List[str]:
    reports = json.loads(data)
    names = [r["identity"] for r in reports]
    problems = []
    if sorted(names) != sorted(EXACT_ROWS + ("JACOBI",)):
        problems.append(f"verify rows {names}")
    for r in reports:
        if r["pass"] is not True:
            problems.append(f"{r['identity']} did not pass")
        if r["identity"] in EXACT_ROWS and r["residual"] != "0":
            problems.append(f"{r['identity']} residual {r['residual']!r}")
    return problems


def _abs_consistent(header, rows) -> List[str]:
    i_re, i_im, i_abs = (header.index(c) for c in ("re", "im", "abs"))
    for n, row in enumerate(rows):
        re, im, ab = float(row[i_re]), float(row[i_im]), float(row[i_abs])
        if not all(map(math.isfinite, (re, im, ab))) or \
                abs(math.hypot(re, im) - ab) > 4e-16 * ab:
            return [f"row {n}: abs {ab!r} != |{re!r} + i {im!r}|"]
    return []


def check_correlate(job: Job, data: bytes) -> List[str]:
    header, rows = _csv(data)
    cp = _config(job)
    if header != ["x", "t", "re", "im", "abs"]:
        return [f"correlate header {header}"]
    if len(rows) != int(cp["correlator"]["points"]):
        return [f"correlate rows {len(rows)}"]
    problems = _abs_consistent(header, rows)
    if job.name.startswith("finite-free"):
        problems += _free_oracle(job, cp, rows)
    return problems


def _insertions(cp) -> List[InsertionPoint]:
    sgn = {"+": 1, "-": -1}
    out = []
    for tok in cp["correlator"]["insertions"].split(";"):
        r, q, x, t = (s.strip() for s in tok.split(":"))
        out.append(InsertionPoint(sgn[r], sgn[q], float(x), float(t)))
    return out


def _free_oracle(job: Job, cp, rows) -> List[str]:
    """Acceptance criterion 5 at the job's n_a: the engine value equals the
    free finite-L closed form times e^{N pi reg / 2L} within tail_bound."""
    params = _model(cp)
    sol = solve_closed_form(params)
    grid = momentum_grid(L=params.L, K=4, a=params.a)
    reg = float(cp["correlator"]["regulator"])
    ins = _insertions(cp)
    problems = []
    for row in rows:
        x = float(row[0])
        pts = [InsertionPoint(p.r, p.q, p.x + x, p.t) if i == 0 else p
               for i, p in enumerate(ins)]
        spec = CorrelatorSpec(insertions=tuple(pts), ell=1.0, regulator=reg)
        target = free_finite_L(spec, params.L) * math.exp(
            len(pts) * math.pi * reg / (2.0 * params.L))
        bound = finite_correlator(spec, params, sol, grid)["tail_bound"]
        value = complex(float(row[2]), float(row[3]))
        if not abs(value - target) <= bound:
            problems.append(f"x={x!r}: |{value} - {target}| > {bound:.3e}")
    return problems


def scan_sample(rows) -> List[int]:
    """Indices of the stable scan rows compared with the numeric route."""
    stable = [i for i, row in enumerate(rows) if row[8] == "1"]
    return sorted(random.Random(len(rows)).sample(
        stable, min(SCAN_SAMPLE, len(stable))))


def check_scan(job: Job, data: bytes) -> List[str]:
    header, rows = _csv(data)
    cp = _config(job)
    sc = cp["scan"]
    if len(rows) != int(sc["n_lambda"]) * int(sc["n_g"]):
        return [f"scan rows {len(rows)}"]
    base = _model(cp)
    problems = []
    for n, row in enumerate(rows):
        lam, g = float(row[0]), float(row[1])
        gamma1 = lam / (2.0 * math.pi * base.v_f)
        gamma2 = g / (base.v_p * math.sqrt(math.pi * base.v_f))
        stable = gamma1 < 1.0 and gamma2 * gamma2 < 1.0 + gamma1
        if row[8] != ("1" if stable else "0"):
            problems.append(f"row {n}: stable flag {row[8]} at "
                            f"gamma1={gamma1:.6g}, gamma2={gamma2:.6g}")
    p = 2.0 * math.pi / base.L
    for n in scan_sample(rows):
        row = rows[n]
        params = ModelParams(v_f=base.v_f, v_p=base.v_p, lam=float(row[0]),
                             g=float(row[1]), a=base.a, L=base.L)
        d = diagonalize_numeric(params, p)
        for col, omega in ((4, d["omega_f"]), (5, d["omega_p"])):
            if abs(float(row[col]) - omega / p) > SCAN_VELOCITY_TOL * base.v_f:
                problems.append(f"row {n}: {header[col]} {row[col]} vs "
                                f"numeric {omega / p!r}")
    return problems


def check_spectrum(job: Job, data: bytes) -> List[str]:
    """Every level's energy must equal E0 + charge + zero-mode + mode
    energies recomputed from its labels, in ascending order below e_max."""
    header, rows = _csv(data)
    cp = _config(job)
    params = _model(cp)
    sol = solve_closed_form(params)
    e_max = float(job.args[job.args.index("--e-max") + 1])
    spacing = 2.0 * math.pi / params.L
    cut = math.pi / params.a
    charge_scale = math.pi * params.v_f / params.L
    g1 = sol.couplings.gamma1
    vt = {"F": (sol.vtilde_f, params.v_f), "P": (sol.vtilde_p, params.v_p)}
    scale = max(1.0, abs(sol.e0))
    problems = []
    last = -math.inf
    for n, row in enumerate(rows):
        qp, qm, mp0 = int(row[0]), int(row[1]), int(row[2])
        e = sol.e0 + charge_scale * (qp * qp + qm * qm + 2.0 * g1 * qp * qm) \
            + mp0 * params.omega0
        for tok in filter(None, row[3].split(";")):
            fl, m, occ = tok.split(":")
            k = abs(int(m)) * spacing
            e += int(occ) * (vt[fl][0] if k <= cut else vt[fl][1]) * k
        energy = float(row[5])
        if abs(energy - e) > ENERGY_REL_TOL * scale or energy < last or \
                energy - sol.e0 > e_max + ENERGY_REL_TOL * scale:
            problems.append(f"row {n}: energy {row[5]} vs labels {e!r}")
            break
        last = energy
    if not rows:
        problems.append("empty spectrum")
    return problems


def check_solve(job: Job, data: bytes) -> List[str]:
    """Bogoliubov normalization and the velocity sum rule (criterion 4)."""
    doc = json.loads(data)
    s = doc["solution"]
    norm = s["rho_f"] ** 2 - s["sigma_f"] ** 2 + s["rho_p"] ** 2 \
        - s["sigma_p"] ** 2
    vsum = (s["rho_f"] ** 2 + s["sigma_f"] ** 2) * s["vtilde_f"] \
        + (s["rho_p"] ** 2 + s["sigma_p"] ** 2) * s["vtilde_p"]
    problems = []
    if abs(norm - 1.0) > 1e-12:
        problems.append(f"normalization {norm!r}")
    if abs(vsum - doc["model"]["v_f"]) > 1e-12:
        problems.append(f"velocity sum rule {vsum!r}")
    return problems


ORACLES = {"verify": check_verify, "scan": check_scan,
           "spectrum": check_spectrum, "solve": check_solve,
           "correlate_finite": check_correlate,
           "correlate_continuum": check_correlate}


# -- references recorded at the seed commit -----------------------------------


def reference_entry(job: Job, data: bytes) -> dict:
    """What the reference file stores for one job's output."""
    if job.kind != "correlate_finite":
        return {"sha256": sha256(data)}
    _, rows = _csv(data)
    step = 1 if len(rows) <= 50 else len(rows) // 50
    return {"rows": {str(i): [float(rows[i][2]), float(rows[i][3])]
                     for i in range(0, len(rows), step)}}


def check_reference(job: Job, data: bytes, ref: dict) -> List[str]:
    if "sha256" in ref:
        got = sha256(data)
        return [] if got == ref["sha256"] else [f"sha256 {got} != reference"]
    _, rows = _csv(data)
    problems = []
    for i, (re_ref, im_ref) in ref["rows"].items():
        if int(i) >= len(rows):
            return problems + [f"no row {i} ({len(rows)} rows)"]
        row = rows[int(i)]
        want = complex(re_ref, im_ref)
        got = complex(float(row[2]), float(row[3]))
        if not abs(got - want) <= FINITE_REL_TOL * abs(want):
            problems.append(f"row {i}: {got} vs reference {want}")
    return problems


def check(job: Job, data: bytes, ref: Optional[dict]) -> List[str]:
    problems = ORACLES[job.kind](job, data)
    if ref is not None:
        problems += check_reference(job, data, ref)
    return problems


# -- negative controls ---------------------------------------------------------


def corrupt(job: Job, data: bytes) -> bytes:
    """The output with one digit flipped where the job's oracle looks."""
    if job.kind == "verify":
        return data.replace(b'"residual": "0"', b'"residual": "1"', 1)
    if job.kind == "solve":
        doc = json.loads(data)
        doc["solution"]["rho_f"] = float(flip_digit(repr(
            doc["solution"]["rho_f"])))
        return (json.dumps(doc, indent=2) + "\n").encode()
    header, rows = _csv(data)
    if job.kind == "scan":
        row, col = scan_sample(rows)[0], 4
    elif job.kind == "spectrum":
        row, col = len(rows) // 2, 5
    else:
        row, col = 0, 2
    rows[row][col] = flip_digit(rows[row][col])
    return _to_csv(header, rows)


def corrupt_reference(ref: dict) -> dict:
    if "sha256" in ref:
        h = ref["sha256"]
        return {"sha256": ("1" if h[0] == "0" else "0") + h[1:]}
    i, (re, im) = next(iter(ref["rows"].items()))
    return {"rows": {i: [float(flip_digit(repr(re))), im]}}


def negative_controls(job: Job, data: bytes, ref: Optional[dict]) -> List[str]:
    """Each control must be rejected; returns the controls that were not."""
    missed = []
    if not ORACLES[job.kind](job, corrupt(job, data)):
        missed.append(f"{job.name}: flipped digit accepted by the oracle")
    if ref is not None and not check_reference(job, data,
                                               corrupt_reference(ref)):
        missed.append(f"{job.name}: corrupted reference accepted")
    return missed


def load_references(path) -> Dict[str, Dict[str, dict]]:
    try:
        with open(path) as fh:
            return json.load(fh)["seeds"]
    except FileNotFoundError:
        return {}
