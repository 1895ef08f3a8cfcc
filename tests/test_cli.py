import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fermiphon

from fermiphon import cli
from fermiphon.bogoliubov import LEVEL_CAP, solve_closed_form
from fermiphon.correlators import exponents
from fermiphon.focklab.space import FockSpace

from test_sweeps import SCANS, SPECTRA

FREE_INI = """\
[model]
v_f = 1.0
v_p = 0.3
lambda = 0.0
g = 0.0
a = 0.01
L = 100.0
omega0 = 0.1

[grid]
K = 2
"""

GENERIC_INI = """\
[model]
v_f = 1.0
v_p = 0.3
lambda = 1.0
g = 0.2
a = 0.05
L = 20.0

[grid]
K = 8

[correlator]
ell = 1.0
regulator = 0.001
insertions = +:-:0:0 ; +:+:0:0
x_min = 0.5
x_max = 5.0
points = 5
t = 0.0

[scan]
lambda_min = -5.0
lambda_max = 7.0
n_lambda = 13
g_min = 0.0
g_max = 0.0
n_g = 1
"""

UNSTABLE_INI = """\
[model]
v_f = 1.0
v_p = 0.3
lambda = 6.2831853071795865
g = 0.0
a = 0.01
L = 100.0
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="run.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run_cli(args):
    return cli.main(args)


def test_solve_free_trivial_exponents(config_file, tmp_path, capsys):
    cfg = config_file(FREE_INI)
    out = str(tmp_path / "sol.json")
    assert run_cli(["--config", cfg, "--output", out, "solve"]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["exponents"]["delta_cdw"] == 1.0
    assert doc["exponents"]["delta_sc"] == 1.0
    assert doc["solution"]["vtilde_f"] == 1.0


def test_solve_unstable_exit_2(config_file, capsys):
    cfg = config_file(UNSTABLE_INI)
    assert run_cli(["--config", cfg, "solve"]) == 2
    err = capsys.readouterr().err
    assert "lambda < 2 pi v_f" in err


def test_solve_round_trip(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    out = str(tmp_path / "sol.json")
    assert run_cli(["--config", cfg, "--output", out, "solve"]) == 0
    doc = json.loads(Path(out).read_text())
    params = cli.load_config(cfg).model
    sol = solve_closed_form(params)
    tab = exponents(sol)
    assert doc["solution"]["vtilde_f"] == sol.vtilde_f
    assert doc["solution"]["sigma_p"] == sol.sigma_p
    assert doc["exponents"]["delta_sc"] == tab.delta_sc


def test_solve_deterministic(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_cli(["--config", cfg, "--output", o1, "solve"])
    run_cli(["--config", cfg, "--output", o2, "solve"])
    assert Path(o1).read_bytes() == Path(o2).read_bytes()


def test_verify_k2(config_file, tmp_path):
    cfg = config_file(FREE_INI)
    out = str(tmp_path / "verify.json")
    assert run_cli(["--config", cfg, "--output", out, "verify"]) == 0
    reports = json.loads(Path(out).read_text())
    names = {r["identity"] for r in reports}
    assert {"CAR", "SCHWINGER", "KRONIG", "DEGENERACY", "JACOBI",
            "RECONSTRUCTION"} <= names
    assert all(r["pass"] for r in reports)
    # fock-lab residuals are exact rationals, serialized as strings
    assert all(r["residual"] == "0" for r in reports)


def test_verify_k1_smaller_window(config_file, tmp_path):
    cfg = config_file(FREE_INI.replace("K = 2", "K = 1"))
    out = str(tmp_path / "verify.json")
    assert run_cli(["--config", cfg, "--output", out, "verify"]) == 0
    reports = json.loads(Path(out).read_text())
    assert all(r["pass"] for r in reports)
    assert any(r["window"] == "0" for r in reports)


# corruptions of the Fock lab that `verify` must catch


def no_sign_move(monkeypatch):
    """Every fermion move without its sign."""
    move = FockSpace.move

    def no_sign(self, mask, pos, create):
        new, s = move(self, mask, pos, create)
        return new, abs(s)
    monkeypatch.setattr(FockSpace, "move", no_sign)


def no_sign_klein(monkeypatch):
    """Every Klein map without its sign."""
    from fermiphon.focklab import operators
    apply = operators._klein_apply

    def no_sign(*args):
        image = apply(*args)
        return None if image is None else (image[0], abs(image[1]))
    monkeypatch.setattr(operators, "_klein_apply", no_sign)


def charge_off_at_half(monkeypatch):
    """Q_+ one too high wherever the + mode at nu = 1/2 is occupied: H0_R
    and KRONIG fail with half-integer residuals."""
    charge = FockSpace.charge

    def off(self, mask, r):
        return charge(self, mask, r) + (r > 0 and (mask >> (self.K - 1)) & 1)
    monkeypatch.setattr(FockSpace, "charge", off)


def double_j2_in_series(monkeypatch):
    """J_r(+-2) doubled in the vertex-operator series only: at K = 3
    RECONSTRUCTION fails with the residual 1/2."""
    from fermiphon.focklab import reconstruction
    density = reconstruction.density_op
    monkeypatch.setattr(reconstruction, "density_op", lambda space, r, m: (
        density(space, r, m) * 2 if abs(m) == 2 else density(space, r, m)))


def test_verify_corrupted_sign_fails(config_file, tmp_path, monkeypatch):
    no_sign_move(monkeypatch)
    cfg = config_file(FREE_INI)
    out = str(tmp_path / "verify.json")
    assert run_cli(["--config", cfg, "--output", out, "verify"]) == 1
    reports = json.loads(Path(out).read_text())
    car = next(r for r in reports if r["identity"] == "CAR")
    assert not car["pass"]
    assert car["worst_pair"] is not None


def test_verify_counting_rows_fail_with_their_exact_residuals(
        config_file, tmp_path, monkeypatch):
    # one level's boson count off by 3, and a theta side without squares
    from fermiphon import focklab
    counts = focklab.degeneracy_counts
    monkeypatch.setattr(focklab, "degeneracy_counts", lambda space, e_max: {
        **counts(space, e_max), 0.5: (4, 1)})
    monkeypatch.setattr(focklab.counting, "_theta_coefficients",
                        lambda degree: [1] + [0] * degree)
    out = tmp_path / "verify.json"
    assert run_cli(["--config", config_file(FREE_INI), "--output", str(out),
                    "verify"]) == 1
    rows = {r["identity"]: (r["window"], r["residual"], r["pass"])
            for r in json.loads(out.read_text())}
    assert rows.pop("DEGENERACY") == ("1", "3", False)
    assert rows.pop("JACOBI") == ("60", "2", False)
    assert {row[1:] for row in rows.values()} == {("0", True)}


def test_verify_k_guard(config_file):
    cfg = config_file(FREE_INI.replace("K = 2", "K = 8"))
    assert run_cli(["--config", cfg, "verify"]) == 2


def test_spectrum_first_row_vacuum(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    out = str(tmp_path / "spec.csv")
    assert run_cli(["--config", cfg, "--output", out, "spectrum",
                    "--e-max", "0.6"]) == 0
    rows = list(csv.DictReader(Path(out).read_text().splitlines()))
    assert rows[0]["q_plus"] == "0" and rows[0]["q_minus"] == "0"
    assert rows[0]["modes"] == ""
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies)
    params = cli.load_config(cfg).model
    assert math.isclose(energies[0], solve_closed_form(params).e0,
                        rel_tol=1e-15)


def test_spectrum_grid_too_small(config_file):
    cfg = config_file(GENERIC_INI.replace("K = 8", "K = 1"))
    assert run_cli(["--config", cfg, "spectrum", "--e-max", "0.6"]) == 2


def test_correlate_two_point_decay(config_file, tmp_path):
    cfg = config_file(GENERIC_INI.replace("lambda = 1.0", "lambda = 0.0")
                      .replace("g = 0.2", "g = 0.0"))
    out = str(tmp_path / "corr.csv")
    assert run_cli(["--config", cfg, "--output", out, "correlate",
                    "--mode", "continuum"]) == 0
    rows = list(csv.DictReader(Path(out).read_text().splitlines()))
    assert len(rows) == 5
    # free 2-point: |G| = 1 / (2 pi |x|) within regulator smearing
    for row in rows:
        x = float(row["x"])
        assert math.isclose(float(row["abs"]), 1.0 / (2 * math.pi * x),
                            rel_tol=1e-4)


def test_correlate_selection_violation_warns(config_file, tmp_path, capsys):
    cfg = config_file(GENERIC_INI.replace(
        "insertions = +:-:0:0 ; +:+:0:0", "insertions = +:-:0:0"))
    out = str(tmp_path / "corr.csv")
    assert run_cli(["--config", cfg, "--output", out, "correlate"]) == 0
    err = capsys.readouterr().err
    assert "selection" in err
    rows = list(csv.DictReader(Path(out).read_text().splitlines()))
    assert all(float(r["abs"]) == 0.0 for r in rows)


def test_empty_insertion_tokens_ignored(config_file, tmp_path):
    outs = []
    for word in ("+:-:0:0 ; +:+:0:0", "+:-:0:0 ;; +:+:0:0 ;"):
        cfg = config_file(GENERIC_INI.replace(
            "insertions = +:-:0:0 ; +:+:0:0", f"insertions = {word}"))
        out = tmp_path / "corr.csv"
        assert run_cli(["--config", cfg, "--output", str(out), "correlate",
                        "--mode", "finite"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_continuum_needs_no_vertex_grid(config_file, tmp_path, capsys):
    # a > L / 2 leaves no coupled mode (n_a = 0), and both correlators, the
    # finite one on its grid, accept it; a >= L is refused by both
    cfg = config_file(GENERIC_INI.replace("a = 0.05", "a = 12"))
    out = str(tmp_path / "corr.csv")
    for mode in ("continuum", "finite"):
        assert run_cli(["--config", cfg, "--output", out, "correlate",
                        "--mode", mode]) == 0
        assert len(Path(out).read_text().splitlines()) == 6
    cfg = config_file(GENERIC_INI.replace("a = 0.05", "a = 20"))
    for mode in ("continuum", "finite"):
        assert run_cli(["--config", cfg, "--output", out, "correlate",
                        "--mode", mode]) == 2
        assert capsys.readouterr().err \
            == "invalid config: lengths must satisfy 0 < a < L\n"


def test_correlate_finite_vs_continuum_trend(config_file, tmp_path):
    # at matched parameters the two modes differ by the multiplicative
    # renormalization; the ratio |finite / continuum| tracks
    # (Z (2 pi ell / L)^{-sigma^2})^2 from z_renorm
    from fermiphon.vertex import z_renorm
    cfg = config_file(GENERIC_INI)
    run = cli.load_config(cfg)
    out_f = str(tmp_path / "f.csv")
    out_c = str(tmp_path / "c.csv")
    assert run_cli(["--config", cfg, "--output", out_f, "correlate",
                    "--mode", "finite"]) == 0
    assert run_cli(["--config", cfg, "--output", out_c, "correlate",
                    "--mode", "continuum"]) == 0
    rows_f = list(csv.DictReader(Path(out_f).read_text().splitlines()))
    rows_c = list(csv.DictReader(Path(out_c).read_text().splitlines()))
    sol = solve_closed_form(run.model)
    ssum = sol.sigma_f**2 + sol.sigma_p**2
    z = z_renorm(run.model, sol, run.regulator)["Z"]
    factor = (z * (2 * math.pi * run.ell / run.model.L) ** (-ssum)) ** 2
    for rf, rc in zip(rows_f[:2], rows_c[:2]):
        ratio = float(rf["abs"]) / float(rc["abs"])
        assert abs(ratio / factor - 1.0) < 0.05


def test_scan_rows(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    out = str(tmp_path / "scan.csv")
    assert run_cli(["--config", cfg, "--output", out, "scan"]) == 0
    rows = list(csv.DictReader(Path(out).read_text().splitlines()))
    assert len(rows) == 13
    assert any(r["stable"] == "0" for r in rows)
    for row in rows:
        lam = float(row["lambda"])
        if row["stable"] == "0":
            assert lam >= 2 * math.pi  # beyond the stability boundary
            continue
        g1 = float(row["gamma1"])
        vtf = float(row["vtilde_f"])
        # g = 0 rows: Delta_CDW * Delta_SC = 1, vtilde_f = v_f sqrt(1 - g1^2)
        assert abs(float(row["delta_cdw"]) * float(row["delta_sc"]) - 1.0) \
            < 1e-12
        assert abs(vtf - math.sqrt(1.0 - g1 * g1)) < 1e-12
    # monotonicity of vtilde_f in |gamma1| at g = 0
    stable = [(abs(float(r["gamma1"])), float(r["vtilde_f"]))
              for r in rows if r["stable"] == "1"]
    stable.sort()
    for (g1a, va), (g1b, vb) in zip(stable, stable[1:]):
        if g1b > g1a:
            assert vb < va


def test_scan_deterministic(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    assert run_cli(["--config", cfg, "--output", out1, "scan"]) == 0
    assert run_cli(["--config", cfg, "--output", out2, "scan"]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_closed_form_writes_no_warnings(config_file, tmp_path, capsys):
    # the kernel evaluates both branches at every point, so numpy meets 0/0,
    # overflow and sqrt(< 0) where a point has no solution or g = 0; none of
    # it may reach stderr.  `solve` at g = 0:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["--config", config_file(FREE_INI), "--output",
                        str(tmp_path / "solve.json"), "solve"]) == 0
    assert capsys.readouterr().err == ""
    # scan grids whose every point lacks a solution: lambda overflowing to
    # nan / inf, nan lambda with infinite g, and g^2 underflowing (with
    # lambda >= 2 pi unstable too); each row says stable = 0
    cases = [("lambda_max = 7.0", "lambda_max = 1e308", "lambda_min = -5.0",
              "lambda_min = -1e308", "g_max = 0.0", "g_max = 2.0",
              "n_g = 1", "n_g = 5"),
             ("lambda_min = -5.0", "lambda_min = nan", "g_max = 0.0",
              "g_max = inf", "n_g = 1", "n_g = 3"),
             ("g_min = 0.0", "g_min = 1e-200", "g_max = 0.0",
              "g_max = 1e-200")]
    for edit in cases:
        text = GENERIC_INI
        for old, new in zip(edit[::2], edit[1::2]):
            text = text.replace(old, new)
        out = str(tmp_path / "scan.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["--config", config_file(text), "--output", out,
                            "scan"]) == 0
        assert capsys.readouterr().err == ""
        rows = csv.DictReader(Path(out).read_text().splitlines())
        assert {r["stable"] for r in rows} == {"0"}


def test_json_format_option(config_file, tmp_path):
    cfg = config_file(GENERIC_INI)
    out = str(tmp_path / "scan.json")
    assert run_cli(["--config", cfg, "--output", out, "--format", "json",
                    "scan"]) == 0
    doc = json.loads(Path(out).read_text())
    assert isinstance(doc, list) and doc[0]["stable"] in ("0", "1")


@pytest.mark.parametrize("edit, args", [
    (("regulator = 0.001", "regulator = 0"),
     ["correlate", "--mode", "finite"]),
    (("regulator = 0.001", "regulator = 0"),
     ["correlate", "--mode", "continuum"]),
    (("regulator = 0.001", "regulator = -1e-3"),
     ["correlate", "--mode", "finite"]),
    (("points = 5", "points = 0"), ["correlate"]),
    (("points = 5", "points = -3"), ["correlate"]),
    (("n_lambda = 13", "n_lambda = 0"), ["scan"]),
    (("n_g = 1", "n_g = -2"), ["scan"]),
    # g = 0 with colliding branches (v_tilde_F = v_P): DegenerateBranches
    (("v_p = 0.3", "v_p = 0.6", "lambda = 1.0", "lambda = 5.026548245743669",
      "g = 0.2", "g = 0.0"), ["solve"]),
    (("regulator = 0.001", "regulator = nan"),
     ["correlate", "--mode", "finite"]),
    (("regulator = 0.001", "regulator = inf"),
     ["correlate", "--mode", "continuum"]),
    (("ell = 1.0", "ell = nan"), ["correlate", "--mode", "continuum"]),
    (("ell = 1.0", "ell = inf"), ["correlate", "--mode", "finite"]),
    # L / 2a overflows to inf
    (("a = 0.05", "a = 1e-300", "L = 20.0", "L = 1e10"), ["solve"]),
    # L / 2a is finite but (2 pi / L) n_a (n_a + 1) in E0 overflows
    (("a = 0.05", "a = 1e-200", "L = 20.0", "L = 1e100"), ["solve"]),
    (("t = 0.0", "t = inf"), ["correlate", "--mode", "continuum"]),
    (("v_f = 1.0", "v_f = 1e200"), ["solve"]),
    # g^2 underflows in the mixing coefficients
    (("g = 0.2", "g = 1e-200"), ["solve"]),
    # gamma2^2 < 1 + gamma1 holds, but vtilde_P^2 rounds to 0 (this was a
    # ZeroDivisionError traceback)
    (("v_p = 0.3", "v_p = 0.4", "lambda = 1.0", "lambda = 2.0",
      "g = 0.2", "g = 0.8140361322290103"), ["solve"]),
    # i ell / (r x - v t + i reg) underflows to 0 (was a ValueError from
    # cmath.log)
    (("ell = 1.0", "ell = 1e-300", "x_min = 0.5", "x_min = 1e300",
      "x_max = 5.0", "x_max = 1e300"), ["correlate", "--mode", "continuum"]),
    # the prefactor (1 / 2 pi ell)^(N/2) overflows on a 4-point word (was
    # an OverflowError traceback)
    (("ell = 1.0", "ell = 1e-300", "insertions = +:-:0:0 ; +:+:0:0",
      "insertions = +:-:0:0 ; +:+:0:0 ; -:+:0.3:0 ; -:-:0.7:0"),
     ["correlate", "--mode", "continuum"]),
    # v_p sqrt(pi v_f) underflows to 0 in gamma2 (was a ZeroDivisionError)
    (("v_f = 1.0", "v_f = 1e-299", "v_p = 0.3", "v_p = 1e-300"), ["solve"]),
    (("v_f = 1.0", "v_f = 1e-299", "v_p = 0.3", "v_p = 1e-300"),
     ["spectrum", "--e-max", "0.5"]),
    # a non-finite e_max is refused as such, not as a grid too small
    (None, ["spectrum", "--e-max", "nan"]),
    (None, ["spectrum", "--e-max", "inf"]),
    (None, ["spectrum", "--e-max=-inf"]),
    (None, ["spectrum", "--e-max", "-inf"]),
    # output that cannot be opened; {tmp} is the test's directory
    (None, ["--output", "{tmp}/no/such/dir/x.csv", "scan"]),
    (None, ["--output", "{tmp}", "solve"]),
    (("L = 20.0", "L = 20.0\nomega0 = -1"), ["solve"]),
    (("K = 8", "K = 0"), ["verify"]),
    # usage errors: argparse's message, on one line even where a token
    # holds a line break; "no --config" leaves the option out
    (None, ["spectrum"]),
    (None, ["spectrum", "--e-max", "abc"]),
    (None, ["--format", "xml", "solve"]),
    (None, ["correlate", "--mode", "x"]),
    (None, ["nosuch"]),
    (None, []),
    ("no --config", ["solve"]),
    (None, ["solve", "a\nb\u2028c"]),
], ids=["finite-reg0", "continuum-reg0", "finite-reg-neg", "points0",
        "points-neg", "n_lambda0", "n_g-neg", "g0-degenerate",
        "finite-reg-nan", "continuum-reg-inf", "continuum-ell-nan",
        "finite-ell-inf", "n_a-overflow", "e0-overflow", "t-inf",
        "v_f-overflow", "g-underflow", "g-boundary-rounding",
        "continuum-base-underflow", "continuum-prefactor-overflow",
        "velocity-underflow",
        "spectrum-velocity-underflow", "e_max-nan", "e_max-inf",
        "e_max-neg-inf", "e_max-neg-inf-separate", "output-missing-dir",
        "output-is-dir", "omega0-neg", "verify-k0", "usage-no-e-max",
        "usage-e-max-abc", "usage-format-xml", "usage-mode-x",
        "usage-unknown-command", "usage-no-command", "usage-no-config",
        "usage-line-breaks"])
def test_bad_input_exit_2_one_line(config_file, tmp_path, capsys, edit, args):
    cfg = []
    if edit != "no --config":
        text = GENERIC_INI
        for old, new in zip(edit[::2], edit[1::2]) if edit else ():
            text = text.replace(old, new)
        cfg = ["--config", config_file(text)]
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    if "--output" not in args:
        args = ["--output", str(tmp_path / "out")] + args
    assert run_cli(cfg + args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_e_max_value_as_separate_token(config_file, tmp_path, capsys):
    # any value float() reads is taken after --e-max, or an abbreviation of
    # it, as in --e-max=VALUE, also one argparse would read as an option
    # (-1e-3, -inf)
    cfg = config_file(GENERIC_INI)
    outs = []
    for args in (["--e-max=-1e-3"], ["--e-max", "-1e-3"], ["--e-m", "-1e-3"]):
        out = tmp_path / "out.csv"
        assert run_cli(["--config", cfg, "--output", str(out), "spectrum",
                        *args]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] and outs[0].startswith(b"q_plus,")
    assert run_cli(["--config", cfg, "--output", str(out), "spectrum",
                    "--e-m", "0.1"]) == 0
    assert run_cli(["--config", cfg, "spectrum", "--e-max", "-inf"]) == 2
    assert capsys.readouterr().err == (
        "error: e_max must be finite, got -inf\n")


@pytest.mark.parametrize("args", [
    ["spectrum", "--e-max", "0.5"], ["spectrum", "--e-max=-1e-3"], ["scan"],
    ["correlate", "--mode", "finite"]], ids=["spectrum", "spectrum-empty",
                                             "scan", "correlate"])
def test_json_table_matches_json_dump(config_file, tmp_path, args):
    # a JSON table, written row by row, has the bytes json.dump gives for
    # the CSV rows as a list of objects
    cfg = config_file(GENERIC_INI)
    outs = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *args]) == 0
        outs[fmt] = out.read_text()
    header, *rows = csv.reader(io.StringIO(outs["csv"]))
    expect = io.StringIO()
    json.dump([dict(zip(header, row)) for row in rows], expect, indent=2)
    assert outs["json"] == expect.getvalue() + "\n"
    assert (outs["json"] == "[]\n") == (not rows)


TABLE_COMMANDS = {
    "scan": ["scan"],
    "spectrum": ["spectrum", "--e-max", "0.5"],
    "spectrum-empty": ["spectrum", "--e-max=-1e-3"],
    "correlate-finite": ["correlate", "--mode", "finite"],
    "correlate-continuum": ["correlate", "--mode", "continuum"],
}

# sha256 of each table on GENERIC_INI as written through csv.writer and a
# json.dumps per row, before rows became CSV lines filled from one template
GENERIC_SHA256 = {
    ("scan", "csv"):
        "b5c1eba93375bb272c46671ab0b1b406846b527de36f88ca8fdab4eedfbcd4c3",
    ("scan", "json"):
        "18a811dcb788f4faa8eef2f547614a329166578313606489fd396176203cb016",
    ("spectrum", "csv"):
        "abfbc7dd19d8dcb9dbc3fc7cb036eb3ffa8f04007b5dc98c7e9fa53aae406844",
    ("spectrum", "json"):
        "e7bf793a655ddeedb42b7c569bbb95532dbd38ec0966e8cf3d086be993efd070",
    ("spectrum-empty", "csv"):
        "ce332fa67c19d18855462f1c099d196d1a5f1e5794fadf73171ea12be9dc4e04",
    ("spectrum-empty", "json"):
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ("correlate-finite", "csv"):
        "bc3984f1f4fe42d865d4f8bd4f8cb0a6c0a89ed92dba2da7c8f9f70e15ed6e08",
    ("correlate-finite", "json"):
        "f00c399f3e58d02dbf1269f7b4a521063d0d57b058f11a8f7b1e26b5005e76fd",
    ("correlate-continuum", "csv"):
        "2affaf93eaed8bbcd52afd867f16d8fded59922f003078156f9e160b5822a154",
    ("correlate-continuum", "json"):
        "c261f0e832492a041e448a416a16b13f5e89a31400c75694a75c470572905a05",
    # finite correlate at the spacings of FINE_SPACINGS, recorded while
    # every E1 of the Euler-Maclaurin mode sums still came from mpmath.e1
    ("correlate-finite-na1e5", "csv"):
        "ec49378ddf9f137be5d2c6070b5e608451816596e1e7693afc20d681be382ffb",
    ("correlate-finite-na1e5", "json"):
        "5972c6fce62d869bfdaaa50eec5a4f28940a641d4e485fbeb323fd407b628f3d",
    ("correlate-finite-na1e6", "csv"):
        "ec49378ddf9f137be5d2c6070b5e608451816596e1e7693afc20d681be382ffb",
    ("correlate-finite-na1e6", "json"):
        "5972c6fce62d869bfdaaa50eec5a4f28940a641d4e485fbeb323fd407b628f3d",
}

# finite correlate on GENERIC_INI at a finer spacing a, named by
# n_a = L / 2a: its mode sums take the Euler-Maclaurin closed form; at
# n_a = 1e5 the E1 argument of Z's sum (about 31) is below the series
# range, at 1e6 none is
FINE_SPACINGS = {"correlate-finite-na1e5": "a = 0.0001",
                 "correlate-finite-na1e6": "a = 1e-05"}


def assert_needs_no_quoting(text):
    """csv.writer gives back the same bytes for what csv.reader reads, and
    no field holds a quote, a backslash or a control character."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    again = io.StringIO(newline="")
    csv.writer(again).writerows(rows)
    assert again.getvalue() == text
    for field in (f for row in rows for f in row):
        assert not any(c in '"\\' or ord(c) < 32 or ord(c) == 127
                       for c in field), field


@pytest.mark.parametrize("name", list(TABLE_COMMANDS) + list(FINE_SPACINGS))
def test_generic_tables_pinned_and_unquoted(config_file, tmp_path, name):
    cfg = config_file(GENERIC_INI.replace("a = 0.05", FINE_SPACINGS[name])
                      if name in FINE_SPACINGS else GENERIC_INI)
    command = TABLE_COMMANDS.get(name, TABLE_COMMANDS["correlate-finite"])
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *command]) == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GENERIC_SHA256[name, fmt]
        if fmt == "csv":
            assert_needs_no_quoting(data.decode())


# sha256 of the JSON documents of `solve` on GENERIC_INI and of `verify` on
# it at K = 2, 3 and 4 (verify refuses K > 7), recorded while numpy and the
# Fock lab were still imported with fermiphon.cli; the K = 3 pin was recorded
# while the field was still reconstructed partition by partition, and its
# reconstruction applied a partition with two distinct parts, such as (2, 1),
# 166 times, where K = 2 applied none; --format does not change them
DOCUMENT_COMMANDS = {
    "solve": ("solve", GENERIC_INI, "2811479185453f6c53fb6bce051fbafe"
                                    "73b4299eba3c9efbd5cafd09be7f7b6c"),
    "verify": ("verify", GENERIC_INI.replace("K = 8", "K = 2"),
               "94e755041464d70dba0523a48fd457f6"
               "d7d143b6cf955e20629dc918714a5910"),
    "verify-k3": ("verify", GENERIC_INI.replace("K = 8", "K = 3"),
                  "3abc1d36425a8bb39f24b856f5ebcf6e"
                  "fc3084a7585e7dd09e7f3ae3ac4809b7"),
    "verify-k4": ("verify", GENERIC_INI.replace("K = 8", "K = 4"),
                  "8b12ebd82077496f5ad6f012803a3e9d"
                  "e9cd106775e36124e5551987de5348d1"),
}


@pytest.mark.parametrize("name", list(DOCUMENT_COMMANDS))
def test_generic_documents_pinned(config_file, tmp_path, name):
    command, text, digest = DOCUMENT_COMMANDS[name]
    cfg = config_file(text)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, command]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# --------------------------------------------------------------------------
# `verify` builds its rows, and `scan` and `correlate` their blocks of rows,
# on W processes, W = min(cli.cpu_count(), tasks): the parent and W - 1
# forked workers


FORK = os.fork


def set_workers(monkeypatch, W):
    """Run the tasks of a command on at most W processes; at W = 1 a call
    of os.fork fails the test."""
    monkeypatch.setattr(cli, "cpu_count", lambda: W)
    monkeypatch.setattr(os, "fork", FORK if W > 1 else
                        lambda: pytest.fail("W = 1 forked"))


def patch_rows(monkeypatch, wrap):
    """Replace each Fock-lab function that builds a `verify` row, as
    cmd_verify looks it up, by wrap(the function)."""
    from fermiphon import focklab
    for module, name in ((focklab.identities, "identity_residual"),
                         (focklab, "reconstruction_report"),
                         (focklab, "degeneracy_counts"),
                         (focklab, "jacobi_check")):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def parent_waits(monkeypatch, ready: int):
    """Every row of a `verify` in this process first waits (at most 30 s)
    until the pipe `ready` can be read; rows in forked workers do not."""
    parent = os.getpid()

    def waiting(build):
        def wait_then_build(*args):
            if os.getpid() == parent:
                select.select([ready], [], [], 30)
            return build(*args)
        return wait_then_build

    patch_rows(monkeypatch, waiting)


def assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_rows_cover_the_suite():
    from fermiphon.focklab import SUPPORTED_IDENTITIES
    assert cli.VERIFY_ROWS[:len(SUPPORTED_IDENTITIES)] == SUPPORTED_IDENTITIES
    assert sorted(cli.LONGEST_FIRST) == sorted(cli.VERIFY_ROWS)
    assert len(set(cli.VERIFY_ROWS)) == len(cli.VERIFY_ROWS)


@pytest.mark.parametrize("W", [1, 2])
@pytest.mark.parametrize("name", ["verify", "verify-k3", "verify-k4"])
def test_verify_pinned_on_any_process_count(config_file, tmp_path,
                                            monkeypatch, name, W):
    set_workers(monkeypatch, W)
    command, text, digest = DOCUMENT_COMMANDS[name]
    cfg = config_file(text)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, command]) == 0
        assert_no_children()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_failure_same_on_any_process_count(config_file, tmp_path,
                                                  monkeypatch):
    # the corrupted-sign control: forked workers inherit the patch
    no_sign_move(monkeypatch)
    cfg = config_file(FREE_INI)
    docs = []
    for W in (1, 2):
        set_workers(monkeypatch, W)
        out = tmp_path / f"verify-{W}.json"
        assert run_cli(["--config", cfg, "--output", str(out), "verify"]) == 1
        assert_no_children()
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    assert not next(r for r in json.loads(docs[0])
                    if r["identity"] == "CAR")["pass"]


# sha256 of whole failing `verify` documents on FREE_INI at K: (K, the
# corruption, digest), recorded while every residual was still computed in
# Fraction arithmetic, one vertex series per momentum; they pin each failing
# residual and its worst_pair, where the controls above assert only `pass`
FAILING_DOCUMENTS = {
    "move-k2": (2, no_sign_move, "5abc90c3c1dd9e2b05bf80e855f53b52"
                                 "00876354d882a3dcdb43272e609be099"),
    "klein-k2": (2, no_sign_klein, "50980461c31b18a1371fe6105f9e19bb"
                                   "c1374ab023a8fca1fe41e389f2eeb404"),
    "move-k3": (3, no_sign_move, "97a6cd46f17abbda5eb688e3466ba32a"
                                 "51d01c7de1abd5f01c0104cc6386c8c2"),
    "charge-k2": (2, charge_off_at_half, "cbfacffb5cdd1166e74093cc4c57cb52"
                                         "70bd8fa0e945b1addfa1339cf52ad9ee"),
    "j2-k3": (3, double_j2_in_series, "9562b29962fae3c3f683c4c9ba183152"
                                      "aa8ea4615a061062ce30d22dccd5709a"),
}


@pytest.mark.parametrize("W", [1, 2])
@pytest.mark.parametrize("name", list(FAILING_DOCUMENTS))
def test_verify_failing_documents_pinned(config_file, tmp_path, monkeypatch,
                                         name, W):
    K, corrupt, digest = FAILING_DOCUMENTS[name]
    corrupt(monkeypatch)
    set_workers(monkeypatch, W)
    cfg = config_file(FREE_INI.replace("K = 2", f"K = {K}"))
    out = tmp_path / "verify.json"
    assert run_cli(["--config", cfg, "--output", str(out), "verify"]) == 1
    assert_no_children()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_row_error_in_worker_exit_2(config_file, monkeypatch, capsys):
    """A FermiphonError that a row raises in a worker gives exit 2 and the
    line it gives at W = 1.  At W = 2 the parent waits in each of its rows
    until the JACOBI row has failed, so that row fails in the worker."""
    from fermiphon import focklab
    from fermiphon.errors import BadArgument
    ran, told = os.pipe()

    def failing_jacobi(degree):
        os.write(told, b"%d\n" % os.getpid())
        raise BadArgument("the JACOBI row failed")

    monkeypatch.setattr(focklab, "jacobi_check", failing_jacobi)
    cfg = config_file(FREE_INI)
    try:
        for W in (1, 2):
            set_workers(monkeypatch, W)
            if W == 2:
                parent_waits(monkeypatch, ran)
            assert run_cli(["--config", cfg, "verify"]) == 2
            assert_no_children()
            assert capsys.readouterr() == (
                "", "error: the JACOBI row failed\n")
            assert (int(os.read(ran, 64)) == os.getpid()) == (W == 1)
    finally:
        os.close(ran)
        os.close(told)


@pytest.mark.parametrize("W", [1, 2])
def test_verify_raises_first_failing_row_of_report(config_file, monkeypatch,
                                                   capsys, W):
    # J_PSI is handed out before CAR, but CAR comes first in the report,
    # so a serial loop raises CAR's error
    from fermiphon import focklab
    from fermiphon.errors import BadArgument
    residual = focklab.identities.identity_residual

    def failing(space, name):
        if name in ("CAR", "J_PSI"):
            raise BadArgument(f"the {name} row failed")
        return residual(space, name)

    monkeypatch.setattr(focklab.identities, "identity_residual", failing)
    set_workers(monkeypatch, W)
    assert run_cli(["--config", config_file(FREE_INI), "verify"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == "error: the CAR row failed\n"


def test_verify_rows_of_a_lost_worker_built_here(config_file, tmp_path,
                                                 monkeypatch):
    """A worker that dies in a row sends nothing back, and the parent
    builds the rows it lacks: the document is the pinned one."""
    from fermiphon import focklab
    ran, told = os.pipe()
    jacobi = focklab.jacobi_check
    parent = os.getpid()

    def dying_jacobi(degree):
        if os.getpid() != parent:
            os.write(told, b"x")
            os._exit(3)
        return jacobi(degree)

    monkeypatch.setattr(focklab, "jacobi_check", dying_jacobi)
    set_workers(monkeypatch, 2)
    parent_waits(monkeypatch, ran)
    command, text, digest = DOCUMENT_COMMANDS["verify"]
    out = tmp_path / "out.json"
    try:
        assert run_cli(["--config", config_file(text), "--output", str(out),
                        command]) == 0
        assert_no_children()
        assert os.read(ran, 64) == b"x"
    finally:
        os.close(ran)
        os.close(told)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_interrupt_kills_workers(config_file, monkeypatch):
    """A KeyboardInterrupt in the parent leaves `main` at once, and the
    worker, stuck in a row, is killed and reaped."""
    parent = os.getpid()

    def row(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        os._exit(1)

    patch_rows(monkeypatch, lambda build: row)
    set_workers(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_cli(["--config", config_file(FREE_INI), "verify"])
    assert time.monotonic() - start < 30
    assert_no_children()


def test_verify_leaves_no_garbage(config_file, monkeypatch):
    # the space and every operator the rows build are freed by reference
    # counting when cmd_verify returns; W = 1 builds every row here
    from fermiphon.focklab.operators import Columns, SparseOperator
    set_workers(monkeypatch, 1)
    cfg = cli.load_config(config_file(FREE_INI.replace("K = 2", "K = 3")))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.cmd_verify(cfg)[0] == 0
        gc.collect()
        kept = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (FockSpace, Columns, SparseOperator))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []


@pytest.mark.parametrize("name", ["boundary", "g-max-inf", "g-underflow"])
def test_scan_edge_grids_need_no_quoting(name):
    # unstable rows with empty fields, nan and inf
    code, table = cli.cmd_scan(SCANS[name])
    assert code == 0
    out = io.StringIO(newline="")
    cli._write(out, "csv", table)
    assert_needs_no_quoting(out.getvalue())


def _spectrum_ini(name):
    """An INI holding the model and K of test_sweeps.SPECTRA[name]."""
    params, K, _e_max = SPECTRA[name]
    return "".join(["[model]\n"] + [
        f"{key} = {getattr(params, field)!r}\n" for key, field in (
            ("v_f", "v_f"), ("v_p", "v_p"), ("lambda", "lam"), ("g", "g"),
            ("a", "a"), ("L", "L"), ("omega0", "omega0"))]
        + [f"\n[grid]\nK = {K}\n"])


# a 57 x 41 scan: 2,337 rows cross the 2048-point block, the gamma2
# stability boundary and both signs of lambda
SCAN_2D_INI = GENERIC_INI.replace(
    "lambda_min = -5.0\nlambda_max = 7.0\nn_lambda = 13\n"
    "g_min = 0.0\ng_max = 0.0\nn_g = 1\n",
    "lambda_min = -4.0\nlambda_max = 5.0\nn_lambda = 57\n"
    "g_min = -0.9\ng_max = 0.9\nn_g = 41\n")

# (config, command, csv sha256, json sha256), recorded while every spectrum
# level and every scan field was still formatted on its own
PINNED_TABLES = {
    "scan-2d": (SCAN_2D_INI, ["scan"],
                "c58d777cca4fc682939ebbc2aa7f92d94431f778d352e8c7b5a652d518ba8edf",
                "79d6227c2a5d1ad3ff8ce29ca77fd76ba800a689a8b7321220d81c534f336317"),
    "spectrum-free": (
        _spectrum_ini("free"), ["spectrum", "--e-max", "2.0"],
        "788203e4a73312867c4fcacd2ddeb04c09031559d32a37e941c8771d60e9d92f",
        "d2936f3b1aeed6a45d7657a19f95b0b1710963c69fd6806dbe7238df96a5c837"),
    "spectrum-lambda-negative": (
        _spectrum_ini("lambda-negative"), ["spectrum", "--e-max", "0.8"],
        "8da50102906d6f798f46420bdcfe726647fe345378cabf03f939596efc46cb5a",
        "b5a83ffcbc0585d6ee672e9910c635639a3665096676e90c9e73156e8e079577"),
}


@pytest.mark.parametrize("name", list(PINNED_TABLES))
def test_tables_pinned(config_file, tmp_path, name):
    text, command, *digests = PINNED_TABLES[name]
    cfg = config_file(text)
    for fmt, digest in zip(("csv", "json"), digests):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *command]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    rows = out.read_text()
    if name == "scan-2d":
        assert rows.count('"lambda": ') == 57 * 41
        assert '"stable": "0"' in rows and '"stable": "1"' in rows
        assert '"lambda": "-' in rows


# sha256 of the SCANS edge grids as written by cmd_scan, csv then json,
# recorded as PINNED_TABLES were
SCAN_EDGE_SHA256 = {
    "boundary": (
        "58ce0f45a2c1a01dde07c40717745961708bf19a61d2b4ac28ed362fc7340ec7",
        "f6ccc4d571fa3faeee74151d0c7e449c4e88a2ac1b3eb9cec83b4fa1dfd2106f"),
    "g-max-inf": (
        "0ec7416c35349eacbbff8759676ac9e1becbad1a2a3fbbcaf13db9e97f2df9d0",
        "2a392c10ae84af28be992d792964bf5adc0ebd661d766b3742fe0ef80e9d4c13"),
    "g-underflow": (
        "6ae83e9d4b3a1fd6680f5e50b99ad4dc823fbd20d770b3564abc0b8b79eebc5c",
        "fa652b5a3ca7810a564af0c1a02c0efb2805185af710e6e7ce99fc5f56bd8032"),
}


@pytest.mark.parametrize("name", list(SCAN_EDGE_SHA256))
def test_scan_edge_grids_pinned(name):
    for fmt, digest in zip(("csv", "json"), SCAN_EDGE_SHA256[name]):
        code, table = cli.cmd_scan(SCANS[name])
        assert code == 0
        out = io.StringIO(newline="")
        cli._write(out, fmt, table)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(TABLE_COMMANDS))
def test_stdout_equals_output_file(config_file, tmp_path, capsysbinary, name,
                                   fmt):
    cfg = config_file(GENERIC_INI)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--output", str(out), "--format", fmt,
                    *TABLE_COMMANDS[name]]) == 0
    assert capsysbinary.readouterr().out == b""
    assert run_cli(["--config", cfg, "--format", fmt,
                    *TABLE_COMMANDS[name]]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


SWEEP_COMMANDS = {
    "scan": ["scan"],
    "correlate-finite": ["correlate", "--mode", "finite"],
    "correlate-continuum": ["correlate", "--mode", "continuum"],
}

# (config, block sizes patched in): one block (13 scan rows, 5 positions);
# a few blocks (the 57 x 41 scan in 2 blocks of 2048 points, 700 positions
# in 3 blocks of 256); more than 255 tasks (293 scan blocks of 8 points,
# 350 blocks of 2 positions)
SWEEP_700 = SCAN_2D_INI.replace("points = 5\n", "points = 700\n")
SWEEP_GRIDS = {
    "one-block": (GENERIC_INI, {}),
    "few-blocks": (SWEEP_700, {}),
    "many-tasks": (SWEEP_700, {"SCAN_BLOCK": 8, "SWEEP_BLOCK": 2}),
}

# sha256 of the SWEEP_700 tables, recorded while every sweep ran in one
# process; its scan is PINNED_TABLES' scan-2d
SWEEP_700_SHA256 = {
    ("scan", "csv"): PINNED_TABLES["scan-2d"][2],
    ("scan", "json"): PINNED_TABLES["scan-2d"][3],
    ("correlate-finite", "csv"):
        "9f9b3bce9cd541a196598f3dadda22b6eb5f70b3f13efb740d03715642ef38d7",
    ("correlate-finite", "json"):
        "49589e3fad2cdc4cb7970b0ac4f1f64724ba99c5478c9a3a6e96f0b3c7386422",
    ("correlate-continuum", "csv"):
        "1b60d7744d5e79aec3bd1f9891934a4579ec846a6987065050d471f6b964167d",
    ("correlate-continuum", "json"):
        "534a0a64918adcbe8f04dae8e48d960dc80f1c13f43cc6893ad9f15cfe41774d",
}


@pytest.mark.parametrize("W", [1, 2])
@pytest.mark.parametrize("grid", list(SWEEP_GRIDS))
@pytest.mark.parametrize("name", list(SWEEP_COMMANDS))
def test_sweep_bytes_on_any_process_count(config_file, tmp_path,
                                          capsysbinary, monkeypatch, name,
                                          grid, W):
    """A sweep on W processes, in blocks of any size, writes the pinned
    bytes of one process with the blocks as they are, to --output and to
    stdout."""
    text, blocks = SWEEP_GRIDS[grid]
    pins = GENERIC_SHA256 if grid == "one-block" else SWEEP_700_SHA256
    cfg = config_file(text)
    args = SWEEP_COMMANDS[name]
    set_workers(monkeypatch, 1)
    expect = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"expect.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *args]) == 0
        expect[fmt] = out.read_bytes()
        assert hashlib.sha256(expect[fmt]).hexdigest() == pins[name, fmt]
    set_workers(monkeypatch, W)
    for attr, size in blocks.items():
        monkeypatch.setattr(cli, attr, size)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *args]) == 0
        assert_no_children()
        assert out.read_bytes() == expect[fmt]
        assert run_cli(["--config", cfg, "--format", fmt, *args]) == 0
        assert_no_children()
        assert capsysbinary.readouterr().out == expect[fmt]


@pytest.mark.parametrize("W", [1, 2])
@pytest.mark.parametrize("name", ["scan", "correlate-finite"])
def test_failed_sweep_leaves_output_file_alone(config_file, tmp_path,
                                               monkeypatch, name, W):
    """A sweep whose last block raises (the 57 x 41 scan's second block of
    2048 points, the third of 256 positions of 700) exits 2 and leaves an
    existing --output file as it was, mode included, with no other file
    beside it."""
    cfg = config_file(SWEEP_700)
    set_workers(monkeypatch, W)
    for attr, size in (("closed_form", cli.SCAN_BLOCK),
                       ("finite_correlator", cli.SWEEP_BLOCK)):
        def last_fails(*args, attr=attr, real=getattr(cli, attr), size=size,
                       **kw):
            points = args[0].lam if attr == "closed_form" else kw["xs"]
            if len(points) < size:
                raise MemoryError("the last block")
            return real(*args, **kw)
        monkeypatch.setattr(cli, attr, last_fails)
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\r\n")
    out.chmod(0o640)
    before = sorted(os.listdir(tmp_path))
    for fmt in ("csv", "json"):
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *SWEEP_COMMANDS[name]]) == 2
        assert_no_children()
        assert out.read_bytes() == b"earlier result\r\n"
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == before


# GENERIC_INI at K = 40 with e_max = 1.2: the benchmark's shape, 62,129
# levels in 31 blocks of 2048; sha256 of its table, csv then json, recorded
# while each level was still formatted on its own (CI checks the same)
K40_INI = GENERIC_INI.replace("K = 8", "K = 40")
K40_SPECTRUM = ["spectrum", "--e-max", "1.2"]
K40_SPECTRUM_SHA256 = (
    "6512fec9bd6c0cbbeee02dc717af36934740d8bd2fd77d19e6ef4c6a0021f014",
    "122c19b95ec44cfc7946b8c9def8fde7b3cfbaae83e6af7b369fc956552dd947")


@pytest.mark.parametrize("W", [1, 2])
def test_spectrum_bytes_on_any_process_count(config_file, tmp_path,
                                             capsysbinary, monkeypatch, W):
    """The K = 40 spectrum, its level blocks formatted on W processes,
    writes the pinned bytes to --output and to stdout."""
    cfg = config_file(K40_INI)
    set_workers(monkeypatch, W)
    for fmt, digest in zip(("csv", "json"), K40_SPECTRUM_SHA256):
        out = tmp_path / f"out.{fmt}"
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, *K40_SPECTRUM]) == 0
        assert_no_children()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert run_cli(["--config", cfg, "--format", fmt, *K40_SPECTRUM]) == 0
        assert_no_children()
        assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("W", [1, 2])
def test_failed_spectrum_leaves_output_file_alone(config_file, tmp_path,
                                                  monkeypatch, W):
    """A spectrum whose last block of levels raises (the sixth of 64 of
    the 324 levels of GENERIC_INI at e_max = 0.5) exits 2 and leaves an
    existing --output file as it was, mode included, with no other file
    beside it."""
    cfg = config_file(GENERIC_INI)
    set_workers(monkeypatch, W)
    monkeypatch.setattr(cli, "SCAN_BLOCK", 64)
    pool = cli.run_tasks

    def last_fails(build, count, order=()):
        def build_or_fail(k):
            if k == count - 1:
                raise MemoryError("the last block")
            return build(k)
        assert count == 6
        return pool(build_or_fail, count, order)

    monkeypatch.setattr(cli, "run_tasks", last_fails)
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\r\n")
    out.chmod(0o640)
    before = sorted(os.listdir(tmp_path))
    for fmt in ("csv", "json"):
        assert run_cli(["--config", cfg, "--output", str(out), "--format",
                        fmt, "spectrum", "--e-max", "0.5"]) == 2
        assert_no_children()
        assert out.read_bytes() == b"earlier result\r\n"
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == before


def test_output_replaced_keeping_mode_and_link(config_file, tmp_path):
    """--output replaces a regular file with its mode and group kept (a
    group other than the writer's where it may set one), writes through
    a symlink to its target (the link stays) and gives a new file the mode
    open(path, "w") gives it.  A file with a second hard link, a read-only
    file and a FIFO are written directly: the hard link keeps seeing the
    output, and a read-only file is written or refused as open(path, "w")
    writes or refuses it."""
    cfg = config_file(GENERIC_INI)
    args = ["--config", cfg, "correlate", "--mode", "finite"]
    umask = os.umask(0)
    os.umask(umask)
    expect = tmp_path / "expect"
    assert run_cli(args[:2] + ["--output", str(expect)] + args[2:]) == 0
    data = expect.read_bytes()
    assert data.startswith(b"x,t,re,im,abs\r\n")
    assert expect.stat().st_mode & 0o777 == 0o666 & ~umask
    kept = tmp_path / "kept"
    kept.write_text("old")
    kept.chmod(0o600)
    link = tmp_path / "link"
    link.symlink_to(kept)
    group = kept.stat().st_gid
    for gid in {*os.getgroups(), 65534} - {group}:
        try:
            os.chown(kept, -1, gid)
            group = gid
            break
        except PermissionError:
            pass
    for path in (kept, link):
        kept.write_text("old")
        assert run_cli(args[:2] + ["--output", str(path)] + args[2:]) == 0
        assert kept.read_bytes() == data and link.is_symlink()
        assert kept.stat().st_mode & 0o777 == 0o600
        assert kept.stat().st_gid == group
    hard = tmp_path / "hard"
    os.link(kept, hard)
    kept.write_text("old")
    assert run_cli(args[:2] + ["--output", str(kept)] + args[2:]) == 0
    assert hard.read_bytes() == data and os.path.samefile(kept, hard)
    os.unlink(hard)
    ro = tmp_path / "ro"
    ro.write_text("old")
    ro.chmod(0o444)
    try:
        open(ro, "a").close()       # as open(ro, "w") would, but keeps "old"
        refused = False
    except PermissionError:
        refused = True
    code = run_cli(args[:2] + ["--output", str(ro)] + args[2:])
    assert (code, ro.read_bytes()) == ((2, b"old") if refused else (0, data))
    assert ro.stat().st_mode & 0o777 == 0o444
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert run_cli(args[:2] + ["--output", str(fifo)] + args[2:]) == 0
    reader.join(30)
    assert got == [data]
    assert sorted(os.listdir(tmp_path)) == [
        "expect", "fifo", "kept", "link", "ro", "run.ini"]


def test_output_to_an_open_descriptor_written_directly(config_file,
                                                        tmp_path):
    """--output /dev/stdout or /proc/self/fd/1, with stdout a regular file,
    writes the file that descriptor holds open, not a new file put in its
    place."""
    cfg = config_file(GENERIC_INI)
    src = os.path.dirname(os.path.dirname(fermiphon.__file__))
    out = tmp_path / "out.csv"
    for name in ("/dev/stdout", "/proc/self/fd/1"):
        with open(out, "w+b") as stdout:
            subprocess.run([sys.executable, "-m", "fermiphon.cli",
                            "--config", cfg, "--output", name, "correlate",
                            "--mode", "finite"], stdout=stdout, check=True,
                           timeout=60, env=dict(os.environ, PYTHONPATH=src))
            assert stdout.read().startswith(b"x,t,re,im,abs\r\n")
            assert os.path.samefile(out, f"/proc/self/fd/{stdout.fileno()}")
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "run.ini"]


def test_sweep_to_buffered_stdout_on_two_processes(config_file, tmp_path):
    """In a fresh process, whose stdout is a pipe and buffers the header
    while the workers are forked, every sweep on two processes writes each
    byte once: a worker leaves without flushing the parent's buffer."""
    cfg = config_file(SWEEP_700)
    argvs = [["--format", fmt, *args] for args in SWEEP_COMMANDS.values()
             for fmt in ("csv", "json")]
    expect = b""
    for argv in argvs:
        out = tmp_path / "out"
        assert run_cli(["--config", cfg, "--output", str(out), *argv]) == 0
        expect += out.read_bytes()
    code = ("import json, sys; from fermiphon import cli; "
            "cli.cpu_count = lambda: 2; "
            "sys.exit(max(cli.main(['--config', sys.argv[1], *argv]) "
            "for argv in json.loads(sys.argv[2])))")
    src = os.path.dirname(os.path.dirname(fermiphon.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    fresh = subprocess.run(
        [sys.executable, "-c", code, cfg, json.dumps(argvs)],
        capture_output=True, timeout=60, env=dict(env, PYTHONPATH=src))
    assert (fresh.returncode, fresh.stderr) == (0, b"")
    assert fresh.stdout == expect


@pytest.mark.parametrize("W", [1, 2])
def test_sweep_error_in_worker_exit_2(config_file, tmp_path, monkeypatch,
                                      capsys, W):
    """A continuum sweep of 700 positions whose first failing point (the
    567th, where i ell / (r x - v t + i reg) underflows to 0) lies in its
    last block exits 2 with the line it gives at W = 1 and leaves an
    existing output file alone.  At W = 2 the parent's first block waits
    until a block has failed, so the worker builds the failing one."""
    ran, told = os.pipe()
    sweep = cli.npoint_continuum
    parent = os.getpid()

    def told_failing(spec, sol, xs):
        if W == 2 and os.getpid() == parent:
            select.select([ran], [], [], 30)
        try:
            return sweep(spec, sol, xs=xs)
        except cli.BadArgument:
            os.write(told, b"%d\n" % os.getpid())
            raise

    monkeypatch.setattr(cli, "npoint_continuum", told_failing)
    set_workers(monkeypatch, W)
    cfg = config_file(GENERIC_INI.replace("ell = 1.0", "ell = 1e-150")
                      .replace("x_min = 0.5", "x_min = 0.0")
                      .replace("x_max = 5.0", "x_max = 5e173")
                      .replace("points = 5", "points = 700"))
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    try:
        assert run_cli(["--config", cfg, "--output", str(out),
                        "correlate"]) == 2
        assert_no_children()
        assert (int(os.read(ran, 64).split()[0]) == os.getpid()) == (W == 1)
    finally:
        os.close(ran)
        os.close(told)
    assert capsys.readouterr() == ("", (
        "error: i ell / (r x - v t + i reg) underflows to 0 at ell = "
        "1e-150, pair separation x = 4.05e+173, t = 0\n"))
    assert out.read_bytes() == b"earlier result\n"


# the one-block sweeps of the vertex mode-sum benchmark: a finite 2-point
# sweep of 24, 4 and 1 positions, a 4-point word at one position and a free
# 2-point sweep of 4 positions (at n_a = 200 here)
ONE_BLOCK_SWEEPS = {
    "finite-2pt-24": ("points = 5\n", "points = 24\n"),
    "finite-2pt-4": ("points = 5\n", "points = 4\n"),
    "finite-2pt-1": ("points = 5\n", "points = 1\n"),
    "finite-4pt-1": ("points = 5\n", "points = 1\n"),
    "finite-free-4": ("points = 5\n", "points = 4\n"),
}


@pytest.mark.parametrize("name", list(ONE_BLOCK_SWEEPS))
def test_one_block_sweep_never_forks(config_file, tmp_path, monkeypatch,
                                     name):
    text = GENERIC_INI.replace(*ONE_BLOCK_SWEEPS[name])
    if name.startswith("finite-4pt"):
        text = text.replace("insertions = +:-:0:0 ; +:+:0:0",
                            "insertions = +:-:0:0 ; +:+:0.4:0 ; "
                            "-:+:1.1:0.2 ; -:-:1.9:0")
    if name.startswith("finite-free"):
        text = text.replace("lambda = 1.0", "lambda = 0.0").replace(
            "g = 0.2", "g = 0.0")
    cfg = config_file(text)
    out = tmp_path / "out.csv"
    set_workers(monkeypatch, 1)
    assert run_cli(["--config", cfg, "--output", str(out), "correlate",
                    "--mode", "finite"]) == 0
    expect = out.read_bytes()
    monkeypatch.setattr(cli, "cpu_count", lambda: 2)
    assert run_cli(["--config", cfg, "--output", str(out), "correlate",
                    "--mode", "finite"]) == 0
    assert out.read_bytes() == expect
    assert expect.count(b"\n") == 1 + int(
        ONE_BLOCK_SWEEPS[name][1].split()[-1])


def test_sweep_parent_waits_for_a_slow_worker(config_file, tmp_path,
                                              monkeypatch):
    """While more than cli.WAITING blocks wait for one that a worker still
    builds, the parent builds no block of its own: what a sweep holds does
    not grow with its grid.  The worker's first block takes 1 s longer,
    and the parent's blocks are counted while it sleeps (a worker that
    starts late may take its first block after the parent built several);
    the 57 x 41 scan has 37 blocks of 64 points."""
    ran, told = os.pipe()
    kernel = cli.closed_form
    parent = os.getpid()
    calls, first = [], [True]

    def slow_first_block_in_worker(params):
        if os.getpid() == parent:
            calls.append(time.monotonic())
        elif first:
            first.clear()
            start = time.monotonic()
            time.sleep(1.0)
            os.write(told, b"%r %r\n" % (start, time.monotonic()))
        return kernel(params)

    cfg = config_file(SCAN_2D_INI)
    expect = tmp_path / "expect.csv"
    set_workers(monkeypatch, 1)
    assert run_cli(["--config", cfg, "--output", str(expect), "scan"]) == 0
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "SCAN_BLOCK", 64)
    monkeypatch.setattr(cli, "closed_form", slow_first_block_in_worker)
    out = tmp_path / "out.csv"
    try:
        assert run_cli(["--config", cfg, "--output", str(out), "scan"]) == 0
        assert_no_children()
        assert select.select([ran], [], [], 30)[0]
        slow_start, slow_done = map(float, os.read(ran, 64).split())
    finally:
        os.close(ran)
        os.close(told)
    assert out.read_bytes() == expect.read_bytes()
    meanwhile = sum(slow_start < t < slow_done for t in calls)
    assert 0 < meanwhile <= cli.WAITING + 2
    assert len(calls) > cli.WAITING + 2


def test_sweep_output_failure_leaves_no_worker(config_file, monkeypatch,
                                               capsys):
    """A scan whose output cannot be written exits 2 with one line, and the
    worker still building its blocks is killed and reaped before `main`
    returns."""
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "SCAN_BLOCK", 64)
    assert run_cli(["--config", config_file(SCAN_2D_INI), "--output",
                    "/dev/full", "scan"]) == 2
    assert_no_children()
    assert capsys.readouterr().err.startswith("I/O failure: ")


@pytest.mark.parametrize("where", ["in-a-task", "mid-message"])
def test_sweep_lost_worker_built_here_in_order(config_file, tmp_path,
                                               monkeypatch, where):
    """A worker that dies in its first block, or after writing half of that
    block's message, takes the block with it.  The parent reads a broken
    message as the worker's end, builds the lost block as soon as it is
    next rather than every block left first, and writes the bytes of one
    process.  The 57 x 41 scan has 37 blocks of 64 points."""
    ran, told = os.pipe()
    parent = os.getpid()
    attempt, send = cli._attempt, cli._send
    built = []                  # the blocks the parent builds, in turn

    def dying_attempt(build, index):
        if os.getpid() == parent:
            built.append(index)
        elif where == "in-a-task":
            os.write(told, b"%d\n" % index)
            os._exit(3)
        return attempt(build, index)

    def half_send(out, index, result):
        whole = io.BytesIO()
        send(whole, index, result)
        os.write(told, b"%d\n" % index)
        out.write(whole.getvalue()[:len(whole.getvalue()) // 2])
        out.flush()
        os._exit(3)

    cfg = config_file(SCAN_2D_INI)
    expect = tmp_path / "expect.csv"
    set_workers(monkeypatch, 1)
    assert run_cli(["--config", cfg, "--output", str(expect), "scan"]) == 0
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "SCAN_BLOCK", 64)
    monkeypatch.setattr(cli, "_attempt", dying_attempt)
    if where == "mid-message":
        monkeypatch.setattr(cli, "_send", half_send)
    out = tmp_path / "out.csv"
    try:
        assert run_cli(["--config", cfg, "--output", str(out), "scan"]) == 0
        assert_no_children()
        lost = int(os.read(ran, 64))
    finally:
        os.close(ran)
        os.close(told)
    assert out.read_bytes() == expect.read_bytes()
    assert sorted(built) == list(range(37))
    assert sum(k > lost for k in built[:built.index(lost)]) <= cli.WAITING + 1


def test_sweep_tasks_past_a_small_pipe_built_here(config_file, tmp_path,
                                                  monkeypatch):
    """A task pipe too small for every index (one page, as Linux gives a
    user past its pipe-user-pages-soft) leaves the parent to build every
    task without forking, rather than block on the full pipe: 1169 scan
    blocks of 2 points take 4676 bytes."""
    import fcntl
    import signal
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe sizes cannot be set here")
    cfg = config_file(SCAN_2D_INI)
    expect = tmp_path / "expect.csv"
    set_workers(monkeypatch, 1)
    assert run_cli(["--config", cfg, "--output", str(expect), "scan"]) == 0
    pipe = os.pipe

    def one_page_pipe():
        read, write = pipe()
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1)
        assert fcntl.fcntl(write, fcntl.F_GETPIPE_SZ) < 4676
        return read, write

    def blocked(signum, frame):
        raise TimeoutError("blocked on the task pipe")

    monkeypatch.setattr(os, "pipe", one_page_pipe)
    monkeypatch.setattr(cli, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "SCAN_BLOCK", 2)
    out = tmp_path / "out.csv"
    alarm = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(60)
    try:
        assert run_cli(["--config", cfg, "--output", str(out), "scan"]) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
    assert out.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "grid too large"),
    (MemoryError("Unable to allocate 72.8 TiB"),
     "Unable to allocate 72.8 TiB"),
], ids=["bare", "numpy"])
@pytest.mark.parametrize("args", [
    ["scan"], ["correlate", "--mode", "finite"],
    ["correlate", "--mode", "continuum"]],
    ids=["scan", "correlate-finite", "correlate-continuum"])
def test_grid_out_of_memory_exit_2(config_file, tmp_path, capsys,
                                   monkeypatch, args, exc, message):
    # a grid too large to allocate fails before --output is opened
    def no_memory(lo, hi, n):
        raise exc
    monkeypatch.setattr(cli, "_grid", no_memory)
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    assert run_cli(["--config", config_file(GENERIC_INI), "--output",
                    str(out), *args]) == 2
    assert capsys.readouterr().err == f"out of memory: {message}\n"
    assert out.read_bytes() == b"earlier result\n"


# (config edits past GRID_CAP, GENERIC_INI's own size, command, message);
# GENERIC_INI scans 13 rows and sweeps 5 points
CAPPED = {
    "scan": ([("n_lambda = 13\n", "n_lambda = 10000000\n"),
              ("n_g = 1\n", "n_g = 10000000\n")], 13, ["scan"],
             "100000000000000 scan rows"),
    "correlate-finite": ([("points = 5\n", "points = 1000001\n")], 5,
                         ["correlate", "--mode", "finite"],
                         "1000001 correlate points"),
    "correlate-continuum": ([("points = 5\n", "points = 1000001\n")], 5,
                            ["correlate", "--mode", "continuum"],
                            "1000001 correlate points"),
}


@pytest.mark.parametrize("name", list(CAPPED))
def test_grid_past_cap_exit_2(config_file, tmp_path, capsys, monkeypatch,
                              name):
    # refused before the grid is built and before --output is opened
    edits, size, args, asked = CAPPED[name]
    text = GENERIC_INI
    for edit in edits:
        text = text.replace(*edit)

    def no_grid(lo, hi, n):
        raise AssertionError("grid built past GRID_CAP")
    monkeypatch.setattr(cli, "_grid", no_grid)
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    assert run_cli(["--config", config_file(text), "--output", str(out),
                    *args]) == 2
    assert capsys.readouterr().err == (
        f"error: {asked} asked for, more than {cli.GRID_CAP}; use a "
        f"coarser grid\n")
    assert out.read_bytes() == b"earlier result\n"
    # the cap itself is allowed, one more row or point is not
    monkeypatch.undo()
    cfg = config_file(GENERIC_INI)
    monkeypatch.setattr(cli, "GRID_CAP", size)
    assert run_cli(["--config", cfg, "--output", str(out), *args]) == 0
    monkeypatch.setattr(cli, "GRID_CAP", size - 1)
    assert run_cli(["--config", cfg, *args]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_invalid_config_exit_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nv_f = -1.0\nv_p = 0.3\nlambda = 0\ng = 0\n"
                    "a = 0.01\nL = 10\n")
    assert cli.main(["--config", str(path), "solve"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.ini"), "solve"]) == 2


@pytest.mark.parametrize("edit, args", [
    (("K = 8", "K = 1"), ["spectrum", "--e-max", "0.6"]),
    # GENERIC_INI's own K = 8 is past verify's cap
    (("K = 8", "K = 8"), ["verify"]),
], ids=["spectrum-grid-too-small", "verify-k8"])
def test_failed_command_keeps_existing_output(config_file, tmp_path, edit,
                                              args):
    cfg = config_file(GENERIC_INI.replace(*edit))
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    assert run_cli(["--config", cfg, "--output", str(out)] + args) == 2
    assert out.read_bytes() == b"earlier result\n"


@pytest.mark.parametrize("edit, e_max", [
    # the occupation tree passes the cap (ran past 15 s without one)
    (("K = 8", "K = 60"), "2.5"),
    # a deep tree: its occupation tuples pass the cap long before its
    # states do (counting states alone took 6 s and 640 MB to refuse)
    (("K = 8", "K = 400000"), "1000"),
    # a tiny omega0 puts 5e8 zero-mode levels m_p0 below e_max
    (("L = 20.0", "L = 20.0\nomega0 = 1e-9"), "0.5"),
    # a tree inside the occupation cap whose levels pass the cap
    (("K = 8", "K = 40"), "1.5"),
], ids=["tree", "deep-tree", "zero-mode-levels", "levels"])
def test_oversized_spectrum_refused(config_file, tmp_path, capsys, edit,
                                    e_max):
    cfg = config_file(GENERIC_INI.replace(*edit))
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier result\n")
    start = time.perf_counter()
    assert run_cli(["--config", cfg, "--output", str(out), "spectrum",
                    "--e-max", e_max]) == 2
    assert time.perf_counter() - start < 2.0
    assert out.read_bytes() == b"earlier result\n"
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"more than {LEVEL_CAP}" in err


def test_spectrum_memory_follows_kept_levels(config_file, tmp_path,
                                             monkeypatch):
    """At the benchmark's shape (62k levels of 171 sectors over an 8k-node
    occupation tree), spectrum() peaks at most 7 MB traced, and the whole
    command at most 8 MB with every block formatted in this process: a
    walk of every sector over every node, or whole-spectrum lists, take
    more."""
    import tracemalloc
    from fermiphon.bogoliubov import spectrum
    from fermiphon.params import momentum_grid
    cfg = config_file(K40_INI)
    set_workers(monkeypatch, 1)
    params = cli.load_config(cfg).model
    sol = solve_closed_form(params)
    grid = momentum_grid(L=params.L, K=40, a=params.a)
    out = str(tmp_path / "out.csv")
    peaks = []
    for run in (lambda: spectrum(params, sol, 1.2, grid),
                lambda: run_cli(["--config", cfg, "--output", out,
                                 *K40_SPECTRUM])):
        run()
        gc.collect()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 7.0 and peaks[1] <= 8.0, peaks


def test_spectrum_work_does_not_grow_with_k(config_file, tmp_path):
    # the mode loop stops at the first coupled and the first bare mode
    # above e_max, so K = 10^9 costs what K = 40 does
    outs = []
    for K in (40, 10**9):
        out = tmp_path / f"k{K}.csv"
        start = time.perf_counter()
        assert run_cli(["--config", config_file(GENERIC_INI.replace(
            "K = 8", f"K = {K}")), "--output", str(out), "spectrum",
            "--e-max", "0.5"]) == 0
        assert time.perf_counter() - start < 2.0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Config values for the property test: every key starts from a range where
# the model is valid, so runs get past validation; a few are then left out
# or given a finite (plausible or extreme), zero, negative, non-finite or
# unparsable value.
_BAD = st.one_of(
    st.floats(min_value=-10.0, max_value=50.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "0.0", "-0.0", "-1", "nan", "inf", "-inf", "1e999",
                     "", "abc", "1,5", "0x10"]))


def _real(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _count(hi):
    return st.integers(1, hi).map(str)


_SECTIONS = {
    "model": {"v_f": _real(0.5, 2.0), "v_p": _real(0.05, 0.45),
              "lambda": _real(-3.0, 3.0), "g": _real(-0.3, 0.3),
              "a": _real(1e-7, 1.0), "L": _real(2.0, 100.0),
              "omega0": _real(1e-3, 1.0)},
    "grid": {"K": None},  # a count up to k_max, drawn by _configs
    "correlator": {
        "ell": _real(0.1, 10.0), "regulator": _real(1e-9, 0.5),
        "x_min": _real(-5.0, 5.0), "x_max": _real(-5.0, 5.0),
        "t": _real(-2.0, 2.0), "points": _count(4),
        "insertions": st.sampled_from([
            "+:-:0:0 ; +:+:0:0", "+:-:0:0 ; +:+:-1:0 ; -:-:-2:0.1 ; -:+:-3:0",
            "-:+:0:0 ; -:-:0:0", "+:-:0:0", "+:-:nan:0 ; +:+:0:inf"])},
    "scan": {"lambda_min": _real(-10.0, 10.0),
             "lambda_max": _real(-10.0, 10.0), "n_lambda": _count(3),
             "g_min": _real(-1.0, 1.0), "g_max": _real(-1.0, 1.0),
             "n_g": _count(3)},
}


_KEYS = [(title, key) for title, keys in _SECTIONS.items() for key in keys]


@st.composite
def _configs(draw, k_max=6):
    """INI text with a valid value for every key the config reads, then up
    to three keys left out (None) or given a bad value.  Counts stay small
    (points <= 4, n_lambda and n_g <= 3, K <= k_max): no bad value parses
    as a larger count."""
    values = {(title, key): draw(_count(k_max) if good is None else good)
              for title, keys in _SECTIONS.items()
              for key, good in keys.items()}
    for where, bad in draw(st.lists(st.tuples(st.sampled_from(_KEYS),
                                              st.none() | _BAD), max_size=3)):
        values[where] = bad
    lines = []
    for title, keys in _SECTIONS.items():
        lines.append(f"[{title}]")
        lines += [f"{key} = {values[title, key]}" for key in keys
                  if values[title, key] is not None]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("args", [
    ["solve"], ["scan"], ["correlate", "--mode", "finite"],
    ["correlate", "--mode", "continuum"],
    pytest.param(["spectrum", "--e-max", "0.5"], id="spectrum"),
    ["verify"]],
    ids=lambda a: "-".join(a[-1:]))
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_random_config_exits_0_or_2(args, data):
    """Any config: exit 0 or 2, never a traceback.  `spectrum` refuses more
    than LEVEL_CAP levels and `verify` any K > 7; valid K for `verify` stay
    at most 2 (K = 3 costs 0.5 s a run)."""
    text = data.draw(_configs(k_max=2 if args == ["verify"] else 6),
                     label="config")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["--config", cfg, "--output",
                             os.path.join(tmp, "out"), *args])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


# Argument units for the argv fuzz test: every option, value and
# subcommand the parser knows, good and bad values, and junk tokens.
# `--output` always takes a path in the run's directory.
_ARGV_UNITS = [
    ("--config", "{cfg}"), ("--config", "missing.ini"), ("--config",),
    ("--output", "{tmp}/out"), ("--format", "json"), ("--format", "csv"),
    ("--format=xml",), ("--format",), ("solve",), ("verify",),
    ("spectrum",), ("correlate",), ("scan",), ("--e-max", "0.5"),
    ("--e-m", "-1e-3"), ("--e-max", "abc"), ("--e-max",),
    ("--mode", "finite"), ("--mode", "continuum"), ("--mode", "x"),
    ("-h",), ("--help",), ("--nope",), ("-x",), ("junk",), ("a\nb",),
    ("",), ("--",), ("-1e-3",)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from([(), ("solve",), ("verify",), ("scan",),
                                 ("correlate",), ("spectrum", "--e-max",
                                                  "0.1")]),
       units=st.lists(st.sampled_from(_ARGV_UNITS), max_size=5),
       data=st.data())
def test_random_argv_exits_0_or_2_one_line(command, units, data):
    """Any argv on a K = 1 config: exit 0, or exit 2 with one line on
    stderr; only -h or --help leaves `main`, by SystemExit(0) after the
    help on stdout.  A valid config and command lead, followed by the
    drawn units, or all are shuffled, whole or token by token."""
    units = [("--config", "{cfg}"), command, *units]
    if data.draw(st.booleans(), label="split units"):
        units = [(tok,) for unit in units for tok in unit]
    if data.draw(st.booleans(), label="shuffle"):
        units = data.draw(st.permutations(units), label="units")
    tokens = [tok for unit in units for tok in unit]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("run.ini", "w") as fh:
            fh.write(GENERIC_INI.replace("K = 8", "K = 1"))
        argv = [tok.replace("{cfg}", "run.ini").replace("{tmp}", tmp)
                for tok in tokens]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and {"-h", "--help"} & set(argv)
                assert out.getvalue().startswith("usage: fermiphon")
                code = None
    assert code in (0, 2, None)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


def _python(code, *args):
    """stdout of a fresh interpreter that runs code with the package on its
    path."""
    src = os.path.dirname(os.path.dirname(fermiphon.__file__))
    res = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    return res.stdout.strip()


def test_cli_import_loads_no_mpmath_or_thread_pool():
    # nor numpy or the Fock lab: each subcommand loads only what it runs
    code = ("import sys, fermiphon.cli; print([m for m in "
            "('mpmath', 'concurrent.futures', 'numpy', 'fermiphon.focklab') "
            "if m in sys.modules])")
    assert _python(code) == "[]"


def test_subcommand_loads_only_its_half(config_file, tmp_path):
    """`verify` runs without numpy or mpmath, `solve` without the Fock lab,
    and a finite `correlate` whose Z takes E1 below |z| = 40 (n_a = 1e4,
    N w = 3.1) without mpmath; a config refused before any command runs
    loads none of them."""
    code = ("import sys; from fermiphon import cli; "
            "code = cli.main(sys.argv[1:]); print(code, [m for m in "
            "('numpy', 'mpmath', 'fermiphon.focklab') if m in sys.modules])")
    out = str(tmp_path / "out")
    cases = [
        (GENERIC_INI.replace("K = 8", "K = 2"), "verify",
         "0 ['fermiphon.focklab']"),
        (GENERIC_INI, "solve", "0 ['numpy']"),
        (GENERIC_INI.replace("a = 0.05", "a = 1e-3"),
         "correlate --mode finite", "0 ['numpy']"),
        (GENERIC_INI.replace("v_p = 0.3", "v_p = 3.0"), "scan", "2 []")]
    for text, command, loaded in cases:
        cfg = config_file(text)
        assert _python(code, "--config", cfg, "--output", out,
                       *command.split()) == loaded, command


def test_finite_correlate_without_mpmath(config_file, tmp_path):
    """With mpmath unimportable, a fresh finite `correlate` at n_a = 1e4
    (Z's E1 argument N w = 3.1) exits 0 and writes what it writes in this
    process."""
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from fermiphon import cli; sys.exit(cli.main(sys.argv[1:]))")
    cfg = config_file(GENERIC_INI.replace("a = 0.05", "a = 1e-3"))
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    args = ["--config", cfg, "--output", str(fresh), "correlate", "--mode",
            "finite"]
    assert _python(code, *args) == ""
    assert run_cli(args[:3] + [str(here)] + args[4:]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_parser_built_once_on_first_call(config_file, tmp_path):
    """`import fermiphon.cli` builds no parser; the first `main` builds the
    tree (the top parser and one per subcommand) and later calls reuse
    it, usage errors included."""
    code = ("import argparse, sys\n"
            "count = 0\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    global count\n"
            "    count += 1\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from fermiphon import cli\n"
            "print(count)\n"
            "for argv in (['solve'], ['spectrum'], ['correlate']):\n"
            "    cli.main(sys.argv[1:] + argv)\n"
            "print(count)\n")
    cfg = config_file(GENERIC_INI)
    out = str(tmp_path / "out")
    # the top parser and its five subcommand parsers
    assert _python(code, "--config", cfg, "--output", out).split() == [
        "0", "6"]


def test_repeated_main_matches_fresh_process(config_file, capsysbinary):
    """Calls of `main` in one process, options given and then left to
    their defaults with usage errors in between, write what a fresh
    process writes for the same argv: nothing carries over between
    calls."""
    cfg = config_file(GENERIC_INI)
    argvs = [["--format", "json", "correlate", "--mode", "finite"],
             ["spectrum"],
             ["correlate"],
             ["--format", "json", "spectrum", "--e-max", "0.5"],
             ["--format", "xml", "solve"],
             ["spectrum", "--e-m", "-1e-3"]]
    src = os.path.dirname(os.path.dirname(fermiphon.__file__))
    for argv in argvs:
        code = cli.main(["--config", cfg, *argv])
        got = capsysbinary.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from fermiphon import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "--config", cfg, *argv],
            capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert (code, got.out, got.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
