"""CLI surface: exit codes, CSV shape, manifests, byte reproducibility."""
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ramsq import cli, ensemble, snl, validation
from ramsq.analytic import coherent_baseline, mean_coefficients
from ramsq.cli import main
from ramsq.core import MediumSpec

from oracles import COEF_10_25, WFS_GAIN_10_25_R1

HEX64 = 64


def run(capfd, argv):
    code = main(argv)
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    lines = out.splitlines()
    assert lines[0].startswith("# manifest-sha256: ")
    assert len(lines[0].split(": ")[1]) == HEX64
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


# -- coeffs ------------------------------------------------------------------

def test_coeffs_stdout(capfd):
    code, out, _ = run(capfd, ["coeffs", "--L-over-l", "10", "--L-over-La", "2.5"])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["L_over_l", "L_over_La", "T_bar", "R_bar", "V_bar", "constraint_residual"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    coef = mean_coefficients(MediumSpec(thickness_ratio=10.0, gain_ratio=2.5))
    # repr round-trip: printed floats recover the computed doubles exactly
    assert float(row["T_bar"]) == coef.t_bar
    assert float(row["R_bar"]) == coef.r_bar
    assert float(row["V_bar"]) == coef.v_bar
    assert math.isclose(float(row["T_bar"]), COEF_10_25["t_bar"], rel_tol=5e-15)
    assert math.isclose(float(row["V_bar"]), COEF_10_25["v_bar"], rel_tol=5e-15)
    assert abs(float(row["constraint_residual"])) <= 1e-12
    assert out.endswith("\n")


def test_coeffs_gain_free(capfd):
    code, out, _ = run(capfd, ["coeffs", "--L-over-l", "10", "--L-over-La", "0"])
    assert code == 0
    _, rows = data_rows(out)
    assert rows[0][2] == "0.1"
    assert rows[0][4] == "0.0"


def test_reruns_are_byte_identical(capfd):
    argv = ["coeffs", "--L-over-l", "7.5", "--L-over-La", "1.25"]
    _, first, _ = run(capfd, argv)
    _, second, _ = run(capfd, argv)
    assert first == second


# -- exit codes --------------------------------------------------------------

def test_thin_slab_exits_2(capfd):
    code, _, err = run(capfd, ["coeffs", "--L-over-l", "0.5", "--L-over-La", "0.1"])
    assert code == 2
    assert "parameter error" in err


def test_above_threshold_exits_2(capfd):
    code, _, err = run(capfd, ["fig4", "--L-over-La", "3.2"])
    assert code == 2
    assert "parameter error" in err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_out_of_range_exits_2(capfd, seed):
    code, out, err = run(capfd, ["validate", "--sampler", "mean", "--realizations", "10",
                                 "--seed", seed])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parameter error: seed")


@pytest.mark.parametrize("argv", [
    ["fig4", "--panel", "a", "--x-steps", "0"],
    ["fig4", "--panel", "a", "--x-max", "400"],
    ["fig4", "--panel", "a", "--out", "{tmp}/missing/x.csv"],
    ["coeffs", "--L-over-l", "inf", "--L-over-La", "1", "--out", "{tmp}/x.csv"],
    ["snl-region", "--squeeze-r", "inf", "--out", "{tmp}/x.csv"],
], ids=["zero-steps", "overflowing-squeeze", "unwritable-out", "infinite-thickness",
        "infinite-squeeze"])
def test_bad_input_exits_2_with_one_line(tmp_path, capfd, argv):
    # no case writes a file: a manifest is strict JSON, so a non-finite
    # parameter is refused before any byte of CSV or manifest goes out
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capfd, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(("parameter error: ", "error: "))
    assert not any(tmp_path.iterdir())


THIN = ("parameter error: thickness_ratio must exceed 1 (got {}); "
        "the slab must be at least one mean free path thick\n")
NEGATIVE_R = "parameter error: squeeze_r must be >= 0 (got -1.0)\n"


PRECEDENCE = [
    ("coeffs --L-over-l 0.5 --L-over-La 4", THIN.format(0.5)),
    ("coeffs --L-over-l nan --L-over-La -1", THIN.format("nan")),
    ("fig2 --L-over-l 0.5 --x-min -1", NEGATIVE_R),
    ("fig2 --panel b --x-min 0.5 --squeeze-r -1", NEGATIVE_R),
    ("fig2 --x-steps 0 --L-over-La-max inf", "parameter error: steps must be >= 1 (got 0)\n"),
    ("fig3 --curve-values 0.5 --x-min -1", THIN.format(0.5)),
    ("fig3 --curve-values 1,,2 --x-steps 0",
     "parameter error: --curve-values must be comma-separated numbers (got '1,,2')\n"),
    ("fig3 --panel c --curve-values -1 --x-max 4", NEGATIVE_R),
    ("fig3 --panel d --curve-values 0.5 --squeeze-r -1", THIN.format(0.5)),
    ("fig4 --panel b --L-over-l 0.5 --squeeze-r -1", NEGATIVE_R),
    ("fig4 --panel a --L-over-La 4 --x-min -1", NEGATIVE_R),
    ("figxr --L-over-l 0.5 --x-min -1", NEGATIVE_R),
    ("figxr --panel b --x-min 0.5 --L-over-La 4", THIN.format(0.5)),
    ("snl-region --L-over-l-min 0.5 --L-over-La-max 4",
     "parameter error: scanned gain ratios must lie in (0, pi - 1e-6); "
     "the lasing threshold band is excluded\n"),
    ("snl-region --squeeze-r -1 --L-over-l-min 0.5", NEGATIVE_R),
    ("validate --channels 0 --seed -1",
     "parameter error: seed must lie in [0, 2**128) (got -1)\n"),
    ("validate --channels 0 --sampler exponential --realizations 2",
     "parameter error: channels must be >= 1 (got 0)\n"),
]


@pytest.mark.parametrize("argv, line", PRECEDENCE, ids=[argv for argv, _ in PRECEDENCE])
def test_error_precedence_is_pinned(capfd, argv, line):
    # with two bad inputs, the one reported is part of the interface
    code, out, err = run(capfd, argv.split())
    assert code == 2
    assert out == ""
    assert err == line


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["fig9"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ramsq", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ramsq ")


# -- help --------------------------------------------------------------------

# ``ramsq --help`` and each subcommand's ``--help`` at 80 columns.  The
# dataset commands' flags and help texts come from the command table, so
# a rewrite of that table must leave these unchanged.
HELP = {
    "": """\
usage: ramsq [-h] [--version]
             {coeffs,fig2,fig3,fig4,figxr,snl-region,validate} ...

Quadrature noise of squeezed light behind random amplifying media

positional arguments:
  {coeffs,fig2,fig3,fig4,figxr,snl-region,validate}
    coeffs              ensemble-averaged slab weights for one (L/l, L/La)
    fig2                shaping benefit surface over (r, L/La) or (L/l, L/La)
    fig3                rescaled squeezed-quadrature fluctuation curves
    fig4                averaged output variances vs r or vs L/La
    figxr               amplifying vs gain-free squeezed quadrature, five
                        series
    snl-region          sub-shot-noise region map and boundary
    validate            closed-form identities plus Monte Carlo oracle

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "coeffs": """\
usage: ramsq coeffs [-h] --L-over-l L_OVER_L --L-over-La L_OVER_LA
                    [--out PATH]

options:
  -h, --help            show this help message and exit
  --L-over-l L_OVER_L
  --L-over-La L_OVER_LA
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "fig2": """\
usage: ramsq fig2 [-h] [--panel {a,b}] [--L-over-l L_OVER_L]
                  [--squeeze-r SQUEEZE_R] [--x-min X_MIN] [--x-max X_MAX]
                  [--x-steps X_STEPS] [--L-over-La-min L_OVER_LA_MIN]
                  [--L-over-La-max L_OVER_LA_MAX]
                  [--L-over-La-steps L_OVER_LA_STEPS] [--out PATH]

options:
  -h, --help            show this help message and exit
  --panel {a,b}
  --L-over-l L_OVER_L   fixed thickness for panel a
  --squeeze-r SQUEEZE_R
                        fixed squeezing for panel b
  --x-min X_MIN         surface x axis: r (panel a) or L/l (panel b)
  --x-max X_MAX
  --x-steps X_STEPS
  --L-over-La-min L_OVER_LA_MIN
  --L-over-La-max L_OVER_LA_MAX
  --L-over-La-steps L_OVER_LA_STEPS
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "fig3": """\
usage: ramsq fig3 [-h] [--panel {a,b,c,d}] [--L-over-La L_OVER_LA]
                  [--L-over-l L_OVER_L] [--squeeze-r SQUEEZE_R]
                  [--curve-values CURVE_VALUES] [--x-min X_MIN]
                  [--x-max X_MAX] [--x-steps X_STEPS] [--out PATH]

options:
  -h, --help            show this help message and exit
  --panel {a,b,c,d}
  --L-over-La L_OVER_LA
                        fixed gain for panel a
  --L-over-l L_OVER_L   fixed thickness for panels b, c
  --squeeze-r SQUEEZE_R
                        fixed squeezing for panel d
  --curve-values CURVE_VALUES
                        comma-separated family values overriding the preset
  --x-min X_MIN
  --x-max X_MAX
  --x-steps X_STEPS
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "fig4": """\
usage: ramsq fig4 [-h] [--panel {a,b}] [--L-over-l L_OVER_L]
                  [--L-over-La L_OVER_LA] [--squeeze-r SQUEEZE_R]
                  [--x-min X_MIN] [--x-max X_MAX] [--x-steps X_STEPS]
                  [--out PATH]

options:
  -h, --help            show this help message and exit
  --panel {a,b}
  --L-over-l L_OVER_L
  --L-over-La L_OVER_LA
                        fixed gain for panel a
  --squeeze-r SQUEEZE_R
                        fixed squeezing for panel b
  --x-min X_MIN
  --x-max X_MAX
  --x-steps X_STEPS
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "figxr": """\
usage: ramsq figxr [-h] [--panel {a,b}] [--L-over-l L_OVER_L]
                   [--L-over-La L_OVER_LA] [--squeeze-r SQUEEZE_R]
                   [--x-min X_MIN] [--x-max X_MAX] [--x-steps X_STEPS]
                   [--out PATH]

options:
  -h, --help            show this help message and exit
  --panel {a,b}
  --L-over-l L_OVER_L   fixed thickness for panel a
  --L-over-La L_OVER_LA
                        gain of the amplifying series
  --squeeze-r SQUEEZE_R
                        fixed squeezing for panel b
  --x-min X_MIN
  --x-max X_MAX
  --x-steps X_STEPS
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "snl-region": """\
usage: ramsq snl-region [-h] [--squeeze-r SQUEEZE_R]
                        [--L-over-l-min L_OVER_L_MIN]
                        [--L-over-l-max L_OVER_L_MAX]
                        [--L-over-l-steps L_OVER_L_STEPS]
                        [--L-over-La-min L_OVER_LA_MIN]
                        [--L-over-La-max L_OVER_LA_MAX]
                        [--L-over-La-steps L_OVER_LA_STEPS] [--out PATH]

options:
  -h, --help            show this help message and exit
  --squeeze-r SQUEEZE_R
                        default is the "large-squeezing" preset e^(-2r) = 1e-8
  --L-over-l-min L_OVER_L_MIN
  --L-over-l-max L_OVER_L_MAX
  --L-over-l-steps L_OVER_L_STEPS
  --L-over-La-min L_OVER_LA_MIN
  --L-over-La-max L_OVER_LA_MAX
  --L-over-La-steps L_OVER_LA_STEPS
  --out PATH            write CSV here plus PATH.manifest.json
""",
    "validate": """\
usage: ramsq validate [-h] [--channels CHANNELS] [--seed SEED]
                      [--realizations REALIZATIONS]
                      [--sampler {mean,exponential,both}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --channels CHANNELS
  --seed SEED
  --realizations REALIZATIONS
  --sampler {mean,exponential,both}
  --out PATH            write the JSON report here
""",

}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "ramsq")
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


# -- output files and manifests ----------------------------------------------

def test_out_writes_csv_and_manifest(tmp_path, capfd):
    path = tmp_path / "coeffs.csv"
    argv = ["coeffs", "--L-over-l", "10", "--L-over-La", "2.5", "--out", str(path)]
    code, out, err = run(capfd, argv)
    assert code == 0
    assert out == ""
    assert "wrote" in err

    csv_bytes = path.read_bytes()
    manifest = json.loads((tmp_path / "coeffs.csv.manifest.json").read_text())
    assert manifest["command"] == "coeffs"
    assert manifest["version"]
    assert manifest["preset"] is None
    comment_hash = csv_bytes.decode().splitlines()[0].split(": ")[1]
    assert manifest["manifest_sha256"] == comment_hash
    assert manifest["csv_sha256"] == hashlib.sha256(csv_bytes).hexdigest()
    assert manifest["command_line"] == "ramsq coeffs --L-over-La 2.5 --L-over-l 10.0"


SMALL_REGION = ["--L-over-l-min", "2", "--L-over-l-max", "4", "--L-over-l-steps", "3",
                "--L-over-La-min", "0.5", "--L-over-La-max", "2.5", "--L-over-La-steps", "4"]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--L-over-l", "3", "--L-over-La", "1.5"],
    ["fig2", "--panel", "b"],
    ["fig3", "--panel", "c", "--curve-values", "0.5,1.25"],
    ["fig4", "--panel", "b", "--x-steps", "7"],
    ["figxr", "--panel", "a", "--L-over-La", "0.5"],
    ["snl-region", *SMALL_REGION],
], ids=["coeffs", "fig2-b", "fig3-c-curves", "fig4-b", "figxr-a", "snl-region"])
def test_recorded_command_line_reproduces(tmp_path, capfd, argv):
    # the manifest's parameters are the resolved flags, so its command
    # line must rebuild the same bytes
    first = tmp_path / "a.csv"
    code, _, _ = run(capfd, [*argv, "--out", str(first)])
    assert code == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())

    second = tmp_path / "b.csv"
    argv = manifest["command_line"].split()[1:] + ["--out", str(second)]
    code, _, _ = run(capfd, argv)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_snl_region_preset_label(tmp_path, capfd):
    path = tmp_path / "region.csv"
    run(capfd, ["snl-region", *SMALL_REGION, "--out", str(path)])
    manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
    assert manifest["preset"] == "large-squeezing"

    other = tmp_path / "custom.csv"
    run(capfd, ["snl-region", *SMALL_REGION, "--squeeze-r", "1.0", "--out", str(other)])
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    assert manifest["preset"] is None


# -- dataset subcommands -----------------------------------------------------

def test_fig2_spot_value(capfd):
    code, out, _ = run(capfd, [
        "fig2", "--panel", "a", "--L-over-l", "10",
        "--x-min", "1", "--x-max", "1", "--x-steps", "1",
        "--L-over-La-min", "2.5", "--L-over-La-max", "2.5", "--L-over-La-steps", "1",
    ])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    assert len(rows) == 1
    assert rows[0][:4] == ["a", "10.0", "2.5", "1.0"]
    assert math.isclose(float(rows[0][4]), WFS_GAIN_10_25_R1, rel_tol=1e-12)


def test_fig2_panel_b(capfd):
    code, out, _ = run(capfd, ["fig2", "--panel", "b"])
    assert code == 0
    header, rows = data_rows(out)
    thicknesses = sorted({float(r[1]) for r in rows})
    assert thicknesses[0] == 2.0
    assert thicknesses[-1] == 12.0
    assert {r[0] for r in rows} == {"b"}
    assert {float(r[3]) for r in rows} == {1.5}


def test_fig3_curve_override(capfd):
    code, out, _ = run(capfd, ["fig3", "--panel", "a", "--curve-values", "2,20"])
    assert code == 0
    header, rows = data_rows(out)
    idx = header.index("L_over_l")
    assert {float(r[idx]) for r in rows} == {2.0, 20.0}
    assert {r[header.index("quantity")] for r in rows} == {
        "ratio_wfs", "ratio_nowfs", "coherent"
    }


def test_fig4_structure(capfd):
    code, out, _ = run(capfd, ["fig4", "--x-steps", "3"])
    assert code == 0
    header, rows = data_rows(out)
    assert len(rows) == 15
    by_quantity = {}
    for r in rows:
        by_quantity.setdefault(r[header.index("quantity")], []).append(r)
    assert set(by_quantity) == {"x_wfs", "x_nowfs", "p_wfs", "p_nowfs", "coherent"}
    spec = MediumSpec(thickness_ratio=10.0, gain_ratio=2.5)
    baseline = coherent_baseline(mean_coefficients(spec))
    value_idx = header.index("value")
    for r in by_quantity["coherent"]:
        assert float(r[value_idx]) == baseline


def test_figxr_runs(capfd):
    code, out, _ = run(capfd, ["figxr", "--panel", "a", "--x-steps", "5"])
    assert code == 0
    header, rows = data_rows(out)
    assert {r[header.index("quantity")] for r in rows} == {
        "amp_wfs", "amp_nowfs", "lin_wfs", "lin_nowfs", "snl"
    }


def test_snl_region_rows(capfd):
    code, out, _ = run(capfd, [
        "snl-region",
        "--L-over-l-min", "2", "--L-over-l-max", "6", "--L-over-l-steps", "3",
        "--L-over-La-min", "0.5", "--L-over-La-max", "2.5", "--L-over-La-steps", "5",
    ])
    assert code == 0
    header, rows = data_rows(out)
    records = {r[header.index("record")] for r in rows}
    assert records == {"cell", "boundary"}
    below_idx = header.index("below_snl")
    for r in rows:
        if r[header.index("record")] == "cell":
            assert r[below_idx] in {"0", "1"}


def test_snl_region_failed_scan_exits_1(tmp_path, capfd, monkeypatch):
    # a margin that changes sign twice along the last preset row fails
    # the scan's integrity check after every other row passed it
    real = snl._margin

    def margin(thickness, gain, n):
        twice = np.where(np.abs(gain - 2.0) < 0.5, -1.0, 1.0)
        return np.where(thickness == 12.0, twice, real(thickness, gain, n))

    monkeypatch.setattr(snl, "_margin", margin)
    path = tmp_path / "region.csv"
    code, out, err = run(capfd, ["snl-region", "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: margin changes sign 2 times along L/l = 12.0;")
    assert not path.exists()
    assert not (tmp_path / "region.csv.manifest.json").exists()


# -- validate ----------------------------------------------------------------

def test_validate_passes(tmp_path, capfd):
    path = tmp_path / "report.json"
    code, _, err = run(capfd, [
        "validate", "--sampler", "mean", "--realizations", "10000", "--out", str(path)
    ])
    assert code == 0
    assert "wrote" in err
    report = json.loads(path.read_text())
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "flux-conservation", "linear-limit", "variance-identities",
        "snl-sign-equivalence", "mc-oracle-mean",
    }


def test_validate_tiny_sample_warns(capfd):
    # wide error bars downgrade the verdict without failing the run
    code, out, _ = run(capfd, ["validate", "--sampler", "exponential", "--realizations", "10"])
    assert code == 0
    assert json.loads(out)["status"] == "warning"


def test_validate_corrupt_constraint_fails(capfd):
    code, out, err = run(capfd, [
        "validate", "--sampler", "mean", "--realizations", "200", "--corrupt-constraint"
    ])
    assert code == 1
    assert "flux-conservation" in err
    assert json.loads(out)["status"] == "fail"


def test_validate_reports_mc_failure(capfd, monkeypatch):
    # one estimate moved 50 sigma off its closed form is a listed failure
    # of the mean oracle, and the CLI exits 1 naming that check
    media = [(th, g) for th in validation.STANDARD_THICKNESS for g in validation.STANDARD_GAIN]
    target = media.index((10.0, 2.5))
    estimate, calls, moved = validation.moment_estimate, itertools.count(), []

    def shifted(moments, states, quantities):
        means, std_errors = estimate(moments, states, quantities)
        # each run estimates the grid's media once each, in grid order
        if next(calls) % len(media) == target:
            cell = ([s.squeeze_r for s in states].index(1.0), quantities.index("x_nowfs"))
            means = means.copy()
            means[cell] += 50.0 * std_errors[cell]
            moved.append(float(std_errors[cell]))
        return means, std_errors

    monkeypatch.setattr(validation, "moment_estimate", shifted)
    report = validation.run_validation(sampler="mean", realizations=2000)
    check = report.checks[-1]
    assert (check.name, check.status, report.status) == ("mc-oracle-mean", "fail", "fail")
    [failure] = check.detail["failures"]
    assert failure["point"] == (10.0, 2.5, 1.0)
    assert failure["quantity"] == "x_nowfs"
    assert failure["std_error"] == moved[0] > 0.0
    assert 49.0 <= failure["abs_err"] / failure["std_error"] <= 51.0
    code, out, err = run(capfd, ["validate", "--sampler", "mean", "--realizations", "2000"])
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    assert err == "validation FAILED: mc-oracle-mean\n"


def _refuse_run(**kwargs):
    raise AssertionError("run_validation must not start")


def test_validate_unwritable_out_fails_before_run(tmp_path, capfd, monkeypatch):
    # the --out path is opened first, so a bad one costs no oracle run
    monkeypatch.setattr(cli, "run_validation", _refuse_run)
    code, out, err = run(capfd, ["validate", "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")


def test_validate_removes_created_out_when_run_raises(tmp_path, capfd):
    path = tmp_path / "report.json"
    code, _, err = run(capfd, ["validate", "--channels", "0", "--out", str(path)])
    assert code == 2
    assert err.count("\n") == 1
    assert not path.exists()


def test_validate_keeps_existing_out_when_run_raises(tmp_path, capfd):
    path = tmp_path / "report.json"
    path.write_text("previous report\n")
    code, _, _ = run(capfd, ["validate", "--channels", "0", "--out", str(path)])
    assert code == 2
    assert path.read_text() == "previous report\n"


def test_validate_replaces_existing_out(tmp_path, capfd):
    path = tmp_path / "report.json"
    path.write_text("x" * 100_000)
    code, _, _ = run(capfd, ["validate", "--sampler", "mean", "--realizations", "200",
                             "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["status"] == "pass"


def test_validate_out_to_devnull(capfd):
    # a character device cannot be truncated; the report is just written
    code, out, err = run(capfd, ["validate", "--sampler", "mean", "--realizations", "200",
                                 "--out", os.devnull])
    assert code == 0
    assert out == ""
    assert err == f"wrote {os.devnull}\n"


def test_validate_failure_with_out_prints_one_line(tmp_path, capfd):
    path = tmp_path / "report.json"
    code, _, err = run(capfd, ["validate", "--sampler", "mean", "--realizations", "200",
                               "--corrupt-constraint", "--out", str(path)])
    assert code == 1
    assert err.count("\n") == 1
    assert "flux-conservation" in err and str(path) in err
    assert json.loads(path.read_text())["status"] == "fail"


@pytest.mark.parametrize("sampler", ["mean", "exponential"])
def test_validate_too_wide_draw_exits_2(capfd, monkeypatch, sampler):
    # one draw wider than a chunk's budget is refused before any uniform
    # is drawn, whatever the (small) draw count
    def refuse_draws(*args):
        raise AssertionError("no uniform may be drawn")

    monkeypatch.setattr(ensemble, "_philox_rows", refuse_draws)
    code, out, err = run(capfd, ["validate", "--sampler", sampler, "--channels", "20000000",
                                 "--realizations", "2"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parameter error: one draw's")


@pytest.mark.parametrize("values", ["1,,2", " ", ""], ids=["double-comma", "blank", "empty"])
def test_fig3_bad_curve_values_exit_2(capfd, values):
    code, out, err = run(capfd, ["fig3", "--curve-values", values])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parameter error: --curve-values")


FIG4_A = ["fig4", "--panel", "a"]


@pytest.mark.parametrize("bounds", [
    [*FIG4_A, "--x-min=inf"], [*FIG4_A, "--x-max=nan"],
    [*FIG4_A, "--x-min=-1e308", "--x-max=1e308"],
    # numpy refuses these 7.1 PiB grids before touching any memory
    [*FIG4_A, "--x-steps", "1000000000000000"],
    ["snl-region", "--L-over-La-steps", "1000000000000000"],
])
@pytest.mark.filterwarnings("error")
def test_unusable_grid_exits_2(capfd, bounds):
    # numpy's overflow warnings must not add lines to the one-line error
    code, out, err = run(capfd, bounds)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parameter error: grid")
