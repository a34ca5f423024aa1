"""CLI surface: exit codes, CSV shape, manifests, byte reproducibility."""
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ramsq import cli, ensemble, snl
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
    ["fig4", "--panel", "a", "--out", "{missing}/x.csv"],
], ids=["zero-steps", "overflowing-squeeze", "unwritable-out"])
def test_bad_input_exits_2_with_one_line(tmp_path, capfd, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, out, err = run(capfd, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(("parameter error: ", "error: "))


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
