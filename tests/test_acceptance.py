"""Acceptance gate: the nine release criteria, one verdict line each.

Each test prints ``criterion N (label): PASS/FAIL`` and enforces its
runtime budget, so ``pytest -v -s tests/test_acceptance.py`` reads as a
release checklist.
"""
import functools
import hashlib
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ramsq.analytic import (
    full_report,
    linear_coefficients,
    mean_coefficients,
    wfs_gain,
)
from ramsq.cli import main as cli_main
from ramsq.core import InputState, MediumSpec
from ramsq.snl import region_scan, snl_condition, threshold_closed_form
from ramsq.validation import run_validation

from oracles import WFS_GAIN_10_25_R1, bisect_fixed_point_boundary, bisect_gain_threshold

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 of every file scripts/build_all_datasets.py writes, pinned so the
# presets stay byte-identical across versions, not only across reruns.
GOLDEN_SHA256 = {
    "coeffs_reference.csv":
        "06d7f905c7f0ec3c2a62ed77d5d429b74f89a4ddbfb59f8295ebd3eb130db371",
    "coeffs_reference.csv.manifest.json":
        "dc871d98647037acc752657c0034b05354ce884356f4854a4f7a45696b5bbb1b",
    "fig2_a.csv":
        "3920e6b5cea090924e6b4de30feb71a2d9995cd1e65412adf72c3e35486ddaf9",
    "fig2_a.csv.manifest.json":
        "d95f08eb22ed6c6342e1fb1d4abcf9ae5e3b5b7dd05147555af5a4dba46cdd06",
    "fig2_b.csv":
        "e3dcee77b06b98c15b1e1edfbf5fefdb8b8baf8fd0e5ef8d6202830e08d8fa5d",
    "fig2_b.csv.manifest.json":
        "c7a879d2e5ad4cb218499ca4aa06a8604ab470704e15376d09d679831d9b1399",
    "fig3_a.csv":
        "442fa5567a1704c958c297f2d90516d52b102eec8036ce11b090ee84924637e4",
    "fig3_a.csv.manifest.json":
        "6924c570e9e5bcee073e17675b9ea4910d3d5756c255e2317793d8670ff07a59",
    "fig3_b.csv":
        "dca7c568e0bcb02a40f71aaf878bd4027fa61313dd6e0704a367daf77483f3ae",
    "fig3_b.csv.manifest.json":
        "350cf2e7c15d43b91b347eefabc942a707c6c77c69aef94ba11d384aa9c3a1f2",
    "fig3_c.csv":
        "c88a1d9c6f2bf66855d851215e44ed3cbef13d4d94fc5d7f6c1bdcdc052652c4",
    "fig3_c.csv.manifest.json":
        "fb5d89a9844dac27257391d8db9a1a5a5a3a2a63bb60302c9c2c095346b3cdc6",
    "fig3_d.csv":
        "e168ce89a9f7844ac9f9f46fd986248b876b1e4c62e4c8947eeab49a06805f9d",
    "fig3_d.csv.manifest.json":
        "2e6d1f225c7628ec7908aa9e5cc60f49bc516cf5dc2ef11efd44e8e93e27e46f",
    "fig4_a.csv":
        "62a476351a21fb39401194b34156b0e0fb550168ac938850829de6023ba58bc4",
    "fig4_a.csv.manifest.json":
        "06dbe7e04c099e7c7292ea3c072da64ffab68d3b898ee831a9babc8bbc532eca",
    "fig4_b.csv":
        "ceee3776580b4bab009e7b8379cb3f715dbf295f0172f1c8109173abd7af46f3",
    "fig4_b.csv.manifest.json":
        "841c3d2a6495803cfab310a0b4c02ce6f3926c9acf5c5a4771af20322b7fa106",
    "figxr_a.csv":
        "2bdeb179cd41c5eb07bfab1710c376c47405ff37d6b036699e917c7ea13cc24a",
    "figxr_a.csv.manifest.json":
        "c6c2f4f220b538a897736beee32a51e92997a3ccb6b3a54fd2d4da6b76c15cda",
    "figxr_b.csv":
        "dd032b4d03668dedc3b1bb4eb1ebcc548be286703f6e2e441c58c9e2c98c2199",
    "figxr_b.csv.manifest.json":
        "2cf89b4e7193d3c579a31f1a5ee2a4756b2f8aa21d8dda43e35c530ff825482f",
    "snl_region.csv":
        "1835a3384d2e34b87a662b75e7787b9c90b1dbb6b280d54800944461486ab3e9",
    "snl_region.csv.manifest.json":
        "34d4f5dae252a82a9538d5614330875b5f5566043fc21d85451899552242f813",
}


# sha256 of the report of `ramsq validate --sampler mean --seed 42
# --realizations 2000 --out PATH`.  Mean mode draws no Beta share and its
# estimates read cos and sums only, whose float64 bits numpy returns the
# same under every SIMD dispatch, so the report is pinned across versions
# and dispatch, not only across reruns.
MEAN_REPORT_SHA256 = "d90642e313632df50ba8a0dc9a671d2d0dcaa3960a719c8ffa07ee0b89d05563"


def criterion(number, label, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                wall = time.perf_counter() - start
                if wall >= budget_s:
                    raise AssertionError(
                        f"runtime {wall:.2f}s exceeds the {budget_s}s budget"
                    )
            except BaseException:
                print(f"criterion {number} ({label}): FAIL", flush=True)
                raise
            print(f"criterion {number} ({label}): PASS [{wall:.2f}s]", flush=True)
        return wrapper
    return deco


@criterion(1, "conservation identity", 1.0)
def test_criterion_1(grid_points):
    for thickness, gain, _ in grid_points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=gain))
        assert abs(coef.flux_residual()) <= 1e-12, (thickness, gain)


@criterion(2, "linear-limit continuity", 1.0)
def test_criterion_2():
    for thickness in (2.0, 5.0, 10.0, 20.0):
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=1e-8))
        limit = linear_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=0.0))
        assert abs(coef.t_bar - limit.t_bar) <= 1e-6
        assert abs(coef.r_bar - limit.r_bar) <= 1e-6
        assert abs(coef.v_bar - limit.v_bar) <= 1e-6


@criterion(3, "shaping gain identity", 1.0)
def test_criterion_3(grid_points):
    for thickness, gain, squeeze in grid_points:
        spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
        state = InputState(squeeze_r=squeeze)
        rep = full_report(spec, state)
        diff = rep.x_nowfs - rep.x_wfs
        expected = wfs_gain(mean_coefficients(spec), state)
        assert abs(diff - expected) <= 1e-12
        if squeeze > 0.0:
            assert diff > 0.0


@criterion(4, "quadrature symmetry and ordering", 1.0)
def test_criterion_4(grid_points):
    for thickness, gain, squeeze in grid_points:
        rep = full_report(
            MediumSpec(thickness_ratio=thickness, gain_ratio=gain),
            InputState(squeeze_r=squeeze),
        )
        assert rep.x_nowfs == rep.p_nowfs
        if squeeze > 0.0:
            assert rep.x_wfs < rep.coherent_baseline < rep.p_wfs


@criterion(5, "Monte Carlo oracle equivalence", 60.0)
def test_criterion_5():
    report = run_validation(
        channels=4, seed=42, realizations=100_000, sampler="both"
    )
    assert report.status == "pass"
    by_name = {c.name: c for c in report.checks}
    for name in ("mc-oracle-mean", "mc-oracle-exponential"):
        check = by_name[name]
        assert check.status == "pass"
        assert check.detail["worst_sigma_margin"] <= 3.0
        assert check.detail["insufficient_precision_points"] == 0
        assert check.detail["sigma_violations_at_low_precision"] == 0
    mean_check = by_name["mc-oracle-mean"]
    assert mean_check.detail["shaped_max_std_error"] == 0.0
    assert mean_check.detail["worst_exact_error"] <= 1e-12
    # The seed-42 margins are pinned: mean mode draws no Beta share, so
    # its margin is exact; the exponential shares (a quintic table lookup)
    # may move it by rounding only.
    assert mean_check.detail["worst_sigma_margin"] == 1.9411576274924047
    exponential_margin = by_name["mc-oracle-exponential"].detail["worst_sigma_margin"]
    assert abs(exponential_margin - 1.619867979918262) <= 1e-12


@criterion(6, "uncertainty bound", 1.0)
def test_criterion_6(grid_points):
    for thickness, gain, squeeze in grid_points:
        rep = full_report(
            MediumSpec(thickness_ratio=thickness, gain_ratio=gain),
            InputState(squeeze_r=squeeze),
        )
        assert rep.x_wfs * rep.p_wfs >= 1.0 - 1e-9


@criterion(7, "sub-SNL sign and threshold", 5.0)
def test_criterion_7(grid_points):
    for thickness, gain, squeeze in grid_points:
        if gain <= 0.0:
            continue
        spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
        state = InputState(squeeze_r=squeeze)
        margin = snl_condition(spec, state)
        excess = full_report(spec, state).x_wfs - 1.0
        if abs(excess) > 1e-12:
            assert (margin < 0.0) == (excess < 0.0), (thickness, gain, squeeze)
        else:
            assert abs(margin) <= 2e-12

    # closed form vs independent bisection at l/La = 0.1, n = 1
    state = InputState(squeeze_r=600.0)
    assert 1.0 + state.x_variance == 1.0
    gain_max = threshold_closed_form(0.1, state)
    root = bisect_gain_threshold(0.1, 1.0)
    assert abs(gain_max - root) <= 1e-9
    assert abs(math.sin(gain_max) - 0.890262) <= 1e-6
    assert abs(gain_max - math.asin(0.890262)) <= 1e-5


@criterion(8, "no-squeezing degeneracy", 1.0)
def test_criterion_8():
    for mfp_gain in (0.05, 0.1, 0.5, 1.0):
        gain_max = threshold_closed_form(mfp_gain, InputState(squeeze_r=0.0))
        assert abs(gain_max - mfp_gain) <= 1e-12
    scan = region_scan(
        np.linspace(1.2, 12.0, 12), np.linspace(0.05, 3.1, 25), InputState(squeeze_r=0.0)
    )
    assert not scan.below_snl.any()


def load_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest-sha256: ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def series(rows, quantity, key="x_param"):
    out = [(float(r[key]), float(r["value"])) for r in rows if r["quantity"] == quantity]
    return [v for _, v in sorted(out)]


@criterion(9, "figure datasets", 30.0)
def test_criterion_9(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "build_all_datasets.py"), "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(GOLDEN_SHA256)  # 12 datasets + 12 manifests
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
        digest = hashlib.sha256((first / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[name], name

    # shaping benefit surface: nonnegative, zero iff r = 0
    for fname in ("fig2_a.csv", "fig2_b.csv"):
        for row in load_csv(first / fname):
            value = float(row["wfs_gain"])
            if float(row["r"]) > 0.0:
                assert value > 0.0
            else:
                assert value == 0.0

    # spot cell against the frozen value
    spot = tmp_path / "spot.csv"
    assert cli_main(["fig2", "--L-over-l", "10", "--out", str(spot)]) == 0
    cells = [
        r for r in load_csv(spot)
        if float(r["r"]) == 1.0 and float(r["L_over_La"]) == 2.5
    ]
    assert len(cells) == 1
    assert math.isclose(float(cells[0]["wfs_gain"]), WFS_GAIN_10_25_R1, rel_tol=1e-12)

    # rescaled fluctuations: both ratios 1 at r = 0, shaped below
    # unshaped whenever r > 0, coherent reference pinned at 1
    for panel in "abcd":
        rows = load_csv(first / f"fig3_{panel}.csv")
        grouped = {}
        for row in rows:
            key = (row["L_over_l"], row["L_over_La"], row["r"])
            grouped.setdefault(key, {})[row["quantity"]] = float(row["value"])
        for (_, _, r_text), values in grouped.items():
            assert values["coherent"] == 1.0
            if float(r_text) > 0.0:
                assert values["ratio_wfs"] < values["ratio_nowfs"]
            else:
                assert values["ratio_wfs"] == 1.0
                assert values["ratio_nowfs"] == 1.0

    # averaged variances: symmetry without shaping, strict ordering with
    for fname in ("fig4_a.csv", "fig4_b.csv"):
        grouped = {}
        for row in load_csv(first / fname):
            grouped.setdefault(float(row["x_param"]), {})[row["quantity"]] = float(
                row["value"]
            )
        for x, values in grouped.items():
            assert values["x_nowfs"] == values["p_nowfs"]
            r = x if fname == "fig4_a.csv" else 0.7
            if r > 0.0:
                assert values["x_wfs"] < values["coherent"] < values["p_wfs"]
    assert 0.7 in {float(r["x_param"]) for r in load_csv(first / "fig4_a.csv")}

    # amplifying vs gain-free series
    xr_a = load_csv(first / "figxr_a.csv")
    for quantity in ("amp_wfs", "amp_nowfs", "lin_wfs", "lin_nowfs"):
        for row in (r for r in xr_a if r["quantity"] == quantity):
            if float(row["r"]) > 0.0 and quantity == "lin_wfs":
                assert float(row["value"]) < 1.0
    assert set(series(xr_a, "snl")) == {1.0}
    for rows in (xr_a, load_csv(first / "figxr_b.csv")):
        grouped = {}
        for row in rows:
            grouped.setdefault(float(row["x_param"]), {})[row["quantity"]] = float(
                row["value"]
            )
        for values in grouped.values():
            assert values["amp_wfs"] > values["lin_wfs"]
            assert values["amp_nowfs"] > values["lin_nowfs"]
    shaped_amp = series(xr_a, "amp_wfs")
    shaped_lin = series(xr_a, "lin_wfs")
    open_amp = series(xr_a, "amp_nowfs")
    open_lin = series(xr_a, "lin_nowfs")
    assert all(b < a for a, b in zip(shaped_amp, shaped_amp[1:]))
    assert all(b < a for a, b in zip(shaped_lin, shaped_lin[1:]))
    assert all(b > a for a, b in zip(open_amp, open_amp[1:]))
    assert all(b > a for a, b in zip(open_lin, open_lin[1:]))

    # region map: cells agree with the margin sign, boundary brackets it
    state = InputState(squeeze_r=0.5 * math.log(1e8))
    region_rows = load_csv(first / "snl_region.csv")
    boundary_count = 0
    for row in region_rows:
        spec_args = dict(thickness_ratio=float(row["L_over_l"]))
        if row["record"] == "cell":
            margin = snl_condition(
                MediumSpec(gain_ratio=float(row["L_over_La"]), **spec_args), state
            )
            assert (row["below_snl"] == "1") == (margin < 0.0)
        elif row["gain_boundary"]:
            boundary_count += 1
            b = float(row["gain_boundary"])
            lo = snl_condition(MediumSpec(gain_ratio=b - 1e-6, **spec_args), state)
            hi = snl_condition(MediumSpec(gain_ratio=b + 1e-6, **spec_args), state)
            assert lo < 0.0 < hi
    assert boundary_count > 0

    # boundary cross-check: row whose fixed point sits at l/La = 0.1
    pinned = 1.0979189385301066 / 0.1
    single = tmp_path / "pinned.csv"
    assert cli_main([
        "snl-region",
        "--L-over-l-min", repr(pinned), "--L-over-l-max", repr(pinned),
        "--L-over-l-steps", "1",
        "--out", str(single),
    ]) == 0
    boundary_rows = [r for r in load_csv(single) if r["record"] == "boundary"]
    assert len(boundary_rows) == 1
    found = float(boundary_rows[0]["gain_boundary"])
    fixed = bisect_fixed_point_boundary(
        pinned, lambda m: threshold_closed_form(m, state)
    )
    assert abs(found - fixed) <= 1e-9
    assert abs(found - math.asin(0.890262)) <= 1e-4

    # no squeezing: the map is empty and no boundary exists
    empty = tmp_path / "empty.csv"
    assert cli_main([
        "snl-region", "--squeeze-r", "0",
        "--L-over-l-min", "2", "--L-over-l-max", "8", "--L-over-l-steps", "4",
        "--out", str(empty),
    ]) == 0
    for row in load_csv(empty):
        if row["record"] == "cell":
            assert row["below_snl"] == "0"
        else:
            assert row["gain_boundary"] == ""


def test_mean_validate_report_pinned(tmp_path):
    out = tmp_path / "mean.json"
    argv = ["validate", "--sampler", "mean", "--seed", "42", "--realizations", "2000"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MEAN_REPORT_SHA256
