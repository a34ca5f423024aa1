"""Sub-shot-noise margin, closed-form boundary and region scanner."""
import math
from decimal import Decimal

import numpy as np
import pytest

from ramsq.analytic import full_report
from ramsq import snl
from ramsq.core import MAX_SQUEEZE_R, DomainError, InputState, MediumSpec, ParameterError
from ramsq.datasets import grid
from ramsq.snl import (
    LARGE_SQUEEZING_R,
    region_scan,
    snl_condition,
    threshold_closed_form,
)

from oracles import (
    THRESHOLD_01_N1,
    bisect_fixed_point_boundary,
    bisect_gain_threshold,
    margin_at_fixed_mfp_gain,
    scalar_region_scan,
)

# Row whose boundary fixed point lands exactly at l/La = 0.1 for n = 1.
PINNED_THICKNESS = THRESHOLD_01_N1["gain_max"] / 0.1

# e^(-2r) underflows to zero here, so n = 1 + e^(-2r) is exactly 1.
SATURATED_R = 600.0


def test_large_squeezing_constant():
    assert math.isclose(LARGE_SQUEEZING_R, 0.5 * math.log(1e8), rel_tol=1e-15)
    assert math.exp(-2.0 * LARGE_SQUEEZING_R) == pytest.approx(1e-8, rel=1e-12)


# -- margin ------------------------------------------------------------------

def test_margin_tracks_variance_excess(grid_points):
    # margin = (Var x_wfs - 1) sin(L/La), so values and signs must agree
    for thickness, gain, squeeze in grid_points:
        if gain <= 0.0:
            continue
        spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
        state = InputState(squeeze_r=squeeze)
        margin = snl_condition(spec, state)
        excess = full_report(spec, state).x_wfs - 1.0
        assert abs(margin - excess * math.sin(gain)) <= 1e-12
        if abs(excess) > 1e-9:
            assert (margin < 0.0) == (excess < 0.0)


def test_margin_matches_raw_formula(grid_points):
    for thickness, gain, squeeze in grid_points:
        if gain <= 0.0:
            continue
        spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
        state = InputState(squeeze_r=squeeze)
        n = 1.0 + math.exp(-2.0 * squeeze)
        oracle = margin_at_fixed_mfp_gain(gain, gain / thickness, n)
        assert snl_condition(spec, state) == oracle


def test_margin_rejects_gain_free_slab():
    with pytest.raises(ParameterError):
        snl_condition(MediumSpec(thickness_ratio=5.0, gain_ratio=0.0), InputState(1.0))


def test_margin_rejects_negative_gain():
    with pytest.raises(ParameterError):
        snl_condition(MediumSpec(thickness_ratio=5.0, gain_ratio=-0.5), InputState(1.0))


# -- closed-form boundary ----------------------------------------------------

def test_threshold_pinned_point():
    state = InputState(squeeze_r=SATURATED_R)
    assert 1.0 + state.x_variance == 1.0
    gain_max = threshold_closed_form(0.1, state)
    assert math.isclose(math.sin(gain_max), THRESHOLD_01_N1["m_plus"], rel_tol=1e-14)
    assert math.isclose(gain_max, THRESHOLD_01_N1["gain_max"], rel_tol=1e-14)


# G_max = mu/2 + arccos((n/2) cos(mu/2)) to 50 digits, n = 1 + e^(-2r),
# computed once with mpmath 1.3.0 (mp.dps = 60) from the exact doubles
# r and mu.  Here n -> 2 and mu -> 0, where an arccos of its argument
# near 1 cancels: at r = 0 and mu = 1e-8 it read 0.5 relative off.
FROZEN_THRESHOLDS = (
    (0.0, 1e-8, "1.0000000000000000209225608301284726753266340891855e-8"),
    (0.0, 1e-6, "9.9999999999999995474811182588625868561393872369086e-7"),
    (0.0, 1e-3, "1.0000000000000000208166817117216851329430937767029e-3"),
    (1e-6, 1e-8, "1.4142179731264272282191602551849013254899708108182e-3"),
    (1e-6, 1e-6, "1.4147130615059111847604109337532686824598055587036e-3"),
    (1e-6, 1e-3, "1.9999993888890542018329755082828430351825428192765e-3"),
)


@pytest.mark.parametrize("squeeze, mfp_gain, gain_max", FROZEN_THRESHOLDS)
def test_threshold_without_cancellation(squeeze, mfp_gain, gain_max):
    got = threshold_closed_form(mfp_gain, InputState(squeeze_r=squeeze))
    assert abs(Decimal(got) - Decimal(gain_max)) <= Decimal("1e-15") * Decimal(gain_max)


def test_threshold_against_bisection():
    # closed form vs direct root finding on the margin, with crossings
    # on both sides of pi/2 and l/La itself past pi/2
    for mfp_gain in (0.05, 0.3, 0.8, 1.3, 1.5, 2.0, 2.5, 3.0):
        for squeeze in (0.25, 1.0, 2.5, SATURATED_R):
            state = InputState(squeeze_r=squeeze)
            root = bisect_gain_threshold(mfp_gain, 1.0 + state.x_variance)
            assert abs(threshold_closed_form(mfp_gain, state) - root) <= 1e-9, (mfp_gain, squeeze)


@pytest.mark.parametrize("squeeze", [1e-6, 0.5, 2.0, SATURATED_R])
def test_threshold_slope_at_most_one(squeeze):
    # the lemma behind the single crossing per row: G_max rises with
    # l/La, never faster than l/La itself
    state = InputState(squeeze_r=squeeze)
    mfp_gain = np.linspace(1e-3, math.pi - 1e-3, 2001)
    gain_max = np.array([threshold_closed_form(m, state) for m in mfp_gain])
    slope = np.diff(gain_max) / np.diff(mfp_gain)
    assert np.all(slope >= 0.0)
    assert np.all(slope <= 1.0 + 1e-9), slope.max()


@pytest.mark.parametrize("squeeze", [1e-6, 0.5, 2.0, SATURATED_R])
def test_margin_changes_sign_at_most_once_per_row(squeeze):
    # what region_scan's bisection relies on: along a row of fixed
    # L/l > 1 the margin itself changes sign at most once
    n = 1.0 + InputState(squeeze_r=squeeze).x_variance
    thickness = np.array([1.0 + 1e-9, 1.2, 2.0, 5.0, 20.0, 50.0])
    gain = np.linspace(0.0, math.pi - 1e-6, 20003)[1:-1]
    signs = snl._margin(thickness[:, None], gain, n) < 0.0
    flips = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)
    assert np.all(flips <= 1), flips


@pytest.mark.parametrize("mfp_gain", [0.05, 0.1, 0.5, 1.0])
def test_threshold_degenerates_without_squeezing(mfp_gain):
    # n = 2 closes the window: the boundary collapses onto l/La itself
    gain_max = threshold_closed_form(mfp_gain, InputState(squeeze_r=0.0))
    assert abs(gain_max - mfp_gain) <= 1e-12


def test_threshold_opens_with_squeezing():
    # any squeezing pushes the true boundary above the degenerate point
    for mfp_gain in (0.05, 0.3, 0.8, 1.3):
        for squeeze in (0.1, 1.0, 3.0):
            state = InputState(squeeze_r=squeeze)
            root = bisect_gain_threshold(mfp_gain, 1.0 + state.x_variance)
            assert root > mfp_gain


def test_threshold_root_in_unit_interval():
    for mfp_gain in (1e-6, 0.01, 0.7, 1.5, 0.5 * math.pi - 1e-9):
        for squeeze in (0.0, 0.3, 2.0, SATURATED_R):
            gain_max = threshold_closed_form(mfp_gain, InputState(squeeze_r=squeeze))
            assert 0.0 < math.sin(gain_max) <= 1.0


def test_margin_changes_sign_at_boundary():
    state = InputState(squeeze_r=1.0)
    gain_max = threshold_closed_form(0.4, state)
    n = 1.0 + state.x_variance
    eps = 1e-6
    assert margin_at_fixed_mfp_gain(gain_max - eps, 0.4, n) < 0.0
    assert margin_at_fixed_mfp_gain(gain_max + eps, 0.4, n) > 0.0


@pytest.mark.parametrize("mfp_gain", [0.0, -0.1, math.pi, 4.0])
def test_threshold_domain(mfp_gain):
    with pytest.raises(DomainError):
        threshold_closed_form(mfp_gain, InputState(squeeze_r=1.0))


def test_threshold_argument_must_be_real():
    # a bool is not an l/La, and a string or None is refused as the value
    # types refuse it, not by a bare TypeError; numpy reals are taken
    state = InputState(squeeze_r=1.0)
    for bad in (True, "x", None):
        with pytest.raises(DomainError, match="mfp_gain must be a real number"):
            threshold_closed_form(bad, state)
    got = threshold_closed_form(np.float64(1.0), state)
    assert float(got).hex() == threshold_closed_form(1.0, state).hex()


# -- region scan -------------------------------------------------------------

def scan_grids():
    thickness = np.linspace(1.2, 12.0, 12)
    gain = np.linspace(0.05, 3.1, 25)
    return thickness, gain


def test_region_scan_empty_without_squeezing():
    thickness, gain = scan_grids()
    scan = region_scan(thickness, gain, InputState(squeeze_r=0.0))
    assert not scan.below_snl.any()
    assert np.all(np.isnan(scan.boundary))
    assert np.array_equal(scan.thickness, thickness)
    assert np.array_equal(scan.gain, gain)


def test_region_scan_cells_match_margin():
    thickness, gain = scan_grids()
    state = InputState(squeeze_r=LARGE_SQUEEZING_R)
    scan = region_scan(thickness, gain, state)
    assert scan.below_snl.any()
    for i, th in enumerate(thickness):
        for j, g in enumerate(gain):
            spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
            assert scan.below_snl[i, j] == (snl_condition(spec, state) < 0.0)


def test_region_scan_boundary_splits_rows():
    thickness, gain = scan_grids()
    state = InputState(squeeze_r=1.0)
    scan = region_scan(thickness, gain, state)
    for i in range(thickness.size):
        b = scan.boundary[i]
        if math.isnan(b):
            row = scan.below_snl[i]
            assert row.all() or not row.any()
            continue
        for j, g in enumerate(gain):
            if abs(g - b) > 1e-9:
                assert scan.below_snl[i, j] == (g < b)


def test_region_scan_boundary_is_gain_fixed_point():
    # along a row the boundary solves gain = gain_max(gain / thickness);
    # solve that fixed-point equation through the closed form instead of
    # bisecting the margin and require agreement
    thickness, gain = scan_grids()
    state = InputState(squeeze_r=LARGE_SQUEEZING_R)
    scan = region_scan(thickness, gain, state)
    for th, b in zip(thickness, scan.boundary):
        fixed = bisect_fixed_point_boundary(float(th), lambda m: threshold_closed_form(m, state))
        assert abs(b - fixed) <= 1e-9, th


def test_region_scan_pinned_row():
    # thickness chosen so the fixed point sits at l/La = 0.1 exactly
    state = InputState(squeeze_r=SATURATED_R)
    scan = region_scan(
        np.array([PINNED_THICKNESS]), np.linspace(0.05, 3.1, 10), state
    )
    assert abs(scan.boundary[0] - THRESHOLD_01_N1["gain_max"]) <= 1e-9


def test_region_grows_with_squeezing():
    thickness, gain = scan_grids()
    weak = region_scan(thickness, gain, InputState(squeeze_r=0.5)).below_snl
    strong = region_scan(thickness, gain, InputState(squeeze_r=1.5)).below_snl
    assert np.all(strong[weak])
    assert strong.sum() > weak.sum()


@pytest.mark.parametrize("squeeze", [0.0, 0.5, 1.0, LARGE_SQUEEZING_R, SATURATED_R])
def test_region_scan_matches_scalar_reference(squeeze):
    # the whole-array scan against the point-by-point one, bit for bit:
    # the snl-region preset grid, a span from just above L/l = 1 (where
    # the crossing sits near the lasing threshold) and one out to 50
    state = InputState(squeeze_r=squeeze)
    grids = [
        (grid(1.2, 12.0, 55), grid(0.05, 3.1, 62)),
        (np.linspace(1.0 + 1e-9, 2.0, 23), np.linspace(1e-3, math.pi - 2e-6, 31)),
        (np.linspace(1.5, 50.0, 37), np.linspace(0.01, 3.14, 17)),
    ]
    for thickness, gain in grids:
        scan = region_scan(np.asarray(thickness), np.asarray(gain), state)
        below, boundary = scalar_region_scan(thickness, gain, 1.0 + state.x_variance)
        assert np.array_equal(scan.below_snl, below)
        assert [b.hex() for b in scan.boundary.tolist()] == [b.hex() for b in boundary.tolist()]
        assert np.isnan(boundary).all() == (squeeze == 0.0)


def test_region_scan_empty_grids():
    state = InputState(squeeze_r=1.0)
    thickness, gain = scan_grids()
    scan = region_scan(np.array([]), gain, state)
    assert scan.below_snl.shape == (0, gain.size)
    assert scan.boundary.shape == (0,)
    scan = region_scan(thickness, np.array([]), state)
    assert scan.below_snl.shape == (thickness.size, 0)
    # the boundary does not depend on the scanned gains
    assert np.array_equal(scan.boundary, region_scan(thickness, gain, state).boundary)


@pytest.mark.parametrize(
    "bad_gain",
    [np.array([0.0, 1.0]), np.array([-0.5, 1.0]), np.array([1.0, math.pi - 1e-7]),
     np.array([math.nan, 1.0])],
)
def test_region_scan_gain_domain(bad_gain):
    with pytest.raises(ParameterError):
        region_scan(np.array([5.0]), bad_gain, InputState(squeeze_r=1.0))


def test_region_scan_thin_slab_rejected():
    for thickness in (0.8, 1.0, math.nan):
        with pytest.raises(ParameterError, match="thickness_ratio"):
            region_scan(np.array([5.0, thickness]), np.array([1.0]), InputState(squeeze_r=1.0))


def test_snl_answers_past_max_squeeze_r():
    # the sub-shot-noise answers read only e^(-2r), so they hold past
    # MAX_SQUEEZE_R, where full_report's e^(2r) overflows and is refused
    assert SATURATED_R > MAX_SQUEEZE_R
    state = InputState(squeeze_r=SATURATED_R)
    spec = MediumSpec(thickness_ratio=10.0, gain_ratio=0.5)
    margin = snl_condition(spec, state)
    assert math.isfinite(margin) and margin < 0.0
    assert math.isfinite(threshold_closed_form(0.1, state))
    scan = region_scan(np.array([2.0, 5.0, 10.0]), np.array([0.5, 1.0, 2.0]), state)
    assert np.all(np.isfinite(scan.boundary))
    with pytest.raises(ParameterError, match="squeeze_r must be <="):
        full_report(spec, state)


def test_region_consistent_with_variance_report(grid_points):
    # cross-module: cell membership equals the shaped variance dipping
    # below the vacuum level
    state = InputState(squeeze_r=1.0)
    thickness = np.array(sorted({t for t, _, _ in grid_points}))
    gain = np.array([0.5, 1.0, 2.0, 2.5, 3.0])
    scan = region_scan(thickness, gain, state)
    for i, th in enumerate(thickness):
        for j, g in enumerate(gain):
            rep = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), state)
            assert scan.below_snl[i, j] == (rep.x_wfs < 1.0)
