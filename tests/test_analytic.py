"""Closed-form coefficients, variances and their identity suite."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsq.analytic import (
    _evaluate,
    coherent_baseline,
    full_report,
    linear_coefficients,
    mean_coefficients,
    rescaled_fluctuation,
    variance_p_nowfs,
    variance_p_wfs,
    variance_x_nowfs,
    variance_x_wfs,
    wfs_gain,
)
from ramsq.core import InputState, MediumSpec

from conftest import GAIN_GRID, SQUEEZE_GRID, THICKNESS_GRID
from oracles import (
    BASELINE_10_25,
    COEF_10_25,
    COEF_2_3,
    LINEAR_2_R1,
    RATIO_NOWFS_10_25_R1,
    RATIO_WFS_10_25_R1,
    VAR_10_25_R1,
    WFS_GAIN_10_25_R1,
)


def close(a, b, tol=5e-15):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# -- coefficients ------------------------------------------------------------

def test_reference_coefficients_frozen(reference_spec):
    coef = mean_coefficients(reference_spec)
    assert close(coef.t_bar, COEF_10_25["t_bar"])
    assert close(coef.r_bar, COEF_10_25["r_bar"])
    assert close(coef.v_bar, COEF_10_25["v_bar"])


def test_v_bar_two_ways(reference_spec):
    # direct sine expression vs the flux-closed form
    coef = mean_coefficients(reference_spec)
    direct = (math.sin(0.25) + math.sin(2.25) - math.sin(2.5)) / math.sin(2.5)
    assert abs(coef.v_bar - direct) <= 1e-12


def test_near_threshold_coefficients_frozen():
    coef = mean_coefficients(MediumSpec(thickness_ratio=2.0, gain_ratio=3.0))
    assert close(coef.t_bar, COEF_2_3["t_bar"])
    assert close(coef.v_bar, COEF_2_3["v_bar"])


def test_amplified_reflection_allowed(reference_spec):
    # r_bar > 1 is physical for a pumped slab
    assert mean_coefficients(reference_spec).r_bar > 1.0


def test_flux_residual_exact_on_sine_branch(grid_points):
    for th, g, _ in grid_points:
        if g == 0.0:
            continue
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        assert coef.flux_residual() == 0.0


def test_flux_identity_full_grid(grid_points):
    for th, g, _ in grid_points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        assert abs(coef.flux_residual()) <= 1e-12


def test_linear_coefficients():
    coef = linear_coefficients(MediumSpec(thickness_ratio=10.0, gain_ratio=0.0))
    assert coef.t_bar == 0.1
    assert coef.r_bar == 0.9
    assert coef.v_bar == 0.0


def test_zero_gain_dispatches_to_linear():
    spec = MediumSpec(thickness_ratio=5.0, gain_ratio=0.0)
    assert mean_coefficients(spec) == linear_coefficients(spec)


@pytest.mark.parametrize("thickness", THICKNESS_GRID)
def test_linear_limit_continuity(thickness):
    coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=1e-8))
    assert abs(coef.t_bar - 1.0 / thickness) <= 1e-6
    assert abs(coef.r_bar - (1.0 - 1.0 / thickness)) <= 1e-6
    assert abs(coef.v_bar) <= 1e-6


@pytest.mark.parametrize("gain", [0.5, 1.0, 2.0, 3.0])
def test_symmetric_slab_splits_evenly(gain):
    # at L/l = 2 the sine laws give t_bar = r_bar to the bit:
    # g - g/2 and g/2 are the same float
    coef = mean_coefficients(MediumSpec(thickness_ratio=2.0, gain_ratio=gain))
    assert coef.t_bar == coef.r_bar


# -- variances ---------------------------------------------------------------

def test_baseline_frozen(reference_spec):
    coef = mean_coefficients(reference_spec)
    assert close(coherent_baseline(coef), BASELINE_10_25)


def test_variances_frozen(reference_spec, reference_state):
    coef = mean_coefficients(reference_spec)
    assert close(variance_x_wfs(coef, reference_state), VAR_10_25_R1["x_wfs"])
    assert close(variance_x_nowfs(coef, reference_state), VAR_10_25_R1["x_nowfs"])
    assert close(variance_p_wfs(coef, reference_state), VAR_10_25_R1["p_wfs"])
    assert close(variance_p_nowfs(coef, reference_state), VAR_10_25_R1["p_nowfs"])
    assert close(wfs_gain(coef, reference_state), WFS_GAIN_10_25_R1)


def test_rescaled_fluctuation_frozen(reference_spec, reference_state):
    coef = mean_coefficients(reference_spec)
    assert close(rescaled_fluctuation(coef, reference_state, shaped=True), RATIO_WFS_10_25_R1)
    assert close(rescaled_fluctuation(coef, reference_state, shaped=False), RATIO_NOWFS_10_25_R1)


def test_rescaled_fluctuation_at_zero_squeezing(reference_spec):
    coef = mean_coefficients(reference_spec)
    vac = InputState(squeeze_r=0.0)
    assert rescaled_fluctuation(coef, vac, shaped=True) == 1.0
    assert rescaled_fluctuation(coef, vac, shaped=False) == 1.0


def test_shaped_ratio_below_one_for_squeezed_input(grid_points):
    for th, g, r in grid_points:
        if r == 0.0:
            continue
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        assert rescaled_fluctuation(coef, InputState(squeeze_r=r), shaped=True) < 1.0


def test_full_report_matches_pieces(reference_spec, reference_state):
    coef = mean_coefficients(reference_spec)
    rep = full_report(reference_spec, reference_state)
    assert rep.x_wfs == variance_x_wfs(coef, reference_state)
    assert rep.x_nowfs == variance_x_nowfs(coef, reference_state)
    assert rep.p_wfs == variance_p_wfs(coef, reference_state)
    assert rep.p_nowfs == variance_p_nowfs(coef, reference_state)
    assert rep.coherent_baseline == coherent_baseline(coef)
    assert rep.snl == 1.0


def test_linear_coherent_is_shot_noise():
    rep = full_report(MediumSpec(thickness_ratio=2.0, gain_ratio=0.0), InputState(squeeze_r=0.0))
    assert rep.x_wfs == 1.0
    assert rep.x_nowfs == 1.0
    assert rep.p_wfs == 1.0
    assert rep.p_nowfs == 1.0


def test_linear_squeezed_frozen():
    rep = full_report(MediumSpec(thickness_ratio=2.0, gain_ratio=0.0), InputState(squeeze_r=1.0))
    assert close(rep.x_wfs, LINEAR_2_R1["x_wfs"])
    assert close(rep.x_nowfs, LINEAR_2_R1["x_nowfs"])
    assert rep.x_wfs < 1.0


# -- identity suite over the grid -------------------------------------------

def test_identity_shaping_benefit(grid_points):
    # (a): unshaped minus shaped equals t_bar sinh 2r, positive for r > 0
    for th, g, r in grid_points:
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
        state = InputState(squeeze_r=r)
        coef = mean_coefficients(spec)
        diff = variance_x_nowfs(coef, state) - variance_x_wfs(coef, state)
        assert abs(diff - coef.t_bar * math.sinh(2.0 * r)) <= 1e-12
        assert wfs_gain(coef, state) == coef.t_bar * math.sinh(2.0 * r)
        if r > 0.0:
            assert diff > 0.0


def test_identity_unshaped_symmetry(grid_points):
    # (b): without shaping the two quadratures are statistically identical
    for th, g, r in grid_points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        state = InputState(squeeze_r=r)
        assert variance_x_nowfs(coef, state) == variance_p_nowfs(coef, state)


def test_identity_shaped_sum(grid_points):
    # (c): x_wfs + p_wfs = 2 baseline + t_bar (e^2r + e^-2r - 2) >= 2 baseline
    for th, g, r in grid_points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        state = InputState(squeeze_r=r)
        total = variance_x_wfs(coef, state) + variance_p_wfs(coef, state)
        expected = 2.0 * coherent_baseline(coef) + coef.t_bar * (
            math.exp(2.0 * r) + math.exp(-2.0 * r) - 2.0
        )
        assert abs(total - expected) <= 1e-12
        assert total >= 2.0 * coherent_baseline(coef) - 1e-12


def test_identity_uncertainty_product(grid_points):
    # (d): shaping never squeezes past the minimum-uncertainty bound
    for th, g, r in grid_points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        state = InputState(squeeze_r=r)
        assert variance_x_wfs(coef, state) * variance_p_wfs(coef, state) >= 1.0 - 1e-9


def test_identity_monotone_in_squeezing():
    # (e): along r the shaped variance falls, the unshaped rises
    for th in THICKNESS_GRID:
        for g in GAIN_GRID:
            coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
            shaped = [variance_x_wfs(coef, InputState(squeeze_r=r)) for r in SQUEEZE_GRID]
            unshaped = [variance_x_nowfs(coef, InputState(squeeze_r=r)) for r in SQUEEZE_GRID]
            assert all(a > b for a, b in zip(shaped, shaped[1:]))
            assert all(a < b for a, b in zip(unshaped, unshaped[1:]))


def test_identity_monotone_in_gain():
    # (f): every variance grows with amplification at fixed L/l, r
    for th in THICKNESS_GRID:
        for r in SQUEEZE_GRID:
            state = InputState(squeeze_r=r)
            reports = [
                full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), state)
                for g in GAIN_GRID
            ]
            for field in ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs"):
                series = [getattr(rep, field) for rep in reports]
                assert all(a < b for a, b in zip(series, series[1:])), (th, r, field)


def test_ordering_around_baseline(grid_points):
    # shaped squeezed below the coherent baseline, shaped anti-squeezed above
    for th, g, r in grid_points:
        if r == 0.0:
            continue
        rep = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r))
        assert rep.x_wfs < rep.coherent_baseline < rep.p_wfs
        assert rep.coherent_baseline < rep.x_nowfs


def test_amplifying_dominates_linear(grid_points):
    # same slab with gain is noisier than without, every quadrature
    for th, g, r in grid_points:
        if g == 0.0:
            continue
        state = InputState(squeeze_r=r)
        amp = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), state)
        lin = full_report(MediumSpec(thickness_ratio=th, gain_ratio=0.0), state)
        for field in ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs"):
            assert getattr(amp, field) > getattr(lin, field)


# -- property-based checks ---------------------------------------------------

valid_specs = st.builds(
    MediumSpec,
    thickness_ratio=st.floats(min_value=1.01, max_value=50.0),
    gain_ratio=st.floats(min_value=0.0, max_value=3.1),
)
states = st.builds(InputState, squeeze_r=st.floats(min_value=0.0, max_value=5.0))
# Values along the L/l, L/La and r axes of a broadcast grid.
axes = st.tuples(
    st.lists(st.floats(min_value=1.01, max_value=50.0), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=3.1), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
)


@settings(max_examples=300)
@given(valid_specs)
def test_flux_identity_property(spec):
    assert abs(mean_coefficients(spec).flux_residual()) <= 1e-12


@settings(max_examples=300)
@given(valid_specs, states, axes)
def test_variance_relations_property(spec, state, grid):
    rep = full_report(spec, state)
    coef = mean_coefficients(spec)
    scale = max(1.0, abs(rep.x_nowfs), abs(rep.p_wfs))
    assert rep.x_nowfs == rep.p_nowfs
    assert rep.x_wfs <= rep.coherent_baseline + 1e-12 * scale
    assert rep.coherent_baseline <= rep.x_nowfs + 1e-12 * scale
    diff = rep.x_nowfs - rep.x_wfs
    assert abs(diff - coef.t_bar * math.sinh(2.0 * state.squeeze_r)) <= 1e-9 * scale
    assert rep.x_wfs * rep.p_wfs >= 1.0 - 1e-9 * scale
    # the array evaluator over a broadcast grid holding this point gives
    # full_report's variances and wfs_gain at every point, bit for bit
    here = (spec.thickness_ratio, spec.gain_ratio, state.squeeze_r)
    values = [[*axis, x] for axis, x in zip(grid, here)]
    forms = np.broadcast_arrays(*_evaluate(*np.ix_(*values)))
    for (i, th), (j, g), (k, r) in itertools.product(*map(enumerate, values)):
        medium, point_state = MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r)
        point = full_report(medium, point_state)
        expected = [
            point.x_wfs, point.x_nowfs, point.p_wfs, point.p_nowfs, point.coherent_baseline,
            wfs_gain(mean_coefficients(medium), point_state),
        ]
        assert [float(a[i, j, k]).hex() for a in forms] == [x.hex() for x in expected], (th, g, r)
