"""Closed-form coefficients, variances and their identity suite."""
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsq.analytic import _evaluate, full_report, mean_coefficients
from ramsq.core import EnsembleCoefficients, InputState, MediumSpec

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
    coef = mean_coefficients(MediumSpec(thickness_ratio=10.0, gain_ratio=0.0))
    assert coef.t_bar == 0.1
    assert coef.r_bar == 0.9
    assert coef.v_bar == 0.0


def test_zero_gain_dispatches_to_linear():
    # the Ohmic law t_bar = l/L, r_bar = 1 - l/L, v_bar = 0 to the bit
    spec = MediumSpec(thickness_ratio=5.0, gain_ratio=0.0)
    assert mean_coefficients(spec) == EnsembleCoefficients(1.0 / 5.0, 1.0 - 1.0 / 5.0, 0.0)


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

def test_baseline_frozen(reference_spec, reference_state):
    rep = full_report(reference_spec, reference_state)
    assert close(rep.coherent_baseline, BASELINE_10_25)


def test_variances_frozen(reference_spec, reference_state):
    rep = full_report(reference_spec, reference_state)
    assert close(rep.x_wfs, VAR_10_25_R1["x_wfs"])
    assert close(rep.x_nowfs, VAR_10_25_R1["x_nowfs"])
    assert close(rep.p_wfs, VAR_10_25_R1["p_wfs"])
    assert close(rep.p_nowfs, VAR_10_25_R1["p_nowfs"])
    assert close(rep.wfs_gain, WFS_GAIN_10_25_R1)


def test_rescaled_fluctuation_frozen(reference_spec, reference_state):
    rep = full_report(reference_spec, reference_state)
    assert close(rep.x_wfs / rep.coherent_baseline, RATIO_WFS_10_25_R1)
    assert close(rep.x_nowfs / rep.coherent_baseline, RATIO_NOWFS_10_25_R1)


def test_rescaled_fluctuation_at_zero_squeezing(reference_spec):
    rep = full_report(reference_spec, InputState(squeeze_r=0.0))
    assert rep.x_wfs / rep.coherent_baseline == 1.0
    assert rep.x_nowfs / rep.coherent_baseline == 1.0


def test_shaped_ratio_below_one_for_squeezed_input(grid_points):
    for th, g, r in grid_points:
        if r == 0.0:
            continue
        rep = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r))
        assert rep.x_wfs / rep.coherent_baseline < 1.0


def test_full_report_matches_pieces(reference_spec, reference_state):
    # each field is its closed form of the weights and the factors of r
    coef = mean_coefficients(reference_spec)
    two_r = 2.0 * reference_state.squeeze_r
    baseline = 2.0 * coef.v_bar + 1.0
    rep = full_report(reference_spec, reference_state)
    assert rep.x_wfs == baseline + coef.t_bar * (math.exp(-two_r) - 1.0)
    assert rep.x_nowfs == baseline + coef.t_bar * (math.cosh(two_r) - 1.0)
    assert rep.p_wfs == baseline + coef.t_bar * (math.exp(two_r) - 1.0)
    assert rep.p_nowfs == rep.x_nowfs
    assert rep.coherent_baseline == baseline
    assert rep.wfs_gain == coef.t_bar * math.sinh(two_r)


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
        rep = full_report(spec, state)
        diff = rep.x_nowfs - rep.x_wfs
        assert abs(diff - coef.t_bar * math.sinh(2.0 * r)) <= 1e-12
        assert rep.wfs_gain == coef.t_bar * math.sinh(2.0 * r)
        if r > 0.0:
            assert diff > 0.0


def test_identity_unshaped_symmetry(grid_points):
    # (b): without shaping the two quadratures are statistically identical
    for th, g, r in grid_points:
        rep = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r))
        assert rep.x_nowfs == rep.p_nowfs


def test_identity_shaped_sum(grid_points):
    # (c): x_wfs + p_wfs = 2 baseline + t_bar (e^2r + e^-2r - 2) >= 2 baseline
    for th, g, r in grid_points:
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
        coef = mean_coefficients(spec)
        rep = full_report(spec, InputState(squeeze_r=r))
        total = rep.x_wfs + rep.p_wfs
        expected = 2.0 * rep.coherent_baseline + coef.t_bar * (
            math.exp(2.0 * r) + math.exp(-2.0 * r) - 2.0
        )
        assert abs(total - expected) <= 1e-12
        assert total >= 2.0 * rep.coherent_baseline - 1e-12


def test_identity_uncertainty_product(grid_points):
    # (d): shaping never squeezes past the minimum-uncertainty bound
    for th, g, r in grid_points:
        rep = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r))
        assert rep.x_wfs * rep.p_wfs >= 1.0 - 1e-9


def test_identity_monotone_in_squeezing():
    # (e): along r the shaped variance falls, the unshaped rises
    for th in THICKNESS_GRID:
        for g in GAIN_GRID:
            spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
            reports = [full_report(spec, InputState(squeeze_r=r)) for r in SQUEEZE_GRID]
            shaped = [rep.x_wfs for rep in reports]
            unshaped = [rep.x_nowfs for rep in reports]
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
    # every field of full_report's record at every point, bit for bit
    here = (spec.thickness_ratio, spec.gain_ratio, state.squeeze_r)
    values = [[*axis, x] for axis, x in zip(grid, here)]
    forms = np.broadcast_arrays(*astuple(_evaluate(*np.ix_(*values))))
    for (i, th), (j, g), (k, r) in itertools.product(*map(enumerate, values)):
        point = full_report(MediumSpec(thickness_ratio=th, gain_ratio=g), InputState(squeeze_r=r))
        expected = [x.hex() for x in astuple(point)]
        assert [float(a[i, j, k]).hex() for a in forms] == expected, (th, g, r)
