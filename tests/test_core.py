"""Value types, parameter bounds and unit reduction."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramsq.core import (
    BadChannels,
    EnsembleCoefficients,
    GainAboveThreshold,
    InputState,
    LASER_THRESHOLD,
    MAX_SQUEEZE_R,
    MediumSpec,
    ParameterError,
    PhysicalUnits,
    ThinMedium,
    units_to_spec,
    validate_medium,
)

ULP = 2.220446049250313e-16


def test_reference_medium_is_valid():
    spec = MediumSpec(thickness_ratio=10.0, gain_ratio=2.5, channels=4)
    assert validate_medium(spec) is spec


def test_gain_at_threshold_rejected():
    with pytest.raises(GainAboveThreshold):
        validate_medium(MediumSpec(thickness_ratio=10.0, gain_ratio=math.pi))


@pytest.mark.parametrize("gain", [3.2, 4.0, -0.1])
def test_gain_outside_band_rejected(gain):
    with pytest.raises(GainAboveThreshold):
        validate_medium(MediumSpec(thickness_ratio=10.0, gain_ratio=gain))


@pytest.mark.parametrize("thickness", [0.5, 1.0, -2.0])
def test_thin_medium_rejected(thickness):
    # the diffusive bound is strict: exactly one mean free path is too thin
    with pytest.raises(ThinMedium):
        validate_medium(MediumSpec(thickness_ratio=thickness, gain_ratio=1.0))


@pytest.mark.parametrize("channels", [0, -3, 4.0, 4.5, "4"])
def test_bad_channel_count_rejected(channels):
    with pytest.raises(BadChannels):
        validate_medium(MediumSpec(thickness_ratio=2.0, gain_ratio=1.0, channels=channels))


def test_numpy_integer_channel_count_accepted():
    spec = MediumSpec(thickness_ratio=2.0, gain_ratio=1.0, channels=np.int64(4))
    assert validate_medium(spec) is spec


def test_all_bound_errors_are_parameter_errors():
    # the CLI maps ParameterError to exit code 2; every bound must be caught
    for exc in (GainAboveThreshold, ThinMedium, BadChannels):
        assert issubclass(exc, ParameterError)
    assert issubclass(ParameterError, ValueError)


def test_mfp_over_amp_length():
    assert MediumSpec(thickness_ratio=10.0, gain_ratio=2.5).mfp_over_amp_length == 0.25


def test_laser_threshold_is_pi():
    assert LASER_THRESHOLD == math.pi


def test_medium_spec_hashable_and_frozen():
    spec = MediumSpec(thickness_ratio=2.0, gain_ratio=1.0)
    assert spec == MediumSpec(thickness_ratio=2.0, gain_ratio=1.0)
    assert hash(spec) == hash(MediumSpec(thickness_ratio=2.0, gain_ratio=1.0))
    with pytest.raises(AttributeError):
        spec.gain_ratio = 0.5


def test_negative_squeeze_rejected():
    with pytest.raises(ParameterError):
        InputState(squeeze_r=-0.1)


def test_anti_squeezing_bounded_where_exp_overflows():
    # e^(2r) is finite up to MAX_SQUEEZE_R and refused past it, while
    # saturated squeezing stays usable wherever only e^(-2r) enters
    assert math.isfinite(InputState(squeeze_r=MAX_SQUEEZE_R).p_variance)
    for r in (math.nextafter(MAX_SQUEEZE_R, math.inf), 600.0, math.inf):
        state = InputState(squeeze_r=r)
        assert 0.0 <= state.x_variance < 1e-300
        with pytest.raises(ParameterError):
            state.p_variance
        with pytest.raises(ParameterError):
            state.anti_squeezing_exponent


def test_input_state_variances():
    state = InputState(squeeze_r=1.0)
    assert state.x_variance == math.exp(-2.0)
    assert state.p_variance == math.exp(2.0)
    vac = InputState(squeeze_r=0.0)
    assert vac.x_variance == 1.0 and vac.p_variance == 1.0


@given(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_uncertainty_product_tight(r):
    # e^(-2r) e^(2r) = 1 in real arithmetic; floats may miss by one ulp
    state = InputState(squeeze_r=r)
    assert abs(state.x_variance * state.p_variance - 1.0) <= ULP


def test_amplitude_defaults_to_zero():
    assert InputState(squeeze_r=0.5).amplitude == 0j


def test_coefficient_accessors():
    coef = EnsembleCoefficients(t_bar=0.4, r_bar=1.3, v_bar=0.7)
    assert coef.t_per_channel(4) == 0.1
    assert coef.r_per_channel(4) == 0.325
    assert abs(coef.flux_residual()) <= 1e-15


@pytest.mark.parametrize(
    "field", ["diffusion_const", "amp_time", "mfp", "thickness", "light_speed"]
)
def test_units_positivity(field):
    good = dict(diffusion_const=1.0, amp_time=4.0, mfp=1.0, thickness=6.0, light_speed=3.0)
    good[field] = 0.0
    with pytest.raises(ParameterError):
        PhysicalUnits(**good)


def test_units_to_spec_plain():
    units = PhysicalUnits(
        diffusion_const=1.0, amp_time=4.0, mfp=1.0, thickness=6.0, light_speed=3.0
    )
    assert units.amplification_length == 2.0
    assert units_to_spec(units) == (6.0, 3.0)


def test_units_from_transport():
    # D = c l / 3 with c = 3, l = 1 gives D = 1 and La = 1
    units = PhysicalUnits.from_transport(light_speed=3.0, mfp=1.0, amp_time=1.0, thickness=2.0)
    assert units.diffusion_const == 1.0
    assert units_to_spec(units) == (2.0, 2.0)


def test_units_to_spec_can_exceed_threshold():
    # reduction is pure arithmetic; the bound fires downstream
    units = PhysicalUnits(
        diffusion_const=0.25, amp_time=4.0, mfp=0.5, thickness=5.0, light_speed=1.0
    )
    pair = units_to_spec(units)
    assert pair == (10.0, 5.0)
    with pytest.raises(GainAboveThreshold):
        validate_medium(MediumSpec(thickness_ratio=pair[0], gain_ratio=pair[1]))
