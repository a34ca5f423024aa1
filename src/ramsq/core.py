"""Shared value types and parameter validation.

A disordered amplifying slab is described by two dimensionless ratios:
the optical thickness L/l (slab thickness over transport mean free path)
and the gain strength L/La (thickness over amplification length).  All
physics downstream depends only on these two numbers plus the channel
count, so laboratory units enter exclusively through ``units_to_spec``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

# The diffusive gain medium starts lasing at L/La = pi; every formula in
# this package is meaningful only below that point.
LASER_THRESHOLD = math.pi

# Largest squeezing whose anti-squeezed variance e^(2r) is a finite double.
MAX_SQUEEZE_R = math.log(sys.float_info.max) / 2.0


class ParameterError(ValueError):
    """A physical parameter is outside its valid range."""


class GainAboveThreshold(ParameterError):
    """Gain ratio L/La at or above the lasing threshold pi."""


class ThinMedium(ParameterError):
    """Optical thickness L/l at or below 1, outside the diffusive regime."""


class BadChannels(ParameterError):
    """Channel count below 1."""


class DomainError(ParameterError):
    """Argument outside the domain of a closed-form expression."""


@dataclass(frozen=True)
class MediumSpec:
    """Dimensionless description of one disordered amplifying slab.

    ``thickness_ratio`` is L/l, ``gain_ratio`` is L/La and ``channels``
    the number of transverse modes per side.  Instances are plain data;
    run ``validate_medium`` on raw user input before doing physics.
    """

    thickness_ratio: float
    gain_ratio: float
    channels: int = 4

    @property
    def mfp_over_amp_length(self) -> float:
        """l/La, the mean free path in units of the amplification length."""
        return self.gain_ratio / self.thickness_ratio


def validate_medium(spec: MediumSpec) -> MediumSpec:
    """Return ``spec`` unchanged iff every bound holds, else raise.

    Bounds: L/l > 1 (diffusive slab), 0 <= L/La < pi (below lasing),
    channels an integer >= 1 (numpy integers included).
    """
    if not spec.thickness_ratio > 1.0:
        raise ThinMedium(
            f"thickness_ratio must exceed 1 (got {spec.thickness_ratio}); "
            "the slab must be at least one mean free path thick"
        )
    if not 0.0 <= spec.gain_ratio < LASER_THRESHOLD:
        raise GainAboveThreshold(
            f"gain_ratio must lie in [0, pi) (got {spec.gain_ratio}); "
            "at L/La = pi the medium reaches its lasing threshold"
        )
    try:
        channels = operator.index(spec.channels)
    except TypeError:
        raise BadChannels(f"channels must be an integer (got {spec.channels!r})") from None
    if channels < 1:
        raise BadChannels(f"channels must be >= 1 (got {spec.channels})")
    return spec


@dataclass(frozen=True)
class InputState:
    """Squeezed (optionally displaced) input state, one copy per channel.

    ``squeeze_r`` is the squeezing parameter of the x quadrature, so the
    input variances are Var(x) = e^(-2r) and Var(p) = e^(+2r) against a
    vacuum level of 1.  Any r >= 0 is accepted, since sub-shot-noise
    results need only e^(-2r), but whatever grows as e^(2r) raises
    ``ParameterError`` once r exceeds ``MAX_SQUEEZE_R`` (about 354.9).
    ``amplitude`` is the coherent displacement; it moves quadrature means
    but never variances, and is retained so mean checks can exercise
    that fact.
    """

    squeeze_r: float
    amplitude: complex = 0j

    def __post_init__(self) -> None:
        if not self.squeeze_r >= 0.0:
            raise ParameterError(f"squeeze_r must be >= 0 (got {self.squeeze_r})")

    @property
    def x_variance(self) -> float:
        return math.exp(-2.0 * self.squeeze_r)

    @property
    def p_variance(self) -> float:
        return math.exp(self.anti_squeezing_exponent)

    @property
    def anti_squeezing_exponent(self) -> float:
        """2r, the exponent of e^(2r), cosh 2r and sinh 2r; checked against overflow."""
        if self.squeeze_r > MAX_SQUEEZE_R:
            raise ParameterError(
                f"squeeze_r must be <= {MAX_SQUEEZE_R!r} wherever the anti-squeezed "
                f"noise e^(2r) enters (got {self.squeeze_r}); beyond it e^(2r) "
                "overflows a double"
            )
        return 2.0 * self.squeeze_r


@dataclass(frozen=True)
class EnsembleCoefficients:
    """Disorder-averaged channel-summed weights of one slab.

    ``t_bar`` and ``r_bar`` are the total transmitted and reflected
    weights summed over channels; ``v_bar`` is the single aggregated
    spontaneous-emission weight.  Flux conservation ties them together:
    t_bar + r_bar - v_bar = 1.
    """

    t_bar: float
    r_bar: float
    v_bar: float

    def flux_residual(self) -> float:
        """t_bar + r_bar - v_bar - 1; zero for any physical slab."""
        return self.t_bar + self.r_bar - self.v_bar - 1.0

    def t_per_channel(self, channels: int) -> float:
        """Mean transmitted weight of a single channel."""
        return self.t_bar / channels

    def r_per_channel(self, channels: int) -> float:
        """Mean reflected weight of a single channel."""
        return self.r_bar / channels


@dataclass(frozen=True)
class PhysicalUnits:
    """Laboratory description of a slab, everything in one unit system.

    Fields: diffusion constant D, amplification time tau_a, transport
    mean free path l, slab thickness L and light speed c.  Only the
    combination La = sqrt(D * tau_a) and the two ratios matter.
    """

    diffusion_const: float
    amp_time: float
    mfp: float
    thickness: float
    light_speed: float

    def __post_init__(self) -> None:
        for name in ("diffusion_const", "amp_time", "mfp", "thickness", "light_speed"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be > 0 (got {getattr(self, name)})")

    @classmethod
    def from_transport(
        cls, *, light_speed: float, mfp: float, amp_time: float, thickness: float
    ) -> "PhysicalUnits":
        """Build with the diffusive-medium estimate D = c * l / 3."""
        return cls(
            diffusion_const=light_speed * mfp / 3.0,
            amp_time=amp_time,
            mfp=mfp,
            thickness=thickness,
            light_speed=light_speed,
        )

    @property
    def amplification_length(self) -> float:
        """La = sqrt(D * tau_a)."""
        return math.sqrt(self.diffusion_const * self.amp_time)


def units_to_spec(units: PhysicalUnits) -> tuple[float, float]:
    """Reduce laboratory units to the dimensionless pair (L/l, L/La).

    Pure arithmetic; the result may still violate the medium bounds
    (e.g. a pumped slab past threshold), which ``validate_medium``
    reports when the pair is used to build a ``MediumSpec``.
    """
    return (
        units.thickness / units.mfp,
        units.thickness / units.amplification_length,
    )
