"""Shared value types and parameter validation.

A disordered amplifying slab is described by two dimensionless ratios:
the optical thickness L/l (slab thickness over transport mean free path)
and the gain strength L/La (thickness over amplification length).  All
physics downstream depends only on these two numbers plus the channel
count.  The bounds are checked where a value is built: a ``MediumSpec``
that exists is in bounds, so no code downstream checks it again.  Each
bound is also a ``check_*`` function of one value, which the dataset
builders call once per axis value instead of building a spec per point.
"""

from __future__ import annotations

import math
import numbers
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


def _integer(name: str, value, error: type[ParameterError] = ParameterError) -> int:
    """``value`` as a Python int; bools, floats and other non-integers raise ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer (got {value!r})")


def _real(name: str, value, error: type[ParameterError] = ParameterError) -> None:
    """Raise ``error`` unless ``value`` is a real number (numpy's included) and not a bool."""
    # float and int ahead of the ABC: the datasets build specs by the
    # thousand, and the ABC test alone costs about a microsecond.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{name} must be a real number (got {value!r})")


def check_thickness(value) -> None:
    """Raise ``ThinMedium`` unless ``value`` is a real L/l > 1 (a diffusive slab)."""
    _real("thickness_ratio", value, ThinMedium)
    if not value > 1.0:
        raise ThinMedium(
            f"thickness_ratio must exceed 1 (got {value}); "
            "the slab must be at least one mean free path thick"
        )


def check_gain(value) -> None:
    """Raise ``GainAboveThreshold`` unless ``value`` is a real L/La in [0, pi)."""
    _real("gain_ratio", value, GainAboveThreshold)
    if not 0.0 <= value < LASER_THRESHOLD:
        raise GainAboveThreshold(
            f"gain_ratio must lie in [0, pi) (got {value}); "
            "at L/La = pi the medium reaches its lasing threshold"
        )


def check_squeeze(value) -> None:
    """Raise ``ParameterError`` unless ``value`` is a real squeezing r >= 0."""
    _real("squeeze_r", value)
    if not value >= 0.0:
        raise ParameterError(f"squeeze_r must be >= 0 (got {value})")


def squeeze_exponent(squeeze_r: float) -> float:
    """2r, the exponent of e^(2r); ``ParameterError`` above ``MAX_SQUEEZE_R``."""
    if squeeze_r > MAX_SQUEEZE_R:
        raise ParameterError(
            f"squeeze_r must be <= {MAX_SQUEEZE_R!r} wherever the anti-squeezed "
            f"noise e^(2r) enters (got {squeeze_r}); beyond it e^(2r) "
            "overflows a double"
        )
    return 2.0 * squeeze_r


@dataclass(frozen=True)
class MediumSpec:
    """Dimensionless description of one disordered amplifying slab.

    ``thickness_ratio`` is L/l, ``gain_ratio`` is L/La and ``channels``
    the number of transverse modes per side.  Construction checks the
    bounds, so a ``MediumSpec`` that exists is in bounds: real L/l > 1
    (diffusive slab), real 0 <= L/La < pi (below lasing), channels an
    integer >= 1; numpy numbers count, bools do not.  The first field
    that fails, in that order, raises its own ``ParameterError`` subclass.
    """

    thickness_ratio: float
    gain_ratio: float
    channels: int = 4

    def __post_init__(self) -> None:
        check_thickness(self.thickness_ratio)
        check_gain(self.gain_ratio)
        if _integer("channels", self.channels, BadChannels) < 1:
            raise BadChannels(f"channels must be >= 1 (got {self.channels})")


@dataclass(frozen=True)
class InputState:
    """Squeezed (optionally displaced) input state, one copy per channel.

    ``squeeze_r`` is the squeezing parameter of the x quadrature, so the
    input variances are Var(x) = e^(-2r) and Var(p) = e^(+2r) against a
    vacuum level of 1.  Any r >= 0 is accepted, since sub-shot-noise
    results need only e^(-2r), but whatever grows as e^(2r) raises
    ``ParameterError`` once r exceeds ``MAX_SQUEEZE_R`` (about 354.9).
    ``amplitude`` is the coherent displacement, any complex number (real
    and numpy numbers included, bools not); it moves quadrature means
    but never variances, and is retained so mean checks can exercise
    that fact.
    """

    squeeze_r: float
    amplitude: complex = 0j

    def __post_init__(self) -> None:
        check_squeeze(self.squeeze_r)
        if isinstance(self.amplitude, bool) or not isinstance(self.amplitude, numbers.Complex):
            raise ParameterError(f"amplitude must be a complex number (got {self.amplitude!r})")

    @property
    def x_variance(self) -> float:
        return math.exp(-2.0 * self.squeeze_r)

    @property
    def p_variance(self) -> float:
        return math.exp(self.anti_squeezing_exponent)

    @property
    def anti_squeezing_exponent(self) -> float:
        """2r, the exponent of e^(2r), cosh 2r and sinh 2r; checked against overflow."""
        return squeeze_exponent(self.squeeze_r)


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
