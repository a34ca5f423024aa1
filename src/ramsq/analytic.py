"""Closed-form disorder averages for squeezed light behind an amplifying slab.

Below the lasing threshold the disorder-averaged channel-summed weights of
a diffusive slab with gain follow sine laws in the two ratios L/l and L/La:

    t_bar = sin(l/La) / sin(L/La)
    r_bar = sin((L - l)/La) / sin(L/La)
    v_bar = t_bar + r_bar - 1        (flux conservation)

with l/La = (L/La) / (L/l).  In the gain-free limit these reduce to the
Ohmic values t_bar = l/L, r_bar = 1 - l/L, v_bar = 0, handled here by a
dedicated branch so no 0/0 sine ratio is ever evaluated.

For an x-squeezed input (Var x = e^(-2r)) the averaged output variances
of the focused speckle spot are

    with shaping      Var x = 2 v_bar + 1 - t_bar (1 - e^(-2r))
    without shaping   Var x = Var p = 2 v_bar + 1 + t_bar (cosh 2r - 1)
    with shaping      Var p = 2 v_bar + 1 + t_bar (e^(+2r) - 1)

against the shot-noise level 1 and the coherent-input baseline 2 v_bar + 1.
Each is 2 v_bar + 1 + t_bar (V_in - 1) for the input variance V_in that
the transmission carries: e^(-2r), cosh 2r or e^(+2r).  Shaping the
wavefront (phase-conjugating the transmission channel phases) recovers
part of the input squeezing; its benefit is t_bar * sinh 2r.

Each formula is written once, in a private helper that takes numbers or
broadcast numpy arrays, and ``_forms`` evaluates all of them from the
weights and the factors of r alone (e^(-2r), cosh 2r, e^(2r), sinh 2r).
Those reach it in one of two ways:

* ``full_report`` and the other public functions: one medium and one
  state, by ``math``.  ``mean_coefficients`` keeps its branch at zero
  gain, since a single Monte Carlo draw calls it each time;
* ``_evaluate`` and its parts ``_coefficients`` and ``_factors``: whole
  broadcast arrays of (L/l, L/La, r), for the figure builders of
  ``datasets`` and every check of ``validation``.  The sine laws run
  on numpy ``sin``, whose float64 sine returns the bits of ``math.sin``,
  and the factors of r on ``math``, once per value of r, since numpy's
  ``exp``, ``cosh`` and ``sinh`` do not return the bits of ``math``'s.
  The values are those of ``full_report`` and ``wfs_gain`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import EnsembleCoefficients, InputState, MediumSpec, squeeze_exponent


def _weights(thickness, gain, sin):
    """(t_bar, r_bar, v_bar) of the sine laws, for gain > 0.

    Takes numbers with ``sin = math.sin`` or broadcast arrays with
    ``sin = np.sin``.  v_bar is computed as t_bar + r_bar - 1 so the flux
    identity holds to the last bit.
    """
    mfp_gain = gain / thickness
    denom = sin(gain)
    t_bar = sin(mfp_gain) / denom
    r_bar = sin(gain - mfp_gain) / denom
    return t_bar, r_bar, t_bar + r_bar - 1.0


def _ohmic_weights(thickness):
    """(t_bar, r_bar, v_bar) of a gain-free slab, over numbers or arrays."""
    t_bar = 1.0 / thickness
    return t_bar, 1.0 - t_bar, 0.0


def _coefficients(thickness, gain):
    """``mean_coefficients``' (t_bar, r_bar, v_bar) over broadcast arrays of in-bounds media.

    The sine laws run at gain 1 where the gain is 0, so that no 0/0 is
    evaluated, and the Ohmic weights are taken there instead.
    """
    ohmic = np.asarray(gain) == 0.0
    sine = _weights(thickness, np.where(ohmic, 1.0, gain), np.sin)
    return tuple(np.where(ohmic, o, s) for o, s in zip(_ohmic_weights(thickness), sine))


class _Factors(NamedTuple):
    """The factors of r alone that the closed forms carry, as numbers or arrays.

    The first three are the input variances V_in of ``_variance``.
    """

    x_variance: float  # e^(-2r), the input variance that x_wfs carries
    cosh: float  # cosh 2r, the one that the unshaped variances carry
    p_variance: float  # e^(2r), the one that p_wfs carries
    sinh: float  # sinh 2r, the shaping benefit per unit t_bar


# Each factor, in ``_Factors`` order, as a ``math`` function of the
# anti-squeezing exponent 2r; exp(-2r) is ``InputState.x_variance`` to the bit.
_OF_2R = (lambda two_r: math.exp(-two_r), math.cosh, math.exp, math.sinh)


def _state_factors(state: InputState) -> _Factors:
    """The factors of one input state."""
    two_r = state.anti_squeezing_exponent
    return _Factors(*(factor(two_r) for factor in _OF_2R))


def _factors(squeeze) -> _Factors:
    """The factors at each r of the array ``squeeze``, once per r, in its shape.

    Each r is checked against overflow as ``InputState`` checks it.
    """
    r = np.asarray(squeeze, dtype=float)
    two_r = [squeeze_exponent(x) for x in r.ravel().tolist()]
    return _Factors(*(np.array([factor(t) for t in two_r]).reshape(r.shape) for factor in _OF_2R))


class _Forms(NamedTuple):
    """Every closed form: ``full_report``'s variances and ``wfs_gain``, as numbers or arrays."""

    x_wfs: float
    x_nowfs: float
    p_wfs: float
    p_nowfs: float
    coherent_baseline: float
    wfs_gain: float


def _baseline(v_bar):
    """2 v_bar + 1, over numbers or arrays."""
    return 2.0 * v_bar + 1.0


def _variance(t_bar, v_bar, input_variance):
    """2 v_bar + 1 + t_bar (V_in - 1), over numbers or broadcast arrays.

    The averaged output variance when the transmitted light carries the
    input variance V_in and all other noise is at the vacuum level.
    """
    return _baseline(v_bar) + t_bar * (input_variance - 1.0)


def _forms(t_bar, v_bar, factors: _Factors) -> _Forms:
    """Every closed form of the weights and the factors of r, over numbers or broadcast arrays."""
    x_wfs, unshaped, p_wfs = (_variance(t_bar, v_bar, v_in) for v_in in factors[:3])
    return _Forms(x_wfs, unshaped, p_wfs, unshaped, _baseline(v_bar), t_bar * factors.sinh)


def _evaluate(thickness, gain, squeeze) -> _Forms:
    """Every closed form over broadcast arrays of in-bounds L/l, L/La and r.

    A value too large for a double is inf, as it is in ``full_report``.
    """
    t_bar, _, v_bar = _coefficients(thickness, gain)
    with np.errstate(over="ignore", invalid="ignore"):
        return _forms(t_bar, v_bar, _factors(squeeze))


def linear_coefficients(spec: MediumSpec) -> EnsembleCoefficients:
    """Gain-free (L/La = 0) weights: the Ohmic law t_bar = l/L."""
    return EnsembleCoefficients(*_ohmic_weights(spec.thickness_ratio))


def mean_coefficients(spec: MediumSpec) -> EnsembleCoefficients:
    """Disorder-averaged channel-summed weights of the slab.

    Dispatches to ``linear_coefficients`` at gain_ratio = 0; otherwise
    evaluates the sine laws.
    """
    if spec.gain_ratio == 0.0:
        return linear_coefficients(spec)
    return EnsembleCoefficients(*_weights(spec.thickness_ratio, spec.gain_ratio, math.sin))


def coherent_baseline(coef: EnsembleCoefficients) -> float:
    """Averaged output variance for a coherent-state input: 2 v_bar + 1.

    Any excess over the shot-noise level 1 is spontaneous emission.
    """
    return _baseline(coef.v_bar)


def variance_x_wfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged squeezed-quadrature variance with wavefront shaping.

    2 v_bar + 1 - t_bar (1 - e^(-2r)): the baseline minus the squeezing
    that survives transport through the slab.
    """
    return _variance(coef.t_bar, coef.v_bar, state.x_variance)


def variance_x_nowfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged squeezed-quadrature variance for an unshaped wavefront.

    Random transmission phases mix the two input quadratures, so the
    anti-squeezed noise leaks in: 2 v_bar + 1 + t_bar (cosh 2r - 1).
    """
    return _variance(coef.t_bar, coef.v_bar, _state_factors(state).cosh)


def variance_p_wfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged anti-squeezed-quadrature variance with wavefront shaping.

    Shaping aligns the full anti-squeezed noise into p:
    2 v_bar + 1 + t_bar (e^(+2r) - 1).
    """
    return _variance(coef.t_bar, coef.v_bar, state.p_variance)


def variance_p_nowfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged anti-squeezed-quadrature variance, unshaped wavefront.

    Identical to the unshaped x variance: random phases treat the two
    quadratures symmetrically.
    """
    return variance_x_nowfs(coef, state)


def wfs_gain(coef: EnsembleCoefficients, state: InputState) -> float:
    """Noise reduction bought by shaping: Var x (unshaped) - Var x (shaped).

    Equals t_bar * sinh 2r; grows with both transmission and squeezing.
    """
    return coef.t_bar * _state_factors(state).sinh


def rescaled_fluctuation(
    coef: EnsembleCoefficients, state: InputState, shaped: bool
) -> float:
    """Squeezed-quadrature variance over the coherent baseline.

    Values below 1 mean the squeezed input still beats a coherent one
    through the same slab; 1 exactly at r = 0.
    """
    var = variance_x_wfs(coef, state) if shaped else variance_x_nowfs(coef, state)
    return var / coherent_baseline(coef)


@dataclass(frozen=True)
class VarianceReport:
    """All averaged output variances of one (slab, input) combination."""

    x_wfs: float
    x_nowfs: float
    p_wfs: float
    p_nowfs: float
    coherent_baseline: float
    snl: float = 1.0


def full_report(spec: MediumSpec, state: InputState) -> VarianceReport:
    """Evaluate every averaged variance for one slab and input state."""
    coef = mean_coefficients(spec)
    return VarianceReport(*_forms(coef.t_bar, coef.v_bar, _state_factors(state))[:5])
