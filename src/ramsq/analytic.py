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

Every closed form comes from ``_forms``, which takes the weights and
the factors of r alone (e^(-2r), cosh 2r, e^(2r), sinh 2r), as numbers
or broadcast numpy arrays, and returns one record, ``VarianceReport``:
the four variances, the baseline and the shaping benefit.  It is filled

* by ``full_report``: one medium and one state, by ``math``.  With
  ``mean_coefficients``, which keeps its branch at zero gain since a
  single Monte Carlo draw calls it each time, it is the scalar surface;
* by ``_evaluate`` and its parts ``_coefficients`` and ``_factors``:
  whole broadcast arrays of (L/l, L/La, r), for the figure builders of
  ``datasets`` and every check of ``validation``.  The sine laws run
  on numpy ``sin``, whose float64 sine returns the bits of ``math.sin``,
  and the factors of r on ``math``, once per value of r, since numpy's
  ``exp``, ``cosh`` and ``sinh`` do not return the bits of ``math``'s.
  The values are those of ``full_report`` bit for bit.
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

    The first three are the input variances V_in of ``_forms``.
    """

    x_variance: float  # e^(-2r), the input variance that x_wfs carries
    cosh: float  # cosh 2r, the one that the unshaped variances carry
    p_variance: float  # e^(2r), the one that p_wfs carries
    sinh: float  # sinh 2r, the shaping benefit per unit t_bar


# Each factor, in ``_Factors`` order, as a ``math`` function of the
# anti-squeezing exponent 2r; exp(-2r) is ``InputState.x_variance`` to the bit.
_OF_2R = (lambda two_r: math.exp(-two_r), math.cosh, math.exp, math.sinh)


def _factors(squeeze) -> _Factors:
    """The factors at each r of the array ``squeeze``, once per r, in its shape.

    Each r is checked against overflow as ``InputState`` checks it.
    """
    r = np.asarray(squeeze, dtype=float)
    two_r = [squeeze_exponent(x) for x in r.ravel().tolist()]
    return _Factors(*(np.array([factor(t) for t in two_r]).reshape(r.shape) for factor in _OF_2R))


@dataclass(frozen=True)
class VarianceReport:
    """Every closed form of one (slab, input) point, or of a broadcast grid of them.

    The four averaged output variances, the coherent-input baseline
    2 v_bar + 1 and the shaping benefit ``wfs_gain`` = x_nowfs - x_wfs =
    t_bar sinh 2r, against the shot-noise level 1.  ``full_report``
    fills it with numbers, ``_evaluate`` with broadcast arrays.
    """

    x_wfs: float
    x_nowfs: float
    p_wfs: float
    p_nowfs: float
    coherent_baseline: float
    wfs_gain: float


def _forms(t_bar, v_bar, factors: _Factors) -> VarianceReport:
    """Every closed form of the weights and the factors of r, over numbers or broadcast arrays.

    Each variance is 2 v_bar + 1 + t_bar (V_in - 1) for the input
    variance V_in that the transmission carries.
    """
    baseline = 2.0 * v_bar + 1.0
    x_wfs, unshaped, p_wfs = (baseline + t_bar * (v_in - 1.0) for v_in in factors[:3])
    return VarianceReport(x_wfs, unshaped, p_wfs, unshaped, baseline, t_bar * factors.sinh)


def _evaluate(thickness, gain, squeeze) -> VarianceReport:
    """Every closed form over broadcast arrays of in-bounds L/l, L/La and r.

    A value too large for a double is inf, as it is in ``full_report``.
    """
    t_bar, _, v_bar = _coefficients(thickness, gain)
    with np.errstate(over="ignore", invalid="ignore"):
        return _forms(t_bar, v_bar, _factors(squeeze))


def mean_coefficients(spec: MediumSpec) -> EnsembleCoefficients:
    """Disorder-averaged channel-summed weights of the slab.

    The Ohmic law t_bar = l/L at gain_ratio = 0; otherwise the sine laws.
    """
    if spec.gain_ratio == 0.0:
        return EnsembleCoefficients(*_ohmic_weights(spec.thickness_ratio))
    return EnsembleCoefficients(*_weights(spec.thickness_ratio, spec.gain_ratio, math.sin))


def full_report(spec: MediumSpec, state: InputState) -> VarianceReport:
    """Every closed form for one slab and input state.

    Raises ``ParameterError`` once r exceeds ``MAX_SQUEEZE_R``, where e^(2r)
    overflows a double.
    """
    coef = mean_coefficients(spec)
    two_r = state.anti_squeezing_exponent
    return _forms(coef.t_bar, coef.v_bar, _Factors(*(factor(two_r) for factor in _OF_2R)))
