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
broadcast numpy arrays: the public functions pass it one medium's
coefficients and one state's factors, and the dataset builders whole
grids of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EnsembleCoefficients, InputState, MediumSpec


def _weights(thickness, gain, sin):
    """(t_bar, r_bar, v_bar) of the sine laws, for gain > 0.

    Takes numbers with ``sin = math.sin`` or broadcast arrays with
    ``sin = np.sin``, whose float64 sine returns the bits of
    ``math.sin``.  v_bar is computed as t_bar + r_bar - 1 so the flux
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


def _baseline(v_bar):
    """2 v_bar + 1, over numbers or arrays."""
    return 2.0 * v_bar + 1.0


def _variance(t_bar, v_bar, input_variance):
    """2 v_bar + 1 + t_bar (V_in - 1), over numbers or broadcast arrays.

    The averaged output variance when the transmitted light carries the
    input variance V_in and all other noise is at the vacuum level.
    """
    return _baseline(v_bar) + t_bar * (input_variance - 1.0)


def _shaping_benefit(t_bar, sinh_2r):
    """t_bar sinh 2r, over numbers or broadcast arrays."""
    return t_bar * sinh_2r


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
    return _variance(coef.t_bar, coef.v_bar, math.cosh(state.anti_squeezing_exponent))


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
    return _shaping_benefit(coef.t_bar, math.sinh(state.anti_squeezing_exponent))


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
    return VarianceReport(
        x_wfs=variance_x_wfs(coef, state),
        x_nowfs=variance_x_nowfs(coef, state),
        p_wfs=variance_p_wfs(coef, state),
        p_nowfs=variance_p_nowfs(coef, state),
        coherent_baseline=coherent_baseline(coef),
    )
