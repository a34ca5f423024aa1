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
Shaping the wavefront (phase-conjugating the transmission channel phases)
recovers part of the input squeezing; its benefit is t_bar * sinh 2r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EnsembleCoefficients, InputState, MediumSpec


def linear_coefficients(spec: MediumSpec) -> EnsembleCoefficients:
    """Gain-free (L/La = 0) weights: the Ohmic law t_bar = l/L."""
    t_bar = 1.0 / spec.thickness_ratio
    return EnsembleCoefficients(t_bar=t_bar, r_bar=1.0 - t_bar, v_bar=0.0)


def mean_coefficients(spec: MediumSpec) -> EnsembleCoefficients:
    """Disorder-averaged channel-summed weights of the slab.

    Dispatches to ``linear_coefficients`` at gain_ratio = 0; otherwise
    evaluates the sine laws.  v_bar is computed as t_bar + r_bar - 1 so
    the flux identity holds to the last bit.
    """
    if spec.gain_ratio == 0.0:
        return linear_coefficients(spec)
    gain = spec.gain_ratio
    mfp_gain = gain / spec.thickness_ratio
    denom = math.sin(gain)
    t_bar = math.sin(mfp_gain) / denom
    r_bar = math.sin(gain - mfp_gain) / denom
    return EnsembleCoefficients(t_bar=t_bar, r_bar=r_bar, v_bar=t_bar + r_bar - 1.0)


def coherent_baseline(coef: EnsembleCoefficients) -> float:
    """Averaged output variance for a coherent-state input: 2 v_bar + 1.

    Any excess over the shot-noise level 1 is spontaneous emission.
    """
    return 2.0 * coef.v_bar + 1.0


def variance_x_wfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged squeezed-quadrature variance with wavefront shaping.

    2 v_bar + 1 - t_bar (1 - e^(-2r)): the baseline minus the squeezing
    that survives transport through the slab.
    """
    return coherent_baseline(coef) - coef.t_bar * (1.0 - state.x_variance)


def variance_x_nowfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged squeezed-quadrature variance for an unshaped wavefront.

    Random transmission phases mix the two input quadratures, so the
    anti-squeezed noise leaks in: 2 v_bar + 1 + t_bar (cosh 2r - 1).
    """
    growth = math.cosh(state.anti_squeezing_exponent)
    return coherent_baseline(coef) + coef.t_bar * (growth - 1.0)


def variance_p_wfs(coef: EnsembleCoefficients, state: InputState) -> float:
    """Averaged anti-squeezed-quadrature variance with wavefront shaping.

    Shaping aligns the full anti-squeezed noise into p:
    2 v_bar + 1 + t_bar (e^(+2r) - 1).
    """
    return coherent_baseline(coef) + coef.t_bar * (state.p_variance - 1.0)


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
    return coef.t_bar * math.sinh(state.anti_squeezing_exponent)


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
