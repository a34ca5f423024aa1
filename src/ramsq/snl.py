"""Sub-shot-noise condition and region scan for the shaped output.

With wavefront shaping the averaged squeezed-quadrature variance drops
below the shot-noise level 1 exactly when

    margin = sin(l/La) (1 + e^(-2r)) + 2 sin((L-l)/La) - 2 sin(L/La) < 0

which is (Var x_wfs - 1) * sin(L/La), so the margin and the variance
excess share a sign everywhere below threshold.  With mu = l/La,
G = L/La and n = 1 + e^(-2r), the sum-to-product rules give

    margin = 2 sin(mu/2) (n cos(mu/2) - 2 cos(G - mu/2)),

and sin(mu/2) > 0 for 0 < mu < pi, so at fixed mu the margin is negative
for 0 < G < pi exactly below G_max(mu) = mu/2 + arccos((n/2) cos(mu/2)).

Along a row of fixed L/l = k > 1 the margin changes sign at most once.
Since n <= 2, sqrt(1 - (n/2)^2 cos^2(mu/2)) >= sin(mu/2), so

    G_max'(mu) = 1/2 + (n/4) sin(mu/2) / sqrt(1 - (n/2)^2 cos^2(mu/2)) <= (1 + n/2)/2 <= 1,

and h(G) = G - G_max(G/k) has h'(G) >= 1 - 1/k > 0.  The row is
sub-SNL exactly below the one root of h, which the region scanner bisects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, InputState, MediumSpec, ParameterError, _real, check_thickness

# Gain ratios inside (pi - GAIN_EXCLUSION, pi) are dropped from scans:
# sin(L/La) -> 0 there and every coefficient diverges on approach to
# the lasing threshold.
GAIN_EXCLUSION = 1e-6

# Bisection controls for the boundary search.
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200

# "Large squeezing" preset: e^(-2r) = 1e-8.
LARGE_SQUEEZING_R = 0.5 * math.log(1e8)


def _margin(thickness, gain, n):
    """The margin sin(l/La) n + 2 sin(L/La - l/La) - 2 sin(L/La) over broadcast arrays."""
    mfp_gain = gain / thickness
    return np.sin(mfp_gain) * n + 2.0 * np.sin(gain - mfp_gain) - 2.0 * np.sin(gain)


def snl_condition(spec: MediumSpec, state: InputState) -> float:
    """Margin of the shaped output below shot noise; negative is sub-SNL.

    Needs gain_ratio > 0: the gain-free margin is identically zero while
    the variance comparison is not, so the sign equivalence would break.
    """
    if spec.gain_ratio <= 0.0:
        raise ParameterError(
            f"snl_condition needs gain_ratio > 0 (got {spec.gain_ratio}); "
            "gain-free slabs sit below shot noise for any r > 0"
        )
    return float(_margin(spec.thickness_ratio, spec.gain_ratio, 1.0 + state.x_variance))


def threshold_closed_form(mfp_gain: float, state: InputState) -> float:
    """Largest sub-SNL gain ratio at fixed l/La = ``mfp_gain``, for 0 < l/La < pi.

    Returns G_max = l/La / 2 + arccos((n/2) cos(l/La / 2)) with
    n = 1 + e^(-2r); the margin is negative exactly below it.
    ``DomainError`` is raised outside 0 < l/La < pi and for an argument
    that is not a real number, a bool included.

    The arccos of x = (n/2) cos(mu/2) near 1 (n -> 2, mu -> 0) would
    cancel, so it is evaluated as 2 arcsin sqrt((1 - x)/2), where
    (1 - x)/2 = sin^2(mu/4) - expm1(-2r) cos(mu/2)/4 is a sum of two
    nonnegative terms.
    """
    _real("mfp_gain", mfp_gain, DomainError)
    if not 0.0 < mfp_gain < math.pi:
        raise DomainError(f"closed form needs 0 < l/La < pi (got {mfp_gain})")
    half = 0.5 * mfp_gain
    gap = math.sin(0.5 * half) ** 2 - math.expm1(-2.0 * state.squeeze_r) * math.cos(half) / 4.0
    return half + 2.0 * math.asin(math.sqrt(gap))


@dataclass(frozen=True)
class RegionScan:
    """Sub-SNL map over a (thickness, gain) grid.

    ``below_snl[i, j]`` says whether (thickness[i], gain[j]) beats shot
    noise with shaping; ``boundary[i]`` is the bisected gain ratio where
    the margin changes sign along row i, NaN when the row never does.
    """

    thickness: np.ndarray
    gain: np.ndarray
    below_snl: np.ndarray
    boundary: np.ndarray


def region_scan(
    thickness_values: np.ndarray,
    gain_values: np.ndarray,
    state: InputState,
) -> RegionScan:
    """Map the sub-SNL region and bisect its boundary on all rows at once.

    Scanned gain ratios must stay below pi - 1e-6.  The margin changes
    sign at most once along a row (see the module docstring), so every
    row bisects the bracket (1e-8, pi - 1e-6) until it is narrower than
    ``BISECT_TOL``; the margin is negative as gain -> 0+ for any r > 0,
    so rows whose margin is not negative at the bottom and positive at
    the top (e.g. r = 0) have no boundary and report NaN.
    """
    thickness = np.asarray(thickness_values, dtype=float)
    gain = np.asarray(gain_values, dtype=float)
    if not np.all((gain > 0.0) & (gain < math.pi - GAIN_EXCLUSION)):
        raise ParameterError(
            "scanned gain ratios must lie in (0, pi - 1e-6); the lasing "
            "threshold band is excluded"
        )
    for th in thickness:
        check_thickness(float(th))
    n = 1.0 + state.x_variance
    below = _margin(thickness[:, None], gain, n) < 0.0
    lo = np.full(thickness.size, 1e-8)
    hi = np.full(thickness.size, math.pi - GAIN_EXCLUSION)
    bracket = (_margin(thickness, lo, n) < 0.0) & (_margin(thickness, hi, n) > 0.0)
    for _ in range(BISECT_MAX_ITER):
        active = bracket & (hi - lo > BISECT_TOL)
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        negative = _margin(thickness, mid, n) < 0.0
        lo = np.where(active & negative, mid, lo)
        hi = np.where(active & ~negative, mid, hi)
    boundary = np.where(bracket, 0.5 * (lo + hi), math.nan)
    return RegionScan(thickness=thickness, gain=gain, below_snl=below, boundary=boundary)
