"""Sub-shot-noise condition and region scan for the shaped output.

With wavefront shaping the averaged squeezed-quadrature variance drops
below the shot-noise level 1 exactly when

    margin = sin(l/La) (1 + e^(-2r)) + 2 sin((L-l)/La) - 2 sin(L/La) < 0

which is (Var x_wfs - 1) * sin(L/La), so the margin and the variance
excess share a sign everywhere below threshold.  At fixed l/La the
boundary in the gain ratio has a closed form: with p = sin(l/La),
m = (1 - sqrt(1 - p^2)) / p and n = 1 + e^(-2r), the margin is negative
iff sin(L/La) lies between the roots

    M_pm = (m n -+ sqrt(4 m^2 - n^2 + 4)) / (2 (m^2 + 1))

of a quadratic with M_minus < 0 < M_plus <= 1, so the largest admissible
gain ratio is arcsin(M_plus).  The closed form needs l/La < pi/2 where
arcsin inverts the sine uniquely; the region scanner below instead finds
the boundary by bisection in the gain ratio at fixed L/l, which stays
valid on the whole sub-threshold range and never assumes which arcsine
branch applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, InputState, MediumSpec, ParameterError

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


@dataclass(frozen=True)
class SnlThreshold:
    """Closed-form boundary at fixed l/La.

    ``p = sin(l/La)``, ``m = (1 - sqrt(1 - p^2))/p``, ``n = 1 + e^(-2r)``;
    ``m_plus`` is the positive quadratic root and ``gain_max = arcsin(m_plus)``
    the largest gain ratio whose shaped output still beats shot noise.
    """

    m: float
    n: float
    p: float
    m_plus: float
    gain_max: float


def threshold_closed_form(mfp_gain: float, state: InputState) -> SnlThreshold:
    """Largest sub-SNL gain ratio at fixed l/La = ``mfp_gain``.

    Valid for 0 < l/La < pi/2; outside, arcsin no longer identifies the
    boundary uniquely and ``DomainError`` is raised.  The returned
    ``gain_max`` is the principal-branch solution: the sign change sits
    at arcsin(M_plus) only while cos(gain_max) = (n - 2 m M_plus)/2 is
    nonnegative.  For n < 2 m M_plus the crossing moves past pi/2 to
    pi - arcsin(M_plus); the region scanner bisects the margin directly
    and stays correct on both branches.
    """
    if not 0.0 < mfp_gain < 0.5 * math.pi:
        raise DomainError(
            f"closed form needs 0 < l/La < pi/2 (got {mfp_gain}); "
            "use the bisection scan outside this range"
        )
    p = math.sin(mfp_gain)
    m = (1.0 - math.sqrt(1.0 - p * p)) / p
    n = 1.0 + state.x_variance
    disc = 4.0 * m * m - n * n + 4.0
    m_plus = (m * n + math.sqrt(disc)) / (2.0 * (m * m + 1.0))
    # m_plus <= 1 analytically; guard the arcsine against the last ulp.
    gain_max = math.asin(min(m_plus, 1.0))
    return SnlThreshold(m=m, n=n, p=p, m_plus=m_plus, gain_max=gain_max)


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

    Scanned gain ratios must stay below pi - 1e-6; the margin is checked
    for a single sign change along each row (on a fixed fine mesh) and a
    ``RuntimeError`` names any row where that numerical assumption fails
    rather than silently keeping one root.  Every row bisects the bracket
    (1e-8, pi - 1e-6) until it is narrower than ``BISECT_TOL``; the
    margin is negative as gain -> 0+ for any r > 0, so rows whose margin
    is not negative at the bottom and positive at the top (e.g. r = 0)
    have no boundary and report NaN.
    """
    thickness = np.asarray(thickness_values, dtype=float)
    gain = np.asarray(gain_values, dtype=float)
    if not np.all((gain > 0.0) & (gain < math.pi - GAIN_EXCLUSION)):
        raise ParameterError(
            "scanned gain ratios must lie in (0, pi - 1e-6); the lasing "
            "threshold band is excluded"
        )
    # Building a spec refuses any row thinner than the diffusive bound.
    for th in thickness:
        MediumSpec(thickness_ratio=float(th), gain_ratio=0.0)
    n = 1.0 + state.x_variance
    below = _margin(thickness[:, None], gain, n) < 0.0
    probe = np.linspace(1e-4, math.pi - GAIN_EXCLUSION, 1024)
    for th in thickness:
        signs = _margin(th, probe, n) < 0.0
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        if flips > 1:
            raise RuntimeError(
                f"margin changes sign {flips} times along L/l = {th}; "
                "the single-boundary assumption does not hold here"
            )
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
