"""Dataset builders behind the CLI figure presets.

Each builder returns ``(header, rows)`` with plain Python values; the
CLI turns them into CSV.  Grids are built with ``grid`` below, which
rounds linspace output to 12 decimals so the emitted files show 0.15
rather than 0.15000000000000002 while staying fully deterministic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analytic import (
    coherent_baseline,
    full_report,
    mean_coefficients,
    rescaled_fluctuation,
    wfs_gain,
)
from .core import InputState, MediumSpec, ParameterError, validate_medium
from .snl import LARGE_SQUEEZING_R, region_scan


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Inclusive deterministic grid with human-readable endpoints."""
    if steps < 1:
        raise ParameterError(f"steps must be >= 1 (got {steps})")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"grid endpoints must be finite (got {lo}, {hi})")
    if steps == 1:
        return [float(lo)]
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.linspace(lo, hi, steps)
        # Rounding scales by 1e12, which overflows only far above the
        # magnitudes that have any fractional digits left to round.
        rounded = np.round(points, 12)
    if not np.all(np.isfinite(points)):
        raise ParameterError(f"grid from {lo} to {hi} overflows a double")
    return [float(x) for x in np.where(np.isfinite(rounded), rounded, points)]


def coeffs_rows(thickness: float, gain: float) -> tuple[list[str], list[list]]:
    spec = validate_medium(MediumSpec(thickness_ratio=thickness, gain_ratio=gain))
    coef = mean_coefficients(spec)
    header = ["L_over_l", "L_over_La", "T_bar", "R_bar", "V_bar", "constraint_residual"]
    rows = [[thickness, gain, coef.t_bar, coef.r_bar, coef.v_bar, coef.flux_residual()]]
    return header, rows


def fig2_rows(
    panel: str,
    thickness_fixed: float,
    squeeze_fixed: float,
    r_grid: Sequence[float],
    gain_grid: Sequence[float],
    thickness_grid: Sequence[float],
) -> tuple[list[str], list[list]]:
    """Shaping benefit surface: over (r, L/La) at fixed L/l for panel a,
    over (L/l, L/La) at fixed r for panel b."""
    header = ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    rows = []
    if panel == "a":
        for r in r_grid:
            state = InputState(squeeze_r=r)
            for g in gain_grid:
                coef = mean_coefficients(
                    MediumSpec(thickness_ratio=thickness_fixed, gain_ratio=g)
                )
                rows.append([panel, thickness_fixed, g, r, wfs_gain(coef, state)])
    else:
        state = InputState(squeeze_r=squeeze_fixed)
        for th in thickness_grid:
            for g in gain_grid:
                coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
                rows.append([panel, th, g, squeeze_fixed, wfs_gain(coef, state)])
    return header, rows


_FIG_HEADER = ["panel", "L_over_l", "L_over_La", "r", "x_name", "x_param", "quantity", "value"]


def fig3_rows(
    panel: str,
    fixed: float,
    curve_values: Sequence[float],
    x_grid: Sequence[float],
) -> tuple[list[str], list[list]]:
    """Rescaled squeezed-quadrature fluctuation against the coherent baseline.

    Panels a/b sweep r (a: fixed L/La with one curve per L/l; b: fixed
    L/l with one curve per L/La); panels c/d sweep L/La (c: fixed L/l
    with one curve per r; d: fixed r with one curve per L/l).
    """
    rows = []
    for curve in curve_values:
        for x in x_grid:
            if panel == "a":
                thickness, g, r = curve, fixed, x
            elif panel == "b":
                thickness, g, r = fixed, curve, x
            elif panel == "c":
                thickness, g, r = fixed, x, curve
            else:
                thickness, g, r = curve, x, fixed
            x_name = "r" if panel in ("a", "b") else "L_over_La"
            coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=g))
            state = InputState(squeeze_r=r)
            rows.append(
                [panel, thickness, g, r, x_name, x,
                 "ratio_wfs", rescaled_fluctuation(coef, state, shaped=True)]
            )
            rows.append(
                [panel, thickness, g, r, x_name, x,
                 "ratio_nowfs", rescaled_fluctuation(coef, state, shaped=False)]
            )
            rows.append([panel, thickness, g, r, x_name, x, "coherent", 1.0])
    return _FIG_HEADER, rows


def fig4_rows(
    panel: str,
    thickness: float,
    gain_fixed: float,
    squeeze_fixed: float,
    x_grid: Sequence[float],
) -> tuple[list[str], list[list]]:
    """Absolute averaged variances: vs r at fixed gain (panel a) or vs
    gain at fixed r (panel b), both at fixed L/l."""
    rows = []
    for x in x_grid:
        if panel == "a":
            g, r = gain_fixed, x
            x_name = "r"
        else:
            g, r = x, squeeze_fixed
            x_name = "L_over_La"
        rep = full_report(
            MediumSpec(thickness_ratio=thickness, gain_ratio=g), InputState(squeeze_r=r)
        )
        for quantity, value in (
            ("x_wfs", rep.x_wfs),
            ("x_nowfs", rep.x_nowfs),
            ("p_wfs", rep.p_wfs),
            ("p_nowfs", rep.p_nowfs),
            ("coherent", rep.coherent_baseline),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def figxr_rows(
    panel: str,
    thickness_fixed: float,
    gain_amp: float,
    squeeze_fixed: float,
    x_grid: Sequence[float],
) -> tuple[list[str], list[list]]:
    """Five-series comparison of the shaped and unshaped squeezed
    quadrature for an amplifying slab against its gain-free twin, plus
    the shot-noise level, vs r (panel a) or vs L/l (panel b)."""
    rows = []
    for x in x_grid:
        if panel == "a":
            thickness, r = thickness_fixed, x
            x_name = "r"
        else:
            thickness, r = x, squeeze_fixed
            x_name = "L_over_l"
        state = InputState(squeeze_r=r)
        amp = full_report(MediumSpec(thickness_ratio=thickness, gain_ratio=gain_amp), state)
        lin = full_report(MediumSpec(thickness_ratio=thickness, gain_ratio=0.0), state)
        for quantity, g, value in (
            ("amp_wfs", gain_amp, amp.x_wfs),
            ("amp_nowfs", gain_amp, amp.x_nowfs),
            ("lin_wfs", 0.0, lin.x_wfs),
            ("lin_nowfs", 0.0, lin.x_nowfs),
            ("snl", gain_amp, 1.0),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def snl_region_rows(
    thickness_grid: Sequence[float],
    gain_grid: Sequence[float],
    squeeze_r: float,
) -> tuple[list[str], list[list]]:
    """Sub-SNL map plus bisected boundary, long format.

    ``record = cell`` rows carry the boolean map; ``record = boundary``
    rows carry one bisected gain per thickness (empty when the row never
    dips below shot noise).
    """
    scan = region_scan(
        np.asarray(thickness_grid), np.asarray(gain_grid), InputState(squeeze_r=squeeze_r)
    )
    header = ["record", "L_over_l", "L_over_La", "below_snl", "gain_boundary"]
    rows: list[list] = []
    for i, th in enumerate(scan.thickness):
        for j, g in enumerate(scan.gain):
            rows.append(["cell", float(th), float(g), bool(scan.below_snl[i, j]), ""])
    for i, th in enumerate(scan.thickness):
        b = scan.boundary[i]
        rows.append(["boundary", float(th), "", "", "" if math.isnan(b) else float(b)])
    return header, rows


# Figure-dataset presets, overridable from the CLI.
FIG2_DEFAULTS = dict(
    thickness_fixed=6.0,
    squeeze_fixed=1.5,
    r_grid=(0.0, 2.0, 41),
    gain_grid=(0.0, 3.0, 31),
    thickness_grid=(2.0, 12.0, 41),
)
FIG3_DEFAULTS = {
    "a": dict(fixed=2.5, curves=(2.0, 5.0, 10.0, 20.0), x_grid=(0.0, 2.0, 41)),
    "b": dict(fixed=10.0, curves=(0.5, 1.0, 2.0, 2.5), x_grid=(0.0, 2.0, 41)),
    "c": dict(fixed=10.0, curves=(0.5, 1.0, 1.5, 2.0), x_grid=(0.0, 3.0, 31)),
    "d": dict(fixed=1.0, curves=(2.0, 5.0, 10.0, 20.0), x_grid=(0.0, 3.0, 31)),
}
FIG4_DEFAULTS = dict(
    thickness=10.0, gain_fixed=2.5, squeeze_fixed=0.7,
    r_grid=(0.0, 2.0, 41), gain_grid=(0.0, 3.0, 31),
)
FIGXR_DEFAULTS = dict(
    thickness_fixed=2.0, gain_amp=1.0, squeeze_fixed=1.0,
    r_grid=(0.0, 2.0, 41), thickness_grid=(2.0, 20.0, 37),
)
SNL_REGION_DEFAULTS = dict(
    squeeze_r=LARGE_SQUEEZING_R,
    thickness_grid=(1.2, 12.0, 55),
    gain_grid=(0.05, 3.1, 62),
)
