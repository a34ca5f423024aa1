"""Dataset builders behind the CLI dataset commands.

Each builder returns ``(header, rows)`` with plain Python values; the
CLI, which holds the figure presets, turns them into CSV.  The figure
builders take the points of ``sweep``, (L/l, L/La, r, x) over a panel's
axes with every other coordinate read from its same-named flag, and hold
only each point's series.  Grids are
built with ``grid`` below, which rounds linspace output to 12 decimals
so the emitted files show 0.15 rather than 0.15000000000000002 while
staying fully deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analytic import (
    full_report,
    mean_coefficients,
    rescaled_fluctuation,
    wfs_gain,
)
from .core import InputState, MediumSpec, ParameterError, validate_medium
from .snl import region_scan


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Inclusive deterministic grid with human-readable endpoints."""
    if steps < 1:
        raise ParameterError(f"steps must be >= 1 (got {steps})")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"grid endpoints must be finite (got {lo}, {hi})")
    if steps == 1:
        return [float(lo)]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.linspace(lo, hi, steps)
            # Rounding scales by 1e12, which overflows only far above the
            # magnitudes that have any fractional digits left to round.
            rounded = np.round(points, 12)
    except MemoryError:
        raise ParameterError(f"grid of {steps} steps is too large to allocate") from None
    if not np.all(np.isfinite(points)):
        raise ParameterError(f"grid from {lo} to {hi} overflows a double")
    return [float(x) for x in np.where(np.isfinite(rounded), rounded, points)]


def coeffs_rows(thickness: float, gain: float) -> tuple[list[str], list[list]]:
    spec = validate_medium(MediumSpec(thickness_ratio=thickness, gain_ratio=gain))
    coef = mean_coefficients(spec)
    header = ["L_over_l", "L_over_La", "T_bar", "R_bar", "V_bar", "constraint_residual"]
    rows = [[thickness, gain, coef.t_bar, coef.r_bar, coef.v_bar, coef.flux_residual()]]
    return header, rows


# A point of a figure sweep: (L/l, L/La, r, x).
Point = tuple[float, float, float, float]

# The flag that holds each point coordinate a sweep leaves unswept.
_FLAGS = {"L_over_l": "L_over_l", "L_over_La": "L_over_La", "r": "squeeze_r"}


def sweep(flags, *axes: tuple[str, Sequence[float]]) -> Iterator[Point]:
    """Points (L/l, L/La, r, x) over the product of ``axes``, the last fastest.

    Each axis is a (column, values) pair naming the CSV column it sweeps,
    and x is the value on the last axis.  Every coordinate no axis sweeps
    is read from the attribute of ``flags`` with the same name
    (``squeeze_r`` for r).
    """
    names = [name for name, _ in axes]
    grids = [grid for _, grid in axes]
    for column, flag in _FLAGS.items():
        if column not in names:
            names.append(column)
            grids.append([getattr(flags, flag)])
    point = operator.itemgetter(*(names.index(column) for column in _FLAGS), len(axes) - 1)
    return map(point, itertools.product(*grids))


def fig2_rows(panel: str, points: Iterable[Point]) -> tuple[list[str], list[list]]:
    """Shaping benefit at each point of a surface over (r, L/La) or (L/l, L/La)."""
    header = ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    rows = []
    state = None
    for thickness, g, r, _ in points:
        # A surface holds few distinct r: keep the input state while r repeats.
        if state is None or state.squeeze_r != r:
            state = InputState(squeeze_r=r)
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=g))
        rows.append([panel, thickness, g, r, wfs_gain(coef, state)])
    return header, rows


_FIG_HEADER = ["panel", "L_over_l", "L_over_La", "r", "x_name", "x_param", "quantity", "value"]


def fig3_rows(panel: str, x_name: str, points: Iterable[Point]) -> tuple[list[str], list[list]]:
    """Rescaled squeezed-quadrature fluctuation against the coherent baseline.

    ``x_name`` is the column the points' x sweeps; each point gives the
    shaped and unshaped ratio and the coherent level 1.
    """
    rows = []
    for thickness, g, r, x in points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=g))
        state = InputState(squeeze_r=r)
        for quantity, value in (
            ("ratio_wfs", rescaled_fluctuation(coef, state, shaped=True)),
            ("ratio_nowfs", rescaled_fluctuation(coef, state, shaped=False)),
            ("coherent", 1.0),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def fig4_rows(panel: str, x_name: str, points: Iterable[Point]) -> tuple[list[str], list[list]]:
    """Absolute averaged variances at each point, against x in column ``x_name``."""
    rows = []
    for thickness, g, r, x in points:
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


def figxr_rows(panel: str, x_name: str, points: Iterable[Point]) -> tuple[list[str], list[list]]:
    """Five-series comparison of the shaped and unshaped squeezed
    quadrature for an amplifying slab (each point's L/La) against its
    gain-free twin, plus the shot-noise level, against x in column
    ``x_name``."""
    rows = []
    for thickness, gain_amp, r, x in points:
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
