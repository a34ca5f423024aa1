"""Dataset builders behind the CLI dataset commands.

Each builder returns ``(header, columns)``: one list of plain Python
values per header entry, all of one length, which the CLI, holding the
figure presets, renders as CSV a column at a time.  A figure builder
takes a ``Sweep``, the points (L/l, L/La, r, x) over a panel's axes with
every coordinate no axis sweeps read from its same-named flag, and
evaluates each series on the whole grid at once with
``analytic._evaluate``, which holds the array forms of the coefficients
and of the factors of r, and returns the values of the scalar closed
forms bit for bit.  Each axis value is checked once, and a bad one raises the
error that a loop over the points, checking each point as the scalar
closed forms do, would raise first.  Grids are built with
``grid`` below, which rounds linspace output to 12 decimals so the
emitted files show 0.15 rather than 0.15000000000000002 while staying
fully deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analytic import VarianceReport, _evaluate, mean_coefficients
from .core import (
    InputState,
    MediumSpec,
    ParameterError,
    check_gain,
    check_squeeze,
    check_thickness,
    squeeze_exponent,
)
from .snl import region_scan


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Inclusive deterministic grid with human-readable endpoints."""
    if steps < 1:
        raise ParameterError(f"steps must be >= 1 (got {steps})")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"grid endpoints must be finite (got {lo}, {hi})")
    if steps == 1:
        return [float(lo)]
    # linspace counts in doubles, exact only up to 2**53 points; numpy
    # runs out of memory far below that, and above it fails with
    # ValueError or IndexError instead of MemoryError.
    if steps > 2**53:
        raise ParameterError(f"grid of {steps} steps is too large to allocate")
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
    coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=gain))
    header = ["L_over_l", "L_over_La", "T_bar", "R_bar", "V_bar", "constraint_residual"]
    values = (thickness, gain, coef.t_bar, coef.r_bar, coef.v_bar, coef.flux_residual())
    return header, [[value] for value in values]


# The coordinates of a sweep point (L/l, L/La, r), by index, and the flag
# that holds each one a sweep leaves unswept.
_L, _G, _R = range(3)
_FLAGS = {"L_over_l": "L_over_l", "L_over_La": "L_over_La", "r": "squeeze_r"}


class Sweep(NamedTuple):
    """The points (L/l, L/La, r, x) over a product of axes, the last fastest.

    ``values[c]`` holds the values that coordinate c of (L/l, L/La, r)
    takes: the grid of the axis that sweeps it, or the value of its flag.
    ``axis[c]`` is that axis's place in ``shape``, None for a flag.  x is
    the coordinate on the last axis.
    """

    values: tuple[list[float], ...]
    axis: tuple[int | None, ...]
    shape: tuple[int, ...]

    def array(self, c: int) -> np.ndarray:
        """The values of coordinate c as an array that broadcasts over ``shape``."""
        shape = [1] * len(self.shape)
        if self.axis[c] is not None:
            shape[self.axis[c]] = -1
        return np.array(self.values[c], dtype=float).reshape(shape)

    def evaluate(self, gain: float | None = None) -> VarianceReport:
        """``analytic._evaluate`` at every point, or at every point moved to L/La ``gain``."""
        return _evaluate(self.array(_L), self.array(_G) if gain is None else gain, self.array(_R))

    def check(self, *checks: tuple[int, Callable]) -> None:
        """Raise the error a loop over the points would raise first.

        ``checks`` holds (coordinate, check) pairs in the order the loop
        runs them at each point.  Each check runs once per value of its
        coordinate.  The first point in sweep order with a failing value
        is all zeros when a flag or the first value of an axis fails, and
        otherwise the first failing value of the fastest failing axis; there
        the checks run in order and the first to fail raises.
        """
        first: dict[int | None, int] = {}
        for c in dict.fromkeys(c for c, _ in checks):
            own = [check for d, check in checks if d == c]
            for i, value in enumerate(self.values[c]):
                try:
                    for check in own:
                        check(value)
                except ParameterError:
                    first[self.axis[c]] = i
                    break
        if not first:
            return
        point = [0] * len(self.shape)
        if None not in first and 0 not in first.values():
            fastest = max(first)
            point[fastest] = first[fastest]
        for c, check in checks:
            axis = self.axis[c]
            check(self.values[c][0 if axis is None else point[axis]])


def sweep(flags, *axes: tuple[str, Sequence[float]]) -> Sweep:
    """The ``Sweep`` over the product of ``axes``, the last fastest.

    Each axis is a (column, values) pair naming the CSV column it sweeps.
    Every coordinate no axis sweeps is read from the attribute of
    ``flags`` with the same name (``squeeze_r`` for r).
    """
    names = [name for name, _ in axes]
    values, axis = [], []
    for column, flag in _FLAGS.items():
        k = names.index(column) if column in names else None
        values.append([getattr(flags, flag)] if k is None else list(axes[k][1]))
        axis.append(k)
    return Sweep(tuple(values), tuple(axis), tuple(len(grid) for _, grid in axes))


def _interleave(sweep: Sweep, arrays: Sequence) -> list[float]:
    """One row per point and array, the arrays fastest, as Python floats."""
    out = np.empty(sweep.shape + (len(arrays),))
    for k, a in enumerate(arrays):
        out[..., k] = a
    return out.ravel().tolist()


_FIG_HEADER = ["panel", "L_over_l", "L_over_La", "r", "x_name", "x_param", "quantity", "value"]


def _long(panel: str, x_name: str, sweep: Sweep, series: Sequence[tuple]) -> tuple[list[str], list[list]]:
    """Long-format columns: a row per point and series, the series fastest.

    ``series`` holds (quantity, L/La, value) triples whose L/La and value
    broadcast over the sweep.
    """
    quantities, gains, values = zip(*series)
    th, r = sweep.array(_L), sweep.array(_R)
    x = sweep.array(sweep.axis.index(len(sweep.shape) - 1))
    k, points = len(series), math.prod(sweep.shape)
    return _FIG_HEADER, [
        [panel] * (points * k),
        _interleave(sweep, [th] * k),
        _interleave(sweep, gains),
        _interleave(sweep, [r] * k),
        [x_name] * (points * k),
        _interleave(sweep, [x] * k),
        list(quantities) * points,
        _interleave(sweep, values),
    ]


# The scalar closed forms check a point's squeezing on building its state,
# its medium on building its spec and, where e^(2r) enters, 2r against
# overflow; each builder below lists the checks in the order its points
# ran them.
_STATE = (_R, check_squeeze)
_MEDIUM = ((_L, check_thickness), (_G, check_gain))
_GROWTH = (_R, squeeze_exponent)


def fig2_rows(panel: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Shaping benefit at each point of a surface over (r, L/La) or (L/l, L/La)."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    benefit = sweep.evaluate().wfs_gain
    header = ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    columns = [_interleave(sweep, [sweep.array(c)]) for c in (_L, _G, _R)]
    return header, [[panel] * math.prod(sweep.shape), *columns, _interleave(sweep, [benefit])]


def fig3_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Rescaled squeezed-quadrature fluctuation against the coherent baseline.

    ``x_name`` is the column the points' x sweeps; each point gives the
    shaped and unshaped ratio and the coherent level 1.
    """
    sweep.check(*_MEDIUM, _STATE, _GROWTH)
    g, forms = sweep.array(_G), sweep.evaluate()
    baseline = forms.coherent_baseline
    return _long(panel, x_name, sweep, [
        ("ratio_wfs", g, forms.x_wfs / baseline), ("ratio_nowfs", g, forms.x_nowfs / baseline),
        ("coherent", g, 1.0),
    ])


def fig4_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Absolute averaged variances at each point, against x in column ``x_name``."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    g, forms = sweep.array(_G), sweep.evaluate()
    return _long(panel, x_name, sweep, [
        ("x_wfs", g, forms.x_wfs), ("x_nowfs", g, forms.x_nowfs), ("p_wfs", g, forms.p_wfs),
        ("p_nowfs", g, forms.p_nowfs), ("coherent", g, forms.coherent_baseline),
    ])


def figxr_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Five-series comparison of the shaped and unshaped squeezed
    quadrature for an amplifying slab (each point's L/La) against its
    gain-free twin, plus the shot-noise level, against x in column
    ``x_name``."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    g, amp, lin = sweep.array(_G), sweep.evaluate(), sweep.evaluate(0.0)
    return _long(panel, x_name, sweep, [
        ("amp_wfs", g, amp.x_wfs), ("amp_nowfs", g, amp.x_nowfs),
        ("lin_wfs", 0.0, lin.x_wfs), ("lin_nowfs", 0.0, lin.x_nowfs), ("snl", g, 1.0),
    ])


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
    rows, cells = scan.thickness.size, scan.below_snl.size
    boundary = ["" if math.isnan(b) else b for b in scan.boundary.tolist()]
    return header, [
        ["cell"] * cells + ["boundary"] * rows,
        np.repeat(scan.thickness, scan.gain.size).tolist() + scan.thickness.tolist(),
        np.tile(scan.gain, rows).tolist() + [""] * rows,
        scan.below_snl.ravel().tolist() + [""] * rows,
        [""] * cells + boundary,
    ]
