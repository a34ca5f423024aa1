"""Dataset builders behind the CLI dataset commands.

Each builder returns ``(header, columns)``: one list of plain Python
values per header entry, all of one length, which the CLI, holding the
figure presets, renders as CSV a column at a time.  A figure builder
takes a ``Sweep``, the points (L/l, L/La, r, x) over a panel's axes with
every coordinate no axis sweeps read from its same-named flag, and
evaluates each series on the whole grid at once: the sine laws with
numpy ``sin`` over the broadcast (L/l, L/La) grid, and the factors of r
alone (e^(-2r), e^(2r), cosh 2r, sinh 2r) with ``math``, once per value
of r, since numpy's ``exp``, ``cosh`` and ``sinh`` do not return the
bits of ``math``'s.  The values are those of the scalar closed forms in
``analytic`` bit for bit.  Each axis value is checked once, and a bad
one raises the error that a loop over the points, checking each point
as the scalar closed forms do, would raise first.  Grids are built with
``grid`` below, which rounds linspace output to 12 decimals so the
emitted files show 0.15 rather than 0.15000000000000002 while staying
fully deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analytic import (
    _baseline,
    _ohmic_weights,
    _shaping_benefit,
    _variance,
    _weights,
    mean_coefficients,
)
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

    def array(self, c: int, values: Sequence[float] | None = None) -> np.ndarray:
        """``values`` (one per value of coordinate c, by default its own)
        as an array that broadcasts over ``shape``."""
        shape = [1] * len(self.shape)
        if self.axis[c] is not None:
            shape[self.axis[c]] = -1
        return np.array(self.values[c] if values is None else values, dtype=float).reshape(shape)

    def per_r(self, *factors: Callable[[InputState], float]) -> list[np.ndarray]:
        """Each of ``factors`` of the input state at each r, by ``math``, as broadcast arrays."""
        states = [InputState(squeeze_r=r) for r in self.values[_R]]
        return [self.array(_R, [factor(state) for state in states]) for factor in factors]

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


def _coefficients(thickness: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, ...]:
    """``mean_coefficients`` (t_bar, r_bar, v_bar) over broadcast arrays of in-bounds media.

    The sine laws run at gain 1 where the gain is 0, so that no 0/0 is
    evaluated, and the Ohmic weights are taken there instead.
    """
    ohmic = gain == 0.0
    sine = _weights(thickness, np.where(ohmic, 1.0, gain), np.sin)
    return tuple(np.where(ohmic, o, s) for o, s in zip(_ohmic_weights(thickness), sine))


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


def _cosh(state: InputState) -> float:
    """cosh 2r, the input variance an unshaped wavefront carries."""
    return math.cosh(state.anti_squeezing_exponent)


# The input variances V_in that ``full_report``'s x_wfs, x_nowfs and p_wfs
# carry through the transmission.
_INPUT_VARIANCES = (InputState.x_variance.fget, _cosh, InputState.p_variance.fget)


def _variances(t_bar, v_bar, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``full_report``'s x_wfs, x_nowfs and p_wfs over a sweep."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [_variance(t_bar, v_bar, v_in) for v_in in inputs]


def fig2_rows(panel: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Shaping benefit at each point of a surface over (r, L/La) or (L/l, L/La)."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    t_bar = _coefficients(sweep.array(_L), sweep.array(_G))[0]
    [sinh] = sweep.per_r(lambda state: math.sinh(state.anti_squeezing_exponent))
    with np.errstate(over="ignore", invalid="ignore"):
        benefit = _shaping_benefit(t_bar, sinh)
    header = ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    columns = [_interleave(sweep, [sweep.array(c)]) for c in (_L, _G, _R)]
    return header, [[panel] * math.prod(sweep.shape), *columns, _interleave(sweep, [benefit])]


def fig3_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Rescaled squeezed-quadrature fluctuation against the coherent baseline.

    ``x_name`` is the column the points' x sweeps; each point gives the
    shaped and unshaped ratio and the coherent level 1.
    """
    sweep.check(*_MEDIUM, _STATE, _GROWTH)
    g = sweep.array(_G)
    t_bar, _, v_bar = _coefficients(sweep.array(_L), g)
    x_wfs, x_nowfs, _ = _variances(t_bar, v_bar, sweep.per_r(*_INPUT_VARIANCES))
    baseline = _baseline(v_bar)
    return _long(panel, x_name, sweep, [
        ("ratio_wfs", g, x_wfs / baseline), ("ratio_nowfs", g, x_nowfs / baseline),
        ("coherent", g, 1.0),
    ])


def fig4_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Absolute averaged variances at each point, against x in column ``x_name``."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    g = sweep.array(_G)
    t_bar, _, v_bar = _coefficients(sweep.array(_L), g)
    x_wfs, x_nowfs, p_wfs = _variances(t_bar, v_bar, sweep.per_r(*_INPUT_VARIANCES))
    return _long(panel, x_name, sweep, [
        ("x_wfs", g, x_wfs), ("x_nowfs", g, x_nowfs), ("p_wfs", g, p_wfs),
        ("p_nowfs", g, x_nowfs), ("coherent", g, _baseline(v_bar)),
    ])


def figxr_rows(panel: str, x_name: str, sweep: Sweep) -> tuple[list[str], list[list]]:
    """Five-series comparison of the shaped and unshaped squeezed
    quadrature for an amplifying slab (each point's L/La) against its
    gain-free twin, plus the shot-noise level, against x in column
    ``x_name``."""
    sweep.check(_STATE, *_MEDIUM, _GROWTH)
    th, g = sweep.array(_L), sweep.array(_G)
    t_amp, _, v_amp = _coefficients(th, g)
    t_lin, _, v_lin = _ohmic_weights(th)
    inputs = sweep.per_r(*_INPUT_VARIANCES)
    amp, lin = _variances(t_amp, v_amp, inputs), _variances(t_lin, v_lin, inputs)
    return _long(panel, x_name, sweep, [
        ("amp_wfs", g, amp[0]), ("amp_nowfs", g, amp[1]),
        ("lin_wfs", 0.0, lin[0]), ("lin_nowfs", 0.0, lin[1]), ("snl", g, 1.0),
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
