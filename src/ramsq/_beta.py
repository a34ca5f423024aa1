"""Beta(a, b) share tables, built from the package's own incomplete beta.

The exponential sampler splits each draw's channel total between
transmission and reflection by a Beta(a, b) share, the quantile of one
uniform u.  ``_share_table`` serves it from per-shape quintic Hermite
tables: below u = b/(a+b) the quantile in t = u**(1/a), above it
1 - I^-1(b, a, 1 - u) in t = (1 - u)**(1/b), coordinates in which the
quantile is smooth up to both ends.  The table's value is the share,
with no special function per draw.  The tables serve every shape with
min(a, b) >= 0.09 and a + b <= 12.5 (``_in_domain``).  A medium of N
channels has a + b = 2N, so a run of 1 to 6 channels reads every share
from a table unless a medium's a or b falls below 0.09: at zero gain
a = 2N l/L does past L/l = 22N, and b = 2N (1 - l/L) within 5% of
L/l = 1.  Other shapes keep scipy's ``betaincinv``, imported when the
first such shape is met.

Each tail's nodes carry the quantile and its first two derivatives in t,
solved from the regularized incomplete beta (DLMF 8.17.8)

    I_x(a, b) = x**a (1-x)**b / (a B(a, b)) F(a+b, 1; a+1; x),

whose hypergeometric series has positive terms only.  The prefactor is
taken as separate factors, x**a, exp(b log1p(-x)) and a B(a, b), never
as one exp of a difference of large logarithms (DiDonato & Morris, ACM
TOMS 18, 1992).  Per shape, and once for both tails:

- B(a, b) is exact to rounding: 2**-(a+b) (F_a/a + F_b/b), with both
  series at x = 1/2 summed in integers and the power in ``decimal``;
- c = lim x/t = (a B)**(1/a) is taken from that B in ``decimal``;
- on every eighth node, Halley steps on ln I in ln x from x = c t,
  capped where the series would need more terms than it keeps,
  converge to about 1e-12 in 2 to 4 passes;
- the quintic through those nodes gives every node's guess to within
  about 2e-10 relative, and one exact Newton step on I - p refines it.

The steps and the refinement sum the series alike, by Horner's rule on
the terms above one floor (``_series``).

Where a tail needs p > 1/2, 1 - I would cancel, so the step reads the
complement Q = 1 - I instead, summed from the top of the tail down: Q
at the tail's last node from the other tail's series in 1 - x (exact
there), plus a Gauss-Legendre integral of the density in s = x**a, in
which it is smooth, over [x, x_top].

All shapes given to ``_share_tables`` are built at once, one row per
tail, so the Python-level steps of the series are paid once per batch:
the 19 shapes of a 4-channel run build in about 17 ms, and one shape
alone in about 1.7 ms, against about 28 and 1.4 ms with scipy's betainc
and betaincinv (2 vCPUs, numpy 2.4.6; ``BENCH_28.json``,
``BENCH_29.json``).  Each row takes its own term counts and steps, and
every operation is elementwise, so a shape's table does not depend on
the batch it was built in.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from decimal import Decimal

# Quintic Hermite intervals per tail of a Beta share table.
_SHARE_INTERVALS = 1024
# The table whose quintic gives the full table's first guesses.
_SHARE_COARSE = _SHARE_INTERVALS // 8

# The tables' domain, decided by the shape alone so that a single draw
# and its bulk entry take the same path; other shapes keep betaincinv.
# Over a sweep of 129 shapes on its edges, at old trouble spots and on
# the 1-, 2-, 4- and 6-channel grids, at 2**-53, 1e-10, 1/4, 1/2, the
# split and its two neighbours, 1 - 2**-53, eight random uniforms and
# the 48 of 2e5 farthest from betaincinv, the shares stay within 35 ulp
# of 40-digit quantiles (a shape's worst has median 5.8), where
# betaincinv reads up to 86 (median 20; ``BENCH_34.json``).  The floor
# is on both shapes, as b mirrors a.  Below it one Newton step on I
# reads I's few ulp of rounding times about 1/a, the quantile's
# condition: up to 31 ulp at a = 0.09 and 34 at 0.1, 20 from a = 0.15
# up; and at a = 0.08 the guesses take a fifth pass.  The ceiling is the
# build's own measure: the coarse table misses the refined nodes by a
# gap that, over 8**6, predicts the interpolation error, at most 9.5 ulp
# where a + b = 12.5 and 32 at 16, 8 channels, measured 48 there.  A sum
# of 2 * channels lands on 12 only up to rounding, hence 12.5.
_SHARE_MIN = 0.09
_SHARE_MAX_SUM = 12.5

# Shapes whose share functions are kept.
_SHARE_CACHE_SIZE = 64

# Digits of the per-shape constants in ``decimal``, and bits of the
# fixed-point series at x = 1/2 behind B(a, b).
_DIGITS = 24
_HALF_BITS = 72

# Series terms kept: those above this floor (the series is at least 1).
_TERM_FLOOR = 2.0**-60
_MAX_TERMS = 512
# Nodes share a term count in blocks of this many.
_SERIES_BLOCK = 64

# A row's guesses are done on a step that moves ln x by less than this.
# A Halley step leaves about 0.7 step**3, so the guesses are then within
# about 1e-12 relative, inside the 2e-10 of the quintic through them.
_GUESS_TOLERANCE = 1e-4
# From the capped x = c t the steps took 2 to 4 passes over 405 shapes
# spread over the domain, 100 of them toward its floor; a row that takes
# this many has failed.
_GUESS_MAX_PASSES = 12

# Gauss-Legendre points of the complement integrals.
_GAUSS_POINTS = 24


class _Root(NamedTuple):
    """p -> p**(1/a) to about an ulp for p >= 2**-53.

    The exponent 1/a rounds to a double e, and p**e is p**(1/a) times
    p**(e - 1/a), off by |ln p| |e - 1/a| relative: 5e-15, some 20 to 45
    ulp, at p = 2**-53 and a = 0.4, which the share would inherit.  The
    root adds back t ln(p) (1/a - e).
    """

    exponent: float  # e
    residue: float  # 1/a - e

    @classmethod
    def of(cls, a: float) -> _Root:
        exponent = 1.0 / a
        # 1/a - e = (da de - na ne) / (na de) in integers, rounded once.
        na, da = a.as_integer_ratio()
        ne, de = exponent.as_integer_ratio()
        return cls(exponent, (da * de - na * ne) / (na * de))

    def __call__(self, p):
        t = np.power(p, self.exponent)
        return t + t * (self.residue * np.log(p))


class _ShareTail(NamedTuple):
    """Quintic Hermite table of one tail's quantile y(t), t = root(p).

    Called on an array of p or on one numpy scalar, it runs the same
    operations on each value, so the two agree bit for bit.
    """

    root: _Root
    scale: float  # intervals per unit of t
    # (6, intervals + 1): y = c0 + theta (c1 + ... + theta c5).  The last
    # column continues the table linearly past t_max, where rounding can
    # put t for the split, so that no index needs clamping.
    coef: np.ndarray

    def __call__(self, p):
        return _interpolate(self, self.root(p))


class _ShareTable(NamedTuple):
    split: float  # b / (a + b): u <= split reads the lower tail
    lower: _ShareTail  # x(t), t = u**(1/a)
    upper: _ShareTail  # 1 - x = I^-1(b, a, 1 - u) in t = (1 - u)**(1/b)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Beta(a, b) quantiles of ascending ``u``: ``betaincinv(a, b, u)`` to rounding.

        Each share depends on its own uniform and the shape only, so a
        batch of one equals its entry in any batch bit for bit.
        """
        if u.shape == (1,):
            # On one value the slices below cost several times more.
            v = u[0]
            if v > self.split:
                return np.array([1.0 - self.upper(1.0 - v)])
            return np.array([self.lower(v) if v > 0.0 else 0.0])
        # u = 0 keeps its exact 0, and the root never takes ln 0.
        zero, split = np.searchsorted(u, (0.0, self.split), side="right")
        share = np.zeros(u.shape)
        share[zero:split] = self.lower(u[zero:split])
        share[split:] = 1.0 - self.upper(1.0 - u[split:])
        return share


def _quintic(c, theta):
    """c[0] + theta (c[1] + ... + theta c[5]), in place on arrays."""
    y = c[5] * theta
    for k in (4, 3, 2, 1):
        y += c[k]
        y *= theta
    y += c[0]
    return y


def _interpolate(tail: _ShareTail, t: np.ndarray) -> np.ndarray:
    pos = t * tail.scale
    j = pos.astype(np.intp)
    return _quintic(tail.coef.take(j, axis=1), pos - j)


def _in_domain(a: float, b: float) -> bool:
    return min(a, b) >= _SHARE_MIN and a + b <= _SHARE_MAX_SUM


# -- per-shape constants, exact to rounding ------------------------------------

def _half_series(top: int, bottom: int, unit: int) -> int:
    """2**_HALF_BITS F(top/unit, 1; bottom/unit; 1/2), truncated term by term.

    The terms are positive and in the end fall by about half a term, so
    the sum is done when one rounds to zero; the truncations add up to far
    below the _DIGITS digits kept.
    """
    term = total = 1 << _HALF_BITS
    num, den = top, 2 * bottom
    while term:
        term = term * num // den
        total += term
        num += unit
        den += 2 * unit
    return total


@functools.cache
def _ln2() -> Decimal:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return Decimal(2).ln()


class _ShapeConstants(NamedTuple):
    beta: float  # B(a, b)
    c_lower: float  # (a B)**(1/a)
    c_upper: float  # (b B)**(1/b)


def _shape_constants(a: float, b: float) -> _ShapeConstants:
    """B(a, b) = 2**-(a+b) (F(a+b, 1; a+1; 1/2)/a + F(a+b, 1; b+1; 1/2)/b), and both c."""
    # Only a table build needs decimal, so importing the package does not.
    from decimal import Decimal, localcontext

    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    unit = max(da, db)  # a = na' / unit and b = nb' / unit, both exact
    na, nb = na * (unit // da), nb * (unit // db)
    lower = _half_series(na + nb, na + unit, unit)
    upper = _half_series(na + nb, nb + unit, unit)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        da, db = Decimal(a), Decimal(b)
        half_power = (-(da + db) * _ln2()).exp()
        beta = half_power * (Decimal(lower) / da + Decimal(upper) / db) / (1 << _HALF_BITS)
        c_lower = ((da * beta).ln() / da).exp()
        c_upper = ((db * beta).ln() / db).exp()
    return _ShapeConstants(float(beta), float(c_lower), float(c_upper))


# -- the batched build -------------------------------------------------------------

class _Rows(NamedTuple):
    """One row per tail: Beta(alpha, beta)'s lower tail up to p_max.

    Each of the first six is an (rows, 1) column, so it broadcasts over
    a row's nodes.  ``coef`` is (_MAX_TERMS, rows), the coefficients
    (alpha + beta)_n / (alpha + 1)_n of the series, and ``reach`` the x
    above which each term is kept (``_reach``).
    """

    alpha: np.ndarray
    beta: np.ndarray
    scale: np.ndarray  # B(alpha, beta)
    c: np.ndarray  # (alpha B)**(1/alpha)
    p_max: np.ndarray
    t_max: np.ndarray
    coef: np.ndarray
    reach: np.ndarray

    @classmethod
    def of(cls, shapes: Sequence[tuple[float, float]]) -> _Rows:
        """Rows 2i and 2i + 1: the lower and upper tail of shapes[i], which meet at b/(a+b)."""
        constants = [_shape_constants(a, b) for a, b in shapes]
        column = lambda values: np.array(values, dtype=float)[:, None]  # noqa: E731
        alpha = column([v for a, b in shapes for v in (a, b)])
        beta = column([v for a, b in shapes for v in (b, a)])
        split = [b / (a + b) for a, b in shapes]
        p_max = column([v for s in split for v in (s, 1.0 - s)])
        coef = _coefficients(alpha.T, beta.T)
        return cls(
            alpha=alpha,
            beta=beta,
            scale=column([k.beta for k in constants for _ in (0, 1)]),
            c=column([v for k in constants for v in (k.c_lower, k.c_upper)]),
            p_max=p_max,
            t_max=column([_Root.of(a)(p) for a, p in zip(alpha[:, 0].tolist(), p_max[:, 0])]),
            coef=coef,
            reach=_reach(coef),
        )


def _coefficients(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    n = np.arange(_MAX_TERMS - 1, dtype=float)[:, None]
    ratio = (alpha + beta + n) / (alpha + 1.0 + n)
    coef = np.ones((_MAX_TERMS, alpha.shape[1]))
    np.cumprod(ratio, axis=0, out=coef[1:])
    return coef


def _reach(coef: np.ndarray) -> np.ndarray:
    """(terms, rows): term n is kept at x > reach[n], where some term m >= n exceeds _TERM_FLOOR.

    Term m exceeds it above (_TERM_FLOOR / coef[m])**(1/m), so reach is
    the suffix minimum of those, nondecreasing in n: the terms an x
    needs are the first ``searchsorted(reach[:, r], x)``, and term 0
    always.
    """
    n = np.arange(1, _MAX_TERMS, dtype=float)[:, None]
    onset = np.exp((math.log(_TERM_FLOOR) - np.log(coef[1:])) / n)
    reach = np.empty_like(coef)
    reach[0] = -1.0
    reach[1:] = np.minimum.accumulate(onset[::-1], axis=0)[::-1]
    return reach


def _term_counts(reach: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x in blocks of _SERIES_BLOCK nodes, (rows, blocks, nodes), and the terms each block sums.

    x has fewer than _SERIES_BLOCK columns or a multiple of it.  A block
    sums the terms that its own largest x needs, so a node's value does
    not depend on the other rows.
    """
    rows, cols = x.shape
    cells = x.reshape(rows, -1, min(cols, _SERIES_BLOCK))
    top = cells.max(axis=2)
    counts = np.stack([np.searchsorted(reach[:, r], top[r]) for r in range(rows)])
    if counts.max() >= _MAX_TERMS:
        raise AssertionError("the share series needs more terms than it keeps")
    return cells, counts


def _series(coef: np.ndarray, reach: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F = sum_n coef[n] x**n of each row of x, by Horner's rule, blocks as ``_term_counts``.

    The blocks run longest first, so each term runs on a leading slice
    of them, one that changes only where a block's terms begin.
    """
    rows, cols = x.shape
    cells, counts = _term_counts(reach, x)
    counts = counts.ravel()
    order = np.argsort(-counts, kind="stable")
    counts = counts[order].tolist()
    cells = cells.reshape(len(counts), -1)[order]
    coef = coef[: counts[0], order // (len(counts) // rows), None]
    s = np.zeros_like(cells)
    # The first k blocks sum terms counts[k] to counts[k - 1] - 1.
    for k, (high, low) in enumerate(zip(counts, counts[1:] + [0]), start=1):
        if low < high:
            sk, xk, ck = s[:k], cells[:k], coef[:, :k]
            for term in range(high - 1, low - 1, -1):
                sk *= xk
                sk += ck[term]
    out = np.empty_like(s)
    out[order] = s
    return out.reshape(rows, cols)


def _lower_beta(rows: _Rows, x: np.ndarray, series: np.ndarray) -> np.ndarray:
    """I_x(alpha, beta), its prefactor as separate factors."""
    prefactor = np.power(x, rows.alpha) * np.exp(rows.beta * np.log1p(-x))
    return prefactor * series / (rows.alpha * rows.scale)


def _guesses(rows: _Rows, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Halley steps on ln I in ln x from x = c t, to _GUESS_TOLERANCE.

    Where a or b is small, c t overshoots the quantile as t nears the
    tail's top, past the x up to which the series keeps its terms, where
    the first pass would fail, so the start is capped there.  Elsewhere
    the start is c t unchanged: every table that built from c t alone is
    the same, bit for bit.

    With g = d ln I / d ln x = alpha / ((1 - x) F), the derivative of g
    is g (alpha - g + (1 - beta) x / (1 - x)), so a step costs no series
    beyond F's.  Every pass steps every row, but a row that is done steps
    by exactly 0, so its guesses do not depend on the batch.
    """
    alpha, beta = rows.alpha, rows.beta
    x = np.minimum(rows.c * t, rows.reach[-1][:, None])
    log_p = np.log(p)
    log_norm = np.log(alpha * rows.scale)
    done = np.zeros(x.shape[0], dtype=bool)
    for _ in range(_GUESS_MAX_PASSES):
        s = _series(rows.coef, rows.reach, x)
        log_i = alpha * np.log(x) + beta * np.log1p(-x) + np.log(s) - log_norm
        g = alpha / ((1.0 - x) * s)
        step = (log_p - log_i) / g
        step /= 1.0 + 0.5 * step * (alpha - g + (1.0 - beta) * x / (1.0 - x))
        step[done] = 0.0
        x *= np.exp(step)
        done |= np.abs(step).max(axis=1) < _GUESS_TOLERANCE
        if done.all():
            return x
    raise AssertionError("the share guesses did not converge")


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """_GAUSS_POINTS nodes and weights on [-1, 1].

    Three Newton steps on the Legendre recurrence from Tricomi's
    estimate of the roots, which is within about 1e-4 for 24 points.
    """
    n = _GAUSS_POINTS
    x = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(
        np.pi * (4 * np.arange(1, n + 1) - 1) / (4 * n + 2)
    )
    for step in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        if step < 3:
            x = x - p1 / slope
    weights = 1.0 / ((1.0 - x * x) * slope * slope)
    # Exact weights sum to 2; rounded ones to 2 less about 2 ulp, which
    # would bias every integral low by as much.
    return x, weights * (2.0 / math.fsum(weights))


def _density_integral(rows: _Rows, r: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """int_{x0}^{x1} x**(alpha-1) (1-x)**(beta-1) dx / B over row r's shape, in s = x**alpha.

    In s the integrand is (1 - s**(1/alpha))**(beta-1) / (alpha B),
    smooth over the whole interval.  All arguments are flat arrays; the
    points run down the first axis, so every operation runs along the
    nodes, and the weighted terms are summed in pairs, in the same order
    for every node.
    """
    nodes, weights = _gauss_legendre()
    alpha, beta = rows.alpha[r, 0], rows.beta[r, 0]
    s0, s1 = np.power(x0, alpha), np.power(x1, alpha)
    half = 0.5 * (s1 - s0)
    s = 0.5 * (s1 + s0) + half * nodes[:, None]
    g = np.power(1.0 - np.power(s, 1.0 / alpha), beta - 1.0)
    terms = weights[:, None] * g
    while len(terms) % 2 == 0:
        terms = terms[::2] + terms[1::2]
    return half * sum(terms[1:], terms[0]) / (alpha * rows.scale[r, 0])


def _complement(rows: _Rows, x: np.ndarray, upper: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Q = 1 - I_x(alpha, beta) where ``upper`` holds, flat in row-major order.

    ``below`` holds I at every node of the same pass.  Q is summed from
    the top of the tail down: at x_top = 1 - y, y the other tail's last
    node (the tails meet there), Q is that tail's I_y(beta, alpha), exact
    in 1 - x_top where y >= 1/2, and each node adds the integral of the
    density from it up to x_top.
    """
    r, k = np.nonzero(upper)
    other = r ^ 1  # rows 2i and 2i + 1 are one shape's two tails
    x_top = 1.0 - x[other, -1]
    return below[other, -1] + _density_integral(rows, r, x[r, k], x_top)


def _refine(rows: _Rows, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Newton step on I_x(alpha, beta) = p from x, all nodes at once.

    Nodes above p = 1/2 step on Q = 1 - I against 1 - p (exact there)
    instead, and skip the series.
    """
    upper = p > 0.5
    below = _lower_beta(rows, x, _series(rows.coef, rows.reach, np.where(upper, 0.0, x)))
    excess = below - p
    if upper.any():
        excess[upper] = (1.0 - p[upper]) - _complement(rows, x, upper, below)
    # 1 / density = B x**(1-alpha) (1-x)**(1-beta)
    inverse = rows.scale * np.power(x, 1.0 - rows.alpha) * np.power(1.0 - x, 1.0 - rows.beta)
    return x - excess * inverse


def _grid(rows: _Rows, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nodes t and their p = t**alpha, the last p exactly p_max."""
    t = rows.t_max * (np.arange(intervals + 1) / intervals)
    p = np.power(t, rows.alpha)
    p[:, -1] = rows.p_max[:, 0]
    return t, p


def _hermite(rows: _Rows, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(rows, 6, intervals + 1) quintic coefficients through x and its first two derivatives in t.

    With c = lim x / t = (a B(a, b))**(1/a) the slope is
    s = c (x / (c t))**(1-a) (1-x)**(1-b), and
    x'' = s ((a-1) (1/t - s/x) + (b-1) s / (1-x)), 2 (b-1) c**2 / (a+1) at t = 0.
    """
    a, b, c = rows.alpha, rows.beta, rows.c
    ratio = np.ones_like(t)
    ratio[:, 1:] = x[:, 1:] / (c * t[:, 1:])
    slope = c * np.power(ratio, 1.0 - a) * np.power(1.0 - x, 1.0 - b)
    curve = np.empty_like(t)
    s, xs, ts = slope[:, 1:], x[:, 1:], t[:, 1:]
    curve[:, 1:] = s * ((a - 1.0) * (1.0 / ts - s / xs) + (b - 1.0) * s / (1.0 - xs))
    curve[:, :1] = 2.0 * (b - 1.0) * c * c / (a + 1.0)
    h = rows.t_max / (t.shape[1] - 1)
    m, k = h * slope, (h * h) * curve
    y0, y1, m0, m1, k0, k1 = x[:, :-1], x[:, 1:], m[:, :-1], m[:, 1:], k[:, :-1], k[:, 1:]
    # The cubic, quartic and quintic terms match y, m and k at theta = 1.
    rise = y1 - y0 - m0 - 0.5 * k0
    bend = m1 - m0 - k0
    turn = k1 - k0
    coef = np.zeros((t.shape[0], 6, t.shape[1]))
    coef[:, 0, :-1] = y0
    coef[:, 1, :-1] = m0
    coef[:, 2, :-1] = 0.5 * k0
    coef[:, 3, :-1] = 10.0 * rise - 4.0 * bend + 0.5 * turn
    coef[:, 4, :-1] = -15.0 * rise + 7.0 * bend - turn
    coef[:, 5, :-1] = 6.0 * rise - 3.0 * bend + 0.5 * turn
    # The last column continues the table linearly past t_max.
    coef[:, 0, -1] = x[:, -1]
    coef[:, 1, -1] = m[:, -1]
    return coef


def _build_tables(shapes: Sequence[tuple[float, float]]) -> list[_ShareTable]:
    """The share tables of in-domain ``shapes``, all tails solved together."""
    rows = _Rows.of(shapes)
    t, p = _grid(rows, _SHARE_INTERVALS)
    # The coarse table's nodes are every eighth node, at their guesses.
    ratio = _SHARE_INTERVALS // _SHARE_COARSE
    tc, pc = t[:, ::ratio], p[:, ::ratio]
    x = np.zeros_like(tc)
    x[:, 1:] = _guesses(rows, pc[:, 1:], tc[:, 1:])
    coarse = _hermite(rows, tc, x)
    # Node k lies at theta = (k mod 8) / 8 of coarse interval k // 8.
    k = np.arange(1, _SHARE_INTERVALS + 1)
    guess = _quintic(coarse[:, :, k // ratio].swapaxes(0, 1), (k % ratio) / ratio)
    x = np.zeros_like(t)
    x[:, 1:] = _refine(rows, p[:, 1:], guess)
    fine = _hermite(rows, t, x)
    scale = _SHARE_INTERVALS / rows.t_max[:, 0]
    roots = [_Root.of(float(a)) for a in rows.alpha[:, 0]]
    tails = [_ShareTail(root, float(s), c) for root, s, c in zip(roots, scale, fine)]
    split = rows.p_max[::2, 0]
    return [_ShareTable(float(s), tails[2 * i], tails[2 * i + 1]) for i, s in enumerate(split)]


_ShareFunction = Callable[[np.ndarray], np.ndarray]

# Share functions by shape, oldest first, and the lock under which they
# are built and evicted.  A lookup that finds its shape takes no lock.
_tables: dict[tuple[float, float], _ShareFunction] = {}
_tables_lock = threading.Lock()


def _betaincinv_share(a: float, b: float) -> _ShareFunction:
    # Only shapes outside the tables' domain load scipy.
    from scipy.special import betaincinv

    return functools.partial(betaincinv, a, b)


def _share_tables(shapes: Sequence[tuple[float, float]]) -> list[_ShareFunction]:
    """Each Beta(a, b) shape's share function: its tables, or betaincinv outside their domain.

    The tables of all shapes not already kept are built in one batch.
    The last _SHARE_CACHE_SIZE shapes added are kept, evicted in the order
    they were added, not by use: a hit leaves a shape's place as it is,
    so that ``_share_table`` can read it without the lock.  A caller that
    cycles through more shapes than are kept rebuilds each, a hot one
    too, at about 1.7 ms a shape.
    """
    with _tables_lock:
        missing = [shape for shape in dict.fromkeys(shapes) if shape not in _tables]
        inside = [shape for shape in missing if _in_domain(*shape)]
        built = dict(zip(inside, _build_tables(inside))) if inside else {}
        for shape in missing:
            _tables[shape] = built[shape] if shape in built else _betaincinv_share(*shape)
        found = [_tables[shape] for shape in shapes]
        while len(_tables) > _SHARE_CACHE_SIZE:
            del _tables[next(iter(_tables))]
        return found


def _share_table(a: float, b: float) -> _ShareFunction:
    """Beta(a, b)'s share function: its tables, or betaincinv outside their domain."""
    share = _tables.get((a, b))
    return _share_tables([(a, b)])[0] if share is None else share
