"""Monte Carlo disorder oracle for the closed-form ensemble averages.

Each disorder realization carries per-channel transmitted and reflected
weights with uniform random phases, plus one aggregated spontaneous
weight, tied together by the flux constraint

    sum_i T_i + sum_j R_j - V = 1

which holds exactly for every realization, not just on average.  The
single-realization variance evaluators below average to the closed
forms in ``analytic`` over the phase (and magnitude) ensemble, giving an
independent numerical check of those formulas.

Determinism contract: realization ``k`` for seed ``s`` is produced from
a Philox counter-based stream with key ``s`` and counter ``k * 2**128``,
so (seed, draw index) -> realization is a pure function.  Draws can be
evaluated in any order or partition; estimates are merged in draw-index
order and are bit-identical across runs and worker counts.

Draw chunks
-----------
Row ``k`` of the uniforms holds the first ``columns`` doubles of
Philox4x64-10 (Salmon et al., SC'11) with key words
``(s mod 2**64, s >> 64)`` and counter words ``(j, 0, k, 0)`` for
``j = 1..ceil(columns / 4)``; each 64-bit output word ``u`` becomes the
double ``(u >> 11) * 2**-53``.  That is exactly the stream of numpy's
``Generator(Philox(key=s, counter=k * 2**128))``, which increments the
counter before each four-word block.  Bulk draws run the ten rounds in
numpy over a fixed, index-ordered chunk of ``_CHUNK_DOUBLES // columns``
rows at a time, with the 64x64 -> 128-bit products emulated in 32-bit
halves.  Each chunk is one task on a thread pool of at most one worker
per usable CPU (``_worker_count``): it draws its own uniforms, channel
splits, Beta shares and sums, so memory stays at a few chunks whatever
the draw count.  Each medium's share function is looked up once, on the
calling thread before the pool starts, and handed to every chunk, so
the chunks never touch the table cache.  A single draw keeps numpy's own
``Philox`` on the calling thread: on one row the few hundred small array
operations of the emulation cost about ten times more than numpy's
generator.

Reduction
---------
Every per-draw variance is linear in the transmission weights and in
cos^2 phi = (1 + cos 2phi)/2, so three channel sums carry it: sum T,
sum T cos 2phi (phases phi) and sum R + V.  ``_batch_values`` forms
them and ``quadrature_values`` holds the four variance formulas.  With
g = (v_p - v_x)/2 the unshaped x and p read
sum T v_x + (sum T -/+ sum T cos 2phi) g + sum R + V: g is exactly 0 at
r = 0, so mean-mode estimates there have exactly zero spread, and near
MAX_SQUEEZE_R the form is finite wherever the per-channel cos^2/sin^2
form is (halves (v_x +/- v_p)/2 would cancel two overflows into NaN).
A single draw is the same reducer over a batch of one, reduced once on
first use, so it equals its entry in the bulk values bit for bit.

A bulk estimate never holds its values: each chunk reduces each
medium's sums to moments (``_moments``), and the chunks merge in
chunk-index order (Chan, Golub & LeVeque 1983; Pebay, SAND2008-6212),
so the estimates are bit-identical for any worker count.

Magnitude modes
---------------
MEAN_MAGNITUDES freezes every magnitude at its ensemble mean and leaves
only the phases random; shaped-quadrature estimates then have zero
spread, a deliberately sharp test of the algebra.  Its magnitudes are
one row of constants, broadcast over the draws.

EXPONENTIAL_MAGNITUDES adds Rayleigh-speckle-like magnitude statistics
while keeping the constraint exact and the channel-sum means exactly
(t_bar, r_bar, v_bar).  Naively rescaling independent exponential draws
by the common factor that restores the constraint fails both demands:
the factor 1/(sum T + sum R - V) correlates with each magnitude and
biases the means by tens of percent, and its denominator can turn
negative wherever v_bar is sizable.  Instead the spontaneous weight is
drawn free, V ~ Exp(v_bar), the constraint then fixes the channel total
sum T + sum R = 1 + V, a Beta-distributed share with mean exactly
t_bar/(t_bar + r_bar) splits that total between transmission and
reflection, and normalized exponential draws (equivalently, iid
exponentials conditioned on their sum) spread each group total over its
channels.  When t_bar = r_bar this reproduces exactly the law of iid
exponential draws rescaled onto the constraint surface; for unequal
means it is the mean-exact generalization.

The normalized channel splits depend on the uniforms only, so each
chunk computes them once and each medium forms only V, the Beta share
and the two scalings.  The Beta share is the Beta(a, b) quantile of its
uniform u, which ``betaincinv`` computes by an iterative search that
cost nearly all of a bulk exponential run.  ``_share_table`` instead
gives, per shape, 1024 quintic Hermite intervals for each tail: below
u = b/(a+b) the quantile in t = u**(1/a), above it 1 - I^-1(b, a, 1 - u)
in t = (1 - u)**(1/b), coordinates in which the quantile is smooth up
to both ends.  The tails meet where the two are about equally well
conditioned.  The table's value is the share, with no special function
per draw: the nodes carry the quantile and its first two derivatives,
each node refined once by a Newton step when the table is built.  The
shares stay within 32 ulp of ``betaincinv`` on the standard grid's
shapes; shapes outside the measured domain keep ``betaincinv``.  Each
share depends only on its own uniform and the shape, so a single draw,
which runs the same operations on one numpy scalar, still equals its
bulk entry bit for bit.  Which uniform feeds which quantity is fixed
in one place, ``_layout``.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import betainc, betaincinv, betaln

from .analytic import mean_coefficients
from .core import EnsembleCoefficients, InputState, MediumSpec, ParameterError, _integer

# Each draw index owns a disjoint 2**128-wide counter block, far more
# stream than any realization consumes; the 256-bit counter holds 2**128.
_COUNTER_BLOCK = 1 << 128

# Philox keys are 128 bits wide.
_SEED_LIMIT = 1 << 128

# Philox4x64-10 round multipliers and Weyl key increments (Random123).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# A double takes the top 53 bits of a word.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_UNIT = 2.0**-53

# Uniforms in one chunk of bulk draws (1 MiB), the unit of parallel work
# and of memory.  A draw wider than this is refused: even a chunk of one
# such draw would break that bound.
_CHUNK_DOUBLES = 1 << 17

_CPU_MAX = "/sys/fs/cgroup/cpu.max"

# Beta concentration for the transmission/reflection split: the total
# shape matches the 2N unit-shape (exponential) channel draws it stands
# in for, and reduces to Beta(N, N) = the equal-means exponential law.
_SPLIT_SHAPE_PER_CHANNEL = 2


class SamplerMode(enum.Enum):
    MEAN_MAGNITUDES = "mean"
    EXPONENTIAL_MAGNITUDES = "exponential"


@dataclass(frozen=True)
class SamplerConfig:
    """Monte Carlo controls: magnitude mode, draw count and seed."""

    mode: SamplerMode = SamplerMode.MEAN_MAGNITUDES
    realizations: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        # Any other value would take the exponential branch of the sampler.
        if not isinstance(self.mode, SamplerMode):
            members = " or ".join(f"SamplerMode.{m.name}" for m in SamplerMode)
            raise ParameterError(f"mode must be {members} (got {self.mode!r})")
        _integer("realizations", self.realizations)
        _integer("seed", self.seed)
        if self.realizations < 1:
            raise ParameterError(f"realizations must be >= 1 (got {self.realizations})")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ParameterError(f"seed must lie in [0, 2**128) (got {self.seed})")


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One frozen disorder configuration of the slab.

    Arrays hold one entry per channel; the spontaneous contribution is
    aggregated into a single weight and phase.  All magnitudes are
    nonnegative and satisfy the flux constraint to float precision.
    The channel sums are reduced once, on first use: derive a changed
    realization with ``dataclasses.replace``, never by editing arrays.
    """

    trans_mags: np.ndarray
    trans_phases: np.ndarray
    refl_mags: np.ndarray
    refl_phases: np.ndarray
    spont_mag: float
    spont_phase: float

    def flux_residual(self) -> float:
        return float(np.sum(self.trans_mags) + np.sum(self.refl_mags) - self.spont_mag - 1.0)

    # Derived, not a field: dataclasses.replace builds a fresh instance,
    # so a copy with new phases or magnitudes never inherits stale sums.
    @functools.cached_property
    def _sums(self) -> _ChannelSums:
        cos2 = np.cos(2.0 * self.trans_phases)
        return _batch_values(self.trans_mags, self.refl_mags, self.spont_mag, cos2)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, standard error of the mean, and the draw count."""

    mean: float
    std_error: float
    realizations: int


class _Columns(NamedTuple):
    """Fixed per-draw uniform layout, indices into one draw's row of uniforms.

    Phases come first (transmission, reflection, spontaneous); the
    exponential mode appends its magnitude draws (V, the split share and
    the two groups' channel splits).  Built once per entry point.
    """

    channels: int
    trans_phase: slice
    refl_phase: slice
    spont_phase: int
    spont: int
    share: int
    trans_split: slice
    refl_split: slice


def _layout(channels: int) -> _Columns:
    n = channels
    return _Columns(
        channels=n,
        trans_phase=slice(0, n),
        refl_phase=slice(n, 2 * n),
        spont_phase=2 * n,
        spont=2 * n + 1,
        share=2 * n + 2,
        trans_split=slice(2 * n + 3, 3 * n + 3),
        refl_split=slice(3 * n + 3, 4 * n + 3),
    )


def _uniform_columns(mode: SamplerMode, cols: _Columns) -> int:
    # Mean mode draws the phases only.
    return cols.spont_phase + 1 if mode is SamplerMode.MEAN_MAGNITUDES else cols.refl_split.stop


def _mulhilo(multiplier: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products, built from 32-bit halves."""
    m_lo, m_hi = multiplier & _LOW32, multiplier >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    lo_hi = x_lo * m_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> _SHIFT32
    high = x_hi * m_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return x * multiplier, high


def _philox_rows(seed: int, columns: int, start: int, stop: int) -> np.ndarray:
    """Uniforms of draws [start, stop), all rows' Philox blocks at once."""
    key0, key1 = seed & _MASK64, seed >> 64
    blocks = -(-columns // 4)
    # Counter words (j, 0, k, 0) stay broadcast shapes until the rounds
    # mix them into full (rows, blocks) arrays.
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c2 = np.arange(start, stop, dtype=np.uint64)[:, None]
    c1 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ np.uint64(key1), lo0
        key0 = (key0 + _PHILOX_W0) & _MASK64
        key1 = (key1 + _PHILOX_W1) & _MASK64
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    words = words.reshape(stop - start, 4 * blocks)[:, :columns]
    return (words >> _DOUBLE_SHIFT) * _DOUBLE_UNIT


def _uniforms_for(config: SamplerConfig, cols: _Columns, draw_index: int) -> np.ndarray:
    # A fresh stream reproduces the bulk row for the same index, so a
    # single draw never pays for a chunk.
    columns = _uniform_columns(config.mode, cols)
    stream = np.random.Generator(
        np.random.Philox(key=config.seed, counter=draw_index * _COUNTER_BLOCK)
    )
    return stream.random(columns)


def _read_cpu_max() -> str | None:
    try:
        with open(_CPU_MAX) as f:
            return f.read()
    except OSError:
        return None


def _worker_count() -> int:
    """CPUs this process may use: its affinity mask, capped by a CPU quota.

    A cgroup v2 ``cpu.max`` of "quota period" caps the count at
    ceil(quota / period), so a container held to 2 CPUs of a 64-CPU host
    counts 2.  "max", an unreadable file and cgroup v1 leave the mask.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        quota, period = map(int, (_read_cpu_max() or "").split())
        return min(cpus, max(1, -(-quota // period)))
    except (ValueError, ZeroDivisionError):
        return cpus


def _channel_splits(
    mode: SamplerMode, cols: _Columns, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Normalized exponential splits of the transmission and reflection totals.

    Each row sums to 1 and does not depend on the medium; mean mode has
    no splits (None).
    """
    if mode is SamplerMode.MEAN_MAGNITUDES:
        return None
    trans_draws = -np.log1p(-uniforms[:, cols.trans_split])
    refl_draws = -np.log1p(-uniforms[:, cols.refl_split])
    return (
        trans_draws / trans_draws.sum(axis=1, keepdims=True),
        refl_draws / refl_draws.sum(axis=1, keepdims=True),
    )


# Quintic Hermite intervals per tail of a Beta share table.
_SHARE_INTERVALS = 1024

# The tables' domain, decided by the shape alone so that a single draw
# and its bulk entry take the same path; other shapes keep betaincinv.
# Over a sweep of 274 shapes inside it, the shares stay within 30 ulp of
# 40-digit quantiles, where betaincinv reads up to 46.  The nodes are
# only as good as betainc: with b near 2 and a near 1, or with an
# integer a and a + b near 12, the shares read 30 to 41 ulp off.  A sum
# of 2 * channels lands on 10 only up to rounding, hence 10.5.
_SHARE_MIN_A = 0.3
_SHARE_MIN_B = 2.5
_SHARE_MAX_SUM = 10.5


def _share_shape(coef: EnsembleCoefficients, channels: int) -> tuple[float, float]:
    """Beta shape (a, b) of the transmission share, mean t_bar / (t_bar + r_bar)."""
    trans_weight = coef.t_bar / (coef.t_bar + coef.r_bar)
    shape = _SPLIT_SHAPE_PER_CHANNEL * channels
    return shape * trans_weight, shape * (1.0 - trans_weight)


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


def _hermite_tail(root: _Root, t_max: float, y, slope, curve) -> _ShareTail:
    h = t_max / (len(y) - 1)
    m, k = h * slope, (h * h) * curve
    y0, y1, m0, m1, k0, k1 = y[:-1], y[1:], m[:-1], m[1:], k[:-1], k[1:]
    # The cubic, quartic and quintic terms match y, m and k at theta = 1.
    rise = y1 - y0 - m0 - 0.5 * k0
    bend = m1 - m0 - k0
    turn = k1 - k0
    coef = np.stack(
        (
            y0,
            m0,
            0.5 * k0,
            10.0 * rise - 4.0 * bend + 0.5 * turn,
            -15.0 * rise + 7.0 * bend - turn,
            6.0 * rise - 3.0 * bend + 0.5 * turn,
        )
    )
    last = np.array([[y[-1]], [m[-1]], [0.0], [0.0], [0.0], [0.0]])
    return _ShareTail(root, 1.0 / h, np.hstack((coef, last)))


def _refined_quantile(a: float, b: float, p: np.ndarray, x: np.ndarray, beta: float) -> np.ndarray:
    """Quantiles of Beta(a, b) at 0 < p < 1: one Newton step on ``betainc`` from ``x``.

    Above p = 1/2 the step reads the upper tail, I(b, a, 1 - x) against
    1 - p (exact there), which is better conditioned near 1.  ``x`` is
    overwritten.
    """
    upper = p > 0.5
    lower = ~upper
    rest = 1.0 - x[upper]
    x[upper] = 1.0 - rest
    excess = np.empty_like(x)  # F(x) - p
    excess[lower] = betainc(a, b, x[lower]) - p[lower]
    excess[upper] = (1.0 - p[upper]) - betainc(b, a, rest)
    return x - excess * (beta * x ** (1.0 - a) * (1.0 - x) ** (1.0 - b))


# A table of this many intervals or fewer takes its nodes' first guesses
# from betaincinv; a finer one from the table with an eighth of its
# intervals, within 2e-10 relative and built in half the time that
# betaincinv takes for every node.
_SHARE_COARSE = _SHARE_INTERVALS // 8


def _share_tail(a: float, b: float, p_max: float, intervals: int) -> _ShareTail:
    """Table of Beta(a, b)'s lower-tail quantiles on a uniform grid in t = p**(1/a), p <= p_max.

    Its nodes carry the quantiles x and their first two derivatives in t.
    With c = lim x / t = (a B(a, b))**(1/a) the slope is
    s = c (x / (c t))**(1-a) (1-x)**(1-b), and
    x'' = s ((a-1) (1/t - s/x) + (b-1) s / (1-x)), 2 (b-1) c**2 / (a+1) at t = 0.
    """
    beta = math.exp(betaln(a, b))
    root = _Root.of(a)
    t_max = root(p_max)
    t = t_max * np.arange(intervals + 1) / intervals
    p = t**a
    p[-1] = p_max
    if intervals > _SHARE_COARSE:
        guess = _interpolate(_share_tail(a, b, p_max, intervals // 8), t[1:])
    else:
        guess = betaincinv(a, b, p[1:])
    x = np.zeros_like(t)
    x[1:] = _refined_quantile(a, b, p[1:], guess, beta)
    # Near t = 2**-64, x / t is c to rounding; a power of two keeps p exact.
    tiny = np.array([2.0 ** -math.ceil(64.0 * a)])
    c = float(_refined_quantile(a, b, tiny, betaincinv(a, b, tiny), beta)[0] / root(tiny[0]))
    ratio = np.ones_like(t)
    ratio[1:] = x[1:] / (c * t[1:])
    slope = c * ratio ** (1.0 - a) * (1.0 - x) ** (1.0 - b)
    curve = np.empty_like(t)
    s, xs, ts = slope[1:], x[1:], t[1:]
    curve[1:] = s * ((a - 1.0) * (1.0 / ts - s / xs) + (b - 1.0) * s / (1.0 - xs))
    curve[0] = 2.0 * (b - 1.0) * c * c / (a + 1.0)
    return _hermite_tail(root, t_max, x, slope, curve)


class _ShareTable(NamedTuple):
    split: float  # b / (a + b): u <= split reads the lower tail
    lower: _ShareTail  # x(t), t = u**(1/a)
    upper: _ShareTail  # 1 - x = I^-1(b, a, 1 - u) in t = (1 - u)**(1/b)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Beta(a, b) quantiles of ``u``: ``betaincinv(a, b, u)`` to rounding.

        Each share depends on its own uniform and the shape only, so a
        batch of one equals its entry in any batch bit for bit.
        """
        if u.shape == (1,):
            # On one value the masks and gathers below cost several times more.
            v = u[0]
            if v > self.split:
                return np.array([1.0 - self.upper(1.0 - v)])
            return np.array([self.lower(v) if v > 0.0 else 0.0])
        # The masks and gathers cost twice as much on a strided column.
        u = np.ascontiguousarray(u)
        # u = 0 keeps its exact 0, and the root never takes ln 0.
        share = np.zeros(u.shape)
        upper = u > self.split
        lower = (u > 0.0) ^ upper
        share[lower] = self.lower(u[lower])
        share[upper] = 1.0 - self.upper(1.0 - u[upper])
        return share


@functools.lru_cache(maxsize=64)
def _share_table(a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Beta(a, b)'s share function: its tables, or betaincinv outside their domain."""
    if not (a >= _SHARE_MIN_A and b >= _SHARE_MIN_B and a + b <= _SHARE_MAX_SUM):
        return functools.partial(betaincinv, a, b)
    split = b / (a + b)
    lower = _share_tail(a, b, split, _SHARE_INTERVALS)
    upper = _share_tail(b, a, 1.0 - split, _SHARE_INTERVALS)
    return _ShareTable(split, lower, upper)


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


def _medium_share(
    coef: EnsembleCoefficients, cols: _Columns, mode: SamplerMode
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The share function of one medium's Beta shape; None in mean mode."""
    if mode is SamplerMode.MEAN_MAGNITUDES:
        return None
    return _share_table(*_share_shape(coef, cols.channels))


def _magnitudes(
    coef: EnsembleCoefficients,
    cols: _Columns,
    mode: SamplerMode,
    uniforms: np.ndarray,
    splits: tuple[np.ndarray, np.ndarray] | None,
    share: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude arrays (T, R, V) for a (draws, columns) uniform block.

    ``splits`` are the block's ``_channel_splits`` and ``share`` is the
    medium's ``_medium_share``.  Mean mode returns one row of constants,
    (1, channels) and (1,), whatever the draws.
    """
    n = cols.channels
    if mode is SamplerMode.MEAN_MAGNITUDES:
        refl = np.full((1, n), coef.r_bar / n)
        return np.full((1, n), coef.t_bar / n), refl, np.full(1, coef.v_bar)

    draws = uniforms.shape[0]
    if coef.v_bar > 0.0:
        spont = -coef.v_bar * np.log1p(-uniforms[:, cols.spont])
    else:
        spont = np.zeros(draws)
    total = 1.0 + spont

    trans_share = share(uniforms[:, cols.share])

    trans_split, refl_split = splits
    trans = (total * trans_share)[:, None] * trans_split
    refl = (total * (1.0 - trans_share))[:, None] * refl_split
    return trans, refl, spont


def _phases(cols: _Columns, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    two_pi = 2.0 * math.pi
    columns = (cols.trans_phase, cols.refl_phase, cols.spont_phase)
    return tuple(two_pi * uniforms[:, c] for c in columns)


class _ChannelSums(NamedTuple):
    trans: np.ndarray  # sum T
    trans_cos2: np.ndarray  # sum T cos 2phi
    rest: np.ndarray  # sum R + V


# Channel sums over the last axis.  This is the reduction np.sum runs,
# without the wrapper that costs more than the sum on one draw's channels.
_channel_sum = np.add.reduce


def _batch_values(
    trans: np.ndarray,
    refl: np.ndarray,
    spont: np.ndarray,
    cos2: np.ndarray,
) -> _ChannelSums:
    """Reduce (draws, channels) arrays once to the three per-draw channel sums.

    A single row of magnitudes (mean mode) gives one-entry T and R + V sums.
    """
    return _ChannelSums(
        trans=_channel_sum(trans, axis=-1),
        trans_cos2=_channel_sum(trans * cos2, axis=-1),
        # Reflection and spontaneous vacuum noise is phase-isotropic, so
        # it enters every variance with unit weight.
        rest=_channel_sum(refl, axis=-1) + spont,
    )


def sample_realization(
    spec: MediumSpec, config: SamplerConfig, draw_index: int
) -> DisorderRealization:
    """Disorder realization ``draw_index``; pure in (seed, index)."""
    draw_index = _integer("draw_index", draw_index)
    if not 0 <= draw_index < _COUNTER_BLOCK:
        raise ParameterError(f"draw_index must lie in [0, 2**128) (got {draw_index})")
    coef = mean_coefficients(spec)
    cols = _layout(spec.channels)
    block = _uniforms_for(config, cols, draw_index)[None, :]
    splits = _channel_splits(config.mode, cols, block)
    share = _medium_share(coef, cols, config.mode)
    trans, refl, spont = _magnitudes(coef, cols, config.mode, block, splits, share)
    trans_ph, refl_ph, spont_ph = _phases(cols, block)
    return DisorderRealization(
        trans_mags=trans[0],
        trans_phases=trans_ph[0],
        refl_mags=refl[0],
        refl_phases=refl_ph[0],
        spont_mag=float(spont[0]),
        spont_phase=float(spont_ph[0]),
    )


def variance_x_wfs_single(real: DisorderRealization, state: InputState) -> float:
    """Shaped squeezed-quadrature variance of one realization.

    Shaping cancels the transmission phases, so only magnitudes enter:
    sum T e^(-2r) + sum R + V.  Reflection and spontaneous phases drop
    out exactly (their vacuum variances are phase-isotropic).
    """
    return float(quadrature_values(real._sums, state, "x_wfs"))


def variance_x_nowfs_single(real: DisorderRealization, state: InputState) -> float:
    """Unshaped squeezed-quadrature variance of one realization.

    The random transmission phase of each channel rotates its input
    quadratures: sum T (cos^2 phi e^(-2r) + sin^2 phi e^(+2r)) + sum R + V.
    """
    return float(quadrature_values(real._sums, state, "x_nowfs"))


def variance_p_single(real: DisorderRealization, state: InputState, shaped: bool) -> float:
    """Anti-squeezed-quadrature variance of one realization.

    Mirror of the x evaluators with e^(-2r) and e^(+2r) exchanged in the
    transmission term.
    """
    return float(quadrature_values(real._sums, state, "p_wfs" if shaped else "p_nowfs"))


def mean_amplitude_check(real: DisorderRealization, state: InputState) -> tuple[float, float]:
    """Shaped output quadrature means (x, p) of one realization.

    With the displacement applied after squeezing, the input means are
    <x> = 2 Re(alpha) and <p> = 2 Im(alpha); shaping adds the channel
    amplitudes coherently, so each mean is scaled by sum sqrt(T).
    """
    amp_sum = float(np.sum(np.sqrt(real.trans_mags)))
    return (
        amp_sum * 2.0 * state.amplitude.real,
        amp_sum * 2.0 * state.amplitude.imag,
    )


_QUANTITIES = ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs")


def _check_quantity(quantity: str) -> None:
    if quantity not in _QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")


def _over_chunks(specs: list[MediumSpec], config: SamplerConfig, reduce) -> list[list]:
    """``reduce`` of each medium's channel sums, one chunk of draws at a time.

    The outer list runs over the chunks in draw-index order, the inner
    over ``specs``, which share one channel count and each chunk's
    uniforms.  Raises ``ParameterError`` before any draw when ``specs``
    is empty or mixes channel counts, or when one draw's uniforms exceed
    ``_CHUNK_DOUBLES``.
    """
    counts = sorted({spec.channels for spec in specs})
    if len(counts) != 1:
        raise ParameterError(
            f"need one or more media sharing one channel count (got channel counts {counts})"
        )
    cols = _layout(counts[0])
    columns = _uniform_columns(config.mode, cols)
    if columns > _CHUNK_DOUBLES:
        raise ParameterError(
            f"one draw's {columns} uniforms exceed the {_CHUNK_DOUBLES} doubles of a chunk"
        )
    rows = _CHUNK_DOUBLES // columns
    coefs = [mean_coefficients(spec) for spec in specs]
    # Each medium's share is resolved here, once: the chunks never touch
    # the cache, so pool threads neither race to fill it nor rebuild
    # evicted tables.
    shares = [_medium_share(coef, cols, config.mode) for coef in coefs]
    seed, count = operator.index(config.seed), config.realizations

    def chunk(start: int) -> list:
        uniforms = _philox_rows(seed, columns, start, min(start + rows, count))
        cos2 = np.cos(2.0 * _phases(cols, uniforms)[0])
        splits = _channel_splits(config.mode, cols, uniforms)
        out = []
        for coef, share in zip(coefs, shares):
            magnitudes = _magnitudes(coef, cols, config.mode, uniforms, splits, share)
            sums = _batch_values(*magnitudes, cos2)
            # Read-only views repeat mean mode's one-entry sums over the draws.
            out.append(reduce(_ChannelSums(*(np.broadcast_to(s, cos2.shape[:1]) for s in sums))))
        return out

    starts = range(0, count, rows)
    workers = min(_worker_count(), len(starts))
    if workers < 2:
        return [chunk(start) for start in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk, starts))


class _Moments(NamedTuple):
    """Draw count, mean vector and co-moment matrix in ``moment_estimate``'s basis."""

    count: int
    mean: np.ndarray
    comoment: np.ndarray


def _moments(sums: _ChannelSums) -> _Moments:
    """Moments of one chunk, two-pass about its first row.

    The shift keeps a constant column exact: its mean is that row and its
    co-moments are exactly zero, where the mean of the raw column rounds.
    """
    basis = np.stack((sums.trans, sums.trans_cos2, sums.trans + sums.rest))
    count = basis.shape[1]
    shifted = basis - basis[:, :1]
    offset = np.add.reduce(shifted, axis=1) / count
    centered = shifted - offset[:, None]
    comoment = np.add.reduce(centered[:, None, :] * centered[None, :, :], axis=-1)
    return _Moments(count, basis[:, 0] + offset, comoment)


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Moments of draws ``a`` followed by draws ``b`` (Chan, Golub & LeVeque 1983)."""
    count = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / count)
    outer = np.multiply.outer(delta, delta) * (a.count * b.count / count)
    return _Moments(count, mean, a.comoment + b.comoment + outer)


def medium_moments(specs: list[MediumSpec], config: SamplerConfig) -> list[_Moments]:
    """Moments of each medium over draws [0, realizations), merged in chunk order.

    The merge order depends on the chunk indices only, so the moments are
    bit-identical for any worker count.
    """
    chunks = _over_chunks(specs, config, _moments)
    return [functools.reduce(_merge, medium) for medium in zip(*chunks)]


# Channel sums of three unit draws in the moment basis: a variance's
# values there are its coefficients on (sum T, sum T cos 2phi, total).
_BASIS = _ChannelSums(
    trans=np.array([1.0, 0.0, 0.0]),
    trans_cos2=np.array([0.0, 1.0, 0.0]),
    rest=np.array([-1.0, 0.0, 1.0]),
)


def moment_estimate(
    moments: _Moments, states: Sequence[InputState], quantities: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of output variances from one medium's moments.

    Both arrays have axes (state, quantity).  A variance is c . z in the
    basis z = (sum T, sum T cos 2phi, sum T + sum R + V): mean c . m,
    spread c^T M c, its nine products summed in row-major order.  With no
    gain the total is 1 to rounding, so at r = 0 the spread stays at
    rounding level; a sum R + V axis would make it the difference of two
    large co-moments.
    """
    count = moments.count
    if count < 2:
        raise ParameterError(f"need >= 2 realizations for a standard error (got {count})")
    c = np.array([[quadrature_values(_BASIS, state, q) for q in quantities] for state in states])
    means = np.add.reduce(c * moments.mean, axis=-1)
    products = c[..., :, None] * c[..., None, :] * moments.comoment
    spread = np.add.reduce(products.reshape(c.shape[:-1] + (9,)), axis=-1)
    return means, np.sqrt(np.maximum(spread, 0.0) / (count - 1) / count)


def quadrature_values(sums: _ChannelSums, state: InputState, quantity: str) -> np.ndarray:
    """Per-draw values of one output variance from a medium's channel sums."""
    # Shaped x must read only e^(-2r), so that it works past MAX_SQUEEZE_R.
    if quantity == "x_wfs":
        return sums.trans * state.x_variance + sums.rest
    if quantity == "p_wfs":
        return sums.trans * state.p_variance + sums.rest
    _check_quantity(quantity)
    # Unshaped x is sum T v_x + 2 sum T sin^2 g; p has cos^2 for sin^2.
    g = (state.p_variance - state.x_variance) / 2.0
    cos2 = -sums.trans_cos2 if quantity == "x_nowfs" else sums.trans_cos2
    return sums.trans * state.x_variance + (sums.trans + cos2) * g + sums.rest


def realization_values(
    spec: MediumSpec, state: InputState, config: SamplerConfig, quantity: str
) -> np.ndarray:
    """Index-ordered per-realization values for draws [0, realizations).

    This holds every draw's sums at once; ``mc_average`` needs only each
    chunk's moments.
    """
    _check_quantity(quantity)
    chunks = _over_chunks([spec], config, lambda sums: sums)
    sums = _ChannelSums(*(np.concatenate(field) for field in zip(*(c[0] for c in chunks))))
    return quadrature_values(sums, state, quantity)


def mc_average(
    spec: MediumSpec, state: InputState, config: SamplerConfig, quantity: str
) -> McEstimate:
    """Monte Carlo estimate of one averaged output variance.

    It is ``moment_estimate`` of the same chunk moments that
    ``validation``'s grid check reads, so the two agree bit for bit.
    """
    _check_quantity(quantity)
    moments = medium_moments([spec], config)[0]
    means, std_errors = moment_estimate(moments, [state], (quantity,))
    return McEstimate(float(means[0, 0]), float(std_errors[0, 0]), moments.count)
