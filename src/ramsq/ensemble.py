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
counter before each four-word block, so a mean-mode row is exactly the
first 2n + 1 doubles of the exponential row for the same (seed, index).
Bulk draws run the ten rounds in numpy over fixed, index-ordered chunks
of ``_chunk_rows`` rows, ``max(1, _CHUNK_DOUBLES // (4n + 3))``: as many
exponential-mode draws as a chunk holds, in either mode, so one sampler
alone and both together reduce the same chunks in the same order.  The
64x64 -> 128-bit products are emulated in 32-bit halves.  Each chunk is
one task on a thread pool of at most one worker per usable CPU
(``_worker_count``), and makes all of its work in one pass: it draws its
rows once, at the widest width its modes need, forms cos 2phi once and
each mode's split sums once, and then reduces each medium, so memory
stays at a few chunks whatever the draw count.  Each medium's share
function is looked up once, on the calling thread before the pool
starts, and handed to every chunk, so the chunks never touch the table
cache.  A single draw uses numpy's own ``Philox`` on the calling thread:
on one row the few hundred small array operations of the emulation cost
about ten times more than numpy's generator.  Each thread keeps one
``Philox`` and sets its full state (key, counter and an empty buffer)
for every draw, so a row depends on (seed, index) only: 2-3 us a row
at 9 and 19 columns against 13-17 us for a fresh generator, whose set-up
also draws OS entropy for a seed that the key then replaces.

Reduction
---------
Every per-draw variance is linear in the transmission weights and in
cos^2 phi = (1 + cos 2phi)/2, so three channel sums carry it: sum T,
sum T cos 2phi (phases phi) and sum R + V.  ``quadrature_values`` holds
the four variance formulas.  With g = (v_p - v_x)/2 the unshaped x and p
read sum T v_x + (sum T -/+ sum T cos 2phi) g + sum R + V: g is exactly 0
at r = 0, so mean-mode estimates there have exactly zero spread, and
near MAX_SQUEEZE_R the form is finite wherever the per-channel
cos^2/sin^2 form is (halves (v_x +/- v_p)/2 would cancel two overflows
into NaN).

Each channel weight is a group total times a channel split,
T_i = t split_T,i and R_j = r split_R,j, where the splits depend on the
uniforms only and t, r and V are per-draw scalars of the medium.  So
``_split_sums`` forms sum split_T, sum split_T cos 2phi and sum split_R
once per chunk, and ``_batch_values`` gives each medium its three sums
in O(draws) work, whatever the channel count:

    sum T = t sum split_T,  sum T cos 2phi = t sum split_T cos 2phi,
    sum R + V = r sum split_R + V,

with t = (1 + V) S and r = (1 + V)(1 - S) for the Beta share S in
exponential mode, and the constants t_bar, r_bar, v_bar with splits 1/n
in mean mode.  Against summing the n products t split_i, sum T and
sum R + V, sums of positive terms, move by a few ulp relative (at most
5.1e-16 at seed 42, 100k draws, 4 and 8 channels).  sum T cos 2phi
cancels, so its rounding is bounded in absolute terms: both forms are
within about (n + 1) 2**-53 sum |T_i cos 2phi_i| <= (n + 1) 2**-53 sum T
of the exact sum (measured: at most 4.4e-16 sum T), the size of the
rounding of the sum T g term it enters beside.  A single draw is the
same reducer: a ``DisorderRealization`` stores its group totals and
splits as they were drawn and reduces through them once, on first use,
so a sampled one, and any unchanged copy of it, equals its entry in the
bulk values bit for bit.

A bulk estimate never holds its values: each chunk reduces each
medium's sums to moments (``_moments``), and the chunks merge in
chunk-index order (Chan, Golub & LeVeque 1983; Pebay, SAND2008-6212),
so the estimates are bit-identical for any worker count.  A chunk's
moments are two-pass about its first row in the basis (sum T,
sum T cos 2phi, total).  Mean mode's sum T and total are one-entry
constants: each is its own mean, with co-moments of exactly +0.0, and is
never spread over the draws.  Each varying column is centred on its own,
and each of the 6 distinct co-moments is one reduction, mirrored across
the diagonal.

Magnitude modes
---------------
MEAN_MAGNITUDES freezes every magnitude at its ensemble mean and leaves
only the phases random; shaped-quadrature estimates then have zero
spread, a deliberately sharp test of the algebra.  Its group totals
are constants and its splits one row of 1/n, broadcast over the draws.

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

The normalized channel splits, the exponential draw behind V and the
share's uniform depend on the uniforms only (``_shared_draws``), so each
chunk forms them once and each medium forms only V, the Beta share and
the two group totals (``_magnitudes``).

The Beta share is the Beta(a, b) quantile of its uniform u.  The private
module ``_beta`` serves it from per-shape quintic Hermite tables whose
nodes it solves with its own incomplete beta, so a run whose shapes all
lie in the tables' domain, min(a, b) >= 0.09 and a + b <= 12.5, never
imports scipy.  With a + b = 2 * channels that is every run of 1 to 6
channels whose media keep a and b at 0.09 or more; at zero gain
a = 2 channels l/L falls below it past L/l = 22 * channels.  Other
shapes, such as every one at 8 channels, keep scipy's ``betaincinv``,
imported when the first is met.  Each share depends only on its own
uniform and the shape, so a single draw, which runs the same operations
on one numpy scalar, still equals its bulk entry bit for bit.  A bulk
run resolves every medium's share function on the calling thread before
the pool starts, with the missing tables built in one batch
(``_share_tables``).  A chunk sorts its share uniforms once, for all
media (``_ShareUniforms``): a table then splits the ascending column at
0 and at the tails' meeting point into three contiguous slices, with no
mask, gather or scatter, and each medium restores draw order with one
``take``.  ``betaincinv`` shapes read the same sorted column; a single
draw is not sorted.  Which uniform feeds which quantity is fixed in one
place, ``_layout``.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._beta import _share_table, _share_tables
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
    """One frozen disorder configuration of the slab, stored as it was drawn.

    Each group's channel weights are a group total times a channel
    split, T_i = trans_total trans_split_i and R_j = refl_total
    refl_split_j, with one entry per channel; the spontaneous
    contribution is aggregated into a single weight and phase.  All
    magnitudes are nonnegative and satisfy the flux constraint to float
    precision.  A realization built by hand passes totals of 1.0 with its
    weights as the splits, or 0.0 for a group with no weight.  The channel
    sums are reduced once, on first use: derive a changed realization
    with ``dataclasses.replace``, never by editing arrays.
    """

    trans_total: float
    trans_split: np.ndarray
    trans_phases: np.ndarray
    refl_total: float
    refl_split: np.ndarray
    refl_phases: np.ndarray
    spont_mag: float
    spont_phase: float

    @property
    def trans_mags(self) -> np.ndarray:
        return self.trans_total * self.trans_split

    @property
    def refl_mags(self) -> np.ndarray:
        return self.refl_total * self.refl_split

    def flux_residual(self) -> float:
        sums = _channel_sum(self.trans_mags, axis=-1) + _channel_sum(self.refl_mags, axis=-1)
        return float(sums - self.spont_mag - 1.0)

    # Derived, not a field: dataclasses.replace builds a fresh instance,
    # so a copy with new phases or magnitudes never inherits stale sums.
    @functools.cached_property
    def _sums(self) -> _ChannelSums:
        split = _split_sums(self.trans_split, self.refl_split, _cos2(self.trans_phases))
        return _batch_values(self.trans_total, self.refl_total, self.spont_mag, split)


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


def _draw_width(mode: SamplerMode, channels: int) -> int:
    """Uniforms in one bulk draw; ``ParameterError`` if more than ``_CHUNK_DOUBLES``."""
    columns = _uniform_columns(mode, _layout(channels))
    if columns > _CHUNK_DOUBLES:
        raise ParameterError(
            f"one draw's {columns} uniforms exceed the {_CHUNK_DOUBLES} doubles of a chunk"
        )
    return columns


def _mulhilo(multiplier: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products, built from 32-bit halves.

    With a = x_lo m_lo, b = x_hi m_lo, c = x_lo m_hi, the high word is
    x_hi m_hi + (b >> 32) + ((a >> 32) + (b & mask) + c) >> 32, and the
    inner sum is at most 2**64 - 1.  Updates run in place on the halves.
    """
    m_lo, m_hi = multiplier & _LOW32, multiplier >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    cross = x_lo * m_lo
    cross >>= _SHIFT32
    hi_lo = x_hi * m_lo
    x_lo *= m_hi
    cross += x_lo
    cross += hi_lo & _LOW32
    cross >>= _SHIFT32
    hi_lo >>= _SHIFT32
    x_hi *= m_hi
    x_hi += hi_lo
    x_hi += cross
    return x * multiplier, x_hi


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


# Each thread's single-draw stream, built on its first draw.
_streams = threading.local()


def _uniforms_for(seed: int, columns: int, draw_index: int) -> np.ndarray:
    """The first ``columns`` uniforms of draw ``draw_index``, equal to its bulk row.

    The thread's generator gets its full state for every draw (key,
    counter, an empty buffer and no held 32-bit word), so no earlier draw
    leaks into a row, and a single draw never pays for a chunk.
    """
    stream = getattr(_streams, "generator", None)
    if stream is None:
        stream = _streams.generator = np.random.Generator(np.random.Philox(0))
    # A numpy integer seed would overflow the shift.
    seed = operator.index(seed)
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, draw_index & _MASK64, draw_index >> 64),
            "key": (seed & _MASK64, seed >> 64),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
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


class _ShareUniforms(NamedTuple):
    """A block's share uniforms in ascending order, sorted once for all media.

    ``rank`` restores draw order: ``values.take(rank)``.  A single draw
    is not sorted and has no rank.
    """

    ascending: np.ndarray
    rank: np.ndarray | None

    @classmethod
    def of(cls, u: np.ndarray) -> _ShareUniforms:
        if u.shape == (1,):
            return cls(u, None)
        # Tied uniforms give equal shares, so the order among ties, and
        # with it the sort's stability, cannot change a value.
        order = np.argsort(u)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return cls(u.take(order), rank)

    def shares(self, share: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``share`` of each uniform, in draw order."""
        values = share(self.ascending)
        return values if self.rank is None else values.take(self.rank)


class _SharedDraws(NamedTuple):
    """What a block of draws gives every medium, whatever its coefficients.

    The channel splits spread each group total over its channels, each
    row summing to 1; mean mode has one row of 1/n.  Exponential mode
    adds the unit exponential draws that V scales and the Beta share's
    uniforms, sorted once (None in mean mode).
    """

    trans_split: np.ndarray
    refl_split: np.ndarray
    spont: np.ndarray | None  # -log1p(-u) = V / v_bar
    share: _ShareUniforms | None


def _shared_draws(mode: SamplerMode, cols: _Columns, uniforms: np.ndarray) -> _SharedDraws:
    if mode is SamplerMode.MEAN_MAGNITUDES:
        even = np.full((1, cols.channels), 1.0 / cols.channels)
        return _SharedDraws(even, even, None, None)
    trans_draws = -np.log1p(-uniforms[:, cols.trans_split])
    refl_draws = -np.log1p(-uniforms[:, cols.refl_split])
    return _SharedDraws(
        trans_draws / trans_draws.sum(axis=1, keepdims=True),
        refl_draws / refl_draws.sum(axis=1, keepdims=True),
        -np.log1p(-uniforms[:, cols.spont]),
        _ShareUniforms.of(uniforms[:, cols.share]),
    )


def _share_shape(coef: EnsembleCoefficients, channels: int) -> tuple[float, float]:
    """Beta shape (a, b) of the transmission share, mean t_bar / (t_bar + r_bar)."""
    trans_weight = coef.t_bar / (coef.t_bar + coef.r_bar)
    shape = _SPLIT_SHAPE_PER_CHANNEL * channels
    return shape * trans_weight, shape * (1.0 - trans_weight)


def _medium_share(
    coef: EnsembleCoefficients, cols: _Columns, mode: SamplerMode
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The share function of one medium's Beta shape; None in mean mode."""
    if mode is SamplerMode.MEAN_MAGNITUDES:
        return None
    return _share_table(*_share_shape(coef, cols.channels))


def _magnitudes(
    coef: EnsembleCoefficients,
    mode: SamplerMode,
    shared: _SharedDraws,
    share: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple:
    """One medium's group totals t and r and spontaneous weight V per draw.

    The magnitudes are T_i = t split_T,i and R_j = r split_R,j over the
    block's ``_shared_draws``; ``share`` is the medium's
    ``_medium_share``.  Mean mode returns the constants (t_bar, r_bar,
    v_bar), whatever the draws.
    """
    if mode is SamplerMode.MEAN_MAGNITUDES:
        return coef.t_bar, coef.r_bar, coef.v_bar
    if coef.v_bar > 0.0:
        spont = coef.v_bar * shared.spont
    else:
        spont = np.zeros(shared.spont.shape)
    total = 1.0 + spont
    trans_share = shared.share.shares(share)
    return total * trans_share, total * (1.0 - trans_share), spont


_TWO_PI = 2.0 * math.pi


def _cos2(trans_phases: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * trans_phases)


class _ChannelSums(NamedTuple):
    trans: np.ndarray  # sum T
    trans_cos2: np.ndarray  # sum T cos 2phi
    rest: np.ndarray  # sum R + V


class _SplitSums(NamedTuple):
    trans: np.ndarray  # sum split_T
    trans_cos2: np.ndarray  # sum split_T cos 2phi
    refl: np.ndarray  # sum split_R


# Channel sums over the last axis.  This is the reduction np.sum runs,
# without the wrapper that costs more than the sum on one draw's channels.
_channel_sum = np.add.reduce


def _split_sums(trans_split: np.ndarray, refl_split: np.ndarray, cos2: np.ndarray) -> _SplitSums:
    """The medium-independent channel sums of a block's splits and phases."""
    return _SplitSums(
        trans=_channel_sum(trans_split, axis=-1),
        trans_cos2=_channel_sum(trans_split * cos2, axis=-1),
        refl=_channel_sum(refl_split, axis=-1),
    )


def _batch_values(
    trans: np.ndarray, refl: np.ndarray, spont: np.ndarray, split: _SplitSums
) -> _ChannelSums:
    """One medium's three per-draw channel sums from its group totals and the split sums.

    sum T = t sum split_T, sum T cos 2phi = t sum split_T cos 2phi and
    sum R + V = r sum split_R + V: O(draws) work, whatever the channel
    count.  Mean mode's constant totals give one-entry T and R + V sums
    from its one-row splits.
    """
    return _ChannelSums(
        trans=trans * split.trans,
        trans_cos2=trans * split.trans_cos2,
        # Reflection and spontaneous vacuum noise is phase-isotropic, so
        # it enters every variance with unit weight.
        rest=refl * split.refl + spont,
    )


def sample_realization(
    spec: MediumSpec, config: SamplerConfig, draw_index: int
) -> DisorderRealization:
    """Disorder realization ``draw_index``; pure in (seed, index)."""
    draw_index = _integer("draw_index", draw_index)
    if not 0 <= draw_index < _COUNTER_BLOCK:
        raise ParameterError(f"draw_index must lie in [0, 2**128) (got {draw_index})")
    columns = _draw_width(config.mode, spec.channels)
    coef = mean_coefficients(spec)
    cols = _layout(spec.channels)
    row = _uniforms_for(config.seed, columns, draw_index)
    shared = _shared_draws(config.mode, cols, row[None, :])
    share = _medium_share(coef, cols, config.mode)
    trans, refl, spont = _magnitudes(coef, config.mode, shared, share)
    if config.mode is SamplerMode.EXPONENTIAL_MAGNITUDES:
        trans, refl, spont = trans[0], refl[0], spont[0]
    return DisorderRealization(
        trans_total=float(trans),
        trans_split=shared.trans_split[0],
        trans_phases=_TWO_PI * row[cols.trans_phase],
        refl_total=float(refl),
        refl_split=shared.refl_split[0],
        refl_phases=_TWO_PI * row[cols.refl_phase],
        spont_mag=float(spont),
        spont_phase=_TWO_PI * float(row[cols.spont_phase]),
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
    amp_sum = float(_channel_sum(np.sqrt(real.trans_mags), axis=-1))
    return (
        amp_sum * 2.0 * state.amplitude.real,
        amp_sum * 2.0 * state.amplitude.imag,
    )


_QUANTITIES = ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs")


def _check_quantity(quantity: str) -> None:
    if quantity not in _QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")


def _chunk_rows(channels: int) -> int:
    """Draws per chunk: as many exponential-mode draws as ``_CHUNK_DOUBLES`` holds, at least one.

    The count does not depend on the sampler mode, so one sampler alone
    and both together reduce the same chunks in the same order.
    """
    width = _uniform_columns(SamplerMode.EXPONENTIAL_MAGNITUDES, _layout(channels))
    return max(1, _CHUNK_DOUBLES // width)


def _over_chunks(
    specs: list[MediumSpec], configs: Sequence[SamplerConfig], reduce
) -> list[list[list]]:
    """``reduce(draws, sums)`` of each medium's channel sums under each config, chunk by chunk.

    The outer list runs over the chunks in draw-index order, the next
    over ``configs`` and the inner over ``specs``.  The media share one
    channel count and the configs one seed and draw count, so a chunk
    draws its uniforms once, at the widest width its modes need (a
    mean-mode row is the first 2n + 1 doubles of the exponential row),
    forms cos 2phi and each mode's split sums once, and leaves each
    medium O(draws) work.  Mean mode's sums T and R + V reach ``reduce``
    as one-entry arrays, the same for every draw of the chunk.  Raises
    ``ParameterError`` before any draw when ``specs`` is empty or mixes
    channel counts, when ``configs`` is empty or mixes seeds or draw
    counts, or when one draw's uniforms exceed ``_CHUNK_DOUBLES``.
    """
    counts = sorted({spec.channels for spec in specs})
    if len(counts) != 1:
        raise ParameterError(
            f"need one or more media sharing one channel count (got channel counts {counts})"
        )
    runs = sorted({(operator.index(c.seed), c.realizations) for c in configs})
    if len(runs) != 1:
        raise ParameterError(
            f"need one or more configs sharing one (seed, realizations) (got {runs})"
        )
    [(seed, count)] = runs
    cols = _layout(counts[0])
    columns = max(_draw_width(config.mode, counts[0]) for config in configs)
    rows = _chunk_rows(counts[0])
    coefs = [mean_coefficients(spec) for spec in specs]
    # Each medium's share is resolved here, once, and all the missing
    # tables are built together: the chunks never touch the cache, so
    # pool threads neither race to fill it nor rebuild evicted tables.
    shares = [None] * len(coefs)
    if any(config.mode is SamplerMode.EXPONENTIAL_MAGNITUDES for config in configs):
        shares = _share_tables([_share_shape(coef, cols.channels) for coef in coefs])
    plans = [
        (config.mode, [None] * len(coefs) if config.mode is SamplerMode.MEAN_MAGNITUDES else shares)
        for config in configs
    ]

    def chunk(start: int) -> list[list]:
        uniforms = _philox_rows(seed, columns, start, min(start + rows, count))
        drawn = len(uniforms)
        cos2 = _cos2(_TWO_PI * uniforms[:, cols.trans_phase])
        out = []
        for mode, shares in plans:
            shared = _shared_draws(mode, cols, uniforms)
            split = _split_sums(shared.trans_split, shared.refl_split, cos2)
            out.append([
                reduce(drawn, _batch_values(*_magnitudes(coef, mode, shared, share), split))
                for coef, share in zip(coefs, shares)
            ])
        return out

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return list(pool.map(chunk, range(0, count, rows)))


class _Moments(NamedTuple):
    """Draw count, mean vector and co-moment matrix in ``moment_estimate``'s basis."""

    count: int
    mean: np.ndarray
    comoment: np.ndarray


def _moments(count: int, sums: _ChannelSums) -> _Moments:
    """Moments of one chunk's ``count`` draws, two-pass about its first row.

    The shift keeps a constant column exact: its mean is that row and its
    co-moments are exactly zero, where the mean of the raw column rounds.
    A one-entry sum (mean mode's sum T and total) is such a column, so it
    is never spread over the draws: its co-moments are +0.0, which is what
    ``np.add.reduce`` makes of its shifted products, signed zeros all.
    Each other column is centred on its own, and each of the 6 distinct
    co-moments is one reduction, mirrored across the diagonal.
    """
    mean = np.empty(3)
    centered = [None, None, None]
    for k, column in enumerate((sums.trans, sums.trans_cos2, sums.trans + sums.rest)):
        offset = 0.0
        if column.size > 1:
            shifted = column - column[0]
            offset = np.add.reduce(shifted) / count
            shifted -= offset
            centered[k] = shifted
        mean[k] = column[0] + offset
    comoment = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            if centered[i] is not None and centered[j] is not None:
                comoment[i, j] = comoment[j, i] = np.add.reduce(centered[i] * centered[j])
    return _Moments(count, mean, comoment)


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Moments of draws ``a`` followed by draws ``b`` (Chan, Golub & LeVeque 1983)."""
    count = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / count)
    outer = np.multiply.outer(delta, delta) * (a.count * b.count / count)
    return _Moments(count, mean, a.comoment + b.comoment + outer)


def medium_moments(
    specs: list[MediumSpec], configs: Sequence[SamplerConfig]
) -> list[list[_Moments]]:
    """Moments of each medium under each config over draws [0, realizations), merged in chunk order.

    The outer list runs over ``configs``, the inner over ``specs``.  The
    merge order depends on the chunk indices only, so the moments are
    bit-identical for any worker count and for any set of configs run
    together.
    """
    chunks = _over_chunks(specs, configs, _moments)
    return [
        [functools.reduce(_merge, medium) for medium in zip(*per_config)]
        for per_config in zip(*chunks)
    ]


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
    # Mean mode's one-entry sums are repeated over the chunk's draws.
    chunks = _over_chunks(
        [spec], [config], lambda count, sums: [np.broadcast_to(s, (count,)) for s in sums]
    )
    sums = _ChannelSums(*(np.concatenate(column) for column in zip(*(c[0][0] for c in chunks))))
    return quadrature_values(sums, state, quantity)


def mc_average(
    spec: MediumSpec, state: InputState, config: SamplerConfig, quantity: str
) -> McEstimate:
    """Monte Carlo estimate of one averaged output variance.

    It is ``moment_estimate`` of the same chunk moments that
    ``validation``'s grid check reads, so the two agree bit for bit.
    """
    _check_quantity(quantity)
    [[moments]] = medium_moments([spec], [config])
    means, std_errors = moment_estimate(moments, [state], (quantity,))
    return McEstimate(float(means[0, 0]), float(std_errors[0, 0]), moments.count)
