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
evaluated in any order or partition; estimates are reduced from the
index-ordered value vector and are bit-identical across runs.

Draw table
----------
Row ``k`` of the uniform table holds the first ``columns`` doubles of
Philox4x64-10 (Salmon et al., SC'11) with key words
``(s mod 2**64, s >> 64)`` and counter words ``(j, 0, k, 0)`` for
``j = 1..ceil(columns / 4)``; each 64-bit output word ``u`` becomes the
double ``(u >> 11) * 2**-53``.  That is exactly the stream of numpy's
``Generator(Philox(key=s, counter=k * 2**128))``, which increments the
counter before each four-word block.  A bulk table runs the ten rounds
in numpy over many rows at once, with the 64x64 -> 128-bit products
emulated in 32-bit halves, and fills the table in fixed chunks of
``_TABLE_CHUNK_ROWS`` rows so the round temporaries stay cache-sized
rather than table-sized.  A single draw keeps numpy's own ``Philox``:
on one row the few hundred small array operations of the emulation
cost about ten times more than numpy's generator.

Reduction
---------
Every per-draw variance is an affine combination of four channel sums:
sum T, sum T cos^2 phi and sum T sin^2 phi over the transmission
channels (phases phi), and sum R + V.  A bulk run reduces the draws of
each medium to these sums once and evaluates every (squeezing,
quantity) pair from them.  The ``*_single`` evaluators form the same
sums in the same order, so a draw evaluated alone equals its entry in
the batch bit for bit.

Magnitude modes
---------------
MEAN_MAGNITUDES freezes every magnitude at its ensemble mean and leaves
only the phases random; shaped-quadrature estimates then have zero
spread, a deliberately sharp test of the algebra.

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

The normalized channel splits depend on the uniforms only, so a draw
table computes them once (``DrawTable.splits``) and each medium forms
only V, the Beta share and the two scalings.  The Beta share, one
``betaincinv`` per draw, is nearly all the cost of a bulk exponential
run.  From ``_PARALLEL_MIN_ROWS`` draws up it runs in contiguous,
index-ordered slices, one per CPU in the process's affinity mask (but
none shorter than half that constant), on a thread pool opened for that
call; each slice writes its part of one output array.  ``betaincinv``
is elementwise and releases the GIL, so every entry is the same
function of the same uniform whatever the slicing, and the result is
bit-identical for any worker count.  Fewer draws, a single draw
included, run on the calling thread.  Which uniform feeds which
quantity is fixed in one place, ``_columns``.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betaincinv

from .analytic import mean_coefficients
from .core import EnsembleCoefficients, InputState, MediumSpec, ParameterError, validate_medium

# Each draw index owns a disjoint 2**128-wide counter block, far more
# stream than any realization consumes.
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

# Rows per chunk of a bulk table: a few hundred KB of round temporaries
# instead of several copies of the whole table.
_TABLE_CHUNK_ROWS = 4096

# Largest uniform table a run may build: 2**26 doubles (512 MiB).  A
# table holds every draw at once, so beyond this a run would exhaust
# memory instead of failing with a parameter error.
_TABLE_LIMIT = 1 << 26

# Below this many draws betaincinv runs on the calling thread, and no
# slice is ever shorter than half of it.  Timed per medium on a 2-vCPU
# VM (4 channels, the 24 oracle media), two slices cost 1.3-1.6x the
# serial time at 512 draws, break even around 1-2k and take 0.7-0.9x
# from 4096 up (0.7x at 10k).  A single draw never starts a thread.
_PARALLEL_MIN_ROWS = 4096

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
        if self.realizations < 1:
            raise ParameterError(
                f"realizations must be >= 1 (got {self.realizations})"
            )
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ParameterError(f"seed must lie in [0, 2**128) (got {self.seed})")


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One frozen disorder configuration of the slab.

    Arrays hold one entry per channel; the spontaneous contribution is
    aggregated into a single weight and phase.  All magnitudes are
    nonnegative and satisfy the flux constraint to float precision.
    """

    trans_mags: np.ndarray
    trans_phases: np.ndarray
    refl_mags: np.ndarray
    refl_phases: np.ndarray
    spont_mag: float
    spont_phase: float

    def flux_residual(self) -> float:
        return float(np.sum(self.trans_mags) + np.sum(self.refl_mags) - self.spont_mag - 1.0)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, standard error of the mean, and the draw count."""

    mean: float
    std_error: float
    realizations: int


class _Columns(NamedTuple):
    """Fixed per-draw uniform layout, indices into one table row.

    Phases come first (transmission, reflection, spontaneous); the
    exponential mode appends its magnitude draws (V, the split share and
    the two groups' channel splits).
    """

    trans_phase: slice
    refl_phase: slice
    spont_phase: int
    spont: int
    share: int
    trans_split: slice
    refl_split: slice


# Memoized: single draws look the layout up several times each.
@functools.lru_cache(maxsize=16)
def _columns(channels: int) -> _Columns:
    n = channels
    return _Columns(
        trans_phase=slice(0, n),
        refl_phase=slice(n, 2 * n),
        spont_phase=2 * n,
        spont=2 * n + 1,
        share=2 * n + 2,
        trans_split=slice(2 * n + 3, 3 * n + 3),
        refl_split=slice(3 * n + 3, 4 * n + 3),
    )


def _uniform_columns(mode: SamplerMode, channels: int) -> int:
    cols = _columns(channels)
    if mode is SamplerMode.MEAN_MAGNITUDES:
        # Mean mode draws the phases only.
        return cols.spont_phase + 1
    return cols.refl_split.stop


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


def _uniform_table(seed: int, columns: int, count: int) -> np.ndarray:
    """Uniforms for draws [0, count); row k equals ``_uniforms_for`` at k."""
    table = np.empty((count, columns))
    for start in range(0, count, _TABLE_CHUNK_ROWS):
        stop = min(start + _TABLE_CHUNK_ROWS, count)
        table[start:stop] = _philox_rows(seed, columns, start, stop)
    return table


def _uniforms_for(config: SamplerConfig, channels: int, draw_index: int) -> np.ndarray:
    # A fresh stream reproduces the table row for the same index, so
    # single draws never pay for a full table build.
    columns = _uniform_columns(config.mode, channels)
    stream = np.random.Generator(
        np.random.Philox(key=config.seed, counter=draw_index * _COUNTER_BLOCK)
    )
    return stream.random(columns)


def _worker_count() -> int:
    """CPUs this process may run on.

    This is the affinity mask, not a cgroup CPU quota: a container held
    to 2 CPUs of a 64-CPU host counts 64 here.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_share(a: float, b: float, u_split: np.ndarray) -> np.ndarray:
    """Beta(a, b) quantiles of ``u_split``, in contiguous slices on every CPU.

    Slices keep at least ``_PARALLEL_MIN_ROWS // 2`` rows each, so a
    table only fans out to as many threads as it has rows to keep busy.
    """
    rows = u_split.shape[0]
    if rows < _PARALLEL_MIN_ROWS:
        workers = 1
    else:
        workers = min(_worker_count(), rows // (_PARALLEL_MIN_ROWS // 2))
    if workers < 2:
        return betaincinv(a, b, u_split)
    share = np.empty(rows)
    edges = [rows * i // workers for i in range(workers + 1)]

    def fill(lo: int, hi: int) -> None:
        betaincinv(a, b, u_split[lo:hi], out=share[lo:hi])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, edges[:-1], edges[1:]))
    return share


def _channel_splits(
    mode: SamplerMode, channels: int, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Normalized exponential splits of the transmission and reflection totals.

    Each row sums to 1 and does not depend on the medium; mean mode has
    no splits (None).
    """
    if mode is SamplerMode.MEAN_MAGNITUDES:
        return None
    cols = _columns(channels)
    trans_draws = -np.log1p(-uniforms[:, cols.trans_split])
    refl_draws = -np.log1p(-uniforms[:, cols.refl_split])
    return (
        trans_draws / trans_draws.sum(axis=1, keepdims=True),
        refl_draws / refl_draws.sum(axis=1, keepdims=True),
    )


def _magnitudes(
    coef: EnsembleCoefficients,
    channels: int,
    mode: SamplerMode,
    uniforms: np.ndarray,
    splits: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude arrays (T, R, V) for a (draws, columns) uniform block.

    ``splits`` are the block's ``_channel_splits``.
    """
    draws = uniforms.shape[0]
    if mode is SamplerMode.MEAN_MAGNITUDES:
        trans = np.full((draws, channels), coef.t_per_channel(channels))
        refl = np.full((draws, channels), coef.r_per_channel(channels))
        spont = np.full(draws, coef.v_bar)
        return trans, refl, spont

    cols = _columns(channels)
    if coef.v_bar > 0.0:
        spont = -coef.v_bar * np.log1p(-uniforms[:, cols.spont])
    else:
        spont = np.zeros(draws)
    total = 1.0 + spont

    trans_weight = coef.t_bar / (coef.t_bar + coef.r_bar)
    shape = _SPLIT_SHAPE_PER_CHANNEL * channels
    trans_share = _split_share(
        shape * trans_weight, shape * (1.0 - trans_weight), uniforms[:, cols.share]
    )

    trans_split, refl_split = splits
    trans = (total * trans_share)[:, None] * trans_split
    refl = (total * (1.0 - trans_share))[:, None] * refl_split
    return trans, refl, spont


def _phases(channels: int, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    two_pi = 2.0 * math.pi
    cols = _columns(channels)
    return (
        two_pi * uniforms[:, cols.trans_phase],
        two_pi * uniforms[:, cols.refl_phase],
        two_pi * uniforms[:, cols.spont_phase],
    )


@dataclass(frozen=True, eq=False)
class DrawTable:
    """Uniforms of draws [0, realizations) for one sampler configuration.

    Built once per run and shared by every medium with the same channel
    count.  ``cos_sq`` and ``sin_sq`` hold cos^2 and sin^2 of the
    transmission phases and ``splits`` the exponential mode's normalized
    channel splits (None in mean mode); neither depends on the medium.
    """

    config: SamplerConfig
    channels: int
    uniforms: np.ndarray
    cos_sq: np.ndarray
    sin_sq: np.ndarray
    splits: tuple[np.ndarray, np.ndarray] | None


def draw_table(config: SamplerConfig, channels: int) -> DrawTable:
    """Build the uniform table of ``config`` and its medium-independent parts.

    Raises ``ParameterError`` before allocating if the table would
    exceed ``_TABLE_LIMIT`` doubles.
    """
    if channels < 1:
        raise ParameterError(f"channels must be >= 1 (got {channels})")
    columns = _uniform_columns(config.mode, channels)
    if config.realizations * columns > _TABLE_LIMIT:
        raise ParameterError(
            f"{config.realizations} realizations x {columns} uniforms exceed the "
            f"{_TABLE_LIMIT} doubles of one draw table"
        )
    uniforms = _uniform_table(config.seed, columns, config.realizations)
    trans_ph = _phases(channels, uniforms)[0]
    return DrawTable(
        config=config,
        channels=channels,
        uniforms=uniforms,
        cos_sq=np.cos(trans_ph) ** 2,
        sin_sq=np.sin(trans_ph) ** 2,
        splits=_channel_splits(config.mode, channels, uniforms),
    )


class _ChannelSums(NamedTuple):
    trans: np.ndarray  # sum T
    trans_cos: np.ndarray  # sum T cos^2 phi
    trans_sin: np.ndarray  # sum T sin^2 phi
    rest: np.ndarray  # sum R + V


# Channel sums over the last axis.  This is the reduction np.sum runs,
# without the wrapper that costs more than the sum on one draw's channels.
_channel_sum = np.add.reduce


def _rest_sum(refl, spont):
    # Reflection and spontaneous vacuum noise is phase-isotropic, so it
    # enters every variance with unit weight.
    return _channel_sum(refl, axis=-1) + spont


def _batch_values(
    trans: np.ndarray,
    refl: np.ndarray,
    spont: np.ndarray,
    cos_sq: np.ndarray,
    sin_sq: np.ndarray,
) -> _ChannelSums:
    """Reduce (draws, channels) arrays once to the four per-draw channel sums."""
    return _ChannelSums(
        trans=_channel_sum(trans, axis=-1),
        trans_cos=_channel_sum(trans * cos_sq, axis=-1),
        trans_sin=_channel_sum(trans * sin_sq, axis=-1),
        rest=_rest_sum(refl, spont),
    )


def _shaped(trans_sum, rest, variance):
    return trans_sum * variance + rest


def _unshaped(trans_cos, trans_sin, rest, along, across):
    return trans_cos * along + trans_sin * across + rest


def sample_realization(
    spec: MediumSpec, config: SamplerConfig, draw_index: int
) -> DisorderRealization:
    """Disorder realization ``draw_index``; pure in (seed, index)."""
    validate_medium(spec)
    if draw_index < 0:
        raise ParameterError(f"draw_index must be >= 0 (got {draw_index})")
    coef = mean_coefficients(spec)
    block = _uniforms_for(config, spec.channels, draw_index)[None, :]
    splits = _channel_splits(config.mode, spec.channels, block)
    trans, refl, spont = _magnitudes(coef, spec.channels, config.mode, block, splits)
    trans_ph, refl_ph, spont_ph = _phases(spec.channels, block)
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
    rest = _rest_sum(real.refl_mags, real.spont_mag)
    return float(_shaped(_channel_sum(real.trans_mags), rest, state.x_variance))


def _mixed_sums(real: DisorderRealization) -> tuple[np.float64, np.float64, np.float64]:
    # The three channel sums the unshaped evaluators need, formed as in _batch_values.
    cos_sq = np.cos(real.trans_phases) ** 2
    sin_sq = np.sin(real.trans_phases) ** 2
    return (
        _channel_sum(real.trans_mags * cos_sq),
        _channel_sum(real.trans_mags * sin_sq),
        _rest_sum(real.refl_mags, real.spont_mag),
    )


def variance_x_nowfs_single(real: DisorderRealization, state: InputState) -> float:
    """Unshaped squeezed-quadrature variance of one realization.

    The random transmission phase of each channel rotates its input
    quadratures: sum T (cos^2 phi e^(-2r) + sin^2 phi e^(+2r)) + sum R + V.
    """
    return float(_unshaped(*_mixed_sums(real), state.x_variance, state.p_variance))


def variance_p_single(real: DisorderRealization, state: InputState, shaped: bool) -> float:
    """Anti-squeezed-quadrature variance of one realization.

    Mirror of the x evaluators with e^(-2r) and e^(+2r) exchanged in the
    transmission term.
    """
    if shaped:
        rest = _rest_sum(real.refl_mags, real.spont_mag)
        return float(_shaped(_channel_sum(real.trans_mags), rest, state.p_variance))
    return float(_unshaped(*_mixed_sums(real), state.p_variance, state.x_variance))


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


def channel_sums(spec: MediumSpec, table: DrawTable) -> _ChannelSums:
    """Per-draw channel sums of one medium over the draws of ``table``."""
    validate_medium(spec)
    if spec.channels != table.channels:
        raise ParameterError(
            f"medium has {spec.channels} channels, draw table {table.channels}"
        )
    trans, refl, spont = _magnitudes(
        mean_coefficients(spec), spec.channels, table.config.mode, table.uniforms, table.splits
    )
    return _batch_values(trans, refl, spont, table.cos_sq, table.sin_sq)


def quadrature_values(sums: _ChannelSums, state: InputState, quantity: str) -> np.ndarray:
    """Per-draw values of one output variance from a medium's channel sums."""
    if quantity == "x_wfs":
        return _shaped(sums.trans, sums.rest, state.x_variance)
    if quantity == "p_wfs":
        return _shaped(sums.trans, sums.rest, state.p_variance)
    mixed = sums.trans_cos, sums.trans_sin, sums.rest
    if quantity == "x_nowfs":
        return _unshaped(*mixed, state.x_variance, state.p_variance)
    if quantity == "p_nowfs":
        return _unshaped(*mixed, state.p_variance, state.x_variance)
    raise ValueError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")


def realization_values(
    spec: MediumSpec, state: InputState, config: SamplerConfig, quantity: str
) -> np.ndarray:
    """Index-ordered per-realization values for draws [0, realizations)."""
    validate_medium(spec)
    sums = channel_sums(spec, draw_table(config, spec.channels))
    return quadrature_values(sums, state, quantity)


def mc_estimate(values: np.ndarray) -> McEstimate:
    """Sample mean and standard error of index-ordered per-draw values.

    The mean and spread are accumulated about values[0] (shifted
    two-pass), which keeps a phase-independent integrand at exactly zero
    spread instead of accumulating rounding noise.
    """
    count = values.size
    if count < 2:
        raise ParameterError(f"need >= 2 realizations for a standard error (got {count})")
    shift = values[0]
    centered = values - shift
    offset = float(np.mean(centered))
    mean = float(shift + offset)
    sum_sq = float(np.sum((centered - offset) ** 2))
    std_error = math.sqrt(sum_sq / (count - 1)) / math.sqrt(count)
    return McEstimate(mean=mean, std_error=std_error, realizations=count)


def mc_average(
    spec: MediumSpec, state: InputState, config: SamplerConfig, quantity: str
) -> McEstimate:
    """Monte Carlo estimate of one averaged output variance.

    Values are always reduced in draw-index order from the full value
    vector, so the estimate does not depend on how the draws were
    scheduled.
    """
    return mc_estimate(realization_values(spec, state, config, quantity))
