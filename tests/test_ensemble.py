"""Monte Carlo sampler: determinism, constraint, collapse and convergence."""
import dataclasses
import functools
import itertools
import json
import math
import random
import re
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import betaincinv

from ramsq.analytic import full_report, mean_coefficients
from ramsq import _beta, analytic, ensemble, validation
from ramsq.core import MAX_SQUEEZE_R, InputState, MediumSpec, ParameterError
from ramsq.ensemble import (
    DisorderRealization,
    SamplerConfig,
    SamplerMode,
    mc_average,
    mean_amplitude_check,
    realization_values,
    sample_realization,
    variance_p_single,
    variance_x_nowfs_single,
    variance_x_wfs_single,
)

from oracles import (
    masked_beta_share,
    quadratic_form_mean,
    quadratic_form_variance,
    scalar_flux_check,
    scalar_identity_check,
    scalar_linear_limit_check,
    scalar_mc_check,
    scalar_snl_sign_check,
    stacked_moments,
    summed_amplitude_check,
    summed_flux_residual,
)

MODES = (SamplerMode.MEAN_MAGNITUDES, SamplerMode.EXPONENTIAL_MAGNITUDES)
QUANTITIES = ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs")


def config(mode, realizations=100, seed=0):
    return SamplerConfig(mode=mode, realizations=realizations, seed=seed)


# -- determinism -------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
def test_same_index_same_realization(mode, reference_spec):
    cfg = config(mode, seed=123)
    a = sample_realization(reference_spec, cfg, 17)
    b = sample_realization(reference_spec, cfg, 17)
    assert np.array_equal(a.trans_mags, b.trans_mags)
    assert np.array_equal(a.trans_phases, b.trans_phases)
    assert np.array_equal(a.refl_mags, b.refl_mags)
    assert np.array_equal(a.refl_phases, b.refl_phases)
    assert a.spont_mag == b.spont_mag
    assert a.spont_phase == b.spont_phase


@pytest.mark.parametrize("mode", MODES)
def test_distinct_indices_differ(mode, reference_spec):
    cfg = config(mode, seed=123)
    a = sample_realization(reference_spec, cfg, 0)
    b = sample_realization(reference_spec, cfg, 1)
    assert not np.array_equal(a.trans_phases, b.trans_phases)


def test_distinct_seeds_differ(reference_spec):
    a = sample_realization(reference_spec, config(MODES[0], seed=1), 0)
    b = sample_realization(reference_spec, config(MODES[0], seed=2), 0)
    assert not np.array_equal(a.trans_phases, b.trans_phases)


def test_negative_index_rejected(reference_spec):
    with pytest.raises(ParameterError):
        sample_realization(reference_spec, config(MODES[0]), -1)


@pytest.mark.parametrize("mode", MODES)
def test_draw_index_bounded_by_philox_counter(mode, reference_spec):
    # draw k starts at counter k * 2**128 of a 256-bit counter
    real = sample_realization(reference_spec, config(mode), 2**128 - 1)
    assert abs(real.flux_residual()) <= 1e-10
    for bad in (2**128, 2**200, 1.5):
        with pytest.raises(ParameterError):
            sample_realization(reference_spec, config(mode), bad)


@pytest.mark.parametrize("field", ["seed", "realizations"])
@pytest.mark.parametrize("value", [1.5, 10.0, "3"])
def test_config_rejects_non_integer(field, value):
    with pytest.raises(ParameterError):
        SamplerConfig(mode=MODES[0], **{field: value})


@pytest.mark.parametrize("mode", ["mean", "exponential", 0, None])
def test_config_rejects_mode_outside_enum(mode):
    # a bare string once fell through to the exponential branch
    with pytest.raises(ParameterError, match="MEAN_MAGNITUDES.*EXPONENTIAL_MAGNITUDES"):
        SamplerConfig(mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_config_accepts_numpy_integers(mode, reference_spec, reference_state):
    # stored as given, and drawing exactly what the equal Python ints draw
    cfg = SamplerConfig(mode=mode, realizations=np.int64(10), seed=np.int64(3))
    assert (cfg.realizations, cfg.seed) == (10, 3)
    assert isinstance(cfg.seed, np.int64)
    plain = config(mode, realizations=10, seed=3)
    for q in QUANTITIES:
        assert np.array_equal(
            realization_values(reference_spec, reference_state, cfg, q),
            realization_values(reference_spec, reference_state, plain, q),
        )
    real = sample_realization(reference_spec, cfg, np.int64(7))
    assert np.array_equal(
        real.trans_phases, sample_realization(reference_spec, plain, 7).trans_phases
    )


@pytest.mark.parametrize("mode", MODES)
def test_scalar_and_batch_paths_identical(mode, reference_spec, reference_state):
    # draw-by-draw evaluation must reproduce the vectorized path bit for bit
    cfg = config(mode, realizations=200, seed=42)
    singles = {q: np.empty(200) for q in QUANTITIES}
    for k in range(200):
        real = sample_realization(reference_spec, cfg, k)
        singles["x_wfs"][k] = variance_x_wfs_single(real, reference_state)
        singles["x_nowfs"][k] = variance_x_nowfs_single(real, reference_state)
        singles["p_wfs"][k] = variance_p_single(real, reference_state, shaped=True)
        singles["p_nowfs"][k] = variance_p_single(real, reference_state, shaped=False)
    for q in QUANTITIES:
        batch = realization_values(reference_spec, reference_state, cfg, q)
        assert np.array_equal(singles[q], batch)


def _reference_rows(seed, columns, rows):
    # numpy's own Philox, one generator per draw index
    return np.array([
        np.random.Generator(np.random.Philox(key=seed, counter=k * 2**128)).random(columns)
        for k in rows
    ])


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 5, 2**128 - 1])
@pytest.mark.parametrize("columns", [3, 9, 19])
def test_uniform_table_matches_numpy_philox(seed, columns):
    # rows start anywhere, so chunks [0, 16) and [16, 40) rebuild draws [0, 40)
    rows = np.concatenate([
        ensemble._philox_rows(seed, columns, 0, 16),
        ensemble._philox_rows(seed, columns, 16, 40),
    ])
    assert np.array_equal(rows, _reference_rows(seed, columns, range(40)))


def test_uniform_table_across_default_chunk():
    # the first two default 19-column chunks, at both ends of each
    chunk = ensemble._CHUNK_DOUBLES // 19
    first = ensemble._philox_rows(7, 19, 0, chunk)
    second = ensemble._philox_rows(7, 19, chunk, 2 * chunk)
    rows = [0, 1, chunk - 1]
    assert np.array_equal(first[rows], _reference_rows(7, 19, rows))
    assert np.array_equal(second[rows], _reference_rows(7, 19, [chunk + k for k in rows]))


def _realization_bytes(real):
    return b"".join(
        np.asarray(getattr(real, field.name)).tobytes() for field in dataclasses.fields(real)
    )


def test_single_draw_rows_are_stateless_and_per_thread(monkeypatch, reference_spec):
    # each thread reuses one Philox for its single draws: every row must
    # equal a fresh generator's whatever was drawn before it (narrower
    # rows, other keys, a refused draw), serially and from four threads
    # at once, interleaved as often as the switch interval allows
    cases = list(itertools.product(
        (0, 42, 2**64 + 5, 2**128 - 1, np.int64(3)),
        MODES,
        (1, 4, 8),
        (0, 1, 2**62 - 1, 2**128 - 1),
    ))
    random.Random(7).shuffle(cases)
    cases.insert(len(cases) // 2, (42, MODES[1], 4, -1))
    expected = {}
    for seed, mode, channels, k in cases:
        if k >= 0:
            columns = ensemble._uniform_columns(mode, ensemble._layout(channels))
            expected[int(seed), columns, k] = _reference_rows(seed, columns, [k])[0].tobytes()
    draw = ensemble._uniforms_for
    rows = []

    def recorded(seed, columns, draw_index):
        row = draw(seed, columns, draw_index)
        rows.append(((int(seed), columns, draw_index), row.tobytes()))
        return row

    monkeypatch.setattr(ensemble, "_uniforms_for", recorded)

    def run():
        out = []
        for seed, mode, channels, k in cases:
            spec = dataclasses.replace(reference_spec, channels=channels)
            try:
                out.append(_realization_bytes(sample_realization(spec, config(mode, seed=seed), k)))
            except ParameterError:
                out.append(None)
        return out

    serial = run()
    assert serial.count(None) == 1
    threads, barrier = 4, threading.Barrier(4)
    results, generators = [None] * threads, [None] * threads

    def worker(i):
        barrier.wait(timeout=60)
        results[i] = run()
        generators[i] = ensemble._streams.generator

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert len(rows) == (1 + threads) * (len(cases) - 1)
    assert all(row == expected[key] for key, row in rows)
    assert results == [serial] * threads
    # one generator per thread, the calling thread's included
    assert len({id(g) for g in generators + [ensemble._streams.generator]}) == threads + 1


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_config_rejects_seed_outside_philox_key(seed):
    with pytest.raises(ParameterError):
        SamplerConfig(mode=MODES[0], seed=seed)


# -- streamed chunks ---------------------------------------------------------

def _chunk_draws(monkeypatch, rows):
    """Shrink the chunk budget to ``rows`` draws at 4 channels, in either mode."""
    columns = ensemble._uniform_columns(MODES[1], ensemble._layout(4))
    monkeypatch.setattr(ensemble, "_CHUNK_DOUBLES", rows * columns)
    assert ensemble._chunk_rows(4) == rows


@pytest.mark.parametrize("channels", [1, 4, 8])
@pytest.mark.parametrize("mode", MODES)
def test_mc_average_is_the_two_pass_estimate_of_its_draws(monkeypatch, mode, channels):
    # 1000 draws in four chunks of 300, 300, 300 and 100, so that the
    # chunks merge with unequal counts: mc_average's mean and standard
    # error are np.mean and np.std(ddof=1) / sqrt(n) of the same draws to
    # rounding.  Each side sums at most n = 1000 rounded terms, and the
    # merges add a few roundings per chunk, so the two differ by at most
    # about n * eps of the values' scale (2.2e-13; ~6e-16 is seen).  A
    # merge that weighs a chunk by the other chunk's count moves the mean
    # by a fraction of the spread between chunk means, ~1e-3 here.
    width = ensemble._uniform_columns(SamplerMode.EXPONENTIAL_MAGNITUDES, ensemble._layout(channels))
    monkeypatch.setattr(ensemble, "_CHUNK_DOUBLES", 300 * width)
    assert ensemble._chunk_rows(channels) == 300
    draws = 1000
    tol = draws * np.finfo(float).eps
    settings = config(mode, realizations=draws, seed=7)
    for th, g in ((10.0, 2.5), (2.0, 0.0), (1.5, 3.0)):
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g, channels=channels)
        for r in (0.0, 0.5, 1.5):
            state = InputState(squeeze_r=r)
            for quantity in ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs"):
                values = realization_values(spec, state, settings, quantity)
                est = mc_average(spec, state, settings, quantity)
                scale = np.max(np.abs(values))
                where = (th, g, r, quantity)
                assert est.realizations == draws
                assert abs(est.mean - np.mean(values)) <= tol * scale, where
                std_error = np.std(values, ddof=1) / math.sqrt(draws)
                assert abs(est.std_error - std_error) <= tol * scale, where


@pytest.mark.parametrize("mode", MODES)
def test_chunked_estimates_bit_identical(monkeypatch, mode):
    # 20 chunks of 200 draws: chunk edges and the merge order depend on
    # draw indices only.  1 worker runs the same pool as the rest, 3 take
    # the chunks unevenly, 7 outnumber the cores, 64 the chunks, and a
    # short switch interval interleaves the chunk threads as often as it
    # can.
    _chunk_draws(monkeypatch, 200)
    specs = [MediumSpec(thickness_ratio=th, gain_ratio=g) for th in (2.0, 20.0) for g in (0.0, 1.0, 3.0)]
    pools = []

    class Recorded(ensemble.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            pools.append((self._max_workers, len(self._threads)))

    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", Recorded)
    estimates = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 7, 64):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: workers)
            [moments] = ensemble.medium_moments(specs, [config(mode, realizations=4000, seed=42)])
            estimates[workers] = [
                [x.hex() for x in np.concatenate((m.mean, m.comoment.ravel())).tolist()]
                for m in moments
            ]
    finally:
        sys.setswitchinterval(interval)
    # every run, one worker too, goes through one pool, and no pool
    # starts more threads than the 20 chunks
    assert [size for size, _ in pools] == [1, 2, 3, 7, 64]
    assert pools[0] == (1, 1)
    assert all(1 <= threads <= min(size, 20) for size, threads in pools), pools
    for workers in (2, 3, 7, 64):
        assert estimates[workers] == estimates[1]


@pytest.mark.parametrize("mode", MODES)
def test_chunk_edge_rows_match_single_draws(monkeypatch, mode, reference_spec, reference_state):
    # 64-draw chunks on 3 workers: both sides of every edge equal the
    # single-draw path bit for bit
    _chunk_draws(monkeypatch, 64)
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 3)
    cfg = config(mode, realizations=300, seed=42)
    batch = {q: realization_values(reference_spec, reference_state, cfg, q) for q in QUANTITIES}
    rows = [0, 299] + [k for edge in range(64, 300, 64) for k in (edge - 1, edge)]
    for k in rows:
        real = sample_realization(reference_spec, cfg, k)
        assert batch["x_wfs"][k] == variance_x_wfs_single(real, reference_state)
        assert batch["x_nowfs"][k] == variance_x_nowfs_single(real, reference_state)
        assert batch["p_wfs"][k] == variance_p_single(real, reference_state, shaped=True)
        assert batch["p_nowfs"][k] == variance_p_single(real, reference_state, shaped=False)


@pytest.mark.parametrize("text,workers", [
    (None, 64), ("max 100000\n", 64), ("150000 100000\n", 2), ("200000 100000\n", 2),
    ("50000 100000\n", 1), ("800000 100000\n", 8), ("100000000 100000\n", 64), ("junk\n", 64),
])
def test_worker_count_honours_cpu_quota(monkeypatch, text, workers):
    # cgroup v2 cpu.max "quota period" caps the affinity count at
    # ceil(quota / period); no file, "max" or junk leave it
    monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(ensemble, "_read_cpu_max", lambda: text)
    assert ensemble._worker_count() == workers


@pytest.mark.parametrize("mode", MODES)
def test_draw_width_bound(monkeypatch, mode, reference_state):
    # the widest draw that fits the chunk budget runs; one channel more
    # is refused before any uniform is drawn
    budget = ensemble._CHUNK_DOUBLES
    widest = (budget - 1) // 2 if mode is SamplerMode.MEAN_MAGNITUDES else (budget - 3) // 4
    width = ensemble._uniform_columns(mode, ensemble._layout(widest))
    assert width <= budget < ensemble._uniform_columns(mode, ensemble._layout(widest + 1))
    cfg = config(mode, realizations=2)
    spec = MediumSpec(thickness_ratio=10.0, gain_ratio=2.5, channels=widest)
    assert mc_average(spec, reference_state, cfg, "x_wfs").realizations == 2
    assert len(sample_realization(spec, cfg, 1).trans_phases) == widest
    monkeypatch.setattr(ensemble, "_philox_rows", None)
    monkeypatch.setattr(ensemble, "_uniforms_for", None)
    wide = dataclasses.replace(spec, channels=widest + 1)
    with pytest.raises(ParameterError, match="one draw's"):
        mc_average(wide, reference_state, cfg, "x_wfs")
    with pytest.raises(ParameterError, match="one draw's"):
        realization_values(wide, reference_state, cfg, "x_wfs")
    with pytest.raises(ParameterError, match="one draw's"):
        sample_realization(wide, cfg, 1)


@pytest.mark.parametrize("mode", MODES)
def test_medium_reduction_allocates_o_draws(mode):
    # a medium's part of a chunk reads the chunk's split sums and makes a
    # few draw-length arrays: at 8 channels it peaks where it does at 1,
    # below one (draws, channels) array (1 channel reads the medium's
    # share table and 8 channels betaincinv, both resolved before the
    # trace starts)
    draws, peaks = 20_000, {}
    for channels in (1, 8):
        spec = MediumSpec(thickness_ratio=10.0, gain_ratio=2.5, channels=channels)
        coef, cols = mean_coefficients(spec), ensemble._layout(channels)
        uniforms = ensemble._philox_rows(42, ensemble._uniform_columns(mode, cols), 0, draws)
        shared = ensemble._shared_draws(mode, cols, uniforms)
        cos2 = ensemble._cos2(ensemble._TWO_PI * uniforms[:, cols.trans_phase])
        split = ensemble._split_sums(shared.trans_split, shared.refl_split, cos2)
        share = ensemble._medium_share(coef, cols, mode)
        tracemalloc.start()
        try:
            ensemble._batch_values(*ensemble._magnitudes(coef, mode, shared, share), split)
            peaks[channels] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.1 * peaks[1], peaks
    assert peaks[8] < draws * 8 * np.dtype(float).itemsize, peaks


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("draws", [1, 2, 6898])
def test_moments_match_stacked_two_pass(mode, draws):
    # every grid medium's chunk moments, mean mode's one-entry sums
    # included, against the stacked (3, 3, draws) form, byte for byte
    cols = ensemble._layout(4)
    uniforms = ensemble._philox_rows(42, ensemble._uniform_columns(mode, cols), 0, draws)
    shared = ensemble._shared_draws(mode, cols, uniforms)
    cos2 = ensemble._cos2(ensemble._TWO_PI * uniforms[:, cols.trans_phase])
    split = ensemble._split_sums(shared.trans_split, shared.refl_split, cos2)
    cases = []
    for t in validation.STANDARD_THICKNESS:
        for g in validation.STANDARD_GAIN:
            coef = mean_coefficients(MediumSpec(thickness_ratio=t, gain_ratio=g, channels=4))
            share = ensemble._medium_share(coef, cols, mode)
            magnitudes = ensemble._magnitudes(coef, mode, shared, share)
            cases.append(ensemble._batch_values(*magnitudes, split))
    # a one-entry -0.0 sum, which the shifted form reads as +0.0
    cases.append(ensemble._ChannelSums(np.array([-0.0]), cases[0].trans_cos2, np.array([0.0])))
    for sums in cases:
        count, mean, comoment = stacked_moments(draws, sums)
        moments = ensemble._moments(draws, sums)
        assert moments.count == count
        assert moments.mean.tobytes() == mean.tobytes()
        assert moments.comoment.tobytes() == comoment.tobytes()


def test_exponential_oracle_memory_does_not_grow(monkeypatch):
    # draws stream through one chunk at a time: four times the draws,
    # same peak (one worker, so that chunk threads peaking together or
    # apart do not move it)
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 1)
    specs = [MediumSpec(thickness_ratio=2.0, gain_ratio=g) for g in (0.0, 3.0)]
    peaks = []
    for draws in (20_000, 80_000):
        tracemalloc.start()
        try:
            ensemble.medium_moments(specs, [config(MODES[1], realizations=draws, seed=42)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("channels", [(1, 16), ()], ids=["mixed", "empty"])
def test_bulk_paths_reject_channel_count(monkeypatch, channels):
    # media drawn together share each chunk's uniforms, so they need one
    # channel count (a 16-channel medium used to be drawn with 1), and
    # there must be one to read; both are refused before any draw
    specs = [MediumSpec(thickness_ratio=10.0, gain_ratio=2.5, channels=n) for n in channels]
    monkeypatch.setattr(ensemble, "_philox_rows", None)
    with pytest.raises(ParameterError, match=re.escape(f"channel counts {list(channels)}")):
        ensemble.medium_moments(specs, [config(MODES[0])])


@pytest.mark.parametrize("runs", [((1, 100), (2, 100)), ((1, 100), (1, 200)), ()],
                         ids=["seeds", "draw-counts", "empty"])
def test_bulk_paths_reject_mixed_configs(monkeypatch, runs):
    # configs streamed together read each chunk's one block of uniforms,
    # so they need one seed and draw count; refused before any draw
    specs = [MediumSpec(thickness_ratio=10.0, gain_ratio=2.5)]
    configs = [config(mode, realizations=n, seed=seed) for mode, (seed, n) in zip(MODES, runs)]
    monkeypatch.setattr(ensemble, "_philox_rows", None)
    with pytest.raises(ParameterError, match="one .seed, realizations."):
        ensemble.medium_moments(specs, configs)


def test_mc_average_repeatable(reference_spec, reference_state):
    cfg = config(MODES[1], realizations=500, seed=9)
    first = mc_average(reference_spec, reference_state, cfg, "x_nowfs")
    second = mc_average(reference_spec, reference_state, cfg, "x_nowfs")
    assert first == second


# -- sampled magnitudes ------------------------------------------------------

def test_mean_mode_magnitudes_are_ensemble_means(reference_spec):
    coef = mean_coefficients(reference_spec)
    real = sample_realization(reference_spec, config(MODES[0]), 3)
    assert np.all(real.trans_mags == coef.t_bar / 4)
    assert np.all(real.refl_mags == coef.r_bar / 4)
    assert real.spont_mag == coef.v_bar


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("thickness,gain", [(10.0, 2.5), (2.0, 3.0), (2.0, 0.0)])
def test_constraint_and_positivity_every_draw(mode, thickness, gain):
    # flux constraint within 1e-10 and nonnegative magnitudes, all draws
    spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
    cfg = config(mode, realizations=300, seed=5)
    for k in range(300):
        real = sample_realization(spec, cfg, k)
        assert abs(real.flux_residual()) <= 1e-10
        assert np.all(real.trans_mags >= 0.0)
        assert np.all(real.refl_mags >= 0.0)
        assert real.spont_mag >= 0.0


@pytest.mark.parametrize("mode", MODES)
def test_phases_in_range(mode, reference_spec):
    two_pi = 2.0 * math.pi
    cfg = config(mode, seed=11)
    for k in range(50):
        real = sample_realization(reference_spec, cfg, k)
        for ph in (real.trans_phases, real.refl_phases, [real.spont_phase]):
            assert np.all(np.asarray(ph) >= 0.0)
            assert np.all(np.asarray(ph) < two_pi)


def test_exponential_channel_sums_match_means(reference_spec):
    # the stick-breaking construction must keep the three channel-sum
    # means at (t_bar, r_bar, v_bar); deterministic seed, 5 sigma guard
    coef = mean_coefficients(reference_spec)
    cfg = config(MODES[1], realizations=4000, seed=42)
    sums = np.empty((4000, 3))
    for k in range(4000):
        real = sample_realization(reference_spec, cfg, k)
        sums[k] = (np.sum(real.trans_mags), np.sum(real.refl_mags), real.spont_mag)
    for column, target in zip(sums.T, (coef.t_bar, coef.r_bar, coef.v_bar)):
        err = abs(np.mean(column) - target)
        bound = 5.0 * np.std(column, ddof=1) / math.sqrt(column.size)
        assert err <= bound, (target, err, bound)


def test_phase_statistics(reference_spec):
    # the averaging step behind the closed forms: cos^2 -> 1/2,
    # sin cos -> 0, over the pool of drawn phases
    cfg = config(MODES[0], realizations=5000, seed=1)
    phases = []
    for k in range(5000):
        real = sample_realization(reference_spec, cfg, k)
        phases.append(real.trans_phases)
        phases.append(real.refl_phases)
    pool = np.concatenate(phases)
    bound = 5.0 / math.sqrt(pool.size)
    assert abs(np.mean(np.cos(pool) ** 2) - 0.5) <= bound
    assert abs(np.mean(np.sin(pool) ** 2) - 0.5) <= bound
    assert abs(np.mean(np.sin(pool) * np.cos(pool))) <= bound


# -- per-realization evaluators vs the covariance oracle ---------------------

@pytest.mark.parametrize("mode", MODES)
def test_evaluators_match_quadratic_form(mode, reference_spec):
    # the collapsed expressions against an explicit 2M x 2M covariance
    # form that keeps every ancilla phase
    state = InputState(squeeze_r=1.0)
    cfg = config(mode, seed=21)
    for k in range(40):
        real = sample_realization(reference_spec, cfg, k)
        cases = [
            (variance_x_wfs_single(real, state), ("x", True)),
            (variance_x_nowfs_single(real, state), ("x", False)),
            (variance_p_single(real, state, shaped=True), ("p", True)),
            (variance_p_single(real, state, shaped=False), ("p", False)),
        ]
        for collapsed, (quadrature, shaped) in cases:
            oracle = quadratic_form_variance(real, 1.0, quadrature, shaped)
            assert abs(collapsed - oracle) <= 1e-12


def test_shaped_evaluator_ignores_ancilla_phases(reference_spec):
    # exact invariance under re-randomizing reflection and spontaneous phases
    state = InputState(squeeze_r=0.7)
    real = sample_realization(reference_spec, config(MODES[1], seed=2), 4)
    rng = np.random.default_rng(99)
    scrambled = dataclasses.replace(
        real,
        refl_phases=rng.uniform(0.0, 2.0 * math.pi, real.refl_phases.size),
        spont_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    assert variance_x_wfs_single(scrambled, state) == variance_x_wfs_single(real, state)
    assert variance_p_single(scrambled, state, shaped=True) == variance_p_single(
        real, state, shaped=True
    )


def test_zero_phases_collapse_to_shaped(reference_spec):
    # perfect shaping equals transmission phases all zero
    state = InputState(squeeze_r=1.3)
    real = sample_realization(reference_spec, config(MODES[1], seed=3), 8)
    aligned = dataclasses.replace(real, trans_phases=np.zeros_like(real.trans_phases))
    assert math.isclose(
        variance_x_nowfs_single(aligned, state),
        variance_x_wfs_single(aligned, state),
        rel_tol=1e-14,
    )


def test_quarter_turn_phases_antisqueeze(reference_spec):
    # phases at pi/2 rotate the anti-squeezed quadrature into x
    state = InputState(squeeze_r=1.0)
    real = sample_realization(reference_spec, config(MODES[0], seed=3), 0)
    rotated = dataclasses.replace(
        real, trans_phases=np.full_like(real.trans_phases, 0.5 * math.pi)
    )
    expected = (
        float(np.sum(real.trans_mags)) * state.p_variance
        + float(np.sum(real.refl_mags))
        + real.spont_mag
    )
    assert math.isclose(variance_x_nowfs_single(rotated, state), expected, rel_tol=1e-12)


def test_vacuum_through_lossless_linear_slab():
    # coherent input, no gain: per-realization output variance is 1 + 2V = 1
    spec = MediumSpec(thickness_ratio=2.0, gain_ratio=0.0)
    state = InputState(squeeze_r=0.0)
    for mode in MODES:
        real = sample_realization(spec, config(mode, seed=6), 2)
        assert real.spont_mag == 0.0
        assert abs(variance_x_wfs_single(real, state) - 1.0) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_single_evaluators_share_one_reduction(monkeypatch, mode, reference_spec, reference_state):
    # the four variances of one realization come from one call of the
    # bulk reducer; sampling alone reduces nothing
    calls = []
    batch_values = ensemble._batch_values

    def counted(*args):
        calls.append(args)
        return batch_values(*args)

    monkeypatch.setattr(ensemble, "_batch_values", counted)
    real = sample_realization(reference_spec, config(mode, seed=5), 3)
    assert calls == []
    for _ in range(2):
        variance_x_wfs_single(real, reference_state)
        variance_x_nowfs_single(real, reference_state)
        variance_p_single(real, reference_state, shaped=True)
        variance_p_single(real, reference_state, shaped=False)
    assert len(calls) == 1


def test_replaced_realization_reduces_afresh(reference_spec, reference_state):
    # a copy with new reflection and spontaneous weights must not reuse
    # the sums of the realization it was copied from
    real = sample_realization(reference_spec, config(MODES[1], seed=8), 1)
    variance_x_wfs_single(real, reference_state)
    tweaked = dataclasses.replace(
        real, refl_total=real.refl_total * 3.0, spont_mag=real.spont_mag + 5.0
    )
    expected = (
        math.fsum(tweaked.trans_mags) * reference_state.x_variance
        + math.fsum(3.0 * real.refl_mags)
        + tweaked.spont_mag
    )
    assert abs(variance_x_wfs_single(tweaked, reference_state) - expected) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_copied_realization_reduces_as_drawn(mode, reference_spec, reference_state):
    # an unchanged copy, by dataclasses.replace or rebuilt from the
    # fields, reduces bit for bit as the sampled realization does
    cfg = config(mode, realizations=2000, seed=42)
    singles = (
        variance_x_wfs_single,
        variance_x_nowfs_single,
        functools.partial(variance_p_single, shaped=True),
        functools.partial(variance_p_single, shaped=False),
    )
    moved = set()
    for k in range(2000):
        real = sample_realization(reference_spec, cfg, k)
        fields = {f.name: getattr(real, f.name) for f in dataclasses.fields(real) if f.init}
        expected = [single(real, reference_state).hex() for single in singles]
        for copy in (dataclasses.replace(real), DisorderRealization(**fields)):
            if [single(copy, reference_state).hex() for single in singles] != expected:
                moved.add(k)
    assert not moved, f"{len(moved)} of 2000 draws moved"


def test_shaped_x_single_past_antisqueezing_limit(reference_spec):
    # saturated squeezing: shaped x needs only e^(-2r), never e^(2r)
    state = InputState(squeeze_r=400.0)
    real = sample_realization(reference_spec, config(MODES[1], seed=4), 0)
    assert state.x_variance == 0.0
    shaped = variance_x_wfs_single(real, state)
    assert shaped == float(real._sums.rest)
    assert math.isclose(shaped, float(np.sum(real.refl_mags) + real.spont_mag), rel_tol=1e-15)
    with pytest.raises(ParameterError):
        variance_x_nowfs_single(real, state)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("thickness,gain", [(2.0, 3.0), (20.0, 3.0)])
def test_unshaped_values_at_antisqueezing_limit(mode, thickness, gain):
    # e^(2r) is near the largest double: the three-sum form may overflow
    # to inf, never to NaN, and exactly where the per-channel form does
    spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain)
    state = InputState(squeeze_r=MAX_SQUEEZE_R)
    cfg = config(mode, realizations=2000, seed=42)
    reals = [sample_realization(spec, cfg, k) for k in range(2000)]
    for quantity, (v_cos, v_sin) in (
        ("x_nowfs", (state.x_variance, state.p_variance)),
        ("p_nowfs", (state.p_variance, state.x_variance)),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            values = realization_values(spec, state, cfg, quantity)
            reference = np.array([
                np.sum(r.trans_mags * (np.cos(r.trans_phases) ** 2 * v_cos
                                       + np.sin(r.trans_phases) ** 2 * v_sin))
                + np.sum(r.refl_mags) + r.spont_mag
                for r in reals
            ])
        assert not np.isnan(values).any(), quantity
        assert np.array_equal(np.isfinite(values), np.isfinite(reference)), quantity


# -- quadrature means --------------------------------------------------------

def test_mean_amplitude_zero_for_squeezed_vacuum(reference_spec):
    real = sample_realization(reference_spec, config(MODES[0]), 0)
    assert mean_amplitude_check(real, InputState(squeeze_r=1.0)) == (0.0, 0.0)


def test_mean_amplitude_identity_channel():
    # single channel with full transmission: means are (2 Re a, 2 Im a),
    # displacement applied after squeezing
    real = DisorderRealization(
        trans_total=1.0,
        trans_split=np.array([1.0]),
        trans_phases=np.array([0.0]),
        refl_total=0.0,
        refl_split=np.array([1.0]),
        refl_phases=np.array([0.0]),
        spont_mag=0.0,
        spont_phase=0.0,
    )
    state = InputState(squeeze_r=0.8, amplitude=1.5 - 0.5j)
    got = mean_amplitude_check(real, state)
    assert got == (3.0, -1.0)
    assert got == (
        quadratic_form_mean(real, state.amplitude, "x"),
        quadratic_form_mean(real, state.amplitude, "p"),
    )


def test_mean_amplitude_depends_only_on_transmission(reference_spec):
    state = InputState(squeeze_r=0.5, amplitude=2.0 + 1.0j)
    real = sample_realization(reference_spec, config(MODES[1], seed=8), 1)
    tweaked = dataclasses.replace(
        real, refl_total=real.refl_total * 3.0, spont_mag=real.spont_mag + 5.0
    )
    assert mean_amplitude_check(tweaked, state) == mean_amplitude_check(real, state)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("channels", [1, 4, 8])
def test_single_draw_helpers_match_np_sum(mode, channels):
    # the flux residual and the shaped means reduce their channels with
    # np.add.reduce: bit for bit np.sum's result, draw by draw
    state = InputState(squeeze_r=0.6, amplitude=1.5 - 0.5j)
    for thickness, gain in ((2.0, 3.0), (10.0, 2.5), (20.0, 0.0)):
        spec = MediumSpec(thickness_ratio=thickness, gain_ratio=gain, channels=channels)
        for k in range(200):
            real = sample_realization(spec, config(mode, seed=42), k)
            assert real.flux_residual().hex() == summed_flux_residual(real).hex()
            assert _hex(mean_amplitude_check(real, state)) == _hex(summed_amplitude_check(real, state))


def test_single_draw_helpers_match_np_sum_with_empty_group():
    # a group of zero weight (total 0.0) sums to exactly 0.0 either way
    state = InputState(squeeze_r=0.6, amplitude=1.5 - 0.5j)
    split, phases = np.array([0.25, 0.75]), np.array([0.5, 2.0])
    for trans_total, refl_total in ((1.0, 0.0), (0.0, 1.0)):
        real = DisorderRealization(
            trans_total, split, phases, refl_total, split, phases, spont_mag=0.0, spont_phase=0.0
        )
        assert real.flux_residual().hex() == summed_flux_residual(real).hex() == (0.0).hex()
        assert _hex(mean_amplitude_check(real, state)) == _hex(summed_amplitude_check(real, state))


# -- averaged estimates ------------------------------------------------------

def test_mc_average_needs_two_draws(reference_spec, reference_state):
    with pytest.raises(ParameterError):
        mc_average(reference_spec, reference_state, config(MODES[0], realizations=1), "x_wfs")


def test_config_rejects_zero_draws():
    with pytest.raises(ParameterError):
        SamplerConfig(mode=MODES[0], realizations=0, seed=0)


def test_unknown_quantity_rejected(monkeypatch, reference_spec, reference_state):
    # refused before the first draw, however many draws were asked for
    def refuse_draws(*args):
        raise AssertionError("drew uniforms for an unknown quantity")

    monkeypatch.setattr(ensemble, "_philox_rows", refuse_draws)
    for entry in (mc_average, realization_values):
        with pytest.raises(ParameterError, match="unknown quantity 'y_wfs'"):
            entry(reference_spec, reference_state, config(MODES[1]), "y_wfs")


def test_shaped_mean_mode_has_zero_spread(reference_spec, reference_state):
    # phase-independent integrand over constant magnitudes: every draw
    # gives the same number, so the spread must be exactly zero
    cfg = config(MODES[0], realizations=1000, seed=42)
    for quantity, target in (
        ("x_wfs", full_report(reference_spec, reference_state).x_wfs),
        ("p_wfs", None),
    ):
        est = mc_average(reference_spec, reference_state, cfg, quantity)
        assert est.std_error == 0.0
        assert est.realizations == 1000
        if target is not None:
            assert abs(est.mean - target) <= 1e-12


def _grid_estimates(modes, seed, draws):
    """Validation's grid media and squeezings, and each mode's stacked estimates.

    All modes run in one pass of draws.  Each mode's means and standard
    errors have axes (medium, squeezing, quantity).
    """
    specs = [
        MediumSpec(thickness_ratio=th, gain_ratio=g)
        for th in validation.STANDARD_THICKNESS
        for g in validation.STANDARD_GAIN
    ]
    states = [InputState(squeeze_r=r) for r in validation.STANDARD_SQUEEZE]
    configs = [config(mode, realizations=draws, seed=seed) for mode in modes]
    estimates = [
        tuple(map(np.stack, zip(*(ensemble.moment_estimate(m, states, QUANTITIES) for m in moments))))
        for moments in ensemble.medium_moments(specs, configs)
    ]
    return specs, states, estimates


def test_zero_gain_exponential_spread_stays_at_rounding(monkeypatch):
    # with no gain every r = 0 value is the total sum T + sum R, 1 to
    # rounding; its spread must stay the rounding-level spread of the
    # values, not the difference of the large co-moments of sum T and
    # sum R (which rounds to ~1e-11 or to below zero)
    monkeypatch.setattr(validation, "STANDARD_GAIN", (0.0,))
    monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0,))
    specs, [state], [(means, std_errors)] = _grid_estimates([MODES[1]], seed=42, draws=20_000)
    assert means.shape == (len(validation.STANDARD_THICKNESS), 1, 4)
    cfg = config(MODES[1], realizations=20_000, seed=42)
    for spec, mean, std_error in zip(specs, means[:, 0], std_errors[:, 0]):
        rep = full_report(spec, state)
        for quantity, est, spread in zip(QUANTITIES, mean, std_error):
            values = realization_values(spec, state, cfg, quantity)
            direct = np.std(values, ddof=1) / math.sqrt(values.size)
            where = (spec.thickness_ratio, quantity, est, spread)
            assert 0.0 < spread <= 1e-15, where
            assert math.isclose(spread, direct, rel_tol=0.1), (*where, direct)
            assert abs(est - getattr(rep, quantity)) <= 1e-12, where


def test_unshaped_mean_mode_exact_at_zero_squeezing(monkeypatch):
    # at r = 0 the phases drop out exactly: with constant magnitudes
    # every draw gives the same number, on every medium of the grid
    monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0,))
    specs, [state], [(means, std_errors)] = _grid_estimates([MODES[0]], seed=42, draws=2000)
    unshaped = [QUANTITIES.index(q) for q in ("x_nowfs", "p_nowfs")]
    assert std_errors[..., unshaped].size == 2 * len(specs) == 2 * 4 * 6
    for spec, mean, std_error in zip(specs, means[:, 0], std_errors[:, 0]):
        rep = full_report(spec, state)
        for k in unshaped:
            assert std_error[k] == 0.0, (spec, QUANTITIES[k])
            assert abs(mean[k] - getattr(rep, QUANTITIES[k])) <= 1e-12, (spec, QUANTITIES[k])


def test_shaped_exponential_mode_has_spread(reference_spec, reference_state):
    est = mc_average(
        reference_spec, reference_state, config(MODES[1], realizations=1000, seed=42), "x_wfs"
    )
    assert est.std_error > 0.0


@pytest.mark.parametrize("mode", MODES)
def test_mc_converges_to_analytic(mode, reference_spec, reference_state):
    # single-point convergence; the full grid runs in the acceptance suite
    rep = full_report(reference_spec, reference_state)
    cfg = config(mode, realizations=20_000, seed=42)
    for quantity, target in (("x_nowfs", rep.x_nowfs), ("p_wfs", rep.p_wfs)):
        est = mc_average(reference_spec, reference_state, cfg, quantity)
        assert abs(est.mean - target) <= max(3.0 * est.std_error, 1e-12), quantity


def test_both_samplers_agree(reference_spec, reference_state):
    # distribution independence: any mean-preserving magnitude law gives
    # the same ensemble average
    mean_est = mc_average(
        reference_spec, reference_state, config(MODES[0], realizations=20_000, seed=7), "x_nowfs"
    )
    exp_est = mc_average(
        reference_spec, reference_state, config(MODES[1], realizations=20_000, seed=7), "x_nowfs"
    )
    spread = math.hypot(mean_est.std_error, exp_est.std_error)
    assert abs(mean_est.mean - exp_est.mean) <= 3.0 * spread


def test_linear_limit_sampling():
    # gain-free slab: no spontaneous weight, shaped variance dips below 1
    spec = MediumSpec(thickness_ratio=2.0, gain_ratio=0.0)
    state = InputState(squeeze_r=1.0)
    est = mc_average(spec, state, config(MODES[0], realizations=500, seed=4), "x_wfs")
    assert est.std_error == 0.0
    assert abs(est.mean - full_report(spec, state).x_wfs) <= 1e-12
    assert est.mean < 1.0


def test_validation_rejects_unknown_sampler(monkeypatch):
    # refused before any check runs, naming every accepted value
    def refuse_check(*args):
        raise AssertionError("a check ran for an unknown sampler")

    monkeypatch.setattr(validation, "_check_flux", refuse_check)
    with pytest.raises(ParameterError, match="'mean', 'exponential' or 'both'.*'Mean'"):
        validation.run_validation(sampler="Mean")


@pytest.mark.parametrize("mode", MODES)
def test_validation_reduces_like_mc_average(monkeypatch, mode):
    # the grid check draws both samplers in one pass over 8 chunks,
    # reduces each medium once per sampler and estimates all its
    # squeezings and quantities in one stack; every element must equal
    # that sampler's per-quantity mc_average bit for bit, with the mode
    # first or second in the pass, and a both-sampler report's check
    # must equal the single-sampler report's
    _chunk_draws(monkeypatch, 64)
    monkeypatch.setattr(validation, "STANDARD_THICKNESS", (2.0, 10.0))
    monkeypatch.setattr(validation, "STANDARD_GAIN", (0.0, 2.5))
    monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0, 1.0))
    other = MODES[1 - MODES.index(mode)]
    specs, states, [(means, std_errors), _] = _grid_estimates([mode, other], seed=5, draws=500)
    assert means.shape == std_errors.shape == (4, 2, 4)
    cfg = config(mode, realizations=500, seed=5)
    for (i, spec), (j, state), (k, quantity) in itertools.product(
        enumerate(specs), enumerate(states), enumerate(QUANTITIES)
    ):
        est = mc_average(spec, state, cfg, quantity)
        stacked = (float(means[i, j, k]).hex(), float(std_errors[i, j, k]).hex())
        assert (est.mean.hex(), est.std_error.hex()) == stacked, (spec, state, quantity)
    both, single = (
        {c.name: c for c in validation.run_validation(realizations=500, seed=5, sampler=s).checks}
        for s in ("both", mode.value)
    )
    name = f"mc-oracle-{mode.value}"
    assert both[name].status == single[name].status
    assert json.dumps(both[name].detail) == json.dumps(single[name].detail)


@pytest.mark.parametrize("grid", ["standard", "small"])
def test_identity_checks_match_scalar_reference(monkeypatch, grid):
    # each identity check evaluates its grid once on whole arrays; its
    # status and detail must be those of the point-by-point loop it
    # replaced, byte for byte, with the flux constraint intact and
    # corrupted, on the standard grid and on a patched one
    if grid == "small":
        monkeypatch.setattr(validation, "STANDARD_THICKNESS", (2.0, 10.0))
        monkeypatch.setattr(validation, "STANDARD_GAIN", (0.0, 2.5))
        monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0, 1.0))
    pairs = [
        (validation._check_flux(False), scalar_flux_check(False)),
        (validation._check_flux(True), scalar_flux_check(True)),
        (validation._check_linear_limit(), scalar_linear_limit_check()),
        (validation._check_analytic_identities(), scalar_identity_check()),
        (validation._check_snl_sign(), scalar_snl_sign_check()),
    ]
    for check, (status, detail) in pairs:
        assert check.status == status, check.name
        assert json.dumps(check.detail, sort_keys=True) == json.dumps(detail, sort_keys=True)
    assert [check.status for check, _ in pairs] == ["pass", "fail", "pass", "pass", "pass"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case, channels", [
    pytest.param("pass", 4, id="pass"),
    *(pytest.param("pass", n, id=f"pass-{n}-channels") for n in (1, 2, 6, 8)),
    pytest.param("warning", 4, id="warning"),
    pytest.param("fail", 4, id="fail"),
])
def test_mc_check_matches_scalar_reference(monkeypatch, mode, case, channels):
    # the whole-grid check reports what the point-by-point loop reports,
    # byte for byte: a passing run (at every channel count, since N sets
    # both the Beta shape and the Dirichlet splits), a low-draw warning,
    # and a failing run with more failures than the report lists (its cap
    # and order)
    monkeypatch.setattr(validation, "STANDARD_THICKNESS", (2.0, 10.0))
    monkeypatch.setattr(validation, "STANDARD_GAIN", (0.0, 2.5))
    monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0, 1.0))
    seed, draws = 42, 2000
    if case == "warning":
        seed, draws = (13, 10) if mode is MODES[0] else (5, 10)
    if case == "fail":
        # shift the closed forms that the check's array evaluator and the
        # reference's full_report both take from analytic._forms
        forms = analytic._forms

        def moved(t_bar, v_bar, factors):
            rep = forms(t_bar, v_bar, factors)
            return dataclasses.replace(rep, x_nowfs=rep.x_nowfs + 1.0, p_wfs=rep.p_wfs + 1.0)

        monkeypatch.setattr(analytic, "_forms", moved)
    check = validation.run_validation(
        channels=channels, seed=seed, realizations=draws, sampler=mode.value
    ).checks[-1]
    status, detail, failures = scalar_mc_check(mode, channels, seed, draws)
    assert (check.status, status) == (case, case)
    assert json.dumps(check.detail, sort_keys=True) == json.dumps(detail, sort_keys=True)
    if case == "warning":
        violations = 8 if mode is MODES[0] else 12
        assert detail["sigma_violations_at_low_precision"] == violations
    if case == "fail":
        assert failures > len(detail["failures"]) == 10


# -- Beta share tables -------------------------------------------------------

def _grid_shares(channels=4):
    specs = [
        MediumSpec(thickness_ratio=t, gain_ratio=g, channels=channels)
        for t in validation.STANDARD_THICKNESS
        for g in validation.STANDARD_GAIN
    ]
    return specs, sorted({ensemble._share_shape(mean_coefficients(s), channels) for s in specs})


# The 19 distinct Beta shapes of the 4-channel standard grid, plus (2, 6),
# where the lower tail's exponent 1/a is 0.5.
SHARE_SHAPES = _grid_shares()[1] + [(2.0, 6.0)]
SHARE_IDS = [f"a={a:.4g}" for a, _ in SHARE_SHAPES[:-1]] + ["a=2,b=6"]
EDGE_UNIFORMS = np.array([0.0, 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])


# Shapes outside the tables' domain, min(a, b) < 0.09 or a + b > 12.5:
# a below the floor (4 and 1 channels at L/l = 100), b below it (1
# channel at L/l = 1.026), 8 and 64 channels, and a sum just past the
# ceiling.
OUTSIDE_SHAPES = [(0.08, 7.92), (12.8, 115.2), (0.8, 15.2), (1.95, 0.05), (0.02, 1.98), (6.2, 6.4)]

# Shapes inside the domain but outside its first bounds (a >= 0.3,
# b >= 2.5, a + b <= 10.5): the four that those left to betaincinv, the
# present domain's corners and the 1-channel grid's smallest a.
CORNER_SHAPES = [
    (0.2, 3.8), (6.0, 1.5), (0.85, 2.15), (2.4, 9.6),
    (0.09, 12.41), (12.41, 0.09), (0.09, 0.09), (0.1, 1.9),
]
CORNER_IDS = [f"a={a:.4g},b={b:.4g}" for a, b in CORNER_SHAPES]


def beta_share(a, b, u):
    # as a chunk runs it: sort the uniforms once, share, restore draw order
    return ensemble._ShareUniforms.of(u).shares(ensemble._share_table(a, b))


def ulps_off(x, reference):
    return np.abs(x - reference) / np.spacing(np.abs(reference))


@pytest.mark.parametrize("shape", SHARE_SHAPES, ids=SHARE_IDS)
def test_beta_share_within_32_ulp_of_betaincinv(shape):
    a, b = shape
    assert isinstance(ensemble._share_table(a, b), _beta._ShareTable)
    u = np.random.default_rng(1300).random(100_000)
    off = ulps_off(beta_share(a, b, u), betaincinv(a, b, u))
    assert off.max() <= 32, (off.max(), u[np.argmax(off)])


@pytest.mark.parametrize("shape", SHARE_SHAPES, ids=SHARE_IDS)
def test_beta_share_edge_uniforms(shape):
    a, b = shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        share = beta_share(a, b, EDGE_UNIFORMS)
    assert np.all((share >= 0.0) & (share <= 1.0)), share
    assert share[0] == 0.0 and math.copysign(1.0, share[0]) == 1.0
    assert np.all(share[1:] > 0.0)
    assert np.all(ulps_off(share[1:], betaincinv(a, b, EDGE_UNIFORMS[1:])) <= 32)


@pytest.mark.parametrize(
    "shape",
    SHARE_SHAPES + CORNER_SHAPES + OUTSIDE_SHAPES,
    ids=SHARE_IDS + CORNER_IDS + [f"outside-a={a:.4g},b={b:.4g}" for a, b in OUTSIDE_SHAPES],
)
def test_beta_share_single_rows_equal_bulk(shape):
    # strided columns of a uniform block, as _magnitudes reads them, on
    # both the tables and betaincinv
    a, b = shape
    block = np.random.default_rng(1301).random((200, 3))
    block[:5, 1] = EDGE_UNIFORMS
    bulk = beta_share(a, b, block[:, 1])
    for k in range(block.shape[0]):
        single = beta_share(a, b, block[k : k + 1, 1])
        assert single.shape == (1,)
        assert single[0].hex() == bulk[k].hex(), k


@pytest.mark.parametrize("shape", SHARE_SHAPES + CORNER_SHAPES, ids=SHARE_IDS + CORNER_IDS)
def test_sorted_shares_match_masked_form(shape):
    # u = 0, the split, its two float neighbours and tied uniforms, in
    # shuffled order, against the masks and scatters over unsorted u
    a, b = shape
    table = ensemble._share_table(a, b)
    split = table.split
    edges = [0.0, split, np.nextafter(split, 0.0), np.nextafter(split, 1.0), 1.0 - 2.0**-53]
    rng = np.random.default_rng(1303)
    u = np.concatenate((edges * 3, rng.random(3000)))
    u = np.concatenate((u, u[rng.integers(0, u.size, 500)]))
    rng.shuffle(u)
    sorted_form = [x.hex() for x in beta_share(a, b, u)]
    assert sorted_form == [x.hex() for x in masked_beta_share(table, u)]


@pytest.mark.parametrize("shape", OUTSIDE_SHAPES)
def test_beta_share_outside_domain_is_betaincinv(shape):
    a, b = shape
    share = ensemble._share_table(a, b)
    assert isinstance(share, functools.partial) and share.func is betaincinv
    u = np.concatenate((EDGE_UNIFORMS, np.random.default_rng(1302).random(2000)))
    assert np.array_equal(beta_share(a, b, u), betaincinv(a, b, u))


def recorded_builds(monkeypatch):
    # an empty cache, and the (thread, shapes) of every batch of tables built
    builds = []
    build_tables = _beta._build_tables

    def recorded(shapes):
        builds.append((threading.current_thread(), list(shapes)))
        return build_tables(shapes)

    monkeypatch.setattr(_beta, "_tables", {})
    monkeypatch.setattr(_beta, "_build_tables", recorded)
    return builds


def test_share_tables_built_once_per_grid_shape(monkeypatch):
    # the tables are built on the calling thread before the pool starts,
    # all 19 in one batch, so concurrent chunks never race to fill the cache
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 3)
    builds = recorded_builds(monkeypatch)
    specs, shapes = _grid_shares()
    ensemble.medium_moments(specs, [config(MODES[1], realizations=3 * 2**13, seed=4)])
    assert len(shapes) == 19
    [(thread, built)] = builds
    assert thread is threading.current_thread() and sorted(built) == shapes


def test_share_tables_resolved_once_past_the_cache(monkeypatch):
    # 70 shapes overflow the 64-entry cache: each table is still built
    # once, on the calling thread, and no chunk looks one up again
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 2)
    builds = recorded_builds(monkeypatch)
    specs = [MediumSpec(thickness_ratio=1.5 + k / 4, gain_ratio=0.0, channels=4) for k in range(70)]
    shapes = {ensemble._share_shape(mean_coefficients(s), 4) for s in specs}
    assert len(shapes) == 70
    rows = ensemble._chunk_rows(4)
    ensemble.medium_moments(specs, [config(MODES[1], realizations=3 * rows + 1, seed=4)])
    built = [shape for _, batch in builds for shape in batch]
    assert sorted(built) == sorted(shapes)
    assert {thread for thread, _ in builds} == {threading.current_thread()}
    assert len(_beta._tables) == _beta._SHARE_CACHE_SIZE


# Beta(a, b) quantiles to 40 digits, computed once with mpmath 1.3.0:
#
#     mp.mp.dps = 50
#     x = mp.mpf(float(betaincinv(a, b, u)))
#     for _ in range(8):
#         if u <= 0.5:
#             r = mp.betainc(a, b, 0, x, regularized=True) - u
#         else:
#             r = (1 - mp.mpf(u)) - mp.betainc(a, b, x, 1, regularized=True)
#         x -= r * mp.beta(a, b) / (x ** (a - 1) * (1 - x) ** (b - 1))
#     mp.nstr(x, 40, min_fixed=0, max_fixed=0)
#
# For (0.4, 7.6) and (1.6, 6.4) they include u = b / (a + b), where the
# two tails meet, its two float neighbours, and a u halfway into the
# lower tail's first interval (0.045 and 4e-06).  The tables' domain
# corners (0.3, 10.2), (0.3, 2.5) and (8, 2.5) follow, at the split and
# its neighbours too: (0.3, 10.2) has the longest series, 217 terms.
FROZEN_BETA_QUANTILES = (
    (0.4, 7.6, 1.1102230246251565e-16, "1.3184093357066752772302288381023536721e-41"),
    (0.4, 7.6, 1e-10, "1.015137088227859562675097901548375787799e-26"),
    (0.4, 7.6, 0.01, "1.015141946346348555782161881787375495586e-6"),
    (0.4, 7.6, 0.045, "4.361594390648230356185950866870884866523e-5"),
    (0.4, 7.6, 0.3, "5.126084200297974407748705893172810383119e-3"),
    (0.4, 7.6, 0.5, "1.966346401371551329101360125796211064318e-2"),
    (0.4, 7.6, 0.5000000000000001, "1.966346401371552528821331558756976080886e-2"),
    (0.4, 7.6, 0.9499999999999998, "2.033506923089053247644826195359124966807e-1"),
    (0.4, 7.6, 0.95, "2.033506923089055164300510527804425701837e-1"),
    (0.4, 7.6, 0.9500000000000001, "2.033506923089057080956194860253853789782e-1"),
    (0.4, 7.6, 0.99, "3.364362477656437621414152672052001969706e-1"),
    (0.4, 7.6, 0.9999999999999999, "9.896160010563942632472172532490449689125e-1"),
    (1.6, 6.4, 1.1102230246251565e-16, "1.99503001866708522082238147808552078549e-11"),
    (1.6, 6.4, 1e-10, "1.050916318896148029985332605013071342031e-7"),
    (1.6, 6.4, 4e-06, "7.905454492734556661031688916121559512922e-5"),
    (1.6, 6.4, 0.01, "1.074654185671860588332311510841870692155e-2"),
    (1.6, 6.4, 0.3, "1.110380086386139842969802981865007526144e-1"),
    (1.6, 6.4, 0.5, "1.744678788380058537791240459550719411302e-1"),
    (1.6, 6.4, 0.5000000000000001, "1.744678788380058918336532197010695141098e-1"),
    (1.6, 6.4, 0.7999999999999999, "3.078035604825020748078506164667783858681e-1"),
    (1.6, 6.4, 0.8, "3.078035604825021448882195880825946065635e-1"),
    (1.6, 6.4, 0.8000000000000002, "3.078035604825022149685885596984395677373e-1"),
    (1.6, 6.4, 0.99, "5.854403245665011364112422018432473514605e-1"),
    (1.6, 6.4, 0.9999999999999999, "9.973748641840762744257008924755327657113e-1"),
    (4.0, 4.0, 1.1102230246251565e-16, "4.220331289376522904487795269965444199686e-5"),
    (4.0, 4.0, 1e-10, "1.301134510784796545538651742616948277747e-3"),
    (4.0, 4.0, 0.01, "1.422703770068572651702761118567973364289e-1"),
    (4.0, 4.0, 0.3, "4.052406440074580285145152005050963746052e-1"),
    (4.0, 4.0, 0.5, "5.0e-1"),
    (4.0, 4.0, 0.5000000000000001, "5.00000000000000050753052554292870419366e-1"),
    (4.0, 4.0, 0.99, "8.577296229931427007357558778079371328445e-1"),
    (4.0, 4.0, 0.9999999999999999, "9.99957796687106234770955122047300345558e-1"),
    (0.3, 10.2, 1e-10, "3.284444512299043101404879741457687539894e-35"),
    (0.3, 10.2, 0.5, "7.393951271336889627829107925359257512609e-3"),
    (0.3, 10.2, 0.9714285714285712, "1.665455969016137693778445245506959328094e-1"),
    (0.3, 10.2, 0.9714285714285713, "1.665455969016140241710168164848991845516e-1"),
    (0.3, 10.2, 0.9714285714285714, "1.665455969016142789641891084200919044974e-1"),
    (0.3, 10.2, 0.99, "2.348200899772972478386378944942427286905e-1"),
    (0.3, 2.5, 1e-10, "1.493428214028731374749349864628401758431e-34"),
    (0.3, 2.5, 0.5, "3.316823098334617196294788611782483401182e-2"),
    (0.3, 2.5, 0.8928571428571428, "3.197589397753290885993929714748284333483e-1"),
    (0.3, 2.5, 0.8928571428571429, "3.197589397753292999122407525017213636119e-1"),
    (0.3, 2.5, 0.892857142857143, "3.197589397753295112250885335288105108357e-1"),
    (0.3, 2.5, 0.99, "6.986365266613886249629006815942863738101e-1"),
    (8.0, 2.5, 1e-10, "3.865443156812464377236322103109832184963e-2"),
    (8.0, 2.5, 0.23809523809523805, "6.775930746203857445683325007208539145231e-1"),
    (8.0, 2.5, 0.23809523809523808, "6.775930746203857582358964416508104850024e-1"),
    (8.0, 2.5, 0.2380952380952381, "6.77593074620385771903460382580765994785e-1"),
    (8.0, 2.5, 0.5, "7.789447958316912558047823447103981767186e-1"),
    (8.0, 2.5, 0.99, "9.687270591350975720712084763835869005325e-1"),
)


# Quantiles at the present domain's corners, (0.09, 12.41), (12.41,
# 0.09), (0.09, 0.09) and (6.25, 6.25), and at grid shapes of 1 and 2
# channels, (0.1, 1.9), (1, 1), (0.2, 3.8) and (2, 2): at 1e-10, 1/2 or
# 1/4, 0.99, the split and its neighbours, and for five of them the
# uniform where a domain sweep found the share farthest off (29.5, 4.0,
# 29.3, 27.0 and 11.9 ulp), to 40 digits
# with mpmath 1.3.0: Newton steps as above, to a step below 1e-45
# relative, on the lower tail for u <= b / (a + b) and as 1 minus
# Beta(b, a)'s quantile at 1 - u above it.  betaincinv reads up to 57 ulp
# off here, so only the share is held to the bound.
FROZEN_CORNER_QUANTILES = (
    (0.09, 12.41, 1e-10, "3.902566318946103363604647578219652162958e-113"),
    (0.09, 12.41, 0.5, "2.279225447807882190313738493364041699434e-5"),
    (0.09, 12.41, 0.9927999999999999, "1.352453723730809866554183865634637987326e-1"),
    (0.09, 12.41, 0.9928, "1.352453723730817878955877948991227250836e-1"),
    (0.09, 12.41, 0.9928000000000001, "1.352453723730825891357572032475719382229e-1"),
    (0.09, 12.41, 0.99, "1.182924092873166617249948088217252008336e-1"),
    (0.09, 12.41, 0.7446787391543124, "1.943987457895856635788488972631861588185e-3"),
    (12.41, 0.09, 1e-10, "2.237645798301459162845603885589895814112e-1"),
    (12.41, 0.09, 0.5, "9.99977207745521921178096862615066359583e-1"),
    (12.41, 0.09, 0.007199999999999999, "8.647546276269183185191222046461935260959e-1"),
    (12.41, 0.09, 0.0072, "8.647546276269183247788110281488521620156e-1"),
    (12.41, 0.09, 0.007200000000000001, "8.647546276269182121044122051008772749164e-1"),
    (12.41, 0.09, 0.99, "9.999999999999999999999969783846299854086e-1"),
    (12.41, 0.09, 0.008696852675993294, "8.7453320584597138231478361835268456883e-1"),
    (0.09, 0.09, 1e-10, "1.502393395325546957402174184460384383238e-108"),
    (0.09, 0.09, 0.49999999999999994, "4.999999999999996547182195034034052871276e-1"),
    (0.09, 0.09, 0.5, "5.0e-1"),
    (0.09, 0.09, 0.5000000000000001, "5.000000000000006905635609931931894257447e-1"),
    (0.09, 0.09, 0.99, "9.999999999999999998836751356899419808503e-1"),
    (0.09, 0.09, 0.39608160581301033, "6.244757225972696006644280672337820137555e-2"),
    (6.25, 6.25, 1e-10, "8.990273584363480582069970232164627803387e-3"),
    (6.25, 6.25, 0.49999999999999994, "4.99999999999999979924708473824513164682e-1"),
    (6.25, 6.25, 0.5, "5.0e-1"),
    (6.25, 6.25, 0.5000000000000001, "5.000000000000000401505830523509736706361e-1"),
    (6.25, 6.25, 0.99, "8.009612513749203939246328081459898641912e-1"),
    (0.1, 1.9, 1e-10, "4.112445736222106885906543949730106501945e-101"),
    (0.1, 1.9, 0.5, "4.017380599887919207789980321273909900857e-4"),
    (0.1, 1.9, 0.9499999999999998, "3.22526851712340686189349092452882342828e-1"),
    (0.1, 1.9, 0.95, "3.225268517123412070561288060097268422182e-1"),
    (0.1, 1.9, 0.9500000000000001, "3.225268517123417279229085195676888167335e-1"),
    (0.1, 1.9, 0.99, "6.498703251679976220497732917531791731808e-1"),
    (0.1, 1.9, 0.5460569074547363, "9.701166713673068312825079225894815155374e-4"),
    (1.0, 1.0, 1e-10, "1.000000000000000036432197315497741579166e-10"),
    (1.0, 1.0, 0.25, "2.5e-1"),
    (1.0, 1.0, 0.99, "9.899999999999999911182158029987476766109e-1"),
    (0.2, 3.8, 1e-10, "1.91272388263270485863215710146939076837e-51"),
    (0.2, 3.8, 0.5, "6.062279117946807950750673023855648868307e-3"),
    (0.2, 3.8, 0.9499999999999998, "2.600614784604566487440783063667908867578e-1"),
    (0.2, 3.8, 0.95, "2.600614784604569642617780454544959430423e-1"),
    (0.2, 3.8, 0.9500000000000001, "2.600614784604572797794777845428839513138e-1"),
    (0.2, 3.8, 0.99, "4.735390493966160899884732543342028799052e-1"),
    (0.2, 3.8, 0.5107488279417172, "6.753374072433446878257391982913720781185e-3"),
    (2.0, 2.0, 1e-10, "5.773513803060827548852390882229831958868e-6"),
    (2.0, 2.0, 0.25, "3.263518223330696511482833732306852039996e-1"),
    (2.0, 2.0, 0.99, "9.410968642218047191558301309255291151089e-1"),
)


@pytest.mark.parametrize("a, b, u, quantile", FROZEN_BETA_QUANTILES + FROZEN_CORNER_QUANTILES)
def test_beta_share_against_40_digit_quantiles(a, b, u, quantile):
    ulp = Decimal(float(np.spacing(float(quantile))))
    shares = [beta_share(a, b, np.array([u]))[0]]
    if (a, b, u, quantile) in FROZEN_BETA_QUANTILES:
        shares.append(betaincinv(a, b, u))
    for share in shares:
        assert abs(Decimal(float(share)) - Decimal(quantile)) <= 32 * ulp, (share, quantile)


# The smallest uniforms at two grid shapes whose exponent 1/a rounds far
# from 1/a, against 40-digit quantiles from the same snippet: the share
# reads p**(1/a) to within an ulp there, and within 4 ulp of the quantile,
# where p**e with the rounded exponent e alone reads 9 to 15 ulp off.
# Then the same uniforms at the corners above, from their snippet, where
# the shares read within 2.1 ulp and betaincinv up to 57.
TINY_BETA_QUANTILES = (
    (1.9300592530812632, 6.0699407469187365,
     1.1102230246251565e-16, "1.151348905602315809675729594725893540692e-9"),
    (1.9300592530812632, 6.0699407469187365,
     1e-10, "1.400854273998857374067861992009376788608e-6"),
    (2.761821043008646, 5.238178956991354,
     1.1102230246251565e-16, "4.739321975089016840806324093099283587551e-7"),
    (2.761821043008646, 5.238178956991354,
     1e-10, "6.78870147416387206661986245882667897474e-5"),
    (0.09, 12.41, 1.1102230246251565e-16, "2.686839561973567380941545506581044613769e-179"),
    (0.09, 12.41, 1e-10, "3.902566318946103363604647578219652162958e-113"),
    (12.41, 0.09, 1.1102230246251565e-16, "7.500291256391722401624440790285168327206e-2"),
    (12.41, 0.09, 1e-10, "2.237645798301459162845603885589895814112e-1"),
    (0.09, 0.09, 1.1102230246251565e-16, "1.034368075338330259954714333083377647945e-174"),
    (0.09, 0.09, 1e-10, "1.502393395325546957402174184460384383238e-108"),
    (0.1, 1.9, 1.1102230246251565e-16, "1.170044766972205485958772230798253050194e-160"),
    (0.1, 1.9, 1e-10, "4.112445736222106885906543949730106501945e-101"),
    (0.2, 3.8, 1.1102230246251565e-16, "3.226290205033355988019912901085473911093e-81"),
    (0.2, 3.8, 1e-10, "1.91272388263270485863215710146939076837e-51"),
    (6.25, 6.25, 1.1102230246251565e-16, "9.965856881017246554755529238641131892236e-4"),
    (6.25, 6.25, 1e-10, "8.990273584363480582069970232164627803387e-3"),
)


@pytest.mark.parametrize("a, b, u, quantile", TINY_BETA_QUANTILES)
def test_beta_share_of_tiny_uniforms_within_4_ulp(a, b, u, quantile):
    ulp = Decimal(float(np.spacing(float(quantile))))
    share = beta_share(a, b, np.array([u]))[0]
    assert abs(Decimal(float(share)) - Decimal(quantile)) <= 4 * ulp, (share, quantile)


@pytest.mark.parametrize("channels", [1, 2, 6, 8])
def test_gate_passes_at_other_channel_counts(channels):
    # test_criterion_5 gates 4 channels; N also sets the Beta shape (on
    # the share tables up to 6 channels, on betaincinv at 8) and the
    # Dirichlet splits
    report = validation.run_validation(channels=channels, seed=42, realizations=10_000)
    assert report.status == "pass", [c.name for c in report.checks if c.status != "pass"]
