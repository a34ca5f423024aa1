"""Monte Carlo sampler: determinism, constraint, collapse and convergence."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from ramsq.analytic import (
    full_report,
    mean_coefficients,
    variance_x_nowfs,
    variance_x_wfs,
)
from ramsq import ensemble, validation
from ramsq.core import InputState, MediumSpec, ParameterError
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

from oracles import quadratic_form_mean, quadratic_form_variance

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
def test_scalar_and_batch_paths_identical(mode, reference_spec, reference_state):
    # draw-by-draw evaluation must reproduce the vectorized table bit for bit
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
def test_uniform_table_matches_numpy_philox(monkeypatch, seed, columns):
    # a small chunk so 40 rows cross two chunk boundaries and end mid-chunk
    monkeypatch.setattr(ensemble, "_TABLE_CHUNK_ROWS", 16)
    table = ensemble._uniform_table(seed, columns, 40)
    assert np.array_equal(table, _reference_rows(seed, columns, range(40)))


def test_uniform_table_across_default_chunk():
    chunk = ensemble._TABLE_CHUNK_ROWS
    rows = [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 2]
    table = ensemble._uniform_table(7, 19, 2 * chunk + 3)
    assert np.array_equal(table[rows], _reference_rows(7, 19, rows))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_config_rejects_seed_outside_philox_key(seed):
    with pytest.raises(ParameterError):
        SamplerConfig(mode=MODES[0], seed=seed)


# -- sliced betaincinv --------------------------------------------------------

# Above ensemble._PARALLEL_MIN_ROWS, so the split share is computed in slices.
SLICED_ROWS = 20_000


def _slice_edges(rows, workers):
    return [rows * i // workers for i in range(workers + 1)]


@pytest.fixture(scope="module")
def sliced_table():
    cfg = config(MODES[1], realizations=SLICED_ROWS, seed=42)
    return ensemble.draw_table(cfg, 4)


def test_sliced_channel_sums_bit_identical(monkeypatch, reference_spec, sliced_table):
    assert SLICED_ROWS >= ensemble._PARALLEL_MIN_ROWS
    sizes = []
    betaincinv = ensemble.betaincinv

    def recorded(a, b, x, **kwargs):
        sizes.append(x.shape[0])
        return betaincinv(a, b, x, **kwargs)

    monkeypatch.setattr(ensemble, "betaincinv", recorded)
    sums = {}
    # 3 workers give uneven slices; 7 outnumber the cores, and a short
    # switch interval interleaves the slice threads as often as it can.
    # 64 CPUs are more than the table has rows for: no slice may be
    # shorter than half the threshold.
    max_slices = SLICED_ROWS // (ensemble._PARALLEL_MIN_ROWS // 2)
    assert 7 <= max_slices < 64
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 7, 64):
            monkeypatch.setattr(ensemble, "_worker_count", lambda: workers)
            sizes.clear()
            sums[workers] = ensemble.channel_sums(reference_spec, sliced_table)
            edges = _slice_edges(SLICED_ROWS, min(workers, max_slices))
            assert sorted(sizes) == sorted(hi - lo for lo, hi in zip(edges, edges[1:]))
    finally:
        sys.setswitchinterval(interval)
    for workers in (2, 3, 7, 64):
        for field in sums[1]._fields:
            assert getattr(sums[workers], field).tobytes() == getattr(sums[1], field).tobytes()


def test_sliced_rows_match_single_draws(monkeypatch, reference_spec, reference_state, sliced_table):
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 3)
    sums = ensemble.channel_sums(reference_spec, sliced_table)
    edges = sorted({e for w in (2, 3) for e in _slice_edges(SLICED_ROWS, w)[1:-1]})
    rows = [0, SLICED_ROWS - 1] + [k for e in edges for k in (e - 1, e)]
    batch = {q: ensemble.quadrature_values(sums, reference_state, q) for q in QUANTITIES}
    for k in rows:
        real = sample_realization(reference_spec, sliced_table.config, k)
        assert batch["x_wfs"][k] == variance_x_wfs_single(real, reference_state)
        assert batch["x_nowfs"][k] == variance_x_nowfs_single(real, reference_state)
        assert batch["p_wfs"][k] == variance_p_single(real, reference_state, shaped=True)
        assert batch["p_nowfs"][k] == variance_p_single(real, reference_state, shaped=False)


@pytest.mark.parametrize("mode", MODES)
def test_small_batches_start_no_thread(monkeypatch, mode, reference_spec):
    def refuse(*args, **kwargs):
        raise AssertionError("no thread pool below _PARALLEL_MIN_ROWS")

    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 4)
    cfg = config(mode, realizations=ensemble._PARALLEL_MIN_ROWS - 1, seed=3)
    ensemble.channel_sums(reference_spec, ensemble.draw_table(cfg, 4))
    sample_realization(reference_spec, cfg, 2**62)


def test_draw_table_size_cap(monkeypatch):
    # refused before any uniform is computed
    monkeypatch.setattr(ensemble, "_uniform_table", None)
    columns = ensemble._uniform_columns(MODES[1], 4)
    too_many = ensemble._TABLE_LIMIT // columns + 1
    with pytest.raises(ParameterError):
        ensemble.draw_table(config(MODES[1], realizations=too_many), 4)


@pytest.mark.parametrize("channels", [0, -3])
def test_draw_table_rejects_channel_count(channels):
    with pytest.raises(ParameterError):
        ensemble.draw_table(config(MODES[1]), channels)


def test_mc_average_repeatable(reference_spec, reference_state):
    cfg = config(MODES[1], realizations=500, seed=9)
    first = mc_average(reference_spec, reference_state, cfg, "x_nowfs")
    second = mc_average(reference_spec, reference_state, cfg, "x_nowfs")
    assert first == second


# -- sampled magnitudes ------------------------------------------------------

def test_mean_mode_magnitudes_are_ensemble_means(reference_spec):
    coef = mean_coefficients(reference_spec)
    real = sample_realization(reference_spec, config(MODES[0]), 3)
    assert np.all(real.trans_mags == coef.t_per_channel(4))
    assert np.all(real.refl_mags == coef.r_per_channel(4))
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


# -- quadrature means --------------------------------------------------------

def test_mean_amplitude_zero_for_squeezed_vacuum(reference_spec):
    real = sample_realization(reference_spec, config(MODES[0]), 0)
    assert mean_amplitude_check(real, InputState(squeeze_r=1.0)) == (0.0, 0.0)


def test_mean_amplitude_identity_channel():
    # single channel with full transmission: means are (2 Re a, 2 Im a),
    # displacement applied after squeezing
    real = DisorderRealization(
        trans_mags=np.array([1.0]),
        trans_phases=np.array([0.0]),
        refl_mags=np.array([0.0]),
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
        real, refl_mags=real.refl_mags * 3.0, spont_mag=real.spont_mag + 5.0
    )
    assert mean_amplitude_check(tweaked, state) == mean_amplitude_check(real, state)


# -- averaged estimates ------------------------------------------------------

def test_mc_average_needs_two_draws(reference_spec, reference_state):
    with pytest.raises(ParameterError):
        mc_average(reference_spec, reference_state, config(MODES[0], realizations=1), "x_wfs")


def test_config_rejects_zero_draws():
    with pytest.raises(ParameterError):
        SamplerConfig(mode=MODES[0], realizations=0, seed=0)


def test_unknown_quantity_rejected(reference_spec, reference_state):
    with pytest.raises(ValueError):
        realization_values(reference_spec, reference_state, config(MODES[0]), "y_wfs")


def test_shaped_mean_mode_has_zero_spread(reference_spec, reference_state):
    # phase-independent integrand over constant magnitudes: every draw
    # gives the same number, so the spread must be exactly zero
    cfg = config(MODES[0], realizations=1000, seed=42)
    for quantity, target in (
        ("x_wfs", variance_x_wfs(mean_coefficients(reference_spec), reference_state)),
        ("p_wfs", None),
    ):
        est = mc_average(reference_spec, reference_state, cfg, quantity)
        assert est.std_error == 0.0
        assert est.realizations == 1000
        if target is not None:
            assert abs(est.mean - target) <= 1e-12


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
    assert abs(est.mean - variance_x_wfs(mean_coefficients(spec), state)) <= 1e-12
    assert est.mean < 1.0


@pytest.mark.parametrize("mode", MODES)
def test_validation_reduces_like_mc_average(monkeypatch, mode):
    # the grid sweep reduces each medium once; every estimate it reports
    # must equal the per-quantity mc_average bit for bit
    monkeypatch.setattr(validation, "STANDARD_THICKNESS", (2.0, 10.0))
    monkeypatch.setattr(validation, "STANDARD_GAIN", (0.0, 2.5))
    monkeypatch.setattr(validation, "STANDARD_SQUEEZE", (0.0, 1.0))
    rows = validation._mc_estimates(mode, channels=4, seed=5, realizations=500)
    expected = [
        ((th, g, r), q) for th in (2.0, 10.0) for g in (0.0, 2.5) for r in (0.0, 1.0)
        for q in QUANTITIES
    ]
    assert [(point, q) for point, q, _, _ in rows] == expected
    cfg = config(mode, realizations=500, seed=5)
    for (th, g, r), quantity, est, _ in rows:
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
        assert est == mc_average(spec, InputState(squeeze_r=r), cfg, quantity)
