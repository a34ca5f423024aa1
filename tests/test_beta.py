"""The package's own incomplete beta, and the runs that never load scipy.

The share tables are built from B(a, b), the incomplete beta I_x(a, b)
as a series of positive terms and its complement Q = 1 - I_x(a, b) as
an integral from the top of a tail (``ramsq._beta``).  These hold each
against 40-digit references, hold a table to be the same whatever batch
built it, and check in subprocesses which runs import scipy.
"""
import json
import os
import subprocess
import sys
import threading
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ramsq import _beta

SRC = Path(__file__).resolve().parent.parent / "src"

# B(a, b), (a B)**(1/a) and (b B)**(1/b) to 40 digits, computed once with
# mpmath 1.3.0:
#
#     mp.mp.dps = 50
#     beta = mp.beta(a, b)
#     for v in (beta, (a * beta) ** (1 / mp.mpf(a)), (b * beta) ** (1 / mp.mpf(b))):
#         mp.nstr(v, 40, min_fixed=0, max_fixed=0)
FROZEN_SHAPE_CONSTANTS = (
    (0.4, 7.6,
     "1.001266962863567458316087389607448765692",
     "1.015137088227856226366934588989568913754e-1",
     "1.306077292354053801765376633429176098243"),
    (0.4146056532623545, 7.585394346737646,
     "9.379953203524500268139904673714322668302e-1",
     "1.024973639794038995254661921963406288403e-1",
     "1.29522344719223410552848907885156055833"),
    (0.463094533911402, 7.536905466088598,
     "7.629861753093411512824144493499423549758e-1",
     "1.057693242908771249443573547015422335463e-1",
     "1.261242593423699362925610886758643866268"),
    (1.6, 6.4,
     "4.269616647662368867557011362566705023252e-2",
     "1.86882244366416106146770868086591522252e-1",
     "8.165144669237835499822144342657922307057e-1"),
    (4.0, 4.0,
     "7.142857142857142857142857142857142857143e-3",
     "4.111336169005197214170245529280601920501e-1",
     "4.111336169005197214170245529280601920501e-1"),
    (0.3, 2.5,
     "2.372105774980298063409027864339509739317",
     "3.217493551375868328411286657468052917057e-1",
     "2.038119404354885949996683005942324976904"),
    (8.0, 2.5,
     "5.9119415156566859353237062215390388765e-3",
     "6.828927696582661702822368559469008819122e-1",
     "1.85296857949075674300641983947344419392e-1"),
)

# I_x(a, b) and Q = 1 - I_x(a, b) to 40 digits, from the same mpmath:
#
#     mp.nstr(mp.betainc(a, b, 0, x, regularized=True), 40, min_fixed=0, max_fixed=0)
#     mp.nstr(mp.betainc(a, b, x, 1, regularized=True), 40, min_fixed=0, max_fixed=0)
#
# I_x spans both tails' ranges: up to the median of the lower tails, and
# to x = 0.8-0.85 of the upper ones (7.6, 0.4) and (8, 2.5), where the
# series needs the most terms.  Q covers the p > 1/2 part of the lower
# tails with a <= 0.46, from their medians (0.0197, 0.0213, 0.0267) to
# where they meet the upper tails (0.2-0.21): there 1 - I cancels, and 37
# ulp off was measured for it at a = 0.4.
FROZEN_LOWER = (
    (0.4, 7.6, 1e-12, "3.957219331209675478172149984265713916949e-5"),
    (0.4, 7.6, 0.001, "1.572431488819972426322300873594888415247e-1"),
    (0.4, 7.6, 0.0196, "4.994120075969193817542852869478425087769e-1"),
    (0.4, 7.6, 0.12, "8.690132207944082856867129698638133244359e-1"),
    (0.4146056532623545, 7.585394346737646, 0.005, "2.831176636630131580304266662060007188581e-1"),
    (0.4146056532623545, 7.585394346737646, 0.02, "4.889030691297747705830135668880775963469e-1"),
    (0.4146056532623545, 7.585394346737646, 0.2, "9.452890675487869554640086010253099083921e-1"),
    (1.6, 6.4, 0.01, "8.934062500324911108940903372820107143777e-3"),
    (1.6, 6.4, 0.17, "4.868756423974957728894992227549076086538e-1"),
    (1.6, 6.4, 0.3, "7.873531577290183978636524515389461775264e-1"),
    (4.0, 4.0, 0.05, "1.935781250000000416446391260372227971067e-4"),
    (4.0, 4.0, 0.3, "1.26035999999999985605514396524995847394e-1"),
    (4.0, 4.0, 0.5, "5.0e-1"),
    (0.3, 2.5, 0.001, "1.768456399625680053868894655194725964774e-1"),
    (0.3, 2.5, 0.1, "6.802486478627240042825248794898099148292e-1"),
    (0.3, 2.5, 0.4, "9.284775173821297895658156357098599781073e-1"),
    (8.0, 2.5, 0.3, "8.717033445747104577205468737943525943644e-4"),
    (8.0, 2.5, 0.6, "1.138892560589390657838909427241833347327e-1"),
    (8.0, 2.5, 0.85, "7.257689423449108246449062407466652368685e-1"),
    (7.6, 0.4, 0.3, "1.680281047651743782842957620845148639229e-5"),
    (7.6, 0.4, 0.6, "4.292293077701331187641047877611088524928e-3"),
    (7.6, 0.4, 0.8, "5.197790086047185195200194752542524040904e-2"),
)
FROZEN_UPPER = (
    (0.4, 7.6, 0.0197, "4.996621251525044694163787102012450821407e-1"),
    (0.4, 7.6, 0.05, "3.122121522623392196953466734121470997322e-1"),
    (0.4, 7.6, 0.1, "1.659103641719890384279809927183959234332e-1"),
    (0.4, 7.6, 0.15, "9.248772082560682761986523070470077517543e-2"),
    (0.4, 7.6, 0.2, "5.197790086047181856278267862002031605192e-2"),
    (0.4146056532623545, 7.585394346737646, 0.0213, "4.993862794838165171618143842278816151009e-1"),
    (0.4146056532623545, 7.585394346737646, 0.06, "2.833103264222461206777895846351940436452e-1"),
    (0.4146056532623545, 7.585394346737646, 0.12, "1.369631638069274103921650182509849879561e-1"),
    (0.4146056532623545, 7.585394346737646, 0.2, "5.471093245121304453599139897469009160786e-2"),
    (0.463094533911402, 7.536905466088598, 0.0267, "4.993412725821127721697781470238178465734e-1"),
    (0.463094533911402, 7.536905466088598, 0.08, "2.491699172980005899306583174734122067071e-1"),
    (0.463094533911402, 7.536905466088598, 0.15, "1.123584986066764755089692121887232319355e-1"),
    (0.463094533911402, 7.536905466088598, 0.209, "5.800995142374674335020864184171565548658e-2"),
    (1.6, 6.4, 0.175, "4.984488441486497403659809449051411064071e-1"),
    (1.6, 6.4, 0.25, "3.078021641662230827729608703699970977454e-1"),
    (1.6, 6.4, 0.3, "2.126468422709816021363475484610538224736e-1"),
)

# Measured against these: B and both c within 0.49 ulp, that is
# correctly rounded (from 24 digits in ``decimal``); I within 5.3 ulp
# (1.6 ulp or less where x <= 0.2), and Q within 5.1.  The series's
# error grows with the mean index of its terms, about x / (1 - x), and
# Q's comes mostly from the top of the tail, where I_y of the other tail
# is summed at y = 1 - x of about 0.8.  The bounds leave room for numpy's
# power, exp and log1p to round differently under another SIMD dispatch.
CONSTANT_ULPS = 0.5
SERIES_ULPS = 10


def ulps_off(value, reference: str) -> float:
    ulp = Decimal(float(np.spacing(float(reference))))
    return float(abs(Decimal(float(value)) - Decimal(reference)) / ulp)


@pytest.mark.parametrize("a, b, beta, c_lower, c_upper", FROZEN_SHAPE_CONSTANTS)
def test_shape_constants_correctly_rounded(a, b, beta, c_lower, c_upper):
    constants = _beta._shape_constants(a, b)
    for value, reference in zip(constants, (beta, c_lower, c_upper)):
        assert ulps_off(value, reference) <= CONSTANT_ULPS, (value, reference)


def rows_at(a, b, x):
    """Both tails of (a, b) as table rows, each evaluated at the nodes ``x``."""
    return _beta._Rows.of([(a, b)]), np.array([x, x])


@pytest.mark.parametrize("a, b, x, reference", FROZEN_LOWER)
def test_incomplete_beta_series_against_40_digits(a, b, x, reference):
    # row 0 is Beta(a, b)'s lower tail
    rows, nodes = rows_at(a, b, [x])
    series = _beta._series(rows.coef, rows.reach, nodes)
    value = _beta._lower_beta(rows, nodes, series)[0, 0]
    assert ulps_off(value, reference) <= SERIES_ULPS, (value, reference)


@pytest.mark.parametrize("a, b", sorted({case[:2] for case in FROZEN_UPPER}))
def test_complement_against_40_digits(a, b):
    # all of one shape's points at once, as the table build sums them: the
    # upper tail's last node y = 1 - x, x the largest point, is the top
    cases = [case for case in FROZEN_UPPER if case[:2] == (a, b)]
    x = [case[2] for case in cases]
    rows, nodes = rows_at(a, b, x)
    nodes[1, -1] = 1.0 - x[-1]
    below = _beta._lower_beta(rows, nodes, _beta._series(rows.coef, rows.reach, nodes))
    upper = np.zeros(nodes.shape, dtype=bool)
    upper[0] = True
    values = _beta._complement(rows, nodes, upper, below)
    for value, (_, _, _, reference) in zip(values, cases):
        assert ulps_off(value, reference) <= SERIES_ULPS, (value, reference)


# Quantiles of the three grid shapes with a <= 0.46 at eight p from 0.6
# to b/(a+b), where their lower tails end, to 40 digits, from the snippet
# above FROZEN_BETA_QUANTILES in tests/test_ensemble.py (its u > 1/2 form).
FROZEN_SPLIT_QUANTILES = {
    (0.4, 7.6): (
        (0.6437499999999999, "4.066518809927704920221205322822104516001e-2"),
        (0.6875, "4.993303570601815689736425326531319288245e-2"),
        (0.73125, "6.118046422908685936073311576693805120943e-2"),
        (0.7749999999999999, "7.506125027318919332086002753901295390155e-2"),
        (0.81875, "9.26434645468301174114469836583044951254e-2"),
        (0.8624999999999999, "1.158605570381073971420398669118576978286e-1"),
        (0.90625, "1.488245960506742600087989008449492263991e-1"),
        (0.95, "2.033506923089055164300510527804425701837e-1"),
    ),
    (0.4146056532623545, 7.585394346737646): (
        (0.6435217866677757, "4.299011955620798623988705658171598243793e-2"),
        (0.6870435733355514, "5.245907541749274690428067245212129572583e-2"),
        (0.7305653600033271, "6.389116899008452589832307179890405253843e-2"),
        (0.7740871466711028, "7.792683242868333928525333810129140945328e-2"),
        (0.8176089333388785, "9.560809860755746128591580148500797904755e-2"),
        (0.8611307200066542, "1.188095567951044970990085917295422078473e-1"),
        (0.90465250667443, "1.514769217067982456595934245406398563439e-1"),
        (0.9481742933422057, "2.047070313512358568207574015609680306121e-1"),
    ),
    (0.463094533911402, 7.536905466088598): (
        (0.6427641479076344, "5.072204448794106990518957111769878251842e-2"),
        (0.6855282958152686, "6.077984239147162338092075490718338501813e-2"),
        (0.728292443722903, "7.274017097824984501324330556017703842746e-2"),
        (0.7710565916305374, "8.720070960549362417923808748911492023144e-2"),
        (0.8138207395381717, "1.051208988746890444198892583910975639956e-1"),
        (0.8565848874458061, "1.281921022121243111932358057484608658867e-1"),
        (0.8993490353534404, "1.598584672520987714017256499443496273291e-1"),
        (0.9421131832610747, "2.091879024892948333241958260685446781114e-1"),
    ),
}

# One Newton step from guesses 1e-9 off, as the build takes it there: on
# Q against 1 - p, it read within 4.2 ulp of these.  The same step on
# I - p read up to 10.9 ulp at a = 0.4 and a = 0.463, as 1 - I cancels.
SPLIT_STEP_ULPS = 8


@pytest.mark.parametrize("a, b", sorted(FROZEN_SPLIT_QUANTILES))
def test_complement_step_near_the_split(a, b):
    p, quantiles = zip(*FROZEN_SPLIT_QUANTILES[(a, b)])
    rows = _beta._Rows.of([(a, b)])
    # row 1, the upper tail, only gives the top: its last node 1 - x
    guess = [float(q) * (1.0 + 1e-9) for q in quantiles]
    nodes = np.array([guess, [0.5] * (len(p) - 1) + [1.0 - float(quantiles[-1])]])
    refined = _beta._refine(rows, np.array([p, [0.1] * len(p)]), nodes)[0]
    for value, reference in zip(refined, quantiles):
        assert ulps_off(value, reference) <= SPLIT_STEP_ULPS, (value, reference)


# Shapes of the first domain's corners (a >= 0.3, b >= 2.5, a + b <=
# 10.5), the present domain's (min(a, b) >= 0.09, a + b <= 12.5), and
# grid shapes at 1, 2 and 4 channels: (0.09, 12.41) has the longest
# series, 267 terms at its top node, and (0.09, 0.09) sits on the floor
# in both a and b.
GUESS_SHAPES = [
    (0.3, 2.5), (0.3, 10.2), (8.0, 2.5), (0.4, 7.6),
    (0.09, 12.41), (12.41, 0.09), (0.09, 0.09), (6.25, 6.25), (0.1, 1.9), (0.2, 3.8),
]


def domain_shapes(count, seed):
    """``count`` shapes drawn uniformly over the tables' domain."""
    rng = np.random.default_rng(seed)
    low, high = _beta._SHARE_MIN, _beta._SHARE_MAX_SUM
    shapes = []
    while len(shapes) < count:
        a, b = rng.uniform(low, high - low, 2).tolist()
        if _beta._in_domain(a, b):
            shapes.append((a, b))
    return shapes


def coarse_guesses(shapes):
    rows = _beta._Rows.of(shapes)
    t, p = _beta._grid(rows, _beta._SHARE_COARSE)
    return rows, p[:, 1:], _beta._guesses(rows, p[:, 1:], t[:, 1:])


@pytest.mark.parametrize(
    "shapes",
    [pytest.param([shape], id=f"{shape[0]}-{shape[1]}") for shape in GUESS_SHAPES]
    + [pytest.param(domain_shapes(40, 2907), id="40-shape-batch")],
)
def test_guesses_converge_across_the_domain(shapes, monkeypatch):
    # the coarse nodes' Halley steps from the capped x = c t, in at most 4
    # passes and within the 2e-10 of the quintic through them, on both tails
    from scipy.special import betaincinv

    monkeypatch.setattr(_beta, "_GUESS_MAX_PASSES", 4)
    rows, p, guesses = coarse_guesses(shapes)
    for row in range(len(guesses)):
        exact = betaincinv(rows.alpha[row, 0], rows.beta[row, 0], p[row])
        assert np.all(np.abs(guesses[row] / exact - 1.0) <= 2e-10), row


def test_guesses_do_not_depend_on_the_batch():
    # a row that is done stays put while the batch's other rows step on
    _, _, batch = coarse_guesses(GUESS_SHAPES)
    for i, shape in enumerate(GUESS_SHAPES):
        _, _, alone = coarse_guesses([shape])
        assert np.array_equal(alone, batch[2 * i : 2 * i + 2]), shape


def test_tables_do_not_depend_on_the_batch():
    # each row runs its own term counts and steps, so a shape built
    # alone gets the same tables, bit for bit, as in a batch of shapes
    shapes = [(0.4, 7.6), (1.6, 6.4), (4.0, 4.0), (2.7362345703472872, 5.263765429652713)]
    batch = _beta._build_tables(shapes)
    for shape, table in zip(shapes, batch):
        [alone] = _beta._build_tables([shape])
        assert alone.split == table.split
        for mine, theirs in ((alone.lower, table.lower), (alone.upper, table.upper)):
            assert mine.root == theirs.root and mine.scale == theirs.scale
            assert np.array_equal(mine.coef, theirs.coef), shape


def coarse_to_fine_gap(shape):
    """The build's own error measure, in ulp of the share.

    The coarse table's quintic gives every node's guess and misses the
    refined node by a gap; interpolation error falls as h**6, so the gap
    over 8**6 predicts the full table's.
    """
    [table] = _beta._build_tables([shape])
    rows, _, guesses = coarse_guesses([shape])
    t, _ = _beta._grid(rows, _beta._SHARE_COARSE)
    coarse = _beta._hermite(rows, t, np.hstack([np.zeros((2, 1)), guesses]))
    ratio = _beta._SHARE_INTERVALS // _beta._SHARE_COARSE
    k = np.arange(1, _beta._SHARE_INTERVALS + 1)
    guess = _beta._quintic(coarse[:, :, k // ratio].swapaxes(0, 1), (k % ratio) / ratio)
    nodes = np.stack([table.lower.coef[0, 1:], table.upper.coef[0, 1:]])
    share = np.stack([nodes[0], 1.0 - nodes[1]])
    return (np.abs(guess - nodes) / np.spacing(share)).max() / ratio**6


def test_share_ceiling_is_where_the_predicted_error_stays_in_bound():
    # along a + b = 12.5 the prediction is at most 9.5 ulp, at the floor;
    # at 8 channels it is 32.2 at (0.8, 15.2), where the shares were
    # measured 48 ulp off 40-digit quantiles (32 is the shares' bound)
    low, ceiling = _beta._SHARE_MIN, _beta._SHARE_MAX_SUM
    for a in (low, 0.6, 2.0, ceiling / 2, ceiling - low):
        assert coarse_to_fine_gap((a, ceiling - a)) < 32, a
    assert coarse_to_fine_gap((0.8, 15.2)) > 32


def test_threads_share_one_build_per_shape(monkeypatch):
    # threads resolving overlapping shapes at once get one table per shape,
    # built once, whichever thread builds it
    built = []
    build_tables = _beta._build_tables

    def recorded(shapes):
        built.extend(shapes)
        return build_tables(shapes)

    monkeypatch.setattr(_beta, "_tables", {})
    monkeypatch.setattr(_beta, "_build_tables", recorded)
    shapes = [(0.4 + k / 10, 7.6 - k / 10) for k in range(6)]
    found = {}

    def resolve(i):
        order = shapes[i:] + shapes[:i]
        found[i] = dict(zip(order, _beta._share_tables(order)))

    threads = [threading.Thread(target=resolve, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(built) == sorted(shapes)
    for shape in shapes:
        assert len({id(tables[shape]) for tables in found.values()}) == 1


def test_share_cache_keeps_the_last_shapes_added(monkeypatch):
    # 65 new shapes keep the last 64, in the order they were added; a hit
    # leaves the order as it is, so the next new shape evicts the oldest
    # even when it was just found
    monkeypatch.setattr(_beta, "_tables", {})
    monkeypatch.setattr(_beta, "_build_tables", lambda shapes: [object() for _ in shapes])
    shapes = [(1.0 + k / 64, 2.0) for k in range(_beta._SHARE_CACHE_SIZE + 1)]
    found = _beta._share_tables(shapes)
    assert len(set(map(id, found))) == len(shapes)
    assert list(_beta._tables) == shapes[1:]
    assert list(map(id, _beta._tables.values())) == list(map(id, found[1:]))
    assert _beta._share_table(*shapes[1]) is found[1]
    assert list(_beta._tables) == shapes[1:]
    _beta._share_table(1.0, 3.0)
    assert list(_beta._tables) == shapes[2:] + [(1.0, 3.0)]


def run_python(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# A 4-channel validation with both samplers, one exponential draw and
# `ramsq coeffs`, then the scipy modules loaded.
FOUR_CHANNELS = """
import json, sys
import ramsq.cli, ramsq.validation
from ramsq.core import MediumSpec
from ramsq.ensemble import SamplerConfig, SamplerMode, sample_realization
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
report = ramsq.validation.run_validation(channels=4, seed=42, realizations=3000, sampler="both")
config = SamplerConfig(mode=SamplerMode.EXPONENTIAL_MAGNITUDES, seed=42)
sample_realization(MediumSpec(thickness_ratio=10.0, gain_ratio=2.5), config, 7)
code = ramsq.cli.main(["coeffs", "--L-over-l", "10", "--L-over-La", "2.5"])
loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps([report.status, code, loaded]))
"""


def test_four_channel_runs_load_no_scipy():
    status, code, loaded = json.loads(run_python(FOUR_CHANNELS))
    assert (status, code) == ("pass", 0)
    assert loaded == [[], []]


# A validation with the exponential sampler at another channel count (at
# 3000 draws 1 channel reads a low-precision warning) and one draw at
# L/l = 20, the grid's smallest a, then the scipy modules loaded: up to
# 6 channels every Beta shape lies in the tables' domain, and at 8
# channels (a + b = 16) none does.
OTHER_CHANNELS = """
import json, sys
import ramsq.validation
from ramsq.core import MediumSpec
from ramsq.ensemble import SamplerConfig, SamplerMode, sample_realization
channels = %d
report = ramsq.validation.run_validation(
    channels=channels, seed=42, realizations=10_000, sampler="exponential"
)
config = SamplerConfig(mode=SamplerMode.EXPONENTIAL_MAGNITUDES, seed=42)
sample_realization(MediumSpec(thickness_ratio=20.0, gain_ratio=0.0, channels=channels), config, 7)
print(json.dumps([report.status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("channels", [1, 2, 6, 8])
def test_other_channel_counts_load_scipy_only_past_the_ceiling(channels):
    status, loaded = json.loads(run_python(OTHER_CHANNELS % channels))
    assert status == "pass"
    if channels == 8:
        assert "scipy.special" in loaded
    else:
        assert loaded == []


# One 8-channel exponential draw, whose Beta shape lies past the tables'
# ceiling, against betaincinv of its share uniform.
EIGHT_CHANNELS = """
import json, sys
import numpy as np
from ramsq import ensemble
from ramsq.analytic import mean_coefficients
from ramsq.core import MediumSpec
before = "scipy.special" in sys.modules
spec = MediumSpec(thickness_ratio=10.0, gain_ratio=2.5, channels=8)
config = ensemble.SamplerConfig(mode=ensemble.SamplerMode.EXPONENTIAL_MAGNITUDES, seed=42)
real = ensemble.sample_realization(spec, config, 7)
after = "scipy.special" in sys.modules
from scipy.special import betaincinv
coef = mean_coefficients(spec)
cols = ensemble._layout(8)
row = ensemble._uniforms_for(42, cols.refl_split.stop, 7)
share = betaincinv(*ensemble._share_shape(coef, 8), row[cols.share : cols.share + 1])
total = 1.0 + coef.v_bar * -np.log1p(-row[cols.spont : cols.spont + 1])
print(json.dumps([before, after, float((total * share)[0]).hex(), real.trans_total.hex()]))
"""


def test_eight_channel_share_loads_scipy_and_is_betaincinv():
    before, after, expected, drawn = json.loads(run_python(EIGHT_CHANNELS))
    assert (before, after) == (False, True)
    assert drawn == expected
