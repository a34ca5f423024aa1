"""Fuzz over CLI argv: every accepted command line ends in a documented exit.

``main`` must return 0, 1 or 2 and never raise, and a nonzero exit must
write exactly one line to stderr and emit no warning.  An exit-0 run
with ``--out`` writes a manifest that a strict JSON parser reads.  The
figure and region commands must also write the CSV bytes, or the one
error line, of their per-point form in ``oracles``.  Sizes stay small
(grids of at most 40 steps, at most 300 draws and 6 channels) so each
example runs quickly.
"""
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ramsq import cli
from ramsq.cli import main
from ramsq.core import MAX_SQUEEZE_R

from oracles import POINTWISE_CLI

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-5.0, max_value=25.0),
    st.sampled_from([0.0, 1.0, math.pi, 400.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
)
# The huge counts are refused before any allocation.
STEPS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([2**61, 2**63, 10**22]),
)
SEEDS = st.one_of(
    st.integers(min_value=-3, max_value=100),
    st.integers(min_value=-(2**140), max_value=2**140),
    st.integers(min_value=2**128 - 2, max_value=2**128 + 2),
)
CURVES = st.one_of(
    st.lists(FLOATS, min_size=1, max_size=5).map(lambda vs: ",".join(repr(v) for v in vs)),
    st.sampled_from(["", ",", "1,,2", "x", " 3 "]),
)
# None: stdout; "ok": a writable path; "missing": a path in a missing directory.
OUTS = st.sampled_from([None, "ok", "missing"])

X_GRID = {"--x-min": FLOATS, "--x-max": FLOATS, "--x-steps": STEPS}
FIG_FLAGS = {"--L-over-l": FLOATS, "--L-over-La": FLOATS, "--squeeze-r": FLOATS, **X_GRID}

COMMANDS = {
    "coeffs": ({"--L-over-l": FLOATS, "--L-over-La": FLOATS}, {}),
    "fig2": ({}, {
        "--panel": st.sampled_from("ab"),
        "--L-over-l": FLOATS,
        "--squeeze-r": FLOATS,
        **X_GRID,
        "--L-over-La-min": FLOATS,
        "--L-over-La-max": FLOATS,
        "--L-over-La-steps": STEPS,
    }),
    "fig3": ({}, {"--panel": st.sampled_from("abcd"), "--curve-values": CURVES, **FIG_FLAGS}),
    "fig4": ({}, {"--panel": st.sampled_from("ab"), **FIG_FLAGS}),
    "figxr": ({}, {"--panel": st.sampled_from("ab"), **FIG_FLAGS}),
    "snl-region": ({}, {
        "--squeeze-r": FLOATS,
        "--L-over-l-min": FLOATS,
        "--L-over-l-max": FLOATS,
        "--L-over-l-steps": STEPS,
        "--L-over-La-min": FLOATS,
        "--L-over-La-max": FLOATS,
        "--L-over-La-steps": STEPS,
    }),
    "validate": ({}, {
        "--channels": st.integers(min_value=-2, max_value=6),
        "--seed": SEEDS,
        "--realizations": st.integers(min_value=-2, max_value=300),
        "--sampler": st.sampled_from(["mean", "exponential", "both"]),
        "--corrupt-constraint": st.none(),
    }),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    # "--flag=value" keeps values such as "-inf" from reading as flags.
    argv = [command] + [
        flag if value is None else f"{flag}={value if isinstance(value, str) else repr(value)}"
        for flag, value in flags.items()
    ]
    return argv, draw(OUTS)


def strict_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_captured(argv):
    """(exit code, stderr, warnings, stdout bytes) of one ``main`` call."""
    # Warnings are recorded here rather than printed; outside a test run
    # each one would add lines to stderr.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    stdout.flush()
    return code, stderr.getvalue(), [str(w.message) for w in caught], stdout.buffer.getvalue()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=command_lines())
def test_cli_exit_contract(tmp_path, case):
    argv, out = case
    if out is not None:
        argv = argv + [f"--out={tmp_path / ('missing/x' if out == 'missing' else 'x')}"]
    # tmp_path is shared by all examples: drop the last example's manifest
    manifest = tmp_path / "x.manifest.json"
    manifest.unlink(missing_ok=True)
    code, err, caught, _ = run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
        assert err.count("\n") == 1 and not caught, (argv, code, err, caught)
    elif out == "ok" and argv[0] != "validate":
        json.loads(manifest.read_text(), parse_constant=strict_constant)


# Values inside the figures' domains more often than outside, so that
# more command lines build a dataset: the bounds themselves, both zeros,
# and squeezings beside the largest with a finite e^(2r).
IN_RANGE = st.one_of(
    st.floats(min_value=0.0, max_value=3.5),
    st.floats(min_value=1.0, max_value=25.0),
    st.sampled_from([-1.0, 0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 2.5, math.pi,
                     math.nextafter(math.pi, 0.0), 1e-300, MAX_SQUEEZE_R,
                     math.nextafter(MAX_SQUEEZE_R, math.inf)]),
)
DATASET_FLOATS = st.one_of(FLOATS, IN_RANGE, IN_RANGE, IN_RANGE)
DATASET_STEPS = st.one_of(STEPS, st.integers(min_value=1, max_value=40))
DATASET_CURVES = st.one_of(
    CURVES, st.lists(IN_RANGE, min_size=1, max_size=5).map(lambda vs: ",".join(map(repr, vs)))
)


# Command lines where the order of the checks, or the cells' types and
# bits, decide the output: a bad value on both axes (the loop stops at the
# fast axis's), bad coordinates at one point, both zeros, and squeezings
# at and past the largest with a finite e^(2r).
EDGE_LINES = [
    "fig2 --panel b --x-min 2 --x-max -2 --x-steps 5 --L-over-La-min 0 --L-over-La-max 4"
    " --L-over-La-steps 5",
    "fig2 --panel a --x-min 1 --x-max -1 --x-steps 3 --L-over-La-min 0 --L-over-La-max 4"
    " --L-over-La-steps 5",
    "fig2 --panel b --x-min 0.5 --L-over-La-min 4 --squeeze-r -1",
    "fig2 --panel a --x-min -0.0 --x-max 0.0 --x-steps 3 --L-over-La-min -0.0 --L-over-La-max 0"
    " --L-over-La-steps 2",
    "fig3 --panel b --curve-values 1,4 --x-min 1 --x-max -1 --x-steps 3",
    "fig3 --panel b --curve-values 4 --x-min -1",
    "fig3 --panel c --curve-values=-0.0,0,-1 --x-min 3.14159 --x-max 0 --x-steps 4",
    "fig3 --panel c --curve-values=-0.0,0,1 --x-min 3.14159 --x-max 0 --x-steps 4",
    "fig2 --panel b --squeeze-r -0.0 --x-steps 2 --L-over-La-min 0 --L-over-La-max 1"
    " --L-over-La-steps 3",
    "fig3 --panel d --curve-values 2,0.5 --squeeze-r nan",
    "fig4 --panel a --x-min 354.891356446692 --x-max 354.8913564466921 --x-steps 2",
    f"fig4 --panel a --x-min {MAX_SQUEEZE_R!r} --x-max 0 --x-steps 2",
    "fig4 --panel b --squeeze-r nan --L-over-l 0.5",
    "figxr --panel a --x-min -0.0 --x-max 1 --x-steps 3 --L-over-La 0",
    "figxr --panel b --x-min 1e308 --x-max 1e308 --x-steps 2 --L-over-La 3.1415926",
    "figxr --panel b --x-min inf --x-steps 1",
    "snl-region --L-over-l-min 0.5 --L-over-l-max 2 --L-over-l-steps 3 --squeeze-r 0",
]


def run_both(monkeypatch, argv):
    """(exit code, stderr, stdout bytes) of ``argv`` and of its per-point form."""
    code, err, _, out = run_captured(argv)
    with monkeypatch.context() as patch:
        for name, pointwise in POINTWISE_CLI.items():
            patch.setattr(cli, name, pointwise)
        expected, expected_err, _, expected_out = run_captured(argv)
    return (code, err, out), (expected, expected_err, expected_out)


@pytest.mark.parametrize("line", EDGE_LINES)
def test_dataset_edges_match_pointwise_form(monkeypatch, line):
    got, expected = run_both(monkeypatch, line.split())
    assert got == expected


@st.composite
def dataset_lines(draw):
    command = draw(st.sampled_from(["fig2", "fig3", "fig4", "figxr", "snl-region"]))
    swap = {FLOATS: DATASET_FLOATS, STEPS: DATASET_STEPS, CURVES: DATASET_CURVES}
    optional = {flag: swap.get(values, values) for flag, values in COMMANDS[command][1].items()}
    flags = draw(st.fixed_dictionaries({}, optional=optional))
    return [command] + [f"{flag}={value if isinstance(value, str) else repr(value)}"
                        for flag, value in flags.items()]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=dataset_lines())
def test_datasets_match_pointwise_form(monkeypatch, argv):
    # The whole-array builders must write what the per-point loop writes:
    # the same CSV bytes, or the same exit code and error line.
    got, expected = run_both(monkeypatch, argv)
    event(f"{argv[0]} exit {got[0]}")
    assert got == expected, argv
