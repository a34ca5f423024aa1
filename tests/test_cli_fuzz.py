"""Fuzz over CLI argv: every accepted command line ends in a documented exit.

``main`` must return 0, 1 or 2 and never raise, and a nonzero exit must
write exactly one line to stderr and emit no warning.  An exit-0 run
with ``--out`` writes a manifest that a strict JSON parser reads.  Sizes
stay small (grids of at most 40 steps, at most 300 draws and 6
channels) so each example runs quickly.
"""
import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramsq.cli import main

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
    # Warnings are recorded here rather than printed; outside a test run
    # each one would add lines to stderr.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, stderr.getvalue(), [str(w.message) for w in caught]


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
    code, err, caught = run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
        assert err.count("\n") == 1 and not caught, (argv, code, err, caught)
    elif out == "ok" and argv[0] != "validate":
        json.loads(manifest.read_text(), parse_constant=strict_constant)
