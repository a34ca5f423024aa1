"""The dataset contract across numpy's SIMD dispatch.

numpy picks its float kernels when it is imported, from the CPU and from
``NPY_DISABLE_CPU_FEATURES``.  The datasets evaluate the sine laws with
numpy ``sin``, whose float64 kernel returns the bits of ``math.sin``,
and every factor of r alone with ``math``, so a dataset's bytes must not
depend on the dispatch.  This builds four presets in subprocesses, once
as numpy chooses and once with the AVX-512 targets switched off, and
holds both to the golden sha256.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import GOLDEN_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"

# The targets an AVX-512 machine dispatches to beyond AVX2 (numpy >= 2.3
# names them so).
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

PRESETS = {
    "fig2_b.csv": ["fig2", "--panel", "b"],
    "fig3_a.csv": ["fig3", "--panel", "a"],
    "fig4_a.csv": ["fig4", "--panel", "a"],
    "snl_region.csv": ["snl-region"],
}

# Builds PRESETS (argv[2], JSON) into the directory argv[1] and prints the
# dispatch targets numpy found on this CPU and left enabled.
BUILD = """
import json, sys
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from ramsq.cli import main
for name, argv in json.loads(sys.argv[2]).items():
    if main([*argv, "--out", sys.argv[1] + "/" + name]) != 0:
        sys.exit(f"{name} failed")
print(json.dumps([t for t in __cpu_dispatch__ if __cpu_features__.get(t)]))
"""


def build(out: Path, **env) -> list[str]:
    """Build PRESETS into ``out``; the dispatch targets the build ran with."""
    out.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BUILD, str(out), json.dumps(PRESETS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_datasets_byte_identical_across_simd_dispatch(tmp_path):
    default = build(tmp_path / "default")
    narrowed = build(tmp_path / "narrowed", NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    print(f"numpy dispatch targets: {default}; with {NO_AVX512} disabled: {narrowed}")
    if default == narrowed:
        print("this CPU has no AVX-512 target to disable: both builds took the same path")
    for run in ("default", "narrowed"):
        for name in PRESETS:
            for file in (name, name + ".manifest.json"):
                digest = hashlib.sha256((tmp_path / run / file).read_bytes()).hexdigest()
                assert digest == GOLDEN_SHA256[file], (run, file)
