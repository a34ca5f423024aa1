"""ramsq benchmark: one workload, each operation set in a cold process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are made from ``--seed``.
Each operation set (one validation, one batch of draws, the 12 dataset
presets) runs in a fresh single-threaded interpreter started by this
script (see worker.py), repeated in a closed loop for ``--seconds``
and at least MIN_SETS times.  Interpreter start plus the imports is
measured apart as ``setup_s``; SETUP_PROBES extra processes that only
import add samples to it.

The last stdout line is the JSON result: end-to-end metrics with
``--trace 0``; with ``--trace 1`` the layer metrics of spans.py, taken
from every other set (the rest run untraced to give trace_overhead_s).
Earlier lines record the environment and a summary.  Exits 1 without a
result if a process cannot start, import ramsq or finish in time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from spans import metric_names, metric_unit  # noqa: E402

MIN_SETS = 2
SETUP_PROBES = 5
# Every process must end in time for the run to exit within 180 s.
DEADLINE_S = 170.0

# The validation suite's standard grid, fixed here as the yardstick.
STANDARD_THICKNESS = (2.0, 5.0, 10.0, 20.0)
STANDARD_GAIN = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)
STANDARD_SQUEEZE = (0.0, 0.5, 1.0, 1.5, 2.0)
CHANNELS = 4
REALIZATIONS = 100_000

# A few media of the standard grid: near threshold (largest v_bar), the
# reference slab, mid gain, no gain.  One operation draws once for every
# medium in both sampler modes, each draw at its own index, so every
# operation costs the same and its latency is not a mix of clusters.
DRAW_MEDIA = ((2.0, 3.0), (10.0, 2.5), (5.0, 1.0), (20.0, 0.0))
DRAW_MODES = ("mean", "exponential")
OPS_PER_SET = 1250
# One operation in 16 draws below CROSS_CHECK_K and is compared bit for
# bit with the batch path; the rest spread below 2**62.
CROSS_CHECK_K = 256
CROSS_CHECK_EVERY = 16
DRAW_INDEX_LIMIT = 2**62
AMPLITUDE = (0.3, 0.4)

PRESET_COUNT = 12

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def draw_columns(mode: str) -> int:
    return 2 * CHANNELS + 1 if mode == "mean" else 4 * CHANNELS + 3


def make_job(workload: str, seed: int, index: int, trace: bool) -> dict:
    """Inputs of operation set ``index``; pure in (workload, seed, index)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    job = {"workload": workload, "trace": trace, "seed": seed, "channels": CHANNELS}
    if workload == "validate-100k":
        media = len(STANDARD_THICKNESS) * len(STANDARD_GAIN)
        job.update(realizations=REALIZATIONS, media=media, grid_points=media * len(STANDARD_SQUEEZE))
    elif workload == "draws-scattered":
        ops = []
        for i in range(OPS_PER_SET):
            limit = CROSS_CHECK_K if i % CROSS_CHECK_EVERY == 0 else DRAW_INDEX_LIMIT
            indices = [rng.randrange(limit) for _ in range(len(DRAW_MEDIA) * len(DRAW_MODES))]
            ops.append([rng.choice(STANDARD_SQUEEZE), indices])
        job.update(
            media=DRAW_MEDIA,
            modes=DRAW_MODES,
            squeeze_values=STANDARD_SQUEEZE,
            amplitude=AMPLITUDE,
            ops=ops,
            cross_check_k=CROSS_CHECK_K,
        )
    elif workload == "datasets-presets":
        order = list(range(PRESET_COUNT))
        rng.shuffle(order)
        job.update(order=order, workdir=str(WORKDIR))
    return job


def draw_tables(workload: str) -> dict:
    """Computed sizes of the draw tables one operation set builds."""
    rows = {"validate-100k": REALIZATIONS, "draws-scattered": CROSS_CHECK_K}.get(workload)
    if rows is None:
        return {}
    return {
        mode: {"rows": rows, "columns": draw_columns(mode), "bytes": rows * draw_columns(mode) * 8}
        for mode in ("mean", "exponential")
    }


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process on ``job``; returns its result plus setup_s."""
    env = {k: v for k, v in os.environ.items() if k != "RAMSQ_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before the next process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT)],
            input=json.dumps(job).encode(),
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']} process ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    return result


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
        elif kind == "Data":
            sizes["L1d"] = size
    return sizes


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_begin = time.clock_gettime(time.CLOCK_MONOTONIC)
    deadline = t_begin + DEADLINE_S
    probes = [spawn(make_job("setup", seed, i, False), deadline) for i in range(SETUP_PROBES)]
    sets = []
    WORKDIR.mkdir(exist_ok=True)
    try:
        start = last = time.monotonic()
        # Start a set only if it is likely to end within --seconds, judged
        # by the previous one, so a run lasts about --seconds on any workload.
        while len(sets) < MIN_SETS or 2 * time.monotonic() - last - start < seconds:
            traced = trace and len(sets) % 2 == 0
            last = time.monotonic()
            sets.append(spawn(make_job(workload, seed, len(sets), traced), deadline))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(s["attempted"] for s in sets)
    failed = sum(s["failed"] for s in sets)
    summary = {
        "workload": workload,
        "seed": seed,
        "sets": len(sets),
        "operations": sum(len(s["op_s"]) for s in sets),
        "setup_samples": len(sets) + len(probes),
        "error_rate": failed / attempted,
        "set_wall_s": [s["wall_s"] for s in sets],
        "notes": [s["notes"] for s in sets],
    }
    if trace:
        traced = [s for s in sets if "layers" in s]
        plain = [s for s in sets if "layers" not in s]
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        metrics = {
            name: metric(statistics.median_low(s["layers"][name] for s in traced), metric_unit(name))
            for name in metric_names()
        }
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace_overhead_s"] = metric(traced_wall - statistics.median(s["wall_s"] for s in plain), "s")
        summary["absent"] = sorted({a for s in traced for a in s["absent"]})
    else:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in sets),
            "setup_s": statistics.median(s["setup_s"] for s in probes + sets),
            "items_per_s": statistics.median(s["items"] / s["wall_s"] for s in sets),
            "op_p50_us": statistics.median(percentile(sorted(s["op_s"]), 0.50) for s in sets) * 1e6,
            "op_p99_us": statistics.median(percentile(sorted(s["op_s"]), 0.99) for s in sets) * 1e6,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sets),
        }
        metrics = {name: metric(value, END_TO_END[name]) for name, value in metrics.items()}

    env = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "draw_tables": draw_tables(workload),
        **probes[0]["env"],
        "ramsq_threads_set": any(s["env"]["ramsq_threads_set"] for s in probes + sets),
        "run_s": time.clock_gettime(time.CLOCK_MONOTONIC) - t_begin,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("validate-100k", "draws-scattered", "datasets-presets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
