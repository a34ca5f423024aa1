"""One cold benchmark process: import ramsq from the checkout, run one job.

    python3 perfbench/worker.py ROOT < job.json

``run.py`` starts one of these per operation set, so no ``lru_cache`` or
lazy set-up survives from one timed operation to the next.  The job is
read from stdin after the imports; the process then runs it, checks the
outputs and prints one JSON line with its timings, counts and checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

CLOCK = time.perf_counter

# Oracle failure criteria.  The report's own 3-sigma status is a gate
# over ~480 correlated comparisons per sampler and fails by chance (seed
# 1 at 100k draws reaches 3.17 sigma), so it is not used.  A correct
# sampler does not reach |z| = 6: about 2e-9 per Gaussian comparison.
Z_LOOSE = 6.0
EXACT_TOL = 1e-12
FLUX_TOL = 1e-12

# The 12 presets of scripts/build_all_datasets.py, fixed here so the
# workload does not move when that script does.
PRESETS = (
    ("coeffs_reference.csv", ["coeffs", "--L-over-l", "10", "--L-over-La", "2.5"]),
    ("fig2_a.csv", ["fig2", "--panel", "a"]),
    ("fig2_b.csv", ["fig2", "--panel", "b"]),
    ("fig3_a.csv", ["fig3", "--panel", "a"]),
    ("fig3_b.csv", ["fig3", "--panel", "b"]),
    ("fig3_c.csv", ["fig3", "--panel", "c"]),
    ("fig3_d.csv", ["fig3", "--panel", "d"]),
    ("fig4_a.csv", ["fig4", "--panel", "a"]),
    ("fig4_b.csv", ["fig4", "--panel", "b"]),
    ("figxr_a.csv", ["figxr", "--panel", "a"]),
    ("figxr_b.csv", ["figxr", "--panel", "b"]),
    ("snl_region.csv", ["snl-region"]),
)
GOLDEN = Path(__file__).resolve().parent / "golden.json"

QUANTITIES = ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs")


def import_ramsq(root: Path):
    """Import ramsq from ROOT/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ramsq
    import ramsq.cli
    import ramsq.validation  # noqa: F401

    if Path(ramsq.__file__).resolve().parent != src / "ramsq":
        raise SystemExit(f"ramsq imported from {ramsq.__file__}, not from {src}")
    return ramsq


def oracle_failures(report: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one validation report.

    Each closed-form identity check is one operation and fails unless it
    passes.  Each MC estimate is one operation; one fails when its |z|
    exceeds Z_LOOSE, when a zero-spread estimate is off by more than
    EXACT_TOL, or when a mean-mode shaped estimate has any spread.  The
    report lists at most 10 failing estimates, so when its worst values
    cross a bound without listing them one failure per bound is counted:
    the count is a lower bound and is 0 exactly when nothing fails.
    """
    attempted = failed = 0
    for check in report["checks"]:
        if not check["name"].startswith("mc-oracle-"):
            attempted += 1
            failed += check["status"] != "pass"
            continue
        attempted += len(QUANTITIES) * check["grid_points"]
        listed = sum(
            1
            for f in check.get("failures", [])
            if (f["abs_err"] > EXACT_TOL if f["std_error"] == 0.0 else f["abs_err"] > Z_LOOSE * f["std_error"])
        )
        flagged = (
            (check["worst_sigma_margin"] > Z_LOOSE)
            + (check["worst_exact_error"] > EXACT_TOL)
            + (check.get("shaped_max_std_error", 0.0) != 0.0)
        )
        failed += max(listed, flagged)
    return attempted, failed


def run_validate(ramsq, job: dict, tracer) -> dict:
    from ramsq import ensemble

    run_validation = ramsq.validation.run_validation
    t0 = CLOCK()
    try:
        report = run_validation(
            realizations=job["realizations"], sampler="both", channels=job["channels"], seed=job["seed"]
        ).as_dict()
    except Exception as exc:  # a crash fails every operation of the set
        report = None
        error = repr(exc)
    wall = CLOCK() - t0
    if tracer:
        tracer.remove()
    nominal = 4 + 2 * len(QUANTITIES) * job["grid_points"]
    if report is None:
        attempted, failed, notes = nominal, nominal, {"error": error}
    else:
        attempted, failed = oracle_failures(report)
        notes = {"status": report["status"]}
    table = getattr(ensemble, "_uniform_table", None)
    if hasattr(table, "cache_info"):
        notes["draw_table_builds"] = table.cache_info().misses
    return {
        "wall_s": wall,
        "op_s": [wall],
        # Realizations evaluated: every draw of every medium, both samplers.
        "items": job["realizations"] * job["media"] * 2,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }


def run_draws(ramsq, job: dict, tracer) -> dict:
    from ramsq import ensemble
    from ramsq.core import InputState, MediumSpec

    seed = job["seed"]
    media = [MediumSpec(thickness_ratio=th, gain_ratio=g, channels=job["channels"]) for th, g in job["media"]]
    amplitude = complex(*job["amplitude"])
    states = {r: InputState(squeeze_r=r, amplitude=amplitude) for r in job["squeeze_values"]}
    modes = [ensemble.SamplerMode(m) for m in job["modes"]]
    # Index j of an operation's draw list belongs to this (medium, mode).
    combos = [(spec, ensemble.SamplerConfig(mode=mode, seed=seed)) for spec in media for mode in modes]
    sample = ensemble.sample_realization
    x_wfs = ensemble.variance_x_wfs_single
    x_nowfs = ensemble.variance_x_nowfs_single
    p_single = ensemble.variance_p_single
    amp_check = ensemble.mean_amplitude_check

    op_s = []
    draws = []  # (combo, r, k, values or None, flux residual)
    t_start = CLOCK()
    for r, indices in job["ops"]:
        state = states[r]
        done = []
        t0 = CLOCK()
        for (spec, config), k in zip(combos, indices):
            try:
                real = sample(spec, config, k)
                values = (
                    x_wfs(real, state),
                    x_nowfs(real, state),
                    p_single(real, state, True),
                    p_single(real, state, False),
                    amp_check(real, state),
                )
            except Exception:
                real = values = None
            done.append((real, values))
        op_s.append(CLOCK() - t0)
        for j, ((real, values), k) in enumerate(zip(done, indices)):
            draws.append((j, r, k, values, None if real is None else real.flux_residual()))
    wall = CLOCK() - t_start
    if tracer:
        tracer.remove()

    bad = {i for i, d in enumerate(draws) if d[3] is None or not abs(d[4]) <= FLUX_TOL}
    # Scalar/batch cross-check: draws below K against realization_values.
    limit = job["cross_check_k"]
    groups: dict[tuple, list[int]] = {}
    for i, (j, r, k, _, _) in enumerate(draws):
        if k < limit and i not in bad:
            groups.setdefault((j, r), []).append(i)
    checked = 0
    for (j, r), members in groups.items():
        spec, config = combos[j]
        config = ensemble.SamplerConfig(mode=config.mode, realizations=limit, seed=seed)
        try:
            batch = [ensemble.realization_values(spec, states[r], config, q) for q in QUANTITIES]
        except Exception:
            bad.update(members)
            continue
        for i in members:
            k, single = draws[i][2], draws[i][3]
            checked += 1
            if any(float(b[k]).hex() != single[q].hex() for q, b in enumerate(batch)):
                bad.add(i)
    return {
        "wall_s": wall,
        "op_s": op_s,
        "items": len(draws),
        "attempted": len(draws),
        "failed": len(bad),
        "notes": {"cross_checked": checked},
    }


def run_datasets(ramsq, job: dict, tracer) -> dict:
    golden = json.loads(GOLDEN.read_text())
    main = ramsq.cli.main
    out = Path(tempfile.mkdtemp(prefix="datasets-", dir=job["workdir"]))
    try:
        codes = []
        op_s = []
        t_start = CLOCK()
        for index in job["order"]:
            name, argv = PRESETS[index]
            t0 = CLOCK()
            try:
                code = main(argv + ["--out", str(out / name)])
            except (Exception, SystemExit) as exc:
                code = repr(exc)
            op_s.append(CLOCK() - t0)
            codes.append(code)
        wall = CLOCK() - t_start
        if tracer:
            tracer.remove()
        failed = rows = 0
        for index, code in zip(job["order"], codes):
            name = PRESETS[index][0]
            files = (out / name, out / (name + ".manifest.json"))
            if code != 0 or not all(f.is_file() for f in files):
                failed += 1
                continue
            csv = files[0].read_bytes()
            rows += csv.count(b"\n") - 2  # checksum comment and header
            if any(hashlib.sha256(f.read_bytes()).hexdigest() != golden[f.name] for f in files):
                failed += 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "wall_s": wall,
        "op_s": op_s,
        "items": rows,
        "attempted": len(codes),
        "failed": failed,
        "notes": {},
    }


WORKLOADS = {
    "validate-100k": run_validate,
    "draws-scattered": run_draws,
    "datasets-presets": run_datasets,
}


def main() -> int:
    ramsq = import_ramsq(Path(sys.argv[1]))
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    job = json.load(sys.stdin)
    import numpy
    import scipy

    result = {
        "ready_at": ready_at,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "ramsq_threads_set": "RAMSQ_THREADS" in os.environ,
        },
    }
    if job["workload"] != "setup":
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(WORKLOADS[job["workload"]](ramsq, job, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            result["layers"] = tracer.values
            result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
