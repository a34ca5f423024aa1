"""Oracle run at full strength: K = 10^5 draws, seed 42, both samplers.

Runs ``ramsq validate`` through the real CLI entry point, so the report
file, the exit codes and the one-line errors are the CLI's: an
unwritable ``--out`` exits 2 before any draw is made.  Then prints one
line per check with its worst sigma margin, read back from the report,
and exits nonzero if any check fails.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ramsq.cli import main as ramsq_main


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the Monte Carlo oracle suite")
    ap.add_argument("--realizations", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--sampler", choices=("mean", "exponential", "both"), default="both")
    ap.add_argument("--out", default="validation_report.json")
    args = ap.parse_args()

    t0 = time.perf_counter()
    code = ramsq_main([
        "validate",
        "--realizations", str(args.realizations),
        "--seed", str(args.seed),
        "--sampler", args.sampler,
        "--out", args.out,
    ])
    wall = time.perf_counter() - t0
    # Exit 2 writes no report; a device such as /dev/null keeps none to read.
    out = Path(args.out)
    if code == 2 or not out.is_file():
        return code

    report = json.loads(out.read_text())
    for check in report["checks"]:
        margin = check.get("worst_sigma_margin")
        extra = f"  worst {margin:.3f} sigma" if margin is not None else ""
        print(f"[validate] {check['name']}: {check['status']}{extra}")
    print(f"[validate] status={report['status']} wall={wall:.1f}s -> {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
