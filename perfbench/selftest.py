"""Self-test of the benchmark's oracle failure criterion (worker.py).

    python3 perfbench/selftest.py      # from the root of a checkout, ~30 s

Two halves, both on the criterion validate-100k counts failures with:
  1. seed 1 at 100k draws trips the report's own 3-sigma gate by chance
     (mc-oracle-exponential near 3.17 sigma) and must count no failure;
  2. a validation with the flux constraint corrupted must count one.
Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import import_ramsq, oracle_failures  # noqa: E402


def main() -> int:
    ramsq = import_ramsq(Path.cwd())
    run_validation = ramsq.validation.run_validation
    ok = True

    report = run_validation(realizations=100_000, sampler="both", channels=4, seed=1).as_dict()
    attempted, failed = oracle_failures(report)
    margins = {c["name"]: c.get("worst_sigma_margin") for c in report["checks"] if "worst_sigma_margin" in c}
    print(f"seed 1: status={report['status']} worst sigma={margins} failed={failed}/{attempted}")
    if report["status"] != "fail":
        print("  note: seed 1 no longer trips the 3-sigma gate, so this half tests less")
    if failed != 0:
        print("  FAIL: a chance 3-sigma excursion was counted as a failed operation")
        ok = False

    report = run_validation(realizations=10_000, seed=42, corrupt_constraint=True).as_dict()
    attempted, failed = oracle_failures(report)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    print(f"corrupt constraint: flux-conservation={statuses.get('flux-conservation')} failed={failed}/{attempted}")
    if failed < 1 or statuses.get("flux-conservation") != "fail":
        print("  FAIL: the corrupted constraint was not counted as a failed operation")
        ok = False

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
