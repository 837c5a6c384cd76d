"""Fast self-check of the benchmark on tiny instances.

Usage (from the repository root): python3 perfbench/selfcheck.py

For every workload, on the tiny instance of its generator:

* an untraced run reports exactly the end-to-end metrics that
  BENCHMARK.json names, each with its unit, and is correct;
* a traced run reports exactly the per-layer metrics, each with its unit,
  and is correct, so its traced and untraced counts both equal the
  oracle's and therefore each other.

For one workload, a run given a deliberately wrong expected count must
finish and report ``correct: false`` and ``counts_ok`` 0, with every
sample counted as failed.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, measure
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = measure(workload, 1, 0, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{workload.name} trace={trace}: metrics "
                              f"{sorted(got.items())} != "
                              f"{sorted(wanted[trace].items())}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload.name} trace={trace}: not correct")
    workload = WORKLOADS["hom-c5-degen"]
    wrong = measure(workload, 1, 0, False, tiny=True, oracle_offset=1)
    # every timed sample fails; the tiny brute-force check still passes
    if (wrong["correct"] or wrong["failed"] != wrong["attempted"] - 1
            or wrong["metrics"]["counts_ok"]["value"] != 0):
        errors.append(f"wrong expected count not flagged: {wrong}")
    for line in errors:
        print(f"SELFCHECK FAIL {line}")
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
