"""The sparsecount benchmark: seeded counting workloads, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload hom-c5-degen --seed 1 --seconds 55 --trace 0

A run builds the workload's host from the seed (``workloads.py``), writes
host and pattern edge lists into a temporary directory of the checkout
and takes the expected count from an independent oracle. It first counts
a tiny instance of the same generator with the pipeline (in a sample
process) and with the library's brute force. Then it takes samples for
``--seconds`` seconds (at least ``MIN_SAMPLES``, and none that would
likely end later), each a fresh process (``sample.py``) that loads the
edge lists and makes the one public count call. Samples run one at a
time. A count that raises or disagrees with the oracle is a
failed attempt; it is reported, never fatal.

``--trace 0`` reports the end-to-end metrics: ``count_s`` is the count
time and ``setup_s`` the fastest load of the edge lists of a sample
(each sample loads them several times), both at reference speed and
the median over the samples (below); ``peak_rss_mb`` is the median over
the samples, and
``counts_ok`` is 1 when every count call of the run returned the
oracle's count and 0 otherwise (the summary also prints
``failed_frac``, the share of count calls that did not, which is 0 when
all is well and so cannot carry a relative bound).

Reference speed. The count is deterministic, so the spread between
samples comes from the machine: on a 2-vCPU VM shared with other
tenants, a fixed CPU loop runs at one of two speeds about 1.4x apart,
switching every few seconds, and up to 1.7x slower for minutes at a
time. The fastest count of a 50-second run moved by up to 40% from run
to run. So every sample first times a fixed computation of the
benchmark's own (``sample.reference_s``), before it imports the
program, and scales its times by ``REF_S`` over its own reference time:
the times it would have measured on a machine where the reference takes
``REF_S`` (this VM takes 0.07-0.12 s). A run reports the median of its
samples' scaled times. ``baseline.json`` records the spread of the
fastest measured times beside the reported ones. The summary lines print
the measured times with their median and quartiles, and the reference
time.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics (``tracer.py``) of the fastest traced sample, whose
self times add up to its ``trace.count_s``. It checks that the size
counts repeat exactly across traced samples and that the self times add
up, reports the tracing overhead against the fastest untraced sample,
and writes the fastest traced sample's spans, one JSON line each, to
``.perfbench-spans/<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import EXACT_COUNTS
from workloads import WORKLOADS, Workload, cycle_edges

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"

MIN_SAMPLES = 3
RUN_LIMIT_S = 150        # hard stop for all samples of one run
END_TO_END = {"count_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "counts_ok": "bool"}
RATIOS = ("counting.dispatch_eff", "trace.overhead_frac")
REF_S = 0.1              # reference time that the reported times assume
# Keep native thread pools to one thread: the host has two cores and the
# program's own --threads decides how many it may use.
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in RATIOS:
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    return "s" if metric.endswith("_s") else "count"


def import_program():
    if not (SRC / "sparsecount" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'sparsecount'}")
    sys.path.insert(0, str(SRC))
    import sparsecount
    return sparsecount


def brute_force(program, workload: Workload, inst) -> int | str:
    """The library's exhaustive count of a tiny instance, or its error."""
    g = program.UndirectedGraph(inst.n, inst.edges)
    h = program.UndirectedGraph(workload.cycle, cycle_edges(workload.cycle))
    brute = (program.brute_force_hom if workload.count == "hom"
             else program.brute_force_sub)
    try:
        return brute(g, h)
    except Exception as exc:  # reported as a failed check
        return f"{type(exc).__name__}: {exc}"


def write_edges(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))


def write_job(work: str, name: str, workload: Workload, inst) -> dict:
    host, pattern = Path(work, f"{name}.el"), Path(work, "pattern.el")
    write_edges(host, inst.edges)
    write_edges(pattern, cycle_edges(workload.cycle))
    return {"host": str(host), "pattern": str(pattern),
            "count": workload.count, "threads": workload.threads}


def run_sample(job: dict, hard_stop: float) -> dict:
    remaining = hard_stop - time.monotonic()
    if remaining <= 0:
        return {"error": "run time limit reached"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT,
            env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return {"error": "sample killed at the run time limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"sample exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"min {min(values):.4g} median {statistics.median(values):.4g} "
            f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool = False, oracle_offset: int = 0) -> dict:
    """One run; prints a summary and returns the result object.

    ``tiny`` and ``oracle_offset`` exist for the self-check: the tiny
    instance instead of the full one, and a deliberately wrong expected
    count.
    """
    hard_stop = time.monotonic() + RUN_LIMIT_S
    program = import_program()
    failures, problems = [], []
    small = workload.build(seed, True)
    brute = brute_force(program, workload, small)
    inst = workload.build(seed, tiny)
    expected = inst.expected + oracle_offset
    plain, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        check = run_sample({**write_job(work, "tiny", workload, small),
                            "trace": False}, hard_stop)
        got = check.get("count", check.get("error"))
        if not got == brute == small.expected:
            failures.append(f"tiny instance: pipeline {got}, brute force "
                            f"{brute}, oracle {small.expected}")
        job = write_job(work, "host", workload, inst)
        stop = time.monotonic() + seconds
        need = 2 if trace else MIN_SAMPLES
        while True:
            started = time.monotonic()
            plain.append(run_sample({**job, "trace": False}, hard_stop))
            if trace:
                spans = str(Path(work, f"spans-{len(traced)}.jsonl"))
                traced.append({**run_sample({**job, "trace": True,
                                             "spans": spans}, hard_stop),
                               "spans": spans})
            # stop before a round that would end after ``stop``
            now = time.monotonic()
            if now >= hard_stop or (len(plain) >= need
                                    and now + (now - started) > stop):
                break
        layered = [s for s in traced if "layers" in s]
        if layered:
            fastest = min(layered, key=lambda s: s["count_s"])
            SPANS_DIR.mkdir(exist_ok=True)
            spans_out = SPANS_DIR / f"{workload.name}-seed{seed}.jsonl"
            shutil.copyfile(fastest["spans"], spans_out)
    for label, samples in (("untraced", plain), ("traced", traced)):
        for s in samples:
            if s.get("count") != expected:
                failures.append(f"{label}: " + (
                    s.get("error") or f"count {s.get('count')} != {expected}"))
    attempted = 1 + len(plain) + len(traced)

    timed = [s for s in plain if "count_s" in s]
    if not timed or (trace and not layered):
        print("\n".join(failures), file=sys.stderr)
        sys.exit("perfbench: no sample finished")
    if trace:
        metrics = dict(fastest["layers"])
        for name in EXACT_COUNTS:
            values = [s["layers"][name] for s in layered]
            if len(set(values)) > 1:
                problems.append(f"{name} did not repeat: {values}")
        for s in layered:
            if s["additive_gap_s"] > 1e-6:
                problems.append(f"self times miss count_s by "
                                f"{s['additive_gap_s']:.3g} s")
            if s["skipped_stats"]:
                problems.append(f"size counts unreadable: {s['skipped_stats']}")
        metrics["trace.overhead_frac"] = (
            fastest["count_s"] / min(s["count_s"] for s in timed) - 1)
    else:
        metrics = {name: REF_S * statistics.median(s[name] / s["ref_s"]
                                                   for s in timed)
                   for name in ("count_s", "setup_s")}
        metrics["peak_rss_mb"] = statistics.median(
            s["peak_rss_mb"] for s in timed)
        metrics["counts_ok"] = 0 if failures else 1

    print(f"{workload.name} seed={seed} threads={workload.threads} n={inst.n} "
          f"m={len(inst.edges)} samples={len(plain)} traced={len(traced)}")
    for name, value in metrics.items():
        spread = ""
        if not trace and name != "counts_ok":
            spread = "  measured: " + quartiles([s[name] for s in timed])
        print(f"  {name:26s} {value:>14.6g} {unit_of(name)}{spread}")
    if not trace:
        print(f"  {'reference':26s} {'':>14s}    measured: "
              + quartiles([s["ref_s"] for s in timed]))
    print(f"  {'failed_frac':26s} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted} count calls)")
    if trace:
        print(f"  spans of the fastest traced sample: "
              f"{spans_out.relative_to(ROOT)}")
    for line in failures + problems:
        print(f"  FAIL {line}")
    if not trace:
        # the fastest measured times, for baseline.py: the result line
        # carries only the metrics BENCHMARK.json names
        print("unscaled " + json.dumps(
            {name: min(s[name] for s in timed)
             for name in ("count_s", "setup_s", "ref_s")}))
    return {"correct": not failures and not problems,
            "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    # On SIGTERM, unwind so that the running sample is killed and the
    # temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
