"""Measure the numbers that ``perfbench/baseline.json`` records.

Usage (from the repository root, about 65 minutes):

    python3 perfbench/baseline.py

Makes two sets of runs of the same code. Each set runs every workload of
``workloads.py``, those ``BENCHMARK.json`` leaves out too, at seeds
1..SEEDS with ``--trace 0``, seed by seed so the workloads interleave in
time, and once at seed 1 with ``--trace 1``. The file records, per
workload, its parameters, the quartiles of every end-to-end metric over
each set and of the fastest measured (unscaled) count and load times,
the per-layer metrics of the first set's traced run, and how the two
sets compare: the ratio of their medians against each metric's bound,
and whether every exact size count repeated. It also records which
end-to-end metric each layer metric should move (``PREDICTIONS``).
Every run must be correct.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from run import HERE, ROOT
from tracer import EXACT_COUNTS
from workloads import WORKLOADS

SEEDS = 10
RUN = [sys.executable, str(HERE / "run.py")]

ALL = sorted(WORKLOADS)
PREDICTIONS = [
    {"layer": ["graph_core.load_s"], "moves": ["setup_s"], "on": ALL},
    {"layer": ["product.build_s", "product.n_F", "product.m_F"],
     "moves": ["count_s", "peak_rss_mb"],
     "on": ["hom-c5-degen", "sub-c6-road"],
     "note": "sub-c6-road builds one product per spasm quotient (10)"},
    {"layer": ["degeneracy.peel_s", "degeneracy.peel_cpu_s",
               "degeneracy.calls", "degeneracy.peeled_edges"],
     "moves": ["count_s"], "on": ["hom-c5-degen", "sub-c6-road"],
     "no_change_on": ["hom-c8-frat"],
     "note": "the peel is about 40% of count_s on hom-c5-degen, 75% on "
             "sub-c6-road and 2% on hom-c8-frat"},
    {"layer": ["fraternal.wedge_s"], "moves": ["count_s"],
     "on": ["hom-c8-frat", "sub-c6-road"],
     "note": "host-side extension_edges self time; only the t=2 "
             "workloads close wedges"},
    {"layer": ["fraternal.host_ext_s"], "moves": ["count_s"], "on": ALL,
     "note": "optimal_extension self time, peel and wedge closing "
             "excluded"},
    {"layer": ["fraternal.arcs_l1", "fraternal.arcs_l2"],
     "moves": ["count_s", "peak_rss_mb"], "on": ALL,
     "note": "arcs per host extension layer, summed over products"},
    {"layer": ["fraternal.delta_plus"], "moves": ["count_s"], "on": ALL,
     "note": "guards fastdp.dp_s: a peel change that raises the host "
             "extension's max outdegree slows the DP"},
    {"layer": ["fraternal.frat_s", "fraternal.n_frat"],
     "moves": ["count_s"], "on": ["hom-c8-frat"]},
    {"layer": ["hub_decomp.decomp_s", "hub_decomp.calls",
               "hub_decomp.bags"],
     "moves": ["count_s"], "on": ["hom-c8-frat"]},
    {"layer": ["fastdp.dp_s", "fastdp.dp_cpu_s", "fastdp.calls",
               "fastdp.rss_rise_mb"],
     "moves": ["count_s", "peak_rss_mb"],
     "on": ["hom-c8-frat", "hom-c5-degen"],
     "note": "the DP is about 90% of count_s on hom-c8-frat, 55% on "
             "hom-c5-degen and 20% on sub-c6-road; the host index is built "
             "lazily inside the first extension_count call"},
    {"layer": ["counting.ref_dp_s", "counting.ref_dp_calls"],
     "moves": ["count_s"], "on": ALL,
     "note": "top-level bressan_count runs, including silent "
             "Int64OverflowRisk reroutes; 0 on every workload, and any "
             "other value explains a count_s jump"},
    {"layer": ["counting.dispatch_eff"], "moves": ["count_s"],
     "on": ["hom-c8-frat", "sub-c6-road"],
     "note": "DP CPU seconds / (threads x DP wall time) on the 2-thread "
             "workloads"},
    {"layer": ["counting.spasm_terms", "pattern_tools.spasm_s"],
     "moves": ["count_s"], "on": ["sub-c6-road"]},
    {"layer": ["counting.other_s"], "moves": ["count_s"], "on": ALL,
     "note": "count time no span covers: glue"},
    {"layer": ["trace.count_s", "trace.overhead_frac"], "moves": [],
     "on": [],
     "note": "the traced count time, and the fastest traced over the "
             "fastest untraced count, minus 1"},
]


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """The run's metrics, and with --trace 0 its unscaled times too."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} was not correct:\n{proc.stdout}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        unscaled = json.loads(lines[-2].removeprefix("unscaled "))
        values.update({f"unscaled_{k}": v for k, v in unscaled.items()})
    print(f"{workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={v:.6g}" for k, v in values.items()
                      if k.endswith(("count_s", "setup_s", "ref_s"))),
          flush=True)
    return values


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def measure_set(workloads: list[str], seconds: int) -> dict:
    runs = {w: [] for w in workloads}
    for seed in range(1, SEEDS + 1):
        for w in workloads:
            runs[w].append(run(w, seed, 0, seconds))
    layers = {w: run(w, 1, 1, seconds) for w in workloads}
    return {w: {"end_to_end": {m: spread_of([r[m] for r in runs[w]])
                               for m in runs[w][0]},
                "per_layer": layers[w]} for w in workloads}


def main() -> int:
    # On SIGTERM, unwind so that the running benchmark run is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"]
              if m["better"] == "higher"}
    benchmark = [w["name"] for w in spec["workloads"]]
    first = measure_set(list(WORKLOADS), seconds)
    second = measure_set(list(WORKLOADS), seconds)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    out = {
        "measured_at": {
            "commit": commit or None,
            "machine": f"{len(os.sched_getaffinity(0))} vCPU {cpu}, "
                       f"Python {platform.python_version()}, "
                       f"numpy {numpy.__version__}, scipy {scipy.__version__}",
            "end_to_end": f"quartiles over --trace 0 runs at seeds "
                          f"1-{SEEDS}, run_seconds={seconds}; two sets; "
                          f"unscaled_*: the fastest measured times",
            "per_layer": f"one --trace 1 run at seed 1, "
                         f"run_seconds={seconds}, first set",
        },
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    worst = []
    for name, w in WORKLOADS.items():
        entry = {
            "in_benchmark": name in benchmark,
            "count": ("count_homomorphisms" if w.count == "hom"
                      else "count_subgraphs"),
            "pattern": f"C{w.cycle}", "threads": w.threads,
            "host": w.host, "why": w.why,
            "oracle": ("trace(A^k), scipy sparse products"
                       if w.count == "hom" else "2(r-1)(r-2)")
                      + "; tiny instance checked against brute force",
        }
        out["workloads"][name] = entry
        a, b = first[name], second[name]
        # the fastest measured times, held to the bounds of the times
        # the benchmark reports, show what the reference scaling buys
        held = {**bounds, "unscaled_count_s": bounds["count_s"],
                "unscaled_setup_s": bounds["setup_s"]}
        compare = {m: {"ratio": b["end_to_end"][m]["median"]
                       / a["end_to_end"][m]["median"], "bound": bound}
                   for m, bound in held.items()}
        for m, c in compare.items():
            worse = 1 - c["ratio"] if m in higher else c["ratio"] - 1
            worst.append(
                f"{name:13s} {m:19s} spread {a['end_to_end'][m]['spread']:.3f}"
                f" / {b['end_to_end'][m]['spread']:.3f} (bound/3 "
                f"{c['bound'] / 3:.3f})  second/first median "
                f"{c['ratio']:.3f} (bound {c['bound']})"
                + ("  OVER" if worse > c["bound"] else ""))
        entry["baseline"] = a
        entry["repeat"] = {
            "end_to_end": b["end_to_end"], "median_ratio": compare,
            "exact_counts_repeat": all(a["per_layer"][c] == b["per_layer"][c]
                                       for c in EXACT_COUNTS)}
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(worst))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
