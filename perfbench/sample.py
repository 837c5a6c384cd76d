"""One benchmark sample, run in a fresh process.

Usage: python3 perfbench/sample.py '<job json>'

First times ``reference_s``, a fixed computation of the benchmark's
own, before the program is imported, so that ``run.py`` can scale the
sample's times by the machine's speed at the moment and nothing the
program does can change it. Then loads the host and pattern edge lists
with ``graph_core.load_edge_list`` at least ``SETUP_REPEATS`` times and
for at least ``SETUP_BUDGET_S`` seconds (the fastest load is
``setup_s``), makes the one public count call on the last load (timed as
``count_s``) and takes the process's peak RSS. It prints one JSON line
with the count and these numbers. With ``"trace": true`` no reference is
timed, the program's layers are wrapped first, the edge lists are loaded
once, the line also carries the per-layer metrics, and the spans are
written to the job's ``spans`` file when the count returns. A count that
raises is reported with its error; it never aborts the sample.
"""

from __future__ import annotations

import heapq
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_BUDGET_S = 0.1
REFERENCE_REPEATS = 2


def reference_s() -> float:
    """Fastest of REFERENCE_REPEATS runs of a fixed computation.

    A heap peel in Python of a fixed random degeneracy-3 graph on 8000
    vertices, then a sort, a search and a bincount of 150,000 integers:
    the kinds of work the program does, none of it the program's code.
    Its time tracks how fast the machine runs at the moment. Changing
    it changes every scaled time the benchmark reports.
    """
    rng = random.Random(7)
    n = 8000
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        for j in rng.sample(range(i), 3 if i >= 3 else i):
            adj[i].append(j)
            adj[j].append(i)
    arr = np.random.default_rng(7).integers(0, 1 << 20, 150_000)
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        deg = [len(a) for a in adj]
        heap = [(d, v) for v, d in enumerate(deg)]
        heapq.heapify(heap)
        done = [False] * n
        while heap:
            d, v = heapq.heappop(heap)
            if done[v] or d != deg[v]:
                continue
            done[v] = True
            for u in adj[v]:
                if not done[u]:
                    deg[u] -= 1
                    heapq.heappush(heap, (deg[u], u))
        order = np.argsort(arr, kind="stable")
        np.searchsorted(arr[order], arr)
        np.bincount(arr & 1023)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    job = json.loads(sys.argv[1])
    out = {} if job["trace"] else {"ref_s": reference_s()}
    sys.path.insert(0, str(SRC))
    import sparsecount
    from sparsecount import graph_core
    if Path(sparsecount.__file__).resolve().parent.parent != SRC:
        print(f"sparsecount imported from {sparsecount.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import ROOT_LAYER, Tracer
        tracer = Tracer()
        tracer.install("sparsecount")

    loads = []
    repeats, budget = (1, 0.0) if tracer else (SETUP_REPEATS, SETUP_BUDGET_S)
    start = time.perf_counter()
    while len(loads) < repeats or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        host = graph_core.load_edge_list(job["host"])
        pattern = graph_core.load_edge_list(job["pattern"])
        loads.append(time.perf_counter() - t0)
    out["setup_s"] = min(loads)

    count = (sparsecount.count_homomorphisms if job["count"] == "hom"
             else sparsecount.count_subgraphs)
    t1 = time.perf_counter()
    try:
        with tracer.span(ROOT_LAYER) if tracer else nullcontext():
            out["count"] = count(host, pattern, threads=job["threads"])
    except Exception as exc:  # a failed count is a result, not a crash
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["count_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["layers"] = tracer.metrics(job["threads"])
        out["additive_gap_s"] = tracer.additive_gap()
        out["skipped_stats"] = sorted(tracer.skipped_stats)
        tracer.write_spans(job["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
