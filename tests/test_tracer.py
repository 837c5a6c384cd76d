"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` skips a function it cannot find, and drops the size
counters of a layer whose stats hook fails, so a renamed or re-typed
function would silently zero a per-layer metric. ``Tracer.install``
rebinds module functions for the whole process, so the check runs in a
subprocess of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import sparsecount
from tracer import Tracer
from workloads import WORKLOADS, cycle_edges

tracer = Tracer()
missing = tracer.install("sparsecount")
counts = {{}}
for name, w in WORKLOADS.items():
    inst = w.build(1, True)
    host = sparsecount.UndirectedGraph(inst.n, inst.edges)
    pattern = sparsecount.UndirectedGraph(w.cycle, cycle_edges(w.cycle))
    count = (sparsecount.count_homomorphisms if w.count == "hom"
             else sparsecount.count_subgraphs)
    counts[name] = [count(host, pattern, threads=w.threads), inst.expected]
print(json.dumps({{"missing": missing,
                  "skipped": sorted(tracer.skipped_stats),
                  "counts": counts,
                  "layers": tracer.metrics(1)}}))
"""

# Pattern-side counters summed over the three tiny instances. They depend
# on the patterns alone, so a refactor that routes a count around a
# wrapped function changes them. A count lists only layer 1 of each
# 2-core's Frat (``fraternal.frat_orbits`` generates the later rounds as
# orbit representatives), so ``fraternal.n_frat`` sums the acyclic
# orientations: 30 for C5, 254 for C8 and 150 over Sub(C6)'s quotient
# cores. Sub(C6) runs 61 DPs; its tree quotients run none.
PATTERN_COUNTS = {"fraternal.n_frat": 434, "hub_decomp.calls": 213,
                  "fastdp.calls": 213, "hub_decomp.bags": 454,
                  "counting.spasm_terms": 10}


def test_tracer_wraps_every_layer():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # no production path builds the product or runs the dict engine,
    # which live in tests/oracles.py
    assert out["missing"] == ["product.build", "counting.ref_dp"]
    assert out["skipped"] == []
    assert set(out["counts"]) == {"hom-c5-degen", "hom-c8-frat",
                                  "sub-c6-road"}
    for name, (got, expected) in out["counts"].items():
        assert got == expected, name
    assert {k: out["layers"][k] for k in PATTERN_COUNTS} == PATTERN_COUNTS
