"""A bag drops the rows that cannot close their check before expanding.

Before a bag's program expands v from p over class set c1, where the
check right after v is assigned tests an arc v -> b of class set c2,
a FILTER on a block of at least ``FILTER_MIN`` rows keeps only the rows
whose (p, b) may start a host 2-path p -> x -> b with p -> x in c1 and
x -> b in c2 (``fastdp._HostIndex.may_close``, a hashed bitmap of those
pairs). These tests check the bitmap against plain-Python 2-path lists
on depth-1, -2 and -3 hosts (no false negatives); counts with the cutoff
forced to 0 against the oracles, and every bag table against the
unfiltered run; and that C5 on a seeded degeneracy-3 host lets only a
small share of the filtered rows through.
"""

import itertools
import random

import numpy as np
import pytest

from sparsecount import (UndirectedGraph, brute_force_hom,
                         count_homomorphisms, fastdp, optimal_extension)
from sparsecount.harness import generate_bounded_degeneracy

from conftest import cycle_graph, cycle_hom_trace

C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])


def _index(g, t):
    return fastdp.signature_index(optimal_extension(g, t)).index


HOSTS = [
    ("depth1-dag", lambda: _index(generate_bounded_degeneracy(80, 3, 2), 1)),
    ("depth2-loops",
     lambda: _index(generate_bounded_degeneracy(40, 3, 4), 2)),
    ("depth3", lambda: _index(generate_bounded_degeneracy(30, 3, 5), 3)),
]


def _class_sets(ncls):
    """Every class alone, the odd and the even classes, and all of them."""
    classes = list(range(1, ncls + 1))
    return ([(c,) for c in classes] + [tuple(classes[::2]),
                                        tuple(classes[1::2])]
            + [tuple(classes)])


@pytest.mark.parametrize("make", [h[1] for h in HOSTS],
                         ids=[h[0] for h in HOSTS])
def test_bitmap_has_no_false_negatives(make):
    hidx = make()
    src, cls, dst = (a.tolist() for a in hidx._arcs)
    out: dict[int, list[tuple[int, int]]] = {}
    for x, c, y in zip(src, cls, dst):
        out.setdefault(x, []).append((c, y))
    if hidx.ncls >= 2:
        # the depth-2 and depth-3 hosts hold their loops
        assert any(x == y for x, y in zip(src, dst))
    two_paths = [(p, c1, c2, b) for p, arcs in out.items()
                 for c1, x in arcs for c2, b in out.get(x, ())]
    rng = random.Random(hidx.n)
    probed, misses, passed = 0, 0, 0
    for first, then in itertools.product(_class_sets(hidx.ncls), repeat=2):
        pairs = {(p, b) for p, c1, c2, b in two_paths
                 if c1 in first and c2 in then}
        if pairs:
            a, b = (np.array(col, dtype=np.int32)
                    for col in zip(*sorted(pairs)))
            assert hidx.may_close(a, b, first, then).all(), (first, then)
            probed += 1
        others = [(p, b) for p, b in ((rng.randrange(hidx.n),
                                       rng.randrange(hidx.n))
                                      for _ in range(100))
                  if (p, b) not in pairs]
        if others:
            a, b = (np.array(col, dtype=np.int32) for col in zip(*others))
            misses += len(others)
            passed += int(hidx.may_close(a, b, first, then).sum())
    assert probed
    # at least 8 slots a code: a pair that starts no such 2-path mostly
    # hashes to a clear slot
    assert passed <= 0.25 * misses


@pytest.fixture
def filtered(monkeypatch):
    """Record every bag's table and, per ``may_close`` call, its rows and
    how many passed."""
    seen = {"tables": [], "rows": 0, "passed": 0}
    run_bag, may_close = fastdp._run_bag, fastdp._HostIndex.may_close

    def tracked_bag(host, plan, tables):
        out = run_bag(host, plan, tables)
        seen["tables"].append((out.codes.tolist(), out.values.tolist(),
                               [s.tolist() for s in out.steps]))
        return out

    def tracked_close(self, a, b, first, then):
        ok = may_close(self, a, b, first, then)
        seen["rows"] += a.size
        seen["passed"] += int(ok.sum())
        return ok

    monkeypatch.setattr(fastdp, "_run_bag", tracked_bag)
    monkeypatch.setattr(fastdp._HostIndex, "may_close", tracked_close)
    return seen


@pytest.mark.parametrize("h, t, g, want", [
    (cycle_graph(5), 1, generate_bounded_degeneracy(60, 3, 5), None),
    (cycle_graph(5), 2, generate_bounded_degeneracy(30, 3, 6), None),
    (cycle_graph(6), 2, generate_bounded_degeneracy(24, 3, 6), None),
    (cycle_graph(7), 2, generate_bounded_degeneracy(20, 3, 7), None),
    (cycle_graph(9), 3, generate_bounded_degeneracy(12, 3, 3), None),
    (C4_TAIL, 1, generate_bounded_degeneracy(14, 3, 4), "brute"),
])
def test_every_step_filtered_with_the_cutoff_at_zero(h, t, g, want, filtered,
                                                     monkeypatch):
    want = (brute_force_hom(g, h) if want == "brute"
            else cycle_hom_trace(g, h.n))
    monkeypatch.setattr(fastdp, "FILTER_MIN", 1 << 62)
    assert count_homomorphisms(g, h, t=t) == want
    plain = list(filtered["tables"])
    assert filtered["rows"] == 0
    filtered["tables"].clear()
    monkeypatch.setattr(fastdp, "FILTER_MIN", 0)
    assert count_homomorphisms(g, h, t=t) == want
    assert filtered["tables"] == plain
    assert filtered["passed"] < filtered["rows"]


def test_c5_filter_passes_few_rows(filtered, monkeypatch):
    # C5's blocks on this host reach the default cutoff, and most of
    # their rows start no 2-path that closes the cycle; a change that
    # disables the filter or lets every row through fails here
    g = generate_bounded_degeneracy(3000, 3, 11)
    got = count_homomorphisms(g, cycle_graph(5))
    assert filtered["rows"] >= fastdp.FILTER_MIN
    assert filtered["passed"] <= 0.25 * filtered["rows"]
    monkeypatch.setattr(fastdp, "FILTER_MIN", 1 << 62)
    assert count_homomorphisms(g, cycle_graph(5)) == got
