"""A parent joins a large child table through a hashed membership bitmap.

``fastdp._Table.lookup`` on a table of at least ``FILTER_MIN`` codes
first drops the queries whose hash slot is clear, and runs the exact
search only on the rest. These tests check the filtered join against a
dict of the table's rows and against the plain search, on random tables
on both sides of the cutoff (key widths 1-3, a key that packs past
int64, values widened to Python ints, all-miss, all-hit and empty
queries); counts and every bag table with the cutoff forced to 0
against the unfiltered run and the oracles; that the join of C5 on a
seeded degeneracy-3 host searches only a small share of its queries;
and that the depth-1 signature index, which builds no loops, holds the
arcs it held when the loops were built and dropped.
"""

import numpy as np
import pytest

from sparsecount import (UndirectedGraph, brute_force_hom,
                         count_homomorphisms, fastdp, optimal_extension)
from sparsecount.harness import generate_bounded_degeneracy

from conftest import cycle_graph, cycle_hom_trace

C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])


def _random_table(rng, n, width, rows, wide):
    """A table of ``rows`` random key rows (duplicates summed) and the
    dict of its distinct rows to their summed values."""
    keys = rng.integers(0, n, size=(rows, width))
    top = 1 << 62 if wide else 1000
    vals = rng.integers(1, top, size=rows)
    table = fastdp._aggregate_table([keys], [vals], n)
    want: dict[tuple, int] = {}
    for row, v in zip(map(tuple, keys.tolist()), vals.tolist()):
        want[row] = want.get(row, 0) + v
    return table, want


def _plain_lookup(table, qmat):
    q, _ = fastdp._pack(qmat, table.n, table.steps)
    pos = np.searchsorted(table.codes, q)
    ok = table.codes[np.minimum(pos, table.codes.size - 1)] == q
    return ok, table.values[pos[ok]]


@pytest.mark.parametrize("n, width, rows", [
    (50, 1, 40),        # below the cutoff
    (20000, 1, 9000),
    (300, 2, 200),
    (300, 2, 12000),
    (40, 3, 30000),
    (3000, 6, 150),
    (3000, 6, 9000),    # packs past int64: queries replay ranks
])
@pytest.mark.parametrize("wide", [False, True])
def test_filtered_lookup_matches_a_dict_and_the_plain_search(n, width, rows,
                                                             wide):
    rng = np.random.default_rng(n * 7 + width + rows)
    table, want = _random_table(rng, n, width, rows, wide)
    assert table.codes.size == len(want)
    assert (table.values.dtype == object) == wide
    hits = np.array(sorted(want), dtype=np.int64).reshape(-1, width)
    fresh = rng.integers(0, n, size=(4 * rows, width))
    misses = np.array([r for r in fresh.tolist() if tuple(r) not in want],
                      dtype=np.int64).reshape(-1, width)
    mixed = np.concatenate((misses, hits))[rng.permutation(
        misses.shape[0] + hits.shape[0])]
    if width == 6:
        assert table.steps
        # prefixes the table lacks replay to -1 and pack negative
        assert (fastdp._pack(misses, n, table.steps)[0] < 0).any()
    queries = {"all-hit": hits, "all-miss": misses, "mixed": mixed,
               "empty": np.empty((0, width), dtype=np.int64)}
    for name, qmat in queries.items():
        ok, vals = table.lookup(qmat)
        assert ok.dtype == bool and ok.shape == (qmat.shape[0],), name
        rows_in = [tuple(r) in want for r in qmat.tolist()]
        assert ok.tolist() == rows_in, name
        assert vals.tolist() == [want[tuple(r)] for r in qmat[ok].tolist()]
        plain_ok, plain_vals = _plain_lookup(table, qmat)
        assert np.array_equal(ok, plain_ok), name
        assert vals.tolist() == plain_vals.tolist(), name
    filtered = table.codes.size >= fastdp.FILTER_MIN
    assert (table._bits is not None) == filtered
    if filtered:
        assert table._bits.size >= 8 * table.codes.size
        assert table._bits.size & (table._bits.size - 1) == 0


@pytest.fixture
def bags(monkeypatch):
    """Record, per ``_run_bag`` call, the child tables it joins and the
    table it yields."""
    seen = []
    run_bag = fastdp._run_bag

    def tracked(host, plan, tables):
        out = run_bag(host, plan, tables)
        seen.append((list(tables), out))
        return out

    monkeypatch.setattr(fastdp, "_run_bag", tracked)
    return seen


def _fingerprint(seen):
    return [(t.codes.tolist(), t.values.tolist(),
             [s.tolist() for s in t.steps]) for _, t in seen]


def _roots(seen):
    """The tables no later bag joins: one root per DP."""
    joined = {id(t) for children, _ in seen for t in children}
    return [t for _, t in seen if id(t) not in joined]


@pytest.mark.parametrize("h, t, g, want", [
    (cycle_graph(5), 1, generate_bounded_degeneracy(60, 3, 5), None),
    (cycle_graph(5), 2, generate_bounded_degeneracy(30, 3, 6), None),
    (cycle_graph(6), 2, generate_bounded_degeneracy(24, 3, 6), None),
    (cycle_graph(7), 2, generate_bounded_degeneracy(20, 3, 7), None),
    (C4_TAIL, 1, generate_bounded_degeneracy(14, 3, 4), "brute"),
])
def test_every_table_filtered_with_the_cutoff_at_zero(h, t, g, want, bags,
                                                      monkeypatch):
    want = (brute_force_hom(g, h) if want == "brute"
            else cycle_hom_trace(g, h.n))
    monkeypatch.setattr(fastdp, "FILTER_MIN", 1 << 62)
    assert count_homomorphisms(g, h, t=t) == want
    plain = _fingerprint(bags)
    assert not any(out._bits is not None for _, out in bags)
    bags.clear()
    monkeypatch.setattr(fastdp, "FILTER_MIN", 0)
    assert count_homomorphisms(g, h, t=t) == want
    assert _fingerprint(bags) == plain
    assert any(out._bits is not None for _, out in bags)
    roots = _roots(bags)
    assert roots and all(r._bits is None for r in roots)


def test_c5_join_searches_few_of_its_queries(bags, monkeypatch):
    # the one keyed child table of C5 on this host is above the cutoff
    # and mostly missed, so the bitmap must keep most queries from the
    # search; a change that disables the filter fails here
    counts = {"queries": 0, "searched": 0}
    lookup, search = fastdp._Table.lookup, fastdp._sorted_search

    def tracked_lookup(self, qmat):
        counts["queries"] += qmat.shape[0]
        return lookup(self, qmat)

    def tracked_search(codes, q):
        counts["searched"] += q.size
        return search(codes, q)

    monkeypatch.setattr(fastdp._Table, "lookup", tracked_lookup)
    monkeypatch.setattr(fastdp, "_sorted_search", tracked_search)
    g = generate_bounded_degeneracy(3000, 3, 11)
    got = count_homomorphisms(g, cycle_graph(5))
    # no key packs past int64 and depth 1 refines no classes, so every
    # search is a join's
    assert not any(out.steps for _, out in bags)
    assert any(out.codes.size >= fastdp.FILTER_MIN for _, out in bags)
    assert counts["queries"] > 10_000
    assert counts["searched"] <= 0.25 * counts["queries"]
    roots = _roots(bags)
    assert roots and all(r._bits is None for r in roots)
    # without the filter the same count searches every query
    monkeypatch.setattr(fastdp, "FILTER_MIN", 1 << 62)
    counts.update(queries=0, searched=0)
    assert count_homomorphisms(g, cycle_graph(5)) == got
    assert counts["searched"] == counts["queries"] > 10_000


@pytest.mark.parametrize("seed", [3, 8])
def test_depth1_signature_index_builds_no_loops(seed):
    g = generate_bounded_degeneracy(200, 3, seed)
    ext = optimal_extension(g, 1)
    graph = ext.graph
    graph._signatures = None
    got = fastdp.signature_index(ext)
    assert got.rounds == () and got.index.ncls == 1
    # the construction that appended a loop per vertex, sorted the
    # elements and dropped the loops, which carry no class at depth 1
    n = graph.n
    verts = np.arange(n, dtype=np.int64)
    codes = np.concatenate((graph.src * n + graph.dst, verts * (n + 1)))
    order = np.argsort(codes, kind="stable")
    src, dst = np.divmod(codes[order], n)
    cls = np.concatenate((graph.wgt == 1, np.zeros(n, dtype=bool))
                         )[order].astype(np.int64)
    keep = cls > 0
    want = fastdp._HostIndex(n, src[keep], dst[keep], cls[keep], 1)
    for a, b in zip(got.index._arcs, want._arcs):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.index._arcs[0].size == graph.arc_count
