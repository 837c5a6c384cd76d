"""The small-graph searches against the bodies they replaced.

The automorphism chain, the spasm's isomorphism test and the brute-force
counters share one breadth-first order (``pattern_tools._bfs``) and the
first two one backtracking first-completion search
(``pattern_tools._first_map``); the brute forces share one backtracking
count (``counting._count_maps``). Each is compared with its former body
in ``tests/oracles.py``: the same generators in the same order and the
same group order, the same fiber tournaments, the same isomorphism
answers, and the same counts.
"""

import random

import pytest

from sparsecount import (UndirectedGraph, brute_force_hom, brute_force_sub,
                         connected_components, pattern_tools)
from sparsecount.pattern_tools import (_isomorphic, _refined_colours,
                                       fiber_tournament, pendant_forest)

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      disjoint_union, path_graph, random_graph)
from oracles import (automorphism_chain_reference, brute_force_hom_reference,
                     brute_force_sub_reference, canonical_form,
                     isomorphic_reference, search_order_reference)

CHAIN_PATTERNS = (connected_patterns_up_to(6)
                  + [disjoint_union(cycle_graph(4), path_graph(3)),
                     disjoint_union(complete_graph(3), complete_graph(3))]
                  + [cycle_graph(k) for k in range(3, 13)])


def test_automorphism_chain_matches_its_reference():
    for h in CHAIN_PATTERNS:
        assert (pattern_tools._automorphism_chain(h)
                == automorphism_chain_reference(h)), h.edge_list()


def test_components_are_the_breadth_first_parts():
    rng = random.Random(4)
    for _ in range(40):
        h = random_graph(rng.randint(0, 12), 0.15, rng)
        comps = connected_components(h)
        assert sorted(v for c in comps for v in c) == list(range(h.n))
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        adj = h.adjacency_sets()
        for c in comps:
            assert all(adj[v] <= c for v in c)
        order = search_order_reference(adj, h.n)
        starts = sorted(range(h.n), key=lambda v: (-len(adj[v]), v))
        assert [v for part in pattern_tools._bfs(adj, starts)
                for v in part] == order


def _pendant_core(k: int):
    """C_k with a leaf at vertex 0 and a path of two at vertex k // 2,
    folded: the core C_k and its three pendant colours."""
    h = UndirectedGraph(k + 3, cycle_graph(k).edge_list()
                        + [(0, k), (k // 2, k + 1), (k + 1, k + 2)])
    forest = pendant_forest(h)
    return forest.core, forest.colors


@pytest.mark.parametrize("pendants", [False, True])
def test_fiber_tournaments_match_the_reference_chain(pendants, monkeypatch):
    cases = []
    for k in range(3, 9):
        core, colors = (_pendant_core(k) if pendants
                        else (cycle_graph(k), None))
        cases += [(core, t, colors) for t in range(1, 5)]
    got = [fiber_tournament(*case) for case in cases]
    monkeypatch.setattr(pattern_tools, "_automorphism_chain",
                        automorphism_chain_reference)
    pattern_tools._fiber_tournament.cache_clear()
    try:
        want = [fiber_tournament(*case) for case in cases]
    finally:
        pattern_tools._fiber_tournament.cache_clear()
    assert got == want


def _quotient_buckets(h: UndirectedGraph) -> list[list[tuple]]:
    """The distinct quotients of h's independent partitions as
    (adjacency, refined colours), bucketed as ``spasm`` buckets them."""
    table: dict = {}
    buckets: dict[tuple, list[tuple]] = {}
    seen = set()
    for blocks in pattern_tools._independent_partitions(
            h.n, h.adjacency_sets()):
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        k = len(blocks)
        qedges = tuple(sorted({tuple(sorted((block_of[u], block_of[v])))
                               for u, v in h.edge_list()}))
        if (k, qedges) in seen:
            continue
        seen.add((k, qedges))
        adj = pattern_tools._adjacency(k, qedges)
        col = _refined_colours(adj, table)
        buckets.setdefault((k, len(qedges), tuple(sorted(col))), []).append(
            (adj, col, UndirectedGraph(k, qedges)))
    return list(buckets.values())


@pytest.mark.parametrize("k", [6, 7, 8])
def test_isomorphic_matches_its_reference_on_every_bucket_pair(k):
    pairs = same = 0
    for bucket in _quotient_buckets(cycle_graph(k)):
        codes = ([canonical_form(g) for *_, g in bucket] if k < 8
                 else None)
        for i, (adj, col, _) in enumerate(bucket):
            for j, (rep_adj, rep_col, _) in enumerate(bucket):
                got = _isomorphic(adj, col, rep_adj, rep_col)
                assert got == isomorphic_reference(adj, col, rep_adj,
                                                   rep_col)
                if codes is not None:
                    assert got == (codes[i] == codes[j])
                pairs += 1
                same += got
    assert pairs >= same > 0


PRISM = UndirectedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])
K33 = UndirectedGraph(6, [(a, b) for a in range(3) for b in range(3, 6)])


@pytest.mark.parametrize("a, b, iso", [
    (cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3)),
     False),
    (cycle_graph(8), disjoint_union(cycle_graph(4), cycle_graph(4)), False),
    (PRISM, K33, False),
    (PRISM, UndirectedGraph(6, [(5 - u, 5 - v)
                                for u, v in PRISM.edge_list()]), True),
])
def test_isomorphic_on_graphs_refinement_cannot_split(a, b, iso):
    # regular graphs keep one refined colour, so only the search decides
    table: dict = {}
    adj, rep_adj = a.adjacency_sets(), b.adjacency_sets()
    col, rep_col = _refined_colours(adj, table), _refined_colours(rep_adj,
                                                                  table)
    assert len(set(col)) == 1 and col == rep_col
    assert (_isomorphic(adj, col, rep_adj, rep_col)
            == isomorphic_reference(adj, col, rep_adj, rep_col) == iso)


def test_brute_force_counts_match_their_references():
    rng = random.Random(17)
    patterns = connected_patterns_up_to(4) + [
        cycle_graph(5), cycle_graph(6), disjoint_union(path_graph(2),
                                                       complete_graph(3))]
    for _ in range(30):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        h = rng.choice(patterns)
        assert brute_force_hom(g, h) == brute_force_hom_reference(g, h)
        assert brute_force_sub(g, h) == brute_force_sub_reference(g, h)
    assert brute_force_hom(UndirectedGraph(3, []), UndirectedGraph(0, [])) \
        == brute_force_hom_reference(UndirectedGraph(3, []),
                                     UndirectedGraph(0, [])) == 1
