import random
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsecount import (DirWLGraph, FraternalExtension, UndirectedGraph,
                         enumerate_pattern_extensions,
                         find_width1_decomposition, hubset,
                         min_extension_depth, licl,
                         reach, unique_reachability_graph)
from sparsecount.hub_decomp import HubTree

from conftest import (connected_patterns_up_to, cycle_graph, lifted_extension,
                      width1_tree_exists, with_fiber_labels)
from oracles import (LabeledGraph, bressan_count, brute_force_hom_wl,
                     member_graph, validate_decomposition, validate_fraternity)


def in_in_wedge():
    return DirWLGraph(3, [(0, 1, 1), (2, 1, 1)])


def alternating_six_cycle():
    return DirWLGraph(6, [(0, 1, 1), (2, 1, 1), (2, 3, 1), (4, 3, 1),
                          (4, 5, 1), (0, 5, 1)])


def test_hubset_examples():
    assert hubset(in_in_wedge()) == (0, 2)
    chain = DirWLGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert hubset(chain) == (0,)
    # a sourceless cycle has no hubs that reach it
    tri = DirWLGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    with pytest.raises(ValueError):
        hubset(tri)


def test_hubset_mutually_unreachable_and_covering():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 10)
        arcs = []
        seen = set()
        for _ in range(rng.randint(0, 18)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in seen and (v, u) not in seen:
                seen.add((u, v))
                arcs.append((u, v, 1))
        g = DirWLGraph(n, arcs)
        sources = set(range(n)) - {v for _, v, _ in arcs}
        if reach(g, sources) != frozenset(range(n)):
            with pytest.raises(ValueError):
                hubset(g)
            continue
        hubs = hubset(g)
        assert hubs == tuple(sorted(sources))
        assert reach(g, hubs) == frozenset(range(n))
        for s in hubs:
            for s2 in hubs:
                if s != s2:
                    assert s2 not in reach(g, s)


def test_hubs_of_pattern_extensions_are_layer1_sources():
    # an extension round links two out-neighbors of a common center, so a
    # source of the acyclic first layer never gains an in-arc
    cases = [(h, t) for h in connected_patterns_up_to(5) for t in (1, 2)]
    cases += [(cycle_graph(6), 2), (cycle_graph(7), 2), (cycle_graph(6), 3)]
    members = 0
    for h, t in cases:
        for member in enumerate_pattern_extensions(h, t):
            g = member_graph(member)
            sources = set(range(g.n)) - set(member.layers[0][:, 1].tolist())
            assert hubset(g) == tuple(sorted(sources))
            assert reach(g, sources) == frozenset(range(g.n))
            members += 1
    assert members == 4737


def test_reach():
    g = DirWLGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert reach(g, []) == frozenset()
    assert reach(g, 0) == {0, 1, 2}
    arcless = DirWLGraph(3, [])
    assert reach(arcless, 1) == {1}


def test_unique_reachability_examples():
    # disjoint reach sets: no edge
    two = DirWLGraph(4, [(0, 1, 1), (2, 3, 1)])
    assert unique_reachability_graph(two, (0, 2)).edges == ()
    # the shared middle vertex is exclusively co-reached
    ur = unique_reachability_graph(in_in_wedge(), (0, 2))
    assert ur.edges == ((0, 2),)
    # three alternating sources co-reach pairwise: a 3-cycle
    ur6 = unique_reachability_graph(alternating_six_cycle(), (0, 2, 4))
    assert set(ur6.edges) == {(0, 2), (2, 4), (0, 4)}
    assert not ur6.is_forest()


def test_ur_cycle_on_deep_extension():
    # oriented 9-cycle with three sources; after one extension round the
    # unique reachability graph of some member contains a triangle
    base = [(0, 1, 1), (1, 2, 1), (3, 2, 1), (3, 4, 1), (4, 5, 1),
            (6, 5, 1), (6, 7, 1), (7, 8, 1), (0, 8, 1)]
    pairs = [(2, 4), (5, 7), (8, 1)]
    cyclic = 0
    for bits in iter_product((0, 1), repeat=3):
        arcs = list(base)
        for flip, (a, b) in zip(bits, pairs):
            arcs.append((b, a, 2) if flip else (a, b, 2))
        g = DirWLGraph(9, arcs)
        assert validate_fraternity(g, t=2)
        ur = unique_reachability_graph(g, hubset(g))
        if not ur.is_forest():
            cyclic += 1
    assert cyclic > 0


def test_width1_single_hub():
    chain = DirWLGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    tree = find_width1_decomposition(chain)
    assert tree == HubTree((0,), (-1,), 0)
    assert validate_decomposition(chain, tree)


def test_width1_in_in_wedge():
    tree = find_width1_decomposition(in_in_wedge())
    assert tree is not None
    assert sorted(tree.bags) == [0, 2]
    assert validate_decomposition(in_in_wedge(), tree)


def test_width1_absent_for_alternating_six_cycle():
    assert find_width1_decomposition(alternating_six_cycle()) is None


def test_validate_decomposition_rejects_bad_trees():
    g = in_in_wedge()
    # missing hub
    assert not validate_decomposition(g, HubTree((0,), (-1,), 0))
    # non-hub vertex in a bag
    assert not validate_decomposition(g, HubTree((0, 1), (-1, 0), 0))
    # broken parent structure
    assert not validate_decomposition(g, HubTree((0, 2), (0, 1), 0))


def test_path_separation_rejected():
    # two far sources and a middle one: putting the middle at an end
    # violates the shared-reach containment
    g = DirWLGraph(5, [(0, 1, 1), (2, 1, 1), (2, 3, 1), (4, 3, 1)])
    ok = HubTree((0, 2, 4), (-1, 0, 1), 0)   # path 0 - 2 - 4
    assert validate_decomposition(g, ok)
    bad = HubTree((2, 0, 4), (-1, 0, 1), 0)  # path 2 - 0 - 4
    assert not validate_decomposition(g, bad)


def test_width1_guarantee_small_patterns():
    # depth-1 members of every connected pattern below the obstruction
    for h in connected_patterns_up_to(4):
        if licl(h) >= 6:
            continue
        for member in enumerate_pattern_extensions(h, min_extension_depth(licl(h))):
            tree = find_width1_decomposition(member_graph(member))
            assert tree is not None
            assert validate_decomposition(member_graph(member), tree)


def test_ur_forest_for_valid_patterns():
    for h in connected_patterns_up_to(4):
        t = min_extension_depth(licl(h))
        for member in enumerate_pattern_extensions(h, t):
            g = member_graph(member)
            ur = unique_reachability_graph(g, hubset(g))
            assert ur.is_forest()


def test_width1_nine_hubs_path():
    # three chained hubs and six isolated ones: the three must form the
    # path 0 - 1 - 2, the isolated hubs hang anywhere
    arcs = [(0, 3), (0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (2, 4), (2, 8),
            (2, 9), (2, 10)]
    g = DirWLGraph(17, [(u, v, 1) for u, v in arcs])
    assert hubset(g) == (0, 1, 2, 11, 12, 13, 14, 15, 16)
    tree = find_width1_decomposition(g)
    assert tree is not None and validate_decomposition(g, tree)
    edges = {frozenset((tree.bags[i], tree.bags[p]))
             for i, p in enumerate(tree.parent) if p != -1}
    assert {e for e in edges if e <= {0, 1, 2}} == {frozenset((0, 1)),
                                                    frozenset((1, 2))}


def test_width1_nine_hub_tree_member_counts():
    # a depth-1 member of a 16-vertex tree pattern with 9 hubs
    arcs = [(0, 1), (2, 1), (4, 1), (7, 1), (10, 1), (3, 1), (13, 3),
            (12, 3), (9, 3), (4, 5), (6, 5), (6, 8), (8, 14), (9, 11),
            (9, 15)]
    tree_pattern = UndirectedGraph(16, arcs)
    member = FraternalExtension(
        LabeledGraph(16, [(u, v, 1) for u, v in arcs], labels=range(16)), 1,
        (np.array(sorted(arcs), dtype=np.int64),))
    assert validate_fraternity(member.graph, t=1)
    assert len(hubset(member.graph)) == 9
    tree = find_width1_decomposition(member.graph)
    assert tree is not None and validate_decomposition(member.graph, tree)
    hostx = with_fiber_labels(
        lifted_extension(cycle_graph(5), 1, tree_pattern).graph, 16)
    got = sum(bressan_count(member.graph, tree, tree.root, hostx).values())
    assert got == brute_force_hom_wl(hostx, member.graph, cap=80) == 53


def _agrees_with_oracle(g: DirWLGraph) -> bool:
    tree = find_width1_decomposition(g)
    if tree is not None:
        assert validate_decomposition(g, tree)
    return (tree is None) == (not width1_tree_exists(g))


@st.composite
def small_digraphs(draw):
    # every other vertex is reached by two of the sources 0..k-1, so the
    # shared reaches can close a cycle of hubs; a few arcs among the
    # other vertices (either way, cycles included) merge reaches further
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(7, n)))
    arcs = set()
    for v in range(k, n):
        for s in draw(st.sets(st.integers(0, k - 1), min_size=min(2, k),
                              max_size=min(2, k))):
            arcs.add((s, v))
    if n - k >= 2:
        rest = st.integers(k, n - 1)
        for u, v in draw(st.lists(st.tuples(rest, rest), max_size=3)):
            if u != v and (v, u) not in arcs:
                arcs.add((u, v))
    return DirWLGraph(n, [(u, v, 1) for u, v in arcs])


@settings(max_examples=150, deadline=None)
@given(small_digraphs())
@example(alternating_six_cycle())
def test_width1_matches_exhaustive_oracle(g):
    assume(len(hubset(g)) <= 7)
    assert _agrees_with_oracle(g)


def test_width1_matches_oracle_on_c6_depth1():
    # Frat(C6, 1) holds members with and without a width-1 decomposition
    exts = enumerate_pattern_extensions(cycle_graph(6), 1)
    found = [find_width1_decomposition(member_graph(ext)) is not None
             for ext in exts]
    assert any(found) and not all(found)
    for ext in exts:
        assert _agrees_with_oracle(member_graph(ext))
