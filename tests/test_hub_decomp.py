import random
from itertools import product as iter_product


import pytest

from sparsecount import (DecompositionStallError, DirWLGraph,
                         enumerate_pattern_extensions,
                         find_width1_decomposition, hubset, label_pattern,
                         min_extension_depth, licl, reach,
                         unique_reachability_graph, validate_decomposition,
                         validate_fraternity)
from sparsecount.hub_decomp import HubTree

from conftest import connected_patterns_up_to, cycle_graph


def in_in_wedge():
    return DirWLGraph(3, [(0, 1, 1), (2, 1, 1)])


def alternating_six_cycle():
    return DirWLGraph(6, [(0, 1, 1), (2, 1, 1), (2, 3, 1), (4, 3, 1),
                          (4, 5, 1), (0, 5, 1)])


def test_hubset_examples():
    assert hubset(in_in_wedge()) == (0, 2)
    chain = DirWLGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert hubset(chain) == (0,)
    tri = DirWLGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert hubset(tri) == (0,)


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
        hubs = hubset(g)
        covered = reach(g, hubs)
        assert covered == frozenset(range(n))
        for s in hubs:
            for s2 in hubs:
                if s != s2:
                    assert s2 not in reach(g, s)


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
        hl = label_pattern(h)
        for member in enumerate_pattern_extensions(hl, min_extension_depth(licl(h))):
            tree = find_width1_decomposition(member.graph)
            assert tree is not None
            assert validate_decomposition(member.graph, tree)


def test_ur_forest_for_valid_patterns():
    for h in connected_patterns_up_to(4):
        t = min_extension_depth(licl(h))
        hl = label_pattern(h)
        for member in enumerate_pattern_extensions(hl, t):
            ur = unique_reachability_graph(member.graph, hubset(member.graph))
            assert ur.is_forest()


def _greedy_stalls(ext) -> bool:
    try:
        find_width1_decomposition(ext.graph, exhaustive_cap=0)
    except DecompositionStallError:
        return True
    return False


def test_greedy_stall_raises_typed_error():
    # C6 at t = 1 has extensions whose greedy insertion stalls; with no
    # room for the exhaustive search that is a typed, catchable error
    exts = enumerate_pattern_extensions(label_pattern(cycle_graph(6)), 1)
    stalled = [ext for ext in exts if _greedy_stalls(ext)]
    assert stalled
    with pytest.raises(RuntimeError, match="past the exhaustive-search cap 0"):
        find_width1_decomposition(stalled[0].graph, exhaustive_cap=0)
    # the default cap searches them exhaustively instead of raising
    for ext in stalled:
        assert find_width1_decomposition(ext.graph) is None
