import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecount import (DirWLGraph, HubTree, NoWidth1Decomposition,
                         UndirectedGraph, brute_force_hom, brute_force_sub,
                         count_hom_extension, count_homomorphisms,
                         count_subgraphs, enumerate_pattern_extensions,
                         find_width1_decomposition, max_outdegree,
                         optimal_extension)
from sparsecount import counting, fastdp
from sparsecount.counting import frat_classes
from sparsecount.harness import generate_bounded_degeneracy, run_count_hom

from conftest import (complete_graph, connected_patterns_up_to, count_on_lift,
                      cycle_graph, cycle_hom_trace, disjoint_union,
                      lifted_extension, path_graph, peeled_product_extension,
                      random_graph, self_labeled, signature_host,
                      star_graph, weight_host, with_fiber_labels)
import oracles
from oracles import (HomMap, LabeledGraph, bressan_count, brute_force_hom_wl,
                     enumerate_root_homs, member_graph, validate_decomposition)


def test_hommap_encoding():
    phi = HomMap([(2, 5), (0, 3)])
    assert tuple(phi) == ((0, 3), (2, 5))
    assert phi.restrict({2}) == HomMap([(2, 5)])
    assert phi.assignment() == {0: 3, 2: 5}


def test_enumerate_root_homs_single_vertex():
    pattern = LabeledGraph(1, [], labels=[2])
    host = LabeledGraph(4, [], labels=[2, 0, 2, 1])
    homs = enumerate_root_homs(pattern, 0, host)
    assert sorted(h.assignment()[0] for h in homs) == [0, 2]


def test_enumerate_root_homs_arc_into_triangle():
    pattern = DirWLGraph(2, [(0, 1, 1)])
    host = DirWLGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    homs = enumerate_root_homs(pattern, 0, host)
    assert len(homs) == 3


def test_enumerate_root_homs_weight_dominance():
    # a pattern arc may map onto an equal-or-lighter host arc only
    pattern = DirWLGraph(2, [(0, 1, 2)])
    heavy = DirWLGraph(2, [(0, 1, 3)])
    assert enumerate_root_homs(pattern, 0, heavy) == []
    light = DirWLGraph(2, [(0, 1, 1)])
    assert len(enumerate_root_homs(pattern, 0, light)) == 1
    exact = DirWLGraph(2, [(0, 1, 2)])
    assert len(enumerate_root_homs(pattern, 0, exact)) == 1


def test_enumerate_root_homs_restricts_to_reach():
    # vertex 2 is unreachable from 0 and must not constrain the maps
    pattern = DirWLGraph(3, [(0, 1, 1), (2, 1, 1)])
    host = DirWLGraph(2, [(0, 1, 1)])
    homs = enumerate_root_homs(pattern, 0, host)
    assert [h.assignment() for h in homs] == [{0: 0, 1: 1}]


def test_bressan_single_bag_values():
    pattern = DirWLGraph(2, [(0, 1, 1)])
    host = DirWLGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    tree = find_width1_decomposition(pattern)
    counts = bressan_count(pattern, tree, tree.root, host)
    assert all(v == 1 for v in counts.values())
    assert sum(counts.values()) == 3
    assert counts[HomMap([(0, 9), (1, 9)])] == 0  # absent keys read as 0


def test_bressan_in_in_wedge_identity_instance():
    pattern = LabeledGraph(3, [(0, 1, 1), (2, 1, 1)], labels=[0, 1, 2])
    host = LabeledGraph(3, [(0, 1, 1), (2, 1, 1)], labels=[0, 1, 2])
    tree = find_width1_decomposition(pattern)
    counts = bressan_count(pattern, tree, tree.root, host)
    assert sum(counts.values()) == 1


def test_bressan_disjoint_children_multiply():
    # two unreachable sources: the empty restriction key aggregates each
    # child to its total
    pattern = DirWLGraph(4, [(0, 1, 1), (2, 3, 1)])
    host = DirWLGraph(5, [(0, 1, 1), (0, 2, 1), (3, 4, 1)])
    tree = find_width1_decomposition(pattern)
    counts = bressan_count(pattern, tree, tree.root, host)
    total = sum(counts.values())
    assert total == brute_force_hom_wl(host, pattern) == 9


def test_bressan_dictionary_size_bound():
    rng = random.Random(3)
    for _ in range(20):
        h = random_graph(rng.randint(2, 4), 0.7, rng)
        g = random_graph(rng.randint(2, 9), 0.4, rng)
        host = with_fiber_labels(lifted_extension(g, 1, h).graph, h.n)
        d = max(1, max_outdegree(host))
        for member in enumerate_pattern_extensions(h, 1):
            pattern = self_labeled(member)
            tree = find_width1_decomposition(pattern)
            counts = bressan_count(pattern, tree, tree.root, host)
            assert len(counts) <= host.n * d ** (h.n - 1)


def test_count_hom_extension_label_mismatch_zero():
    # a label no host vertex carries admits no map; the label-reading
    # oracles count it, since the engine reads no labels
    pattern = LabeledGraph(1, [], labels=[7])
    host = LabeledGraph(3, [], labels=[0, 1, 2])
    tree = find_width1_decomposition(pattern)
    assert sum(bressan_count(pattern, tree, tree.root, host).values()) == 0
    assert brute_force_hom_wl(host, pattern) == 0


def test_count_hom_extension_k2_product():
    h = path_graph(2)
    hostx = with_fiber_labels(lifted_extension(path_graph(2), 1, h).graph,
                              h.n)
    counts = []
    for member in enumerate_pattern_extensions(h, 1):
        pattern = self_labeled(member)
        tree = find_width1_decomposition(pattern)
        counts.append(sum(bressan_count(pattern, tree, tree.root,
                                        hostx).values()))
    # layer 1 lifts the host's peel, which takes host vertex 0 before 1:
    # <0,0> -> <1,1> runs from fiber 0 to fiber 1 and <1,0> -> <0,1> from
    # fiber 1 to fiber 0, so each pattern orientation collects one
    # homomorphism
    assert sorted(counts) == [1, 1]
    assert sum(counts) == brute_force_hom(path_graph(2), h) == 2


def _small_host(kind: str, n: int, seed: int) -> UndirectedGraph:
    rng = random.Random(seed)
    if kind == "edgeless":
        return UndirectedGraph(n, [])
    if kind == "path":
        return path_graph(n)
    if kind == "disconnected":
        return disjoint_union(random_graph(n // 2, 0.6, rng),
                              random_graph(n - n // 2, 0.6, rng))
    return random_graph(n, 0.45, rng)


@given(st.sampled_from(("edgeless", "path", "disconnected", "random")),
       st.integers(1, 6), st.integers(0, 10 ** 6),
       st.sampled_from(connected_patterns_up_to(5)), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_lifted_and_exact_peel_extensions_agree(kind, n, seed, h, t):
    # the lifted layer 1 (host peel) and the materialized product's own
    # exact peel are two acyclic orientations of the same product; the
    # Frat-summed counts must not depend on which one the host extension
    # starts from
    g = _small_host(kind, n, seed)
    lifted = lifted_extension(g, t, h)
    exact = peeled_product_extension(h, g, t)
    members = enumerate_pattern_extensions(h, t)
    via_lift = sum(count_on_lift(m, lifted) for m in members)
    via_peel = sum(count_on_lift(m, exact) for m in members)
    assert via_lift == via_peel == brute_force_hom(g, h)
    assert count_homomorphisms(g, h, t=t) == via_lift
    if t == 1:
        # a depth-1 count drops the labels: the unlabeled orientations
        # of h counted on the signature host of G's own degeneracy DAG,
        # on G's n vertices
        own = signature_host(g, h, 1)
        bare = enumerate_pattern_extensions(h, 1)
        via_own = sum(count_hom_extension(m, own) for m in bare)
        hosts = []
        real = counting.count_family

        def family(fold, depth, host_ext):
            hosts.append(host_ext)
            return real(fold, depth, host_ext)

        with mock.patch.object(counting, "count_family", family):
            assert counting._count_component(g, h, 1).count == via_own
        assert via_own == brute_force_hom(g, h)
        # a tree is counted by message passing, with no family and no host
        tree = h.m == h.n - 1
        assert [x.graph.n for x in hosts] == ([] if tree else [g.n])


@pytest.mark.parametrize("k", [7, 8, 9])
def test_lifted_and_exact_peel_extensions_agree_on_long_cycles(k):
    # C7-C9 at t = 3 put vertical pairs at every distance up to 3 (the
    # half turn of C8 is left in Aut_tau); the signature host and the
    # lifted host, counted one DP per class, and the exact peel, counted
    # member by member, must all give trace(A^k)
    g = random_graph(6, 0.5, random.Random(k))
    h = cycle_graph(k)
    host = signature_host(g, h, 3)
    lifted = lifted_extension(g, 3, h)
    exact = peeled_product_extension(h, g, 3)
    members = enumerate_pattern_extensions(h, 3)
    classes = frat_classes(members, h, 3)
    via_host = sum(count_hom_extension(members[c[0]], host) * len(c)
                   for c in classes)
    via_lift = sum(count_on_lift(members[c[0]], lifted) * len(c)
                   for c in classes)
    via_peel = sum(count_on_lift(m, exact) for m in members)
    assert via_host == via_lift == via_peel == cycle_hom_trace(g, k) > 0


def test_count_hom_extension_matches_wl_oracle():
    rng = random.Random(37)
    for _ in range(25):
        h = random_graph(4, 0.6, rng)
        g = random_graph(rng.randint(3, 12), 0.35, rng)
        hostx = lifted_extension(g, 2, h)
        labeled = with_fiber_labels(hostx.graph, h.n)
        host = signature_host(g, h, 2)
        for member in enumerate_pattern_extensions(h, 2):
            want = brute_force_hom_wl(labeled, self_labeled(member),
                                      cap=10 ** 6)
            assert count_on_lift(member, hostx) == want
            assert count_hom_extension(member, host) == want


def test_fast_engine_width0_child_table():
    # two mutually unreachable hubs force the empty restriction domain:
    # the child's table has width 0, one code holding its count, and the
    # parent looks it up as soon as its root is assigned
    pattern = DirWLGraph(4, [(0, 1, 1), (2, 3, 1)])
    host = DirWLGraph(5, [(0, 1, 1), (0, 2, 1), (3, 4, 1)])
    tree = find_width1_decomposition(pattern)
    assert fastdp.extension_count(pattern, tree, weight_host(host, 4)) == 9
    assert sum(bressan_count(pattern, tree, tree.root, host).values()) == 9


@pytest.mark.parametrize("t, limit", [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(3, None, id="3"),
    # an int64 limit of 10^4 packs a key of three or more columns on a
    # host of more than 21 vertices to ranks before its third fold, while
    # narrower keys fold directly; queries replay the recorded steps
    pytest.param(2, 10 ** 4, id="2-compressed"),
])
def test_engines_agree(t, limit, monkeypatch):
    # the vectorized engine's arc checks, on the signature host and on
    # the lift with fiber weights, are compared with the dict engine on
    # the labeled lift
    real = fastdp._pack
    made = []

    def tracked(mat, n, steps=None):
        code, out = real(mat, n, steps)
        if steps is None:
            made.append(len(out))
        return code, out

    monkeypatch.setattr(fastdp, "_pack", tracked)
    if limit is not None:
        monkeypatch.setattr(fastdp, "_I64_LIMIT", limit)
    rng = random.Random(41)
    for _ in range(30):
        h = random_graph(rng.randint(2, 5), 0.55, rng)
        g = random_graph(rng.randint(2, 11), 0.4, rng)
        lifted = lifted_extension(g, t, h)
        labeled = with_fiber_labels(lifted.graph, h.n)
        host = signature_host(g, h, t)
        for member in enumerate_pattern_extensions(h, t):
            tree = find_width1_decomposition(member_graph(member))
            ref = sum(bressan_count(self_labeled(member), tree, tree.root,
                                    labeled).values())
            assert fastdp.extension_count(member, tree, host) == ref
            assert count_on_lift(member, lifted) == ref
    assert any(made) == (limit is not None)
    assert not all(made)


def test_count_homomorphisms_known_values():
    k3 = complete_graph(3)
    assert count_homomorphisms(k3, k3) == 6
    assert count_homomorphisms(k3, cycle_graph(4)) == 18
    c5 = cycle_graph(5)
    assert count_homomorphisms(c5, c5) == 10
    rng = random.Random(2)
    for _ in range(10):
        g = random_graph(rng.randint(1, 12), 0.4, rng)
        assert count_homomorphisms(g, path_graph(2)) == 2 * g.m


def test_count_homomorphisms_cycle_traces():
    rng = random.Random(8)
    for _ in range(12):
        g = random_graph(rng.randint(2, 12), 0.4, rng)
        for length in (3, 4, 5):
            assert count_homomorphisms(g, cycle_graph(length)) == \
                cycle_hom_trace(g, length)


def test_component_multiplicativity():
    rng = random.Random(12)
    for _ in range(10):
        g = random_graph(rng.randint(2, 10), 0.45, rng)
        h1 = path_graph(3)
        h2 = complete_graph(3)
        both = disjoint_union(h1, h2)
        assert count_homomorphisms(g, both) == \
            count_homomorphisms(g, h1) * count_homomorphisms(g, h2)


def test_count_homomorphisms_validates_pattern():
    with pytest.raises(ValueError):
        count_homomorphisms(path_graph(3), UndirectedGraph(0, []))


def test_count_homomorphisms_empty_host():
    empty = UndirectedGraph(0, [])
    assert count_homomorphisms(empty, complete_graph(3)) == 0
    assert count_homomorphisms(empty, UndirectedGraph(1, [])) == 0


def test_count_homomorphisms_single_vertex_pattern():
    g = random_graph(7, 0.4, random.Random(6))
    assert count_homomorphisms(g, UndirectedGraph(1, [])) == 7


def test_deeper_than_minimal_depth_still_exact():
    rng = random.Random(14)
    for _ in range(6):
        g = random_graph(rng.randint(3, 9), 0.4, rng)
        h = cycle_graph(4)
        want = brute_force_hom(g, h)
        assert count_homomorphisms(g, h, t=2) == want
        assert count_homomorphisms(g, h, t=3) == want
        assert count_homomorphisms(g, h, t=4) == want


def test_no_width1_at_forced_depth():
    g = random_graph(8, 0.4, random.Random(5))
    with pytest.raises(NoWidth1Decomposition) as info:
        count_homomorphisms(g, cycle_graph(6), t=1)
    assert info.value.extension is not None
    # the same pattern runs fine at its minimal depth
    assert count_homomorphisms(g, cycle_graph(6)) == \
        brute_force_hom(g, cycle_graph(6))


def test_count_subgraphs_known_values():
    assert count_subgraphs(star_graph(3), path_graph(3)) == 3
    k3 = complete_graph(3)
    assert count_subgraphs(k3, k3) == 1
    assert count_subgraphs(cycle_graph(6), path_graph(2)) == 6
    assert count_subgraphs(complete_graph(4), k3) == 4


def test_count_builds_only_what_it_uses(monkeypatch):
    # Sub(C6) counts 10 spasm quotients: C6 at depth 2 and 9 at depth 1.
    # The 82 class representatives of their 320 Frat members are counted
    # from their arc tuples, so no pattern graph is built. The 9 depth-1
    # quotients share one degeneracy DAG of G and one signature index
    # over it; C6 counts on one signature index over G's own extension to
    # depth 2. No index has more than G's n vertices
    import sparsecount.fraternal as fraternal

    g = generate_bounded_degeneracy(20, 3, 5)
    pattern_graphs = []
    init = DirWLGraph._init_from

    def tracked_init(self, n, *args):
        if n <= 6:
            pattern_graphs.append(n)
        init(self, n, *args)

    monkeypatch.setattr(DirWLGraph, "_init_from", tracked_init)
    dags = []
    peel = fraternal._peeled_extension

    def tracked_peel(base, t, ext=None):
        if t == 1:
            dags.append(base)
        return peel(base, t, ext)

    monkeypatch.setattr(fraternal, "_peeled_extension", tracked_peel)
    indexed = []

    class TrackedIndex(fastdp._HostIndex):
        def __init__(self, n, *args, **kwargs):
            indexed.append(n)
            super().__init__(n, *args, **kwargs)

    monkeypatch.setattr(fastdp, "_HostIndex", TrackedIndex)
    assert count_subgraphs(g, cycle_graph(6)) == \
        brute_force_sub(g, cycle_graph(6))
    assert len(pattern_graphs) == 0
    assert dags == [g]
    assert indexed == [g.n, g.n]
    assert optimal_extension(g, 1).graph._signatures is not None
    assert optimal_extension(g, 2).graph._signatures is not None


def test_count_subgraphs_random_oracle():
    rng = random.Random(77)
    for _ in range(15):
        h = random_graph(rng.randint(2, 4), 0.6, rng)
        g = random_graph(rng.randint(2, 11), 0.4, rng)
        assert count_subgraphs(g, h) == brute_force_sub(g, h)


def test_brute_force_values():
    k3 = complete_graph(3)
    assert brute_force_hom(k3, k3) == 6
    assert brute_force_sub(complete_graph(4), k3) == 4
    c5 = cycle_graph(5)
    assert brute_force_hom(c5, c5) == 10
    assert brute_force_hom(UndirectedGraph(3, []), path_graph(2)) == 0


def test_brute_force_caps():
    big = UndirectedGraph(40, [])
    with pytest.raises(ValueError):
        brute_force_hom(big, path_graph(2))
    with pytest.raises(ValueError):
        brute_force_sub(UndirectedGraph(25, []), path_graph(2))
    assert brute_force_hom(big, path_graph(2), cap=64) == 0


def test_brute_force_hom_wl_respects_weights_and_labels():
    host = LabeledGraph(3, [(0, 1, 1), (1, 2, 2)], labels=[0, 1, 0])
    pattern = LabeledGraph(2, [(0, 1, 2)], labels=[0, 1])
    # both host arcs are light enough, but only (0,1) matches the labels
    assert brute_force_hom_wl(host, pattern) == 1
    pattern_heavy = LabeledGraph(2, [(0, 1, 1)], labels=[1, 0])
    # (1,2) has weight 2 > 1: dominance fails
    assert brute_force_hom_wl(host, pattern_heavy) == 0


def test_thread_option_matches_serial(monkeypatch):
    # counting starts no thread, which the unlocked caches on graphs rely
    # on; the threads keyword is accepted and ignored
    import threading

    def refuse(self):
        raise AssertionError("a count started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    host = generate_bounded_degeneracy(30, 3, 13)
    for k, t in ((5, 1), (6, 2)):
        assert count_homomorphisms(host, cycle_graph(k), t=t, threads=2) \
            == cycle_hom_trace(host, k)
    assert count_subgraphs(host, cycle_graph(6), threads=2) == \
        brute_force_sub(host, cycle_graph(6), cap=30) == 1943


@given(st.integers(1, 8), st.integers(0, 10 ** 6),
       st.sampled_from(connected_patterns_up_to(5)), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_depth1_orbit_classes_count_alike(n, seed, h, t):
    # one DP per class stands for all of it only if every member of an
    # Aut_tau(H) orbit counts the same on the host a count uses: the
    # signature host of G's own extension, with unlabeled members at
    # every depth
    g = random_graph(n, 0.45, random.Random(seed))
    hostx = signature_host(g, h, t)
    members = enumerate_pattern_extensions(h, t)
    classes = frat_classes(members, h, t)
    assert sorted(i for c in classes for i in c) == list(range(len(members)))
    for c in classes:
        assert c[0] == min(c)
        rep = count_hom_extension(members[c[0]], hostx)
        assert all(count_hom_extension(members[i], hostx) == rep for i in c)


def test_one_extension_dp_per_depth1_orbit(monkeypatch):
    import sparsecount.counting as counting

    calls = []
    real = counting.count_hom_extension

    def counted(pattern_ext, host_ext):
        calls.append(pattern_ext)
        return real(pattern_ext, host_ext)

    monkeypatch.setattr(counting, "count_hom_extension", counted)
    g = random_graph(12, 0.4, random.Random(5))
    c5 = cycle_graph(5)
    assert count_homomorphisms(g, c5) == cycle_hom_trace(g, 5)
    assert len(calls) == 3  # the 30 orientations of C5 form 3 orbits
    calls.clear()
    report = run_count_hom(g, c5)
    assert report.count == cycle_hom_trace(g, 5)
    assert report.n_extensions == 30 and len(calls) == 3
    # depth 2: one DP per rotation class of Frat(C_k, 2), since the
    # clockwise tournament on distance-2 pairs keeps Aut_tau = Z_k
    for k, dps in ((6, 36), (7, 68), (8, 149)):
        calls.clear()
        assert count_homomorphisms(g, cycle_graph(k)) == cycle_hom_trace(g, k)
        assert len(calls) == dps


def _refuse_dict_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dict engine ran")

    monkeypatch.setattr(oracles, "bressan_count", refuse)


def test_forced_widening_is_exact(monkeypatch):
    # with an int64 limit of 1 every multiply and sum widens to exact
    # Python ints, and the counts stay those of the oracles
    g = generate_bounded_degeneracy(12, 2, 21)
    want_sub = brute_force_sub(g, cycle_graph(6))
    widened = []
    real = fastdp._widen

    def tracked(vals, bound):
        out = real(vals, bound)
        widened.append(out.dtype == object)
        return out

    _refuse_dict_engine(monkeypatch)
    monkeypatch.setattr(fastdp, "_widen", tracked)
    monkeypatch.setattr(fastdp, "_I64_LIMIT", 1)
    for k, t in ((5, 1), (6, 2)):
        widened.clear()
        got = count_homomorphisms(g, cycle_graph(k), t=t)
        assert any(widened)
        assert got == cycle_hom_trace(g, k)
    assert count_subgraphs(g, cycle_graph(6)) == want_sub


def test_count_past_int64_is_exact_without_dict_engine(monkeypatch):
    # Hom(K1,10 -> S_100) maps the pattern center to the host center
    # (100^10 ways) or to a leaf (100 ways): past int64, so the DP values
    # widen to Python ints on the vectorized engine
    _refuse_dict_engine(monkeypatch)
    want = 100 ** 10 + 100
    assert want > 2 ** 63
    assert count_homomorphisms(star_graph(100), star_graph(10)) == want


# host: 100 in-leaves 1..100 -> hub 0 <- u=101 -> 10 out-leaves 102..111.
# A pattern sink maps to the hub (101 in-neighbors) or to an out-leaf
# (all its in-neighbors on u)
_FAN_HOST = DirWLGraph(112, [(v, 0, 1) for v in range(1, 102)]
                       + [(101, v, 1) for v in range(102, 112)])


@pytest.mark.parametrize("arcs, bags, parent, want", [
    # ten children p -> c=0 under r=1: the lookups multiply past int64
    ([(1, 0)] + [(p, 0) for p in range(2, 12)],
     (1, *range(2, 12)), (-1,) + (0,) * 10, 101 ** 11 + 10),
    # root r=2 -> c=0 and r -> z=1, nine children p -> c: 101^9 per row
    # from the lookups fits int64, summed over the 11 choices of z on u
    # it does not
    ([(2, 0), (2, 1)] + [(p, 0) for p in range(3, 12)],
     (2, *range(3, 12)), (-1,) + (0,) * 9, 101 ** 9 * 111 + 110),
    # child q=2 -> c=0 carries nine children: 101 rows of 101^9 each sum
    # past int64 in its aggregated table
    ([(1, 0), (2, 0)] + [(p, 0) for p in range(3, 12)],
     (1, 2, *range(3, 12)), (-1, 0) + (1,) * 9, 101 ** 11 + 10),
    # a second component s=4 -> d=3 under q scales q's table by ~101^10
    ([(1, 0), (2, 0), (4, 3)] + [(p, 3) for p in range(5, 14)],
     (1, 2, 4, *range(5, 14)), (-1, 0, 1) + (2,) * 9,
     (101 ** 2 + 10) * (101 ** 10 + 10)),
])
def test_dp_values_past_int64_stay_exact(arcs, bags, parent, want):
    n = max(max(a) for a in arcs) + 1
    pattern = DirWLGraph(n, [(a, b, 1) for a, b in arcs])
    tree = HubTree(bags, parent, 0)
    assert validate_decomposition(pattern, tree)
    ref = bressan_count(pattern, tree, tree.root, _FAN_HOST)
    assert sum(ref.values()) == want
    assert fastdp.extension_count(pattern, tree,
                                  weight_host(_FAN_HOST, n)) == want


def test_subgraph_error_names_offending_quotient(monkeypatch):
    # pin the auto depth to 1 so the 7-cycle quotient of the spasm loses
    # its width-1 guarantee, and check the error carries the quotient
    import sparsecount.counting as counting

    monkeypatch.setattr(counting, "min_extension_depth", lambda _licl: 1)
    g = random_graph(8, 0.4, random.Random(3))
    with pytest.raises(NoWidth1Decomposition) as info:
        count_subgraphs(g, cycle_graph(7))
    assert info.value.quotient is not None
    assert info.value.quotient.n == 7


def test_fast_engine_refuses_labels():
    # every root fiber is all of the host's vertices, so a labeled
    # pattern is refused rather than counted as if unlabeled; the oracles
    # still read labels
    host = LabeledGraph(3, [(0, 1, 1), (1, 2, 1)], labels=[0, 1, 0])
    pattern = LabeledGraph(2, [(0, 1, 1)], labels=[0, 1])
    tree = find_width1_decomposition(pattern)
    with pytest.raises(ValueError, match="reads no vertex labels"):
        fastdp.extension_count(pattern, tree, weight_host(host, 2))
    assert sum(bressan_count(pattern, tree, tree.root, host).values()) == \
        brute_force_hom_wl(host, pattern) == 1


def test_default_engine_is_vectorized_on_small_hosts(monkeypatch):
    # the dict engine is only an oracle, so no count reaches it
    _refuse_dict_engine(monkeypatch)
    g = random_graph(5, 0.5, random.Random(2))
    for k in (3, 4, 6):
        assert count_homomorphisms(g, cycle_graph(k)) == cycle_hom_trace(g, k)
