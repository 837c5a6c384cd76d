"""The pattern side of a count against the bodies it replaced.

``spasm`` merges quotients by refined colours and a first-found
isomorphism search, ``oracles.frat_classes`` (the reference of
``fraternal.frat_orbits``) keys members by arc-id bitmasks and
``fastdp._build_plan`` compiles a bag into one program of ops over the
columns of the hub's cached BFS tree; the references in
``tests/oracles.py`` are the canonical-form spasm, the sorted-triple
Frat key and the per-slot rescan. These tests compare them: spasm
entries as multisets of (isomorphism class, coefficient), Frat classes
list for list, and each program, read without its drops, op for op with
the reference's slots and steps in the order they run. They also check
that each program drops every column once, at its last read, and never
one its parent reads. They also check that
``canonical_form`` separates exactly the isomorphism classes, that a
hub tree's cached children are the scan's, that the spasm of C6 builds
one graph per entry, and that the graph constructor gives the same
graph and errors whatever order its pairs come in.
"""

import random

import numpy as np
import pytest

from sparsecount import (GraphFormatError, UndirectedGraph,
                         enumerate_pattern_extensions, fastdp,
                         find_width1_decomposition, pattern_tools, reach,
                         spasm)
from sparsecount.pattern_tools import fiber_tournament, pendant_forest

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      disjoint_union, path_graph)
from oracles import (build_plan_reference, canonical_form, frat_classes,
                     frat_classes_reference, spasm_reference)

BOWTIE = UndirectedGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                             (3, 4)])
C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])
K4_PENDANT = UndirectedGraph(5, complete_graph(4).edge_list() + [(0, 4)])
SPASM_PATTERNS = (connected_patterns_up_to(5)
                  + [cycle_graph(k) for k in (6, 7, 8)]
                  + [BOWTIE, K4_PENDANT,
                     disjoint_union(path_graph(2), path_graph(3)),
                     disjoint_union(complete_graph(3), path_graph(2))])


def _relabeled(h: UndirectedGraph, rng: random.Random) -> UndirectedGraph:
    perm = list(range(h.n))
    rng.shuffle(perm)
    return UndirectedGraph(h.n, [(perm[u], perm[v])
                                 for u, v in h.edge_list()])


def _classes(entries) -> list:
    return sorted((canonical_form(e.quotient), e.coefficient)
                  for e in entries)


@pytest.mark.parametrize("h", SPASM_PATTERNS,
                         ids=lambda h: f"n{h.n}-{h.edge_list()}")
def test_spasm_matches_the_canonical_form_reference(h):
    entries = spasm(h)
    assert _classes(entries) == _classes(spasm_reference(h))
    # one entry per isomorphism class, h itself first
    assert len({canonical_form(e.quotient) for e in entries}) == len(entries)
    assert entries[0].quotient.edge_list() == h.edge_list()
    assert [e.quotient.n for e in entries] == sorted(
        (e.quotient.n for e in entries), reverse=True)


def test_spasm_does_not_depend_on_the_labeling():
    rng = random.Random(3)
    for h in [cycle_graph(7), BOWTIE, K4_PENDANT]:
        for _ in range(3):
            assert (_classes(spasm(_relabeled(h, rng)))
                    == _classes(spasm(h)))


def test_spasm_of_c6_builds_one_graph_per_entry(monkeypatch):
    # h itself and one graph per surviving class; a graph per partition
    # would be 42
    built = []

    class Counted(UndirectedGraph):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pattern_tools, "UndirectedGraph", Counted)
    pattern_tools._spasm.cache_clear()
    try:
        entries = spasm(cycle_graph(6))
    finally:
        pattern_tools._spasm.cache_clear()
    assert len(entries) == 10
    assert len(built) <= len(entries) + 1


def test_canonical_form_is_equal_exactly_on_isomorphic_pairs():
    rng = random.Random(11)
    patterns = connected_patterns_up_to(5)  # one per isomorphism class
    codes = [canonical_form(h) for h in patterns]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            assert (a == b) == (i == j)
    for h, code in zip(patterns, codes):
        for _ in range(4):
            assert canonical_form(_relabeled(h, rng)) == code


def _pendant_core(k: int):
    """C_k with a leaf at vertex 0 and a path of two at vertex k // 2,
    folded: the core C_k and its pendant colours."""
    h = UndirectedGraph(k + 3, cycle_graph(k).edge_list()
                        + [(0, k), (k // 2, k + 1), (k + 1, k + 2)])
    forest = pendant_forest(h)
    assert forest.core.edge_list() == cycle_graph(k).edge_list()
    assert len(set(forest.colors)) == 3
    return forest.core, forest.colors


FRAT_CASES = ([(k, t) for k in range(3, 9) for t in (1, 2)] + [(9, 3)])


@pytest.mark.parametrize("k, t", FRAT_CASES)
@pytest.mark.parametrize("pendants", [False, True])
def test_frat_classes_match_the_sorted_triple_reference(k, t, pendants):
    core, colors = (_pendant_core(k) if pendants
                    else (cycle_graph(k), None))
    members = enumerate_pattern_extensions(core, t)
    classes = frat_classes(members, core, t, colors)
    assert classes == frat_classes_reference(members, core, t, colors)
    assert sorted(i for c in classes for i in c) == list(range(len(members)))


def test_frat_classes_refuse_a_member_set_the_group_leaves():
    h = cycle_graph(5)
    members = enumerate_pattern_extensions(h, 1)
    assert fiber_tournament(h, 1).generators
    with pytest.raises(AssertionError, match="left the item set"):
        frat_classes(members[:1], h, 1)


def _tree_plans(members, read):
    for m in members:
        tree = find_width1_decomposition(m)
        order = tree.postorder()
        domains = {bag: tuple(sorted(reach(m, tree.bags[tree.parent[bag]])
                                     & reach(m, tree.bags[bag])))
                   for bag in order if bag != tree.root}
        domains[tree.root] = ()
        for bag in order:
            yield m, tree, bag, domains, read


def _reference_program(ref) -> list:
    """The reference's slots and steps in the order they run, each vertex
    mapped to its column through ``ref.order``: per slot t its checks and
    its lookups, then, for t >= 1, a filter where step t - 1 ``closes``
    and that step's expansion."""
    col = {v: j for j, v in enumerate(ref.order)}
    ops = []
    for t, slot in enumerate(ref.slots):
        if slot.checks:
            ops.append((fastdp.CHECK, tuple((col[a], col[b], classes)
                                            for a, b, classes in slot.checks)))
        ops += [(fastdp.LOOKUP, idx,
                 tuple(col[x] for x in ref.child_domains[idx]))
                for idx in slot.lookups]
        if 1 <= t <= len(ref.steps):
            (v, p, classes, _), closes = ref.steps[t - 1], ref.closes[t - 1]
            if closes is not None:
                ops.append((fastdp.FILTER, col[p], col[closes[0]], classes,
                            closes[1]))
            ops.append((fastdp.EXPAND, col[v], col[p], classes))
    return ops


def _depth_read(a, b, w):
    return tuple(range(1, w + 1))


PLAN_CASES = [(5, 1), (6, 2), (7, 2), (8, 2), (9, 3)]


@pytest.mark.parametrize("k, t", PLAN_CASES)
def test_bag_programs_run_the_rescan_reference(k, t):
    h = cycle_graph(k)
    members = enumerate_pattern_extensions(h, t)
    firsts = [members[c[0]] for c in frat_classes(members, h, t)]
    plans = 0
    for args in _tree_plans(firsts[:60], _depth_read):
        plan = fastdp._build_plan(*args)
        ref = build_plan_reference(*args)
        assert isinstance(plan, fastdp._BagPlan)
        assert plan.order == ref.order and plan.order[0] == ref.hub
        assert [(kind, *rest) for kind, _, *rest in plan.ops] == \
            _reference_program(ref)
        assert plan.out_cols == tuple(ref.order.index(x)
                                      for x in ref.out_cols)
        assert plan.children == ref.children
        plans += 1
    assert plans >= len(firsts[:60])


def _reads(op) -> set:
    kind, _, *args = op
    if kind == fastdp.CHECK:
        return {x for a, b, _ in args[0] for x in (a, b)}
    if kind == fastdp.LOOKUP:
        return set(args[1])
    if kind == fastdp.FILTER:
        return set(args[:2])
    return {args[1]}


def _assert_live(plan) -> int:
    """Check a program's ``dead`` fields; return how many EXPANDs store
    no column."""
    made, dropped = {0}, {}
    last_read, expands = {}, {}
    for k, op in enumerate(plan.ops):
        # no op reads a column before it is made or after it is dropped
        assert _reads(op) <= made - dropped.keys(), (plan, k)
        for x in _reads(op):
            last_read[x] = k
        assert list(op[1]) == sorted(set(op[1]))
        for x in op[1]:
            assert x not in dropped, (plan, k)
            dropped[x] = k
        if op[0] == fastdp.EXPAND:
            made.add(op[2])
            expands[op[2]] = k
    assert made == set(range(len(plan.order)))
    for x in made:
        if x in plan.out_cols:
            assert x not in dropped
        elif x in last_read:
            assert dropped[x] == last_read[x], (plan, x)
        else:
            # nothing reads it: its own EXPAND drops it
            assert x in expands and dropped[x] == expands[x], (plan, x)
    return sum(x not in last_read and x not in plan.out_cols for x in made)


@pytest.mark.parametrize("h, t", [(cycle_graph(k), t) for k, t in PLAN_CASES]
                         + [(C4_TAIL, 1), (C4_TAIL, 2)],
                         ids=[f"c{k}-t{t}" for k, t in PLAN_CASES]
                         + ["c4-tail-t1", "c4-tail-t2"])
def test_bag_programs_drop_each_column_at_its_last_read(h, t):
    members = enumerate_pattern_extensions(h, t)
    firsts = [members[c[0]] for c in frat_classes(members, h, t)]
    plans = [fastdp._build_plan(*args)
             for args in _tree_plans(firsts, _depth_read)]
    unstored = sum(_assert_live(plan) for plan in plans)
    # on a cycle every column is read; the tail's leaf is read by none
    assert (unstored > 0) == (h is C4_TAIL)
    if h.n >= 6:
        assert any(plan.out_cols for plan in plans)
        assert any(op[0] == fastdp.LOOKUP for plan in plans
                   for op in plan.ops)


def test_hub_tree_children_are_the_parent_scan():
    members = enumerate_pattern_extensions(cycle_graph(9), 3)
    for m in members[::97]:
        tree = find_width1_decomposition(m)
        nodes = range(-1, len(tree.bags) + 1)
        for i in nodes:
            assert tree.children(i) == tuple(
                j for j, p in enumerate(tree.parent) if p == i)
        out, stack = [], [tree.root]
        while stack:
            b = stack.pop()
            out.append(b)
            stack.extend(j for j, p in enumerate(tree.parent) if p == b)
        assert tree.postorder() == out[::-1]


def test_the_constructor_reads_pairs_in_any_order_and_orientation():
    rng = np.random.default_rng(5)
    n = 60
    codes = rng.choice(n * n, size=400, replace=False)
    lo, hi = np.divmod(codes, n)
    keep = lo < hi
    pairs = np.column_stack((lo[keep], hi[keep]))
    want = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    flip = rng.random(len(pairs)) < 0.5
    mixed = np.where(flip[:, None], pairs[:, ::-1], pairs)
    for given in (want, pairs, mixed, mixed[::-1], want[:, ::-1]):
        g = UndirectedGraph(n, given)
        assert g.edge_array.tolist() == want.tolist()
        assert g.edge_array is not given and g.edge_array.flags.c_contiguous
    src = want.copy()
    g = UndirectedGraph(n, src)
    src[0] = (0, 1)
    assert g.edge_array.tolist() == want.tolist()


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 2), (3, 3), (4, 4)], "self-loop at vertex 3"),
    ([(0, 1), (2, 2), (1, 0)], "self-loop at vertex 2"),
    ([(0, 1), (1, 2), (2, 1)], "parallel edge 1 2"),
    ([(0, 1), (1, 2), (1, 2)], "parallel edge 1 2"),
    ([(1, 2), (0, 1), (0, 5)], "edge endpoint out of range"),
    ([(1, 1), (0, -1)], "edge endpoint out of range"),
])
def test_the_constructor_keeps_its_errors(pairs, message):
    with pytest.raises(GraphFormatError) as err:
        UndirectedGraph(5, pairs)
    assert str(err.value) == message
    with pytest.raises(GraphFormatError) as err:
        UndirectedGraph(5, np.array(pairs))
    assert str(err.value) == message

