"""Pendant trees are folded into vertex weights before any DP runs.

A count peels each connected pattern to its 2-core, turns every pendant
tree into a weight vector over G's vertices by message passing, and runs
one weighted DP per class of the core's Frat, grouped by the core
automorphisms that keep each vertex's pendant forest. A tree runs no DP.
These tests check that path against brute force and the cycle traces,
pin the DPs it runs, and force every exact-integer widening it has.
"""

import json
import sys
import time

import pytest

from sparsecount import (UndirectedGraph, brute_force_hom, brute_force_sub,
                         cli_main, count_homomorphisms, count_subgraphs,
                         enumerate_pattern_extensions, fastdp,
                         save_edge_list)
from sparsecount import counting
from sparsecount.counting import fold_pendant_trees, frat_classes
from sparsecount.harness import generate_bounded_degeneracy, run_count_hom
from sparsecount.pattern_tools import fiber_tournament, pendant_forest

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      cycle_hom_trace, disjoint_union, fold_hosts, path_graph,
                      star_graph)

C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])
C5_TAIL3 = UndirectedGraph(8, cycle_graph(5).edge_list()
                           + [(0, 5), (5, 6), (6, 7)])
TREE16 = UndirectedGraph(16, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 7),
                              (1, 10), (3, 9), (3, 12), (3, 13), (4, 5),
                              (5, 6), (6, 8), (8, 14), (9, 11), (9, 15)])


def _tree_code(adj, v, parent):
    return tuple(sorted(_tree_code(adj, u, v) for u in adj[v]
                        if u != parent))


def trees_up_to(k: int) -> list:
    """One tree per isomorphism class on 1..k vertices, each grown from
    a smaller one by a leaf and kept by its least rooted code."""
    out, level = [], [UndirectedGraph(1, [])]
    for n in range(1, k + 1):
        out += level
        seen, nxt = set(), []
        for t in level:
            for v in range(n):
                h = UndirectedGraph(n + 1, t.edge_list() + [(v, n)])
                adj = h.adjacency_sets()
                code = min(_tree_code(adj, r, None) for r in range(n + 1))
                if code not in seen:
                    seen.add(code)
                    nxt.append(h)
        level = nxt
    return out


def _dps(monkeypatch):
    calls = []
    real = counting.count_hom_extension

    def counted(pattern_ext, host):
        calls.append(pattern_ext)
        return real(pattern_ext, host)

    monkeypatch.setattr(counting, "count_hom_extension", counted)
    return calls


def test_trees_up_to_eight_vertices(monkeypatch):
    calls = _dps(monkeypatch)
    trees = trees_up_to(8)
    assert [sum(t.n == n for t in trees) for n in range(1, 9)] == \
        [1, 1, 1, 2, 3, 6, 11, 23]
    for g in fold_hosts():
        for h in trees:
            assert count_homomorphisms(g, h) == brute_force_hom(g, h), \
                (h.edge_list(), g)
    assert calls == []


def test_patterns_with_a_pendant_vertex():
    patterns = [h for h in connected_patterns_up_to(6)
                if any(h.degree(v) == 1 for v in range(h.n))]
    # connected graphs less those of minimum degree >= 2, on 2..6 vertices
    assert [sum(h.n == n for h in patterns) for n in range(2, 7)] == \
        [1 - 0, 2 - 1, 6 - 3, 21 - 11, 112 - 61]
    for h in patterns:
        for g in fold_hosts():
            assert count_homomorphisms(g, h) == brute_force_hom(g, h), \
                (h.edge_list(), g)


def test_single_vertex_pattern_counts_the_host_vertices():
    k1 = UndirectedGraph(1, [])
    for g in fold_hosts() + (UndirectedGraph(0, []), UndirectedGraph(3, [])):
        assert count_homomorphisms(g, k1) == g.n


@pytest.mark.parametrize("h", [path_graph(4), star_graph(3), C4_TAIL],
                         ids=["P4", "K1,3", "C4+tail"])
def test_subgraph_counts_with_pendant_trees(h):
    for g in fold_hosts():
        assert count_subgraphs(g, h) == brute_force_sub(g, h)


def test_depth3_cycle_with_a_pendant_vertex():
    # C9 plus one pendant vertex at depth 3: the signature host over G's
    # n vertices carries the weight deg(x), and Hom is the sum over x of
    # deg(x) times the closed 9-walks at x
    g = complete_graph(4)
    h = UndirectedGraph(10, cycle_graph(9).edge_list() + [(4, 9)])
    # K4 is 3-regular, so the sum is 3 * trace(A^9)
    assert count_homomorphisms(g, h) == 3 * cycle_hom_trace(g, 9) == 59040


@pytest.mark.parametrize("t", [2, 3])
def test_weights_at_forced_depths(t):
    # the depth-2 and depth-3 signature hosts with pendant weights on
    # core vertices other than 0
    paw = UndirectedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    c4_tails = UndirectedGraph(7, cycle_graph(4).edge_list()
                               + [(1, 4), (4, 5), (3, 6)])
    for g in fold_hosts():
        for h in (paw, C4_TAIL, c4_tails):
            assert count_homomorphisms(g, h, t=t) == brute_force_hom(g, h)


@pytest.mark.parametrize("h, t", [
    # the reflection of C6 swapping its tails at 0 and 1 swaps no
    # vertical pair at depth 2
    pytest.param(UndirectedGraph(8, cycle_graph(6).edge_list()
                                 + [(0, 6), (1, 7)]), 2, id="C6+2tails-2"),
    # K2,4 with a leaf at 3, forced to depth 3: its coloured tournament
    # is kept by a 3-cycle of the other three vertices of that side
    pytest.param(UndirectedGraph(7, [(a, b) for a in (0, 1)
                                     for b in range(2, 6)] + [(3, 6)]),
                 3, id="K2,4+leaf-3"),
])
def test_class_members_count_alike_on_the_host_a_count_builds(h, t,
                                                              monkeypatch):
    # the coloured automorphisms group members, but do not keep the
    # tournament of the bare core. One DP per class is exact only if
    # every member of a class counts the same on the host the count
    # runs, so that host must use the coloured tournament
    forest = pendant_forest(h)
    core, colors = forest.core, forest.colors
    coloured = fiber_tournament(core, t, colors)
    assert coloured.size > 1 and not all(
        (s[a], s[b]) in fiber_tournament(core, t).arcs
        for s in coloured.generators
        for a, b in fiber_tournament(core, t).arcs)
    members = enumerate_pattern_extensions(core, t)
    classes = frat_classes(members, core, t, colors)
    assert len(classes) < len(members)
    hosts = []
    real = counting.count_hom_extension

    def recorded(pattern_ext, host):
        hosts.append(host)
        return real(pattern_ext, host)

    monkeypatch.setattr(counting, "count_hom_extension", recorded)
    g = fold_hosts()[0]
    assert count_homomorphisms(g, h, t=t) == brute_force_hom(g, h)
    host = hosts[0]
    for c in classes:
        assert len({real(members[i], host) for i in c}) == 1, c


def test_pinned_dp_counts(monkeypatch):
    calls = _dps(monkeypatch)
    g = generate_bounded_degeneracy(20, 3, 5)
    assert count_subgraphs(g, cycle_graph(6)) == \
        brute_force_sub(g, cycle_graph(6))
    assert len(calls) == 61
    for h, dps in ((C4_TAIL, 9), (C5_TAIL3, 15)):
        calls.clear()
        assert count_homomorphisms(g, h) == brute_force_hom(g, h, cap=20)
        assert len(calls) == dps
    calls.clear()
    started = time.perf_counter()
    assert count_homomorphisms(cycle_graph(5), TREE16) == 163840
    assert time.perf_counter() - started < 1.0
    assert calls == []


def test_pendant_forest_colours():
    # C4 with isomorphic tails at two opposite vertices: the reflection
    # swapping them keeps the colours, the rotations do not
    h = UndirectedGraph(6, cycle_graph(4).edge_list() + [(0, 4), (2, 5)])
    forest = pendant_forest(h)
    assert forest.core_vertices == (0, 1, 2, 3)
    assert forest.colors[0] == forest.colors[2] != forest.colors[1]
    assert forest.colors[1] == forest.colors[3]
    assert fiber_tournament(forest.core, 1, forest.colors).size == 4
    assert fiber_tournament(forest.core, 1).size == 8
    # a path and a star of three vertices hang differently
    h = UndirectedGraph(9, complete_graph(3).edge_list()
                        + [(0, 3), (3, 4), (4, 5), (1, 6), (6, 7), (6, 8)])
    forest = pendant_forest(h)
    assert len(set(forest.colors)) == 3
    tree = pendant_forest(TREE16)
    assert tree.core is None and len(tree.peel) == 15
    assert pendant_forest(UndirectedGraph(1, [])).core_vertices == (0,)


def test_reports_count_what_runs(capsys, tmp_path):
    host = generate_bounded_degeneracy(15, 2, 4)
    report = run_count_hom(host, C4_TAIL)
    assert (report.n_extensions, report.n_classes, report.trees) == \
        (14, 9, 0)
    report = run_count_hom(host, TREE16)
    assert (report.n_extensions, report.n_classes, report.trees,
            report.delta_plus) == (0, 0, 1, 0)
    path = tmp_path / "h.el"
    save_edge_list(disjoint_union(C4_TAIL, path_graph(4)), path)
    assert cli_main(["analyze", str(path)]) == 0
    assert "a tree, counted by message passing (no DP)" in \
        capsys.readouterr().out
    assert cli_main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(c["core_n"], c["n_classes"], c["counted_by"])
            for c in payload["components"]] == \
        [(4, 9, "dp"), (0, 0, "message passing")]
    assert (payload["n_extensions"], payload["n_classes"]) == (14, 9)


@pytest.mark.parametrize("h", [
    cycle_graph(5), C5_TAIL3, disjoint_union(cycle_graph(6), path_graph(2)),
    TREE16])
def test_report_licl_read_from_the_cores(h, monkeypatch):
    # the report's licl and t are those of the whole pattern, but licl
    # only ever runs on a 2-core, and not at all on a tree
    from sparsecount import harness
    from sparsecount.pattern_tools import licl, min_extension_depth

    want = licl(h)
    cores = [pendant_forest(hc).core for hc in counting._component_patterns(h)]
    largest = max((c.n for c in cores if c is not None), default=0)
    sizes = []
    real = harness.licl

    def tracked(p):
        sizes.append(p.n)
        return real(p)

    monkeypatch.setattr(harness, "licl", tracked)
    g = generate_bounded_degeneracy(20, 3, 1)
    report = run_count_hom(g, h)
    assert (report.licl, report.t) == (want, min_extension_depth(want))
    assert report.count == count_homomorphisms(g, h)
    assert all(n <= largest for n in sizes)
    assert sizes or largest == 0


def test_analyze_a_pattern_past_the_canonical_limit(tmp_path, capsys,
                                                   monkeypatch):
    # every spasm holds the pattern itself, past the spasm's limit here:
    # analyze reports no spasm and keeps its component and witness
    # output. A tree has no 2-core, so no Frat member is enumerated and
    # no witness listed
    from sparsecount import harness

    def refuse(*args):
        raise AssertionError("a Frat enumeration ran")

    monkeypatch.setattr(harness, "enumerate_pattern_extensions", refuse)
    path = tmp_path / "tree.el"
    save_edge_list(TREE16, path)
    assert cli_main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spasm"] is None
    assert "limited to 10 vertices" in payload["spasm_error"]
    assert payload["licl"] == 0
    assert payload["components"] == [{
        "n": 16, "m": 15, "core_n": 0, "t": None, "n_extensions": 0,
        "n_classes": 0, "counted_by": "message passing"}]
    assert payload["extensions"] == [] and payload["n_frat"] == 0
    path11 = tmp_path / "p11.el"
    save_edge_list(path_graph(11), path11)
    assert cli_main(["analyze", str(path11)]) == 0
    out = capsys.readouterr().out
    assert "spasm: not computed" in out
    assert "a tree, counted by message passing (no DP)" in out
