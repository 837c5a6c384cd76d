import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecount import UndirectedGraph, degeneracy_order, degeneracy_orient

from conftest import (complete_graph, cycle_graph, is_acyclic_arcs,
                      path_graph, random_graph, star_graph)


def test_kappa_small_families():
    assert degeneracy_order(path_graph(3)).kappa == 1
    assert degeneracy_order(complete_graph(4)).kappa == 3
    assert degeneracy_order(cycle_graph(6)).kappa == 2


def test_kappa_family_values():
    for k in range(2, 8):
        assert degeneracy_order(path_graph(k)).kappa == 1
        assert degeneracy_order(complete_graph(k)).kappa == k - 1
    for k in range(3, 9):
        assert degeneracy_order(cycle_graph(k)).kappa == 2


def test_orient_single_edge():
    arcs = degeneracy_orient(path_graph(2))
    assert arcs.shape == (1, 2)
    assert is_acyclic_arcs(2, arcs)


def test_orient_cycle_bounds():
    arcs = degeneracy_orient(cycle_graph(6))
    assert arcs.shape[0] == 6
    outdeg = np.bincount(arcs[:, 0], minlength=6)
    assert outdeg.max() <= 2
    assert is_acyclic_arcs(6, arcs)


def test_orient_star_tie_rule():
    # center 0, leaves 1..3: the leaves peel first (lowest degree, lowest
    # id), then the center ties with leaf 3 and wins on id
    star = star_graph(3)
    order = degeneracy_order(star)
    assert list(order.order) == [1, 2, 0, 3]
    assert order.kappa == 1
    arcs = degeneracy_orient(star)
    assert {(int(u), int(v)) for u, v in arcs} == {(1, 0), (2, 0), (0, 3)}
    assert np.bincount(arcs[:, 0], minlength=4).max() == 1


def test_orient_edge_set_layer():
    pairs = np.array([[0, 1], [1, 2], [2, 3]])
    arcs = degeneracy_orient(UndirectedGraph(5, pairs))
    assert arcs.shape[0] == 3
    assert is_acyclic_arcs(5, arcs)


@given(st.integers(1, 12), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_orientation_properties(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.4, rng)
    order = degeneracy_order(g)
    arcs = degeneracy_orient(g)
    assert is_acyclic_arcs(n, arcs)
    if g.m:
        outdeg = np.bincount(arcs[:, 0], minlength=n)
        assert outdeg.max() <= order.kappa
    # kappa is genuinely attained: some suffix subgraph has min degree kappa
    assert order.kappa <= max([0] + [g.degree(v) for v in range(n)])


def _reference_peel(n, pairs):
    """Quadratic peel: remove the live vertex of least (degree, id)."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    live = set(range(n))
    order, kappa = [], 0
    while live:
        v = min(live, key=lambda x: (len(adj[x] & live), x))
        kappa = max(kappa, len(adj[v] & live))
        order.append(v)
        live.remove(v)
    return order, kappa


@st.composite
def _peel_inputs(draw):
    core = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["random", "path", "star"]))
    if kind == "random":
        pairs = draw(st.sets(st.tuples(st.integers(0, max(core - 1, 0)),
                                       st.integers(0, max(core - 1, 0)))
                             .filter(lambda p: p[0] < p[1])))
    elif kind == "path":
        pairs = {(i, i + 1) for i in range(core - 1)}
    else:
        pairs = {(0, i) for i in range(1, core)}
    # isolated extra vertices: a few, or most of the graph, as in an
    # extension layer
    n = core + draw(st.integers(0, 3) | st.integers(2 * core, 4 * core + 8))
    perm = draw(st.permutations(range(n)))       # shuffle ids, so ties vary
    pairs = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                   for u, v in pairs)
    return n, pairs


@given(_peel_inputs())
@settings(max_examples=150, deadline=None)
def test_peel_matches_reference(case):
    n, pairs = case
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = UndirectedGraph(n, arr)
    order, kappa = _reference_peel(n, pairs)
    got = degeneracy_order(g)
    assert got.order.tolist() == order
    assert got.kappa == kappa


def test_order_cached_per_graph(monkeypatch):
    from sparsecount import degeneracy

    calls = []
    kernel = degeneracy._peel_kernel

    def counting_kernel(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(degeneracy, "_peel_kernel", counting_kernel)
    g = star_graph(3)
    first = degeneracy_order(g)
    assert degeneracy_order(g) is first
    assert len(calls) == 1
    assert not first.order.flags.writeable
