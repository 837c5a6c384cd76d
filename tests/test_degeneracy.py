import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecount import EdgeSet, degeneracy_order, degeneracy_orient

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
    layer = degeneracy_orient(path_graph(2), 1)
    assert layer.arcs.shape == (1, 2)
    assert is_acyclic_arcs(2, layer.arcs)


def test_orient_cycle_bounds():
    layer = degeneracy_orient(cycle_graph(6), 1)
    assert layer.arcs.shape[0] == 6
    outdeg = np.bincount(layer.arcs[:, 0], minlength=6)
    assert outdeg.max() <= 2
    assert is_acyclic_arcs(6, layer.arcs)


def test_orient_star_tie_rule():
    # center 0, leaves 1..3: the leaves peel first (lowest degree, lowest
    # id), then the center ties with leaf 3 and wins on id
    star = star_graph(3)
    order = degeneracy_order(star)
    assert list(order.order) == [1, 2, 0, 3]
    assert order.kappa == 1
    layer = degeneracy_orient(star, 1)
    assert {(int(u), int(v)) for u, v in layer.arcs} == {(1, 0), (2, 0), (0, 3)}
    assert np.bincount(layer.arcs[:, 0], minlength=4).max() == 1


def test_orient_edge_set_layer():
    pairs = np.array([[0, 1], [1, 2], [2, 3]])
    layer = degeneracy_orient(EdgeSet(5, pairs, 2), 2)
    assert layer.weight == 2
    assert layer.arcs.shape[0] == 3
    assert is_acyclic_arcs(5, layer.arcs)


@given(st.integers(1, 12), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_orientation_properties(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.4, rng)
    order = degeneracy_order(g)
    layer = degeneracy_orient(g, 1)
    assert is_acyclic_arcs(n, layer.arcs)
    if g.m:
        outdeg = np.bincount(layer.arcs[:, 0], minlength=n)
        assert outdeg.max() <= order.kappa
    # kappa is genuinely attained: some suffix subgraph has min degree kappa
    assert order.kappa <= max([0] + [g.degree(v) for v in range(n)])
