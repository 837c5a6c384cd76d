import random

from sparsecount import brute_force_hom, label_pattern, pattern_product

from conftest import (cycle_graph, fiber_labels, labeled_product_hom_count,
                      path_graph, random_graph, UndirectedGraph)


def test_label_pattern_self_labels():
    hl = label_pattern(path_graph(2))
    assert hl.labels == (0, 1)
    hl = label_pattern(cycle_graph(6))
    assert hl.labels == tuple(range(6))
    assert label_pattern(UndirectedGraph(0, [])).labels == ()


def test_product_k2_k2():
    product = pattern_product(path_graph(2), path_graph(2))
    assert product.n == 4
    assert product.m == 2
    # two disjoint edges crossing the fibers
    assert product.edge_set() == {(0, 3), (1, 2)}


def test_product_k2_path3():
    product = pattern_product(path_graph(2), path_graph(3))
    assert product.n == 6
    assert product.m == 4


def test_product_edgeless_host():
    product = pattern_product(cycle_graph(4), UndirectedGraph(5, []))
    assert product.n == 20
    assert product.m == 0


def test_product_size_identities():
    rng = random.Random(31)
    for _ in range(25):
        h = random_graph(rng.randint(1, 5), 0.6, rng)
        g = random_graph(rng.randint(0, 10), 0.4, rng)
        product = pattern_product(h, g)
        assert product.n == h.n * g.n
        assert product.m == 2 * h.m * g.m


def test_labels_and_backmap():
    # vertex <u, v> is u * n + v, labeled u: every product edge maps back
    # to a pattern edge between its labels and a host edge between its
    # host vertices
    h = path_graph(3)
    g = random_graph(4, 0.5, random.Random(2))
    n = g.n
    product = pattern_product(h, g)
    labels = fiber_labels(h.n, n)
    for x in range(product.n):
        u, v = divmod(x, n)
        assert u * n + v == x and labels[x] == u
    for x, y in product.edge_list():
        (u, v), (up, vp) = divmod(x, n), divmod(y, n)
        assert (min(u, up), max(u, up)) in h.edge_set()
        assert (min(v, vp), max(v, vp)) in g.edge_set()


def test_hom_count_preserved():
    rng = random.Random(77)
    for trial in range(120):
        h = random_graph(rng.randint(1, 5), 0.55, rng)
        g = random_graph(rng.randint(1, 12), 0.35, rng)
        product = pattern_product(h, g)
        assert labeled_product_hom_count(product, h, g.n) == \
            brute_force_hom(g, h)
