"""A depth-2 count runs on G's n vertices, not on the lifted extension.

At depth 2 ``fastdp.signature_index`` holds G's own extension to depth 2
with four arc classes per source, and ``fastdp.SignatureHost`` maps each
arc of an unlabeled member of Frat(H, 2) onto a set of them. These tests
compare that host, class representative by representative, with the
lifted k * n-vertex extension of the labeled product
(``conftest.lifted_extension``), and the totals with the peeled
materialized product and brute force.
"""

import numpy as np

from sparsecount import (UndirectedGraph, brute_force_hom, count_hom_extension,
                         count_homomorphisms, enumerate_pattern_extensions,
                         fastdp, optimal_extension)
from sparsecount.counting import count_family, fold_pendant_trees
from sparsecount.harness import generate_bounded_degeneracy

from conftest import (connected_patterns_up_to, count_on_lift, cycle_graph,
                      cycle_hom_trace, lifted_extension,
                      peeled_product_extension, signature_host)
from oracles import frat_classes


def _grid(r: int, c: int) -> UndirectedGraph:
    edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1)
              for j in range(c)]
    return UndirectedGraph(r * c, edges)


def _road(r: int, length: int) -> UndirectedGraph:
    """An r x r grid with a pendant path of ``length`` new vertices."""
    grid = _grid(r, r)
    path = [(r * r - 1 + i, r * r + i) for i in range(length)]
    return UndirectedGraph(r * r + length, grid.edge_list() + path)


def _triangles() -> UndirectedGraph:
    """Triangles sharing edges and vertices: a DAG arc can close one."""
    edges = {(i, i + 1) for i in range(8)} | {(i, i + 2) for i in range(7)}
    edges |= {(0, 9), (1, 9), (4, 9)}
    return UndirectedGraph(10, sorted(edges))


HOSTS = (generate_bounded_degeneracy(11, 3, 2),
         generate_bounded_degeneracy(12, 3, 9), _grid(3, 4), _road(3, 4),
         _triangles())

PATTERNS = connected_patterns_up_to(5) + [cycle_graph(k) for k in (6, 7, 8)]


def test_two_hop_host_matches_the_lift_member_by_member():
    nonzero = 0
    for h in PATTERNS:
        members = enumerate_pattern_extensions(h, 2)
        classes = frat_classes(members, h, 2)
        for g in HOSTS:
            host, lifted = signature_host(g, h, 2), lifted_extension(g, 2, h)
            total = 0
            for c in classes:
                got = count_hom_extension(members[c[0]], host)
                assert got == count_on_lift(members[c[0]], lifted), \
                    (h.edge_list(), g.edge_list(), members[c[0]].arcs)
                nonzero += got > 0
                total += got * len(c)
            want = (cycle_hom_trace(g, h.n) if h.n > 5
                    else brute_force_hom(g, h))
            assert total == want, (h.edge_list(), g)
    assert nonzero > 1000


def test_two_hop_totals_match_the_peeled_product():
    # every member on the product oriented by its own peel, which keeps
    # no Aut_tau(H) symmetry, against one weighted DP per class of the
    # 2-core on G's n vertices (a tree runs no DP)
    for h in connected_patterns_up_to(4) + [cycle_graph(6)]:
        members = enumerate_pattern_extensions(h, 2)
        for g in (HOSTS[0], HOSTS[3], HOSTS[4]):
            peeled = peeled_product_extension(h, g, 2)
            via_peel = sum(count_on_lift(m, peeled) for m in members)
            fold = fold_pendant_trees(g, h)
            if fold.core is not None:
                assert count_family(fold, 2, optimal_extension(g, 2)
                                    ).count == via_peel
            assert count_homomorphisms(g, h, t=2) == via_peel == \
                brute_force_hom(g, h)


def test_two_hop_index_classes():
    g = _triangles()
    ext = optimal_extension(g, 2)
    hidx = fastdp.signature_index(ext).index
    assert hidx is fastdp.signature_index(ext).index  # cached on the graph
    assert (hidx.n, hidx.ncls) == (g.n, 4)
    dag = [tuple(a) for a in ext.layers[0].tolist()]
    parents = {}
    for x, y in dag:
        parents.setdefault(y, set()).add(x)
    want = {(x, y, 2 if parents.get(x, set()) & parents.get(y, set())
             else 1) for x, y in dag}
    want |= {(x, y, 3) for x, y in ext.layers[1].tolist()}
    want |= {(x, x, 4) for x in parents}
    got = set()
    for cls in range(1, 5):
        rows = hidx.padded((cls,))[0].tolist()
        for x in range(g.n):
            got |= {(x, y, cls) for y in rows[x] if y >= 0}
    assert got == want
    assert {c for *_, c in want} == {1, 2, 3, 4}


def test_two_hop_index_reads_only_layers_one_and_two():
    # a depth-2 count after a depth-3 one indexes the depth-2 extension
    # of G's cache, which holds only layers 1 and 2, as a fresh one does
    for g in HOSTS:
        two = optimal_extension(g, 2)
        fresh = UndirectedGraph(g.n, g.edge_list())
        deep = optimal_extension(fresh, 3)
        assert deep.depth == 3 and optimal_extension(fresh, 2).depth == 2
        a = fastdp.signature_index(two).index
        b = fastdp.signature_index(optimal_extension(fresh, 2)).index
        for lo in range(1, 5):
            for hi in range(lo, 5):
                classes = tuple(range(lo, hi + 1))
                assert np.array_equal(a.padded(classes)[0],
                                      b.padded(classes)[0])
