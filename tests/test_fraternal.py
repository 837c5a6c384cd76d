import random

import numpy as np
import pytest

from sparsecount import (DirWLGraph, ExtensionBlowupError, acyclic_orientations,
                         enumerate_pattern_extensions, extension_edges,
                         label_pattern, max_outdegree, optimal_extension,
                         validate_fraternity)
from sparsecount.fraternal import FraternalExtension

from conftest import (complete_graph, cycle_graph, disjoint_union,
                      is_acyclic_arcs, path_graph, random_graph, star_graph)


def pairs_of(pairs):
    return {(int(u), int(v)) for u, v in pairs}


def test_extension_edges_unit_wedge():
    g = DirWLGraph(3, [(2, 0, 1), (2, 1, 1)])
    assert pairs_of(extension_edges(g, 2)) == {(0, 1)}


def test_extension_edges_no_wedge_on_directed_path():
    g = DirWLGraph(3, [(0, 1, 1), (1, 2, 1)])
    for t in (2, 3, 4):
        assert len(extension_edges(g, t)) == 0


def test_extension_edges_alternating_six_cycle():
    # three sources 0, 2, 4; the three sink pairs close into a triangle
    g = DirWLGraph(6, [(0, 1, 1), (2, 1, 1), (2, 3, 1), (4, 3, 1),
                       (4, 5, 1), (0, 5, 1)])
    assert pairs_of(extension_edges(g, 2)) == {(1, 3), (3, 5), (1, 5)}


def test_extension_edges_skips_existing_and_weights():
    g = DirWLGraph(3, [(2, 0, 1), (2, 1, 1), (0, 1, 1)])
    assert len(extension_edges(g, 2)) == 0  # endpoints already linked
    g2 = DirWLGraph(3, [(2, 0, 1), (2, 1, 2)])
    assert len(extension_edges(g2, 2)) == 0  # wedge sum is 3, not 2
    assert pairs_of(extension_edges(g2, 3)) == {(0, 1)}


def test_frat_depth1_is_acyclic_orientations():
    for h in (path_graph(3), cycle_graph(4), complete_graph(3)):
        hl = label_pattern(h)
        members = enumerate_pattern_extensions(hl, 1)
        assert len(members) == len(acyclic_orientations(hl))


def test_frat_branches_per_wedge():
    hl = label_pattern(path_graph(3))
    members = enumerate_pattern_extensions(hl, 2)
    # the center-out orientation gains one pair, oriented both ways
    wedge_base = {(1, 0), (1, 2)}
    branched = [m for m in members
                if {(int(u), int(v)) for u, v in m.layers[0]} == wedge_base]
    assert len(branched) == 2
    layer2 = {tuple(map(int, m.layers[1][0])) for m in branched}
    assert layer2 == {(0, 2), (2, 0)}
    # the other three orientations have no wedge and persist unchanged
    assert len(members) == 5


def test_wedge_free_member_persists_at_higher_depth():
    hl = label_pattern(path_graph(3))
    chain = {(0, 1), (1, 2)}
    for t in (2, 3):
        members = enumerate_pattern_extensions(hl, t)
        chains = [m for m in members
                  if {(int(u), int(v)) for u, v in m.layers[0]} == chain]
        assert len(chains) == 1
        assert chains[0].graph.arc_count == 2


def test_frat_shared_unit_layer():
    h = cycle_graph(4)
    hl = label_pattern(h)
    for member in enumerate_pattern_extensions(hl, 2):
        undirected = {(min(int(u), int(v)), max(int(u), int(v)))
                      for u, v in member.layers[0]}
        assert undirected == h.edge_set()
        assert int(member.graph.wgt.max()) <= 2


def test_frat_cap_enforced():
    hl = label_pattern(cycle_graph(6))
    with pytest.raises(ExtensionBlowupError):
        enumerate_pattern_extensions(hl, 2, cap=10)


def test_optimal_extension_depth1_is_degeneracy_orientation():
    from sparsecount import degeneracy_orient

    g = random_graph(12, 0.4, random.Random(3))
    ext = optimal_extension(g, 1)
    arcs = degeneracy_orient(g)
    assert ext.depth == 1
    assert np.array_equal(ext.layers[0], arcs)
    assert (ext.graph.wgt == 1).all()


def _random_product(rng):
    from sparsecount import pattern_product

    h = random_graph(rng.randint(2, 4), 0.7, rng)
    g = disjoint_union(random_graph(rng.randint(1, 6), 0.5, rng),
                       random_graph(rng.randint(0, 4), 0.5, rng))
    return h, g, pattern_product(h, g)


def test_optimal_extension_depth1_lifts_host_peel_on_products():
    from sparsecount import degeneracy_order

    rng = random.Random(29)
    for _ in range(30):
        h, g, product = _random_product(rng)
        ext = optimal_extension(g, 1, pattern=h)
        order = degeneracy_order(g)
        pos = order.positions()
        n = g.n
        want = set()
        for x, y in product.edge_list():
            want.add((x, y) if pos[x % n] < pos[y % n] else (y, x))
        arcs = {(int(u), int(v)) for u, v in ext.layers[0]}
        assert arcs == want
        assert ext.graph.n == product.n
        assert is_acyclic_arcs(product.n, ext.layers[0])
        hdeg = int(h.degrees().max()) if h.m else 0
        assert max_outdegree(ext.graph) <= hdeg * order.kappa
        assert (ext.graph.wgt == 1).all()


def test_lifted_product_extensions_are_fraternal():
    # layer 1 is acyclic (it lifts G's peel); from layer 2 on the layer
    # need only orient each of its round's pairs exactly once, and tau
    # may close directed cycles across fibers
    rng = random.Random(31)
    for t in (2, 3):
        for _ in range(15):
            h, g, product = _random_product(rng)
            ext = optimal_extension(g, t, pattern=h)
            assert validate_fraternity(ext)
            assert is_acyclic_arcs(product.n, ext.layers[0])
            for i in range(2, t + 1):
                keep = ext.graph.wgt < i
                prefix = DirWLGraph.from_arrays(
                    ext.graph.n, ext.graph.src[keep], ext.graph.dst[keep],
                    ext.graph.wgt[keep], ext.graph.labels)
                arcs = [(int(u), int(v)) for u, v in ext.layers[i - 1]]
                assert len(set(arcs)) == len(arcs)
                assert {(min(a), max(a)) for a in arcs} == \
                    pairs_of(extension_edges(prefix, i))
                assert len(arcs) == len(extension_edges(prefix, i))


def _product_automorphism(n, sigma):
    return lambda x: sigma[x // n] * n + x % n


def test_tournament_automorphisms_keep_the_host_extension():
    # for s in Aut_tau(H), <u,v> -> <s(u),v> maps the lifted product
    # extension onto itself, arcs and weights alike (checking the
    # generators checks the group); patterns with triangles put vertical
    # pairs over pattern edges
    from sparsecount.pattern_tools import fiber_tournament

    rng = random.Random(43)
    patterns = [cycle_graph(4), cycle_graph(5), cycle_graph(6),
                complete_graph(3), complete_graph(4), star_graph(3)]
    for t in (2, 3):
        for trial in range(24):
            if trial % 2:
                h, g, _ = _random_product(rng)
            else:
                h = patterns[trial // 2 % len(patterns)]
                g = random_graph(rng.randint(2, 7), 0.5, rng)
            ext = optimal_extension(g, t, pattern=h)
            arcs = set(zip(ext.graph.src.tolist(), ext.graph.dst.tolist(),
                           ext.graph.wgt.tolist()))
            tour = fiber_tournament(h, t)
            for sigma in tour.generators:
                phi = _product_automorphism(g.n, sigma)
                assert {(phi(x), phi(y), w) for x, y, w in arcs} == arcs
    assert fiber_tournament(cycle_graph(6), 2).size == 6
    assert fiber_tournament(cycle_graph(6), 3).size == 3  # no half turn


def test_host_extension_built_once_per_graph(monkeypatch):
    # a depth-1 count runs on G's degeneracy DAG and never touches G's
    # cached extension; from depth 2 on, G's own extension is built once
    # per graph with read-only arrays, a deeper request adds only the
    # missing rounds, and every lifted product over G, such as the spasm
    # quotients of a subgraph count, reads it
    import sparsecount.fraternal as fraternal
    from sparsecount import (brute_force_sub, count_homomorphisms,
                             count_subgraphs)

    built = []
    real = fraternal._peeled_extension

    def tracked(base, labels, t, ext=None):
        built.append((base, 0 if ext is None else ext.depth, t))
        return real(base, labels, t, ext)

    monkeypatch.setattr(fraternal, "_peeled_extension", tracked)
    served = []
    real_own = fraternal._own_extension

    def own_tracked(host, t):
        served.append(real_own(host, t))
        return served[-1]

    monkeypatch.setattr(fraternal, "_own_extension", own_tracked)
    g = random_graph(9, 0.45, random.Random(8))
    count_homomorphisms(g, cycle_graph(5))
    assert built == [(g, 0, 1)]  # G's layer 1 only, its peel
    assert g._extension is None and not served
    # Sub(C8) counts C8 and two quotients with a 6-cycle at depth 2; the
    # other quotients count at depth 1
    assert count_subgraphs(g, cycle_graph(8)) == \
        brute_force_sub(g, cycle_graph(8))
    assert [b for b in built if b[2] >= 2] == [(g, 0, 2)]
    assert all(b == (g, 0, 1) for b in built if b[2] < 2)
    assert len(served) == 3 and all(e is served[0] for e in served)
    own = g._extension
    for arr in (own.graph.src, own.graph.dst, own.graph.wgt, *own.layers):
        assert not arr.flags.writeable
    built.clear()
    count_homomorphisms(g, cycle_graph(6), t=3)
    assert built == [(g, 2, 3)]
    count_homomorphisms(g, cycle_graph(7))  # depth 2 reads the depth-3 one
    assert built == [(g, 2, 3)] and served[-1] is g._extension
    assert g._extension.depth == 3
    deep, n_served = g._extension, len(served)
    count_homomorphisms(g, cycle_graph(5))
    assert g._extension is deep and len(served) == n_served


def test_lift_without_a_host_arc_raises():
    from sparsecount.fraternal import ExtensionLiftError

    g = cycle_graph(5)
    depth1 = optimal_extension(g, 1)
    g._extension = FraternalExtension(depth1.graph, 2, depth1.layers * 2)
    with pytest.raises(ExtensionLiftError):
        optimal_extension(g, 2, pattern=path_graph(3))


def test_optimal_extension_edgeless():
    from sparsecount import UndirectedGraph

    ext = optimal_extension(UndirectedGraph(4, []), 3)
    assert ext.graph.arc_count == 0
    assert len(ext.layers) == 3


def wedge_pairs_oracle(g, t):
    """Hand-rolled wedge scan: unordered out-out endpoint pairs with
    weight sum exactly t, minus pairs already linked either way."""
    linked = g.arc_set() | {(v, u) for u, v in g.arc_set()}
    found = set()
    for v in range(g.n):
        dst, wgt = g.out_arcs(v)
        outs = list(zip(map(int, dst), map(int, wgt)))
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                (a, wa), (b, wb) = outs[i], outs[j]
                if wa + wb == t and (a, b) not in linked:
                    found.add((min(a, b), max(a, b)))
    return found


def test_extension_edges_matches_oracle():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng.randint(2, 14), 0.45, rng)
        ext = optimal_extension(g, rng.choice([1, 2]))
        for t in (2, 3, 4):
            assert pairs_of(extension_edges(ext.graph, t)) == \
                wedge_pairs_oracle(ext.graph, t)


def test_trees_stay_wedge_free():
    # a tree peels at residual degree 1, so its degeneracy orientation
    # has outdegree 1 everywhere and no layer ever gets new edges
    for tree in (path_graph(6), star_graph(4)):
        ext = optimal_extension(tree, 3)
        assert all(layer.shape[0] == 0 for layer in ext.layers[1:])
        assert max_outdegree(ext.graph) <= 1


def test_closure_no_open_wedges():
    rng = random.Random(41)
    for t in (2, 3):
        for _ in range(20):
            g = random_graph(rng.randint(2, 18), 0.3, rng)
            ext = optimal_extension(g, t)
            # every wedge with sum <= t is linked in some direction
            for i in range(2, t + 1):
                assert len(extension_edges(ext.graph, i)) == 0
            assert validate_fraternity(ext)


def test_layers_are_acyclic_dags():
    rng = random.Random(55)
    for _ in range(15):
        g = random_graph(rng.randint(2, 15), 0.4, rng)
        ext = optimal_extension(g, 3)
        for layer in ext.layers:
            assert is_acyclic_arcs(ext.graph.n, layer)


def test_validate_fraternity_unit_orientation():
    g = random_graph(10, 0.4, random.Random(8))
    ext = optimal_extension(g, 1)
    assert validate_fraternity(ext, t=1)


def test_validate_fraternity_open_wedge_fails():
    g = DirWLGraph(3, [(2, 0, 1), (2, 1, 1)])
    ext = FraternalExtension(g, 2, (np.array([[2, 0], [2, 1]]),
                                    np.empty((0, 2), dtype=np.int64)))
    assert not validate_fraternity(ext)
    assert validate_fraternity(ext, t=1)


def test_validate_fraternity_pattern_members():
    for h in (path_graph(4), cycle_graph(4), complete_graph(4)):
        hl = label_pattern(h)
        for member in enumerate_pattern_extensions(hl, 2):
            assert validate_fraternity(member)


def test_validate_fraternity_size_cap():
    from sparsecount import UndirectedGraph

    big = optimal_extension(UndirectedGraph(10, []), 1)
    with pytest.raises(ValueError):
        validate_fraternity(big, size_cap=5)


def enumerate_wl_homs(host, pattern):
    """All weighted/labeled maps pattern -> host, as canonical tuples."""
    out_w = [dict() for _ in range(host.n)]
    for u, v, w in zip(host.src, host.dst, host.wgt):
        out_w[u][int(v)] = int(w)
    found = []
    assign = {}

    def ok(v, img):
        if host.labels[img] != pattern.labels[v]:
            return False
        for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
            a, b, w = int(a), int(b), int(w)
            if a == v and b in assign:
                hw = out_w[img].get(assign[b])
            elif b == v and a in assign:
                hw = out_w[assign[a]].get(img)
            else:
                continue
            if hw is None or hw > w:
                return False
        return True

    def rec(v):
        if v == pattern.n:
            found.append(tuple(assign[u] for u in range(pattern.n)))
            return
        for img in range(host.n):
            if ok(v, img):
                assign[v] = img
                rec(v + 1)
        assign.pop(v, None)

    rec(0)
    return found


def test_extension_hom_sets_partition_the_base_count():
    from sparsecount import brute_force_hom

    rng = random.Random(97)
    for trial in range(20):
        k = rng.randint(2, 4)
        h = random_graph(k, 0.6, rng)
        g = random_graph(rng.randint(2, 7), 0.45, rng)
        t = 1 + trial % 2
        hl = label_pattern(h)
        host_ext = optimal_extension(g, t, pattern=h)
        seen = set()
        total = 0
        for member in enumerate_pattern_extensions(hl, t):
            homs = enumerate_wl_homs(host_ext.graph, member.graph)
            assert seen.isdisjoint(homs)  # no map counted twice
            seen.update(homs)
            total += len(homs)
        assert total == brute_force_hom(g, h)
