import random

import numpy as np
import pytest

from sparsecount import (DirWLGraph, ExtensionBlowupError, acyclic_orientations,
                         enumerate_pattern_extensions, extension_edges,
                         max_outdegree, optimal_extension)
from sparsecount.fraternal import FraternalExtension

from conftest import (ExtensionLiftError, complete_graph, cycle_graph,
                      disjoint_union, is_acyclic_arcs, lifted_extension,
                      path_graph, random_graph, self_labeled, star_graph,
                      with_fiber_labels)
from oracles import member_graph, plain_labels, validate_fraternity


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
        members = enumerate_pattern_extensions(h, 1)
        assert len(members) == len(acyclic_orientations(h))


def test_frat_branches_per_wedge():
    members = enumerate_pattern_extensions(path_graph(3), 2)
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
    chain = {(0, 1), (1, 2)}
    for t in (2, 3):
        members = enumerate_pattern_extensions(path_graph(3), t)
        chains = [m for m in members
                  if {(int(u), int(v)) for u, v in m.layers[0]} == chain]
        assert len(chains) == 1
        assert member_graph(chains[0]).arc_count == 2


def test_frat_shared_unit_layer():
    h = cycle_graph(4)
    for member in enumerate_pattern_extensions(h, 2):
        undirected = {(min(int(u), int(v)), max(int(u), int(v)))
                      for u, v in member.layers[0]}
        assert undirected == h.edge_set()
        assert int(member_graph(member).wgt.max()) <= 2


def test_frat_cap_enforced():
    with pytest.raises(ExtensionBlowupError):
        enumerate_pattern_extensions(cycle_graph(6), 2, cap=10)


def eager_pattern_extensions(h, t):
    """Frat(h, t) built graph by graph: every acyclic orientation as a
    DirWLGraph, then per round ``extension_edges`` of each member and a
    new graph per orientation of its new layer, in the same order."""
    edges = h.edge_list()
    members = []
    for mask in range(1 << len(edges)):
        arcs = [(v, u) if mask >> j & 1 else (u, v)
                for j, (u, v) in enumerate(edges)]
        if is_acyclic_arcs(h.n, arcs):
            members.append(DirWLGraph(h.n, [(a, b, 1) for a, b in arcs]))
    for i in range(2, t + 1):
        nxt = []
        for g in members:
            pairs = extension_edges(g, i)
            for bits in range(1 << len(pairs)):
                flip = (bits >> np.arange(len(pairs))) & 1 == 1
                src = np.where(flip, pairs[:, 1], pairs[:, 0])
                dst = np.where(flip, pairs[:, 0], pairs[:, 1])
                nxt.append(DirWLGraph.from_arrays(
                    g.n, np.concatenate((g.src, src)),
                    np.concatenate((g.dst, dst)),
                    np.concatenate((g.wgt, np.full(len(pairs), i)))))
        members = nxt
    return members


def _differential_cases():
    from conftest import connected_patterns_up_to

    for h in connected_patterns_up_to(5):
        for t in (1, 2):
            yield h, t
    for k in (6, 7):
        yield cycle_graph(k), 2
    yield cycle_graph(6), 3


def test_plain_python_members_match_the_eager_build():
    from sparsecount.fraternal import _round_pairs

    for h, t in _differential_cases():
        members = enumerate_pattern_extensions(h, t)
        eager = eager_pattern_extensions(h, t)
        assert len(members) == len(eager)
        for m, e in zip(members, eager):
            # a member holds no numpy graph; the oracles build one
            assert not any(isinstance(getattr(m, name), DirWLGraph)
                           for name in m.__slots__)
            for name in ("src", "dst", "wgt"):
                assert np.array_equal(getattr(member_graph(m), name),
                                      getattr(e, name)), (h, t, name)
        # each plain-Python round against extension_edges as the oracle
        for i in range(2, t + 1):
            for m in enumerate_pattern_extensions(h, i - 1):
                pairs = extension_edges(member_graph(m), i).tolist()
                assert _round_pairs(m.arcs, i) == [tuple(p) for p in pairs]


def test_optimal_extension_depth1_is_degeneracy_orientation():
    from sparsecount import degeneracy_orient

    g = random_graph(12, 0.4, random.Random(3))
    ext = optimal_extension(g, 1)
    arcs = degeneracy_orient(g)
    assert ext.depth == 1
    assert np.array_equal(ext.layers[0], arcs)
    assert (ext.graph.wgt == 1).all()


def _random_product(rng):
    from oracles import pattern_product

    h = random_graph(rng.randint(2, 4), 0.7, rng)
    g = disjoint_union(random_graph(rng.randint(1, 6), 0.5, rng),
                       random_graph(rng.randint(0, 4), 0.5, rng))
    return h, g, pattern_product(h, g)


def test_optimal_extension_depth1_lifts_host_peel_on_products():
    from sparsecount import degeneracy_order

    rng = random.Random(29)
    for _ in range(30):
        h, g, product = _random_product(rng)
        ext = lifted_extension(g, 1, h)
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
            ext = lifted_extension(g, t, h)
            assert validate_fraternity(ext)
            assert is_acyclic_arcs(product.n, ext.layers[0])
            for i in range(2, t + 1):
                keep = ext.graph.wgt < i
                prefix = DirWLGraph.from_arrays(
                    ext.graph.n, ext.graph.src[keep], ext.graph.dst[keep],
                    ext.graph.wgt[keep])
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
            ext = lifted_extension(g, t, h)
            arcs = set(zip(ext.graph.src.tolist(), ext.graph.dst.tolist(),
                           ext.graph.wgt.tolist()))
            tour = fiber_tournament(h, t)
            for sigma in tour.generators:
                phi = _product_automorphism(g.n, sigma)
                assert {(phi(x), phi(y), w) for x, y, w in arcs} == arcs
    assert fiber_tournament(cycle_graph(6), 2).size == 6
    assert fiber_tournament(cycle_graph(6), 3).size == 3  # no half turn


def test_host_extension_built_once_per_graph(monkeypatch):
    # G's own extension is built once per graph and per depth, with
    # read-only arrays: depth 1 is its degeneracy DAG, a deeper request
    # adds only the missing rounds to the deepest one cached, and every
    # count at one depth over G, such as the spasm quotients of a
    # subgraph count, reads the same object, also after a deeper count
    import sparsecount.counting as counting
    import sparsecount.fraternal as fraternal
    from sparsecount import (brute_force_sub, count_homomorphisms,
                             count_subgraphs)

    built = []
    real = fraternal._peeled_extension

    def tracked(base, t, ext=None):
        built.append((base, 0 if ext is None else ext.depth, t))
        return real(base, t, ext)

    monkeypatch.setattr(fraternal, "_peeled_extension", tracked)
    served = []  # what each count reads

    def own_tracked(host, t):
        served.append(optimal_extension(host, t))
        return served[-1]

    monkeypatch.setattr(counting, "optimal_extension", own_tracked)
    g = random_graph(9, 0.45, random.Random(8))
    count_homomorphisms(g, cycle_graph(5))
    assert built == [(g, 0, 1)]  # G's layer 1 only, its peel
    dag = optimal_extension(g, 1)
    assert g._extension == (dag,) and served == [dag]
    # Sub(C8) counts C8 and two quotients with a 6-cycle at depth 2; the
    # other quotients count at depth 1, or by message passing
    assert count_subgraphs(g, cycle_graph(8)) == \
        brute_force_sub(g, cycle_graph(8))
    assert built == [(g, 0, 1), (g, 1, 2)]  # the DAG continued once
    two = optimal_extension(g, 2)
    assert g._extension == (dag, two) and two.layers[0] is dag.layers[0]
    assert {id(e) for e in served} == {id(dag), id(two)}
    assert sum(e is two for e in served) >= 3
    for ext in (dag, two):
        for arr in (ext.graph.src, ext.graph.dst, ext.graph.wgt,
                    *ext.layers):
            assert not arr.flags.writeable
    built.clear()
    count_homomorphisms(g, cycle_graph(6), t=3)
    assert built == [(g, 2, 3)]
    count_homomorphisms(g, cycle_graph(7))  # depth 2 after a depth-3 count
    assert built == [(g, 2, 3)] and served[-1] is two
    assert g._extension[-1].depth == 3
    count_homomorphisms(g, cycle_graph(5))
    assert served[-1] is dag and len(g._extension) == 3


def test_depth2_extension_and_index_shared_after_a_deeper_count():
    # after G's extension to depth 3 is built, every depth-2 request
    # returns one object and one depth-2 index, equal to a fresh build
    from sparsecount import UndirectedGraph, fastdp
    g = random_graph(12, 0.4, random.Random(3))
    deep = optimal_extension(g, 3)
    first, second = optimal_extension(g, 2), optimal_extension(g, 2)
    assert first is second and deep.depth == 3 and first.depth == 2
    index = fastdp.signature_index(first).index
    assert fastdp.signature_index(second).index is index
    fresh = optimal_extension(UndirectedGraph(g.n, g.edge_list()), 2)
    assert (first.graph.src == fresh.graph.src).all()
    assert (first.graph.wgt == fresh.graph.wgt).all()
    again = fastdp.signature_index(fresh).index
    for lo in range(1, 5):
        for hi in range(lo, 5):
            classes = tuple(range(lo, hi + 1))
            assert np.array_equal(again.padded(classes)[0],
                                  index.padded(classes)[0])


def test_lift_without_a_host_arc_raises():
    # the tests' lift refuses a product pair that G's own extension does
    # not orient, rather than dropping it
    g = cycle_graph(5)
    depth1 = optimal_extension(g, 1)
    g._extension = (depth1, FraternalExtension(depth1.graph, 2,
                                               depth1.layers * 2))
    with pytest.raises(ExtensionLiftError):
        lifted_extension(g, 2, path_graph(3))


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
        for member in enumerate_pattern_extensions(h, 2):
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
    host_labels, labels = plain_labels(host), plain_labels(pattern)
    found = []
    assign = {}

    def ok(v, img):
        if host_labels[img] != labels[v]:
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
        host = with_fiber_labels(lifted_extension(g, t, h).graph, k)
        seen = set()
        total = 0
        for member in enumerate_pattern_extensions(h, t):
            homs = enumerate_wl_homs(host, self_labeled(member))
            assert seen.isdisjoint(homs)  # no map counted twice
            seen.update(homs)
            total += len(homs)
        assert total == brute_force_hom(g, h)
