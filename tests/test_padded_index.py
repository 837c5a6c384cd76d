"""The host index holds each class set as a table padded with -1.

``fastdp._HostIndex.padded(classes)`` lists, per source vertex, its arcs
of those classes in (class, target) order, then -1, to the width D of
the set's fullest source. These tests read it against plain-Python
lists built from the host's arcs, on the depth-1 signature host (G's
DAG), on the depth-2 signature host (loops included), on a weight host
of k * n vertices (an unlabeled lifted depth-3 extension), on a weight
host with one source far wider than the rest and on a depth-3
signature host, whose pattern arcs read sets that are not ranges, and
check ``has_arcs`` and ``_expand`` on the same hosts.
"""

import random

import numpy as np
import pytest

from sparsecount import DirWLGraph, UndirectedGraph, fastdp, optimal_extension
from sparsecount.harness import generate_bounded_degeneracy

from conftest import cycle_graph, lifted_extension, weight_host

G = generate_bounded_degeneracy(40, 3, seed=11)


def _two_hop_arcs(ext) -> list[tuple[int, int, int]]:
    """The depth-2 signature host's (src, dst, class) arcs, rebuilt from
    the rule ``signature_index`` states."""
    dag = [tuple(a) for a in ext.layers[0].tolist()]
    parents = {}
    for x, y in dag:
        parents.setdefault(y, set()).add(x)
    arcs = [(x, y, 2 if parents.get(x, set()) & parents.get(y, set())
             else 1) for x, y in dag]
    arcs += [(x, y, 3) for x, y in ext.layers[1].tolist()]
    return arcs + [(x, x, 4) for x in sorted(parents)]


def _arcs(graph: DirWLGraph) -> list[tuple[int, int, int]]:
    return list(zip(graph.src.tolist(), graph.dst.tolist(),
                    graph.wgt.tolist()))


def _weight_host(graph: DirWLGraph):
    return weight_host(graph, 1).index, _arcs(graph), graph


def _wide() -> DirWLGraph:
    """Vertex 0 points to every other vertex, alternating weights 1 and
    2; the rest form a path of weight-1 arcs."""
    n = 41
    arcs = [(0, v, 1 + v % 2) for v in range(1, n)]
    arcs += [(v, v + 1, 1) for v in range(1, n - 1)]
    return DirWLGraph(n, arcs)


def _hosts():
    """(name, index, (src, dst, class) arcs, arc-weight oracle graph or
    None). The DAG's arcs all weigh 1, its one class."""
    dag = optimal_extension(G, 1).graph
    two = optimal_extension(G, 2)
    lifted = lifted_extension(generate_bounded_degeneracy(12, 3, seed=4), 3,
                              cycle_graph(5)).graph
    three = fastdp.signature_index(optimal_extension(G, 3)).index
    src, cls, dst = (a.tolist() for a in three._arcs)
    return [
        ("dag", fastdp.signature_index(optimal_extension(G, 1)).index,
         _arcs(dag), dag),
        ("two-hop", fastdp.signature_index(two).index, _two_hop_arcs(two),
         None),
        ("lifted", *_weight_host(lifted)),
        ("wide", *_weight_host(_wide())),
        ("signature-3", three, list(zip(src, dst, cls)), None),
    ]


HOSTS = _hosts()


def _sets(hidx) -> list[tuple[int, ...]]:
    """Every class range of a host with at most four classes; else a
    seeded sample of sets, ranges or not, and all classes."""
    ncls = hidx.ncls
    if ncls <= 4:
        return [tuple(range(lo, hi + 1)) for lo in range(1, ncls + 1)
                for hi in range(lo, ncls + 1)]
    rng = random.Random(ncls)
    return [tuple(sorted(rng.sample(range(1, ncls + 1), rng.randint(1, 8))))
            for _ in range(10)] + [tuple(range(1, ncls + 1))]


def _rows(arcs, classes) -> dict[int, list[int]]:
    """Per source: its arcs' targets of ``classes`` by (class, target)."""
    out = {}
    for x, y, c in sorted(arcs, key=lambda a: (a[2], a[1])):
        if c in classes:
            out.setdefault(x, []).append(y)
    return out


@pytest.mark.parametrize("name,hidx,arcs,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_rows_list_each_buckets_arcs_then_padding(name, hidx, arcs, graph):
    assert hidx.ncls == max(c for *_, c in arcs)
    for classes in _sets(hidx):
        rows, cols = hidx.padded(classes)
        assert hidx.padded(classes)[0] is rows  # built once
        want = _rows(arcs, classes)
        width = max(map(len, want.values()), default=0)
        assert rows.dtype == cols.dtype == np.int32
        assert rows.shape == (hidx.n, width)
        assert cols.flags.c_contiguous and np.array_equal(cols, rows.T)
        for x, row in enumerate(rows.tolist()):
            got = want.get(x, [])
            assert row == got + [-1] * (width - len(got))


def test_one_bucket_far_wider_than_the_rest():
    hidx = weight_host(_wide(), 1).index
    rows = hidx.padded((1, 2))[0]
    counts = (rows >= 0).sum(axis=1)
    assert rows.shape[1] == counts[0] == 40
    assert counts[1:].max() == 1
    # weight 1 alone: the hub's 20 even-numbered targets
    assert hidx.padded((1,))[0].shape[1] == 20


def test_an_empty_range_has_width_zero():
    # a perfect matching closes no wedge: its depth-2 host holds only
    # the DAG (class 1) and the loops at its heads (class 2), and a set
    # of no class reads nothing
    g = UndirectedGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    hidx = fastdp.signature_index(optimal_extension(g, 2)).index
    assert hidx.ncls == 2
    rows, cols = hidx.padded(())
    assert rows.shape == (8, 0) and cols.shape == (0, 8)
    verts = np.arange(8, dtype=np.int32)
    assert not hidx.has_arcs(verts, verts, ()).any()
    state = fastdp._BlockState({0: verts}, None, 8)
    assert not fastdp._expand(hidx, state, 1, 0, (), (), None)
    assert list(state.cols) == [0] and state.nrows == 8
    assert hidx.has_arcs(verts, verts, (2,)).tolist() == [
        v % 2 == 1 for v in range(8)]


@pytest.mark.parametrize("name,hidx,arcs,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_has_arcs_matches_the_arc_oracle(name, hidx, arcs, graph):
    rng = random.Random(5)
    cls_of = {(x, y): c for x, y, c in arcs}
    if graph is not None:
        # the graph's own searchsorted lookup
        def oracle(a, b):
            return graph.arc_weights(a, b).tolist()
    else:
        def oracle(a, b):
            return [cls_of.get((x, y), 0) for x, y in zip(a, b)]
    pairs = [(x, y) for x, y, _ in rng.sample(arcs, min(len(arcs), 200))]
    pairs += [(rng.randrange(hidx.n), rng.randrange(hidx.n))
              for _ in range(400)]
    a = np.array([x for x, _ in pairs], dtype=np.int32)
    b = np.array([y for _, y in pairs], dtype=np.int32)
    classes = oracle(a, b)
    assert any(classes)
    for keys in _sets(hidx):
        got = hidx.has_arcs(a, b, keys).tolist()
        assert got == [c in keys for c in classes]


@pytest.mark.parametrize("name,hidx,arcs,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_expand_matches_a_per_row_expansion(name, hidx, arcs, graph):
    rng = np.random.default_rng(9)
    nrows = 300
    parent = rng.integers(0, hidx.n, nrows).astype(np.int32)
    other = rng.integers(0, hidx.n, nrows).astype(np.int32)
    vals = rng.integers(1, 50, nrows)
    weight = rng.integers(1, 7, hidx.n)
    for classes in _sets(hidx):
        want = _rows(arcs, classes)
        rows = [(p, o, y, int(val) * int(weight[y]))
                for p, o, val in zip(parent.tolist(), other.tolist(), vals)
                for y in want.get(p, [])]
        state = fastdp._BlockState({0: parent, 1: other}, vals, nrows)
        grew = fastdp._expand(hidx, state, 2, 0, classes, (1,), weight)
        assert grew == bool(rows)
        if not rows:
            assert state.nrows == nrows and set(state.cols) == {0, 1}
            continue
        assert state.nrows == len(rows) and set(state.cols) == {0, 2}
        assert state.cols[0].tolist() == [r[0] for r in rows]
        assert state.cols[2].tolist() == [r[2] for r in rows]
        assert state.vals.tolist() == [r[3] for r in rows]
