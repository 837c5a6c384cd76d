"""The host index holds each class range as a table padded with -1.

``fastdp._HostIndex.padded(lo, hi)`` lists, per (source, target label)
bucket, the bucket's arcs of class lo..hi in (class, target) order, then
-1, to the width D of the range's fullest bucket. These tests read it
against plain-Python bucket lists built from the host's arcs, on G's
depth-1 DAG, on the two-hop host (loops included), on a lifted depth-3
host with labels and on a weight host with one bucket far wider than the
rest, and check ``has_arcs`` and ``_expand`` on the same hosts.
"""

import random

import numpy as np
import pytest

from sparsecount import DirWLGraph, UndirectedGraph, fastdp, optimal_extension
from sparsecount.harness import generate_bounded_degeneracy

from conftest import cycle_graph

G = generate_bounded_degeneracy(40, 3, seed=11)


def _two_hop_arcs(ext) -> list[tuple[int, int, int]]:
    """The two-hop host's (src, dst, class) arcs, rebuilt from the rule
    ``two_hop_index`` states."""
    dag = [tuple(a) for a in ext.layers[0].tolist()]
    parents = {}
    for x, y in dag:
        parents.setdefault(y, set()).add(x)
    arcs = [(x, y, 2 if parents.get(x, set()) & parents.get(y, set())
             else 1) for x, y in dag]
    arcs += [(x, y, 3) for x, y in ext.layers[1].tolist()]
    return arcs + [(x, x, 4) for x in sorted(parents)]


def _weight_host(graph: DirWLGraph):
    arcs = list(zip(graph.src.tolist(), graph.dst.tolist(),
                    graph.wgt.tolist()))
    return fastdp._host_index(graph), arcs, graph.labels.tolist(), graph


def _wide() -> DirWLGraph:
    """Vertex 0 points to every other vertex, alternating weights 1 and
    2; the rest form a path of weight-1 arcs."""
    n = 41
    arcs = [(0, v, 1 + v % 2) for v in range(1, n)]
    arcs += [(v, v + 1, 1) for v in range(1, n - 1)]
    return DirWLGraph(n, arcs)


def _hosts():
    """(name, index, (src, dst, class) arcs, labels, weight host or None)."""
    two = optimal_extension(G, 2)
    lifted = optimal_extension(generate_bounded_degeneracy(12, 3, seed=4), 3,
                               pattern=cycle_graph(5)).graph
    return [
        ("dag", *_weight_host(optimal_extension(G, 1).graph)),
        ("two-hop", fastdp.two_hop_index(two), _two_hop_arcs(two),
         [0] * G.n, None),
        ("lifted", *_weight_host(lifted)),
        ("wide", *_weight_host(_wide())),
    ]


HOSTS = _hosts()


def _ranges(hidx):
    return [(lo, hi) for lo in range(1, hidx.tmax + 1)
            for hi in range(lo, hidx.tmax + 1)]


def _buckets(hidx, arcs, labels, lo, hi) -> dict[int, list[int]]:
    """Per bucket: its arcs' targets of class lo..hi by (class, target)."""
    out = {}
    for x, y, c in sorted(arcs, key=lambda a: (a[2], a[1])):
        if lo <= c <= hi:
            out.setdefault(x * hidx.k + labels[y], []).append(y)
    return out


@pytest.mark.parametrize("name,hidx,arcs,labels,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_rows_list_each_buckets_arcs_then_padding(name, hidx, arcs, labels,
                                                  graph):
    assert hidx.k == max(labels) + 1
    for lo, hi in _ranges(hidx):
        rows, cols = hidx.padded(lo, hi)
        assert hidx.padded(lo, hi)[0] is rows  # built once
        want = _buckets(hidx, arcs, labels, lo, hi)
        width = max(map(len, want.values()), default=0)
        assert rows.dtype == cols.dtype == np.int32
        assert rows.shape == (hidx.n * hidx.k, width)
        assert cols.flags.c_contiguous and np.array_equal(cols, rows.T)
        for bucket, row in enumerate(rows.tolist()):
            got = want.get(bucket, [])
            assert row == got + [-1] * (width - len(got))


def test_one_bucket_far_wider_than_the_rest():
    hidx = fastdp._host_index(_wide())
    rows = hidx.padded(1, 2)[0]
    counts = (rows >= 0).sum(axis=1)
    assert rows.shape[1] == counts[0] == 40
    assert counts[1:].max() == 1
    # weight 1 alone: the hub's 20 even-numbered targets
    assert hidx.padded(1, 1)[0].shape[1] == 20


def test_an_empty_range_has_width_zero():
    # a perfect matching closes no wedge: no class 2 or 3 arc
    g = UndirectedGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    hidx = fastdp.two_hop_index(optimal_extension(g, 2))
    rows, cols = hidx.padded(2, 3)
    assert rows.shape == (8, 0) and cols.shape == (0, 8)
    verts = np.arange(8, dtype=np.int32)
    assert not hidx.has_arcs(verts, verts, 2, 3, 0).any()
    state = fastdp._BlockState({0: verts}, None, 8)
    assert not fastdp._expand(hidx, state, 1, 0, 2, 3, 0, (), None)
    assert list(state.cols) == [0] and state.nrows == 8
    assert hidx.has_arcs(verts, verts, 4, 4, 0).tolist() == [
        v % 2 == 1 for v in range(8)]


@pytest.mark.parametrize("name,hidx,arcs,labels,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_has_arcs_matches_the_arc_oracle(name, hidx, arcs, labels, graph):
    rng = random.Random(5)
    cls_of = {(x, y): c for x, y, c in arcs}
    if graph is not None:
        # the weight host's own searchsorted lookup
        def oracle(a, b):
            return graph.arc_weights(a, b).tolist()
    else:
        def oracle(a, b):
            return [cls_of.get((x, y), 0) for x, y in zip(a, b)]
    fibers = {lab: [v for v in range(hidx.n) if labels[v] == lab]
              for lab in range(hidx.k)}
    for lab, fiber in fibers.items():
        hits = [(x, y) for x, y, _ in arcs if labels[y] == lab]
        pairs = rng.sample(hits, min(len(hits), 60))
        pairs += [(rng.randrange(hidx.n), rng.choice(fiber))
                  for _ in range(200)]
        a = np.array([x for x, _ in pairs], dtype=np.int32)
        b = np.array([y for _, y in pairs], dtype=np.int32)
        classes = oracle(a, b)
        assert any(classes) or not hits
        for lo, hi in _ranges(hidx):
            got = hidx.has_arcs(a, b, lo, hi, lab).tolist()
            assert got == [lo <= c <= hi for c in classes]


@pytest.mark.parametrize("name,hidx,arcs,labels,graph", HOSTS,
                         ids=[h[0] for h in HOSTS])
def test_expand_matches_a_per_row_expansion(name, hidx, arcs, labels, graph):
    rng = np.random.default_rng(9)
    nrows = 300
    parent = rng.integers(0, hidx.n, nrows).astype(np.int32)
    other = rng.integers(0, hidx.n, nrows).astype(np.int32)
    vals = rng.integers(1, 50, nrows)
    weight = rng.integers(1, 7, hidx.n)
    for lab in range(hidx.k):
        for lo, hi in _ranges(hidx):
            want = _buckets(hidx, arcs, labels, lo, hi)
            rows = [(p, o, y, int(val) * int(weight[y]))
                    for p, o, val in zip(parent.tolist(), other.tolist(),
                                         vals)
                    for y in want.get(p * hidx.k + lab, [])]
            state = fastdp._BlockState({0: parent, 1: other}, vals, nrows)
            grew = fastdp._expand(hidx, state, 2, 0, lo, hi, lab, (1,),
                                  weight)
            assert grew == bool(rows)
            if not rows:
                assert state.nrows == nrows and set(state.cols) == {0, 1}
                continue
            assert state.nrows == len(rows) and set(state.cols) == {0, 2}
            assert state.cols[0].tolist() == [r[0] for r in rows]
            assert state.cols[2].tolist() == [r[2] for r in rows]
            assert state.vals.tolist() == [r[3] for r in rows]
