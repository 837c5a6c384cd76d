"""Degeneracy ordering and the acyclic degeneracy orientation.

The peel repeatedly removes the minimum-degree vertex (ties broken by
lowest id) and records the order; kappa is the largest residual degree
seen. Orienting every edge from the earlier-peeled endpoint to the later
one yields an acyclic orientation with max outdegree <= kappa.

The peel is a ``heapq`` heap of packed (degree, id) keys over Python
lists. An ``UndirectedGraph`` is peeled once: its order is cached on
the graph, so every product and spasm quotient over one host shares it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph_core import EdgeSet, UndirectedGraph


def _peel_kernel(n, indptr, nbrs):
    """Exact (degree, id) min-peel via a heap of packed keys.

    Keys are deg * n + v so the heap minimum is the lexicographic
    (degree, id) minimum. A degree drop pushes a new key and leaves the
    old one, which sorts after it and so pops only once v is removed:
    skipping removed vertices skips every stale key.
    """
    ptr = indptr.tolist()
    adj = nbrs.tolist()
    deg = [ptr[v + 1] - ptr[v] for v in range(n)]
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    removed = [False] * n
    order = []
    kappa = 0
    while len(order) < n:
        d, v = divmod(heappop(heap), n)
        if removed[v]:
            continue
        removed[v] = True
        order.append(v)
        if d > kappa:
            kappa = d
        for u in adj[ptr[v]:ptr[v + 1]]:
            if not removed[u]:
                deg[u] -= 1
                heappush(heap, deg[u] * n + u)
    return np.array(order, dtype=np.int64), kappa


@dataclass(frozen=True)
class DegeneracyOrder:
    """Peel order (first-removed first) and the degeneracy value."""

    order: np.ndarray
    kappa: int

    def positions(self) -> np.ndarray:
        pos = np.empty(self.order.shape[0], dtype=np.int64)
        pos[self.order] = np.arange(self.order.shape[0])
        return pos


def _csr_of(edges) -> tuple[int, np.ndarray, np.ndarray]:
    if isinstance(edges, UndirectedGraph):
        indptr, nbrs = edges.csr
        return edges.n, indptr, nbrs
    if isinstance(edges, EdgeSet):
        n, pairs = edges.n, edges.pairs
    else:
        raise TypeError(f"cannot peel {type(edges).__name__}")
    ends = np.concatenate((pairs[:, 0], pairs[:, 1]))
    nbrs = np.concatenate((pairs[:, 1], pairs[:, 0]))
    order = np.argsort(ends * max(n, 1) + nbrs, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return n, indptr, nbrs[order]


def degeneracy_order(g) -> DegeneracyOrder:
    """Peel g (an UndirectedGraph or EdgeSet) to a DegeneracyOrder.

    The order of an UndirectedGraph is computed once and cached on it,
    with a read-only ``order`` array. Two threads racing on the first
    call only peel twice to the same order, so no lock is taken.
    """
    if isinstance(g, UndirectedGraph) and g._degeneracy is not None:
        return g._degeneracy
    order, kappa = _peel_kernel(*_csr_of(g))
    order.flags.writeable = False
    result = DegeneracyOrder(order, kappa)
    if isinstance(g, UndirectedGraph):
        g._degeneracy = result
    return result


def degeneracy_orient(edges) -> np.ndarray:
    """Orient each edge from its earlier-peeled endpoint to the later one.

    Accepts a bare EdgeSet because extension layers are oriented on their
    own edges only, independent of earlier layers. Returns the (m, 2) arc
    array, acyclic with max outdegree <= the degeneracy of the input edge
    set.
    """
    pairs = edges.pairs if isinstance(edges, EdgeSet) else edges.edge_array
    if pairs.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    pos = degeneracy_order(edges).positions()
    return orient_by_rank(pairs, pos)


def orient_by_rank(pairs: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Orient each edge towards its higher-ranked endpoint.

    ``rank`` holds one value per vertex and must differ across the two
    ends of every edge; any such ranking gives an acyclic layer. Arcs
    come out sorted by (src, dst).
    """
    forward = rank[pairs[:, 0]] < rank[pairs[:, 1]]
    src = np.where(forward, pairs[:, 0], pairs[:, 1])
    dst = np.where(forward, pairs[:, 1], pairs[:, 0])
    order = np.argsort(src * rank.shape[0] + dst, kind="stable")
    return np.column_stack((src[order], dst[order]))
