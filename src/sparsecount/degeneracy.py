"""Degeneracy ordering and the acyclic degeneracy orientation.

The peel repeatedly removes the minimum-degree vertex (ties broken by
lowest id) and records the order; kappa is the largest residual degree
seen. Orienting every edge from the earlier-peeled endpoint to the later
one yields an acyclic orientation with max outdegree <= kappa.

The peel is a plain-Python binary heap over packed (degree, id) keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import ArcLayer, EdgeSet, UndirectedGraph


def _peel_kernel(n, indptr, nbrs):
    """Exact (degree, id) min-peel via a packed-key binary heap.

    Keys are deg * n + v so the heap minimum is the lexicographic
    (degree, id) minimum; stale entries are skipped on pop.
    """
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return order, 0
    deg = np.empty(n, dtype=np.int64)
    for v in range(n):
        deg[v] = indptr[v + 1] - indptr[v]
    removed = np.zeros(n, dtype=np.bool_)
    cap = n + nbrs.shape[0] + 1
    heap = np.empty(cap, dtype=np.int64)
    size = 0
    for v in range(n):
        heap[size] = deg[v] * n + v
        size += 1
        i = size - 1
        while i > 0:
            p = (i - 1) >> 1
            if heap[p] <= heap[i]:
                break
            heap[p], heap[i] = heap[i], heap[p]
            i = p
    kappa = 0
    taken = 0
    while taken < n:
        key = heap[0]
        size -= 1
        heap[0] = heap[size]
        i = 0
        while True:
            l = 2 * i + 1
            if l >= size:
                break
            r = l + 1
            c = l
            if r < size and heap[r] < heap[l]:
                c = r
            if heap[i] <= heap[c]:
                break
            heap[i], heap[c] = heap[c], heap[i]
            i = c
        v = key % n
        d = key // n
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order[taken] = v
        taken += 1
        if d > kappa:
            kappa = d
        for j in range(indptr[v], indptr[v + 1]):
            u = nbrs[j]
            if not removed[u]:
                deg[u] -= 1
                heap[size] = deg[u] * n + u
                size += 1
                i = size - 1
                while i > 0:
                    p = (i - 1) >> 1
                    if heap[p] <= heap[i]:
                        break
                    heap[p], heap[i] = heap[i], heap[p]
                    i = p
    return order, kappa


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
    """Peel g (an UndirectedGraph or EdgeSet) to a DegeneracyOrder."""
    order, kappa = _peel_kernel(*_csr_of(g))
    return DegeneracyOrder(order, int(kappa))


def degeneracy_orient(edges, weight: int = 1) -> ArcLayer:
    """Orient each edge from its earlier-peeled endpoint to the later one.

    Accepts a bare EdgeSet because extension layers are oriented on their
    own edges only, independent of earlier layers. The result is acyclic
    with max outdegree <= the degeneracy of the input edge set.
    """
    if weight < 1:
        raise ValueError("layer weight must be >= 1")
    if isinstance(edges, EdgeSet):
        pairs = edges.pairs
        weight = edges.weight
    else:
        pairs = edges.edge_array
    if pairs.shape[0] == 0:
        return ArcLayer(np.empty((0, 2), dtype=np.int64), weight)
    pos = degeneracy_order(edges).positions()
    return orient_by_rank(pairs, pos, weight)


def orient_by_rank(pairs: np.ndarray, rank: np.ndarray,
                   weight: int = 1) -> ArcLayer:
    """Orient each edge towards its higher-ranked endpoint.

    ``rank`` holds one value per vertex and must differ across the two
    ends of every edge; any such ranking gives an acyclic layer. Arcs
    come out sorted by (src, dst).
    """
    forward = rank[pairs[:, 0]] < rank[pairs[:, 1]]
    src = np.where(forward, pairs[:, 0], pairs[:, 1])
    dst = np.where(forward, pairs[:, 1], pairs[:, 0])
    order = np.argsort(src * rank.shape[0] + dst, kind="stable")
    return ArcLayer(np.column_stack((src[order], dst[order])), weight)
