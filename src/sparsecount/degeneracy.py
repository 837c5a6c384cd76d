"""Degeneracy ordering and the acyclic degeneracy orientation.

The peel repeatedly removes the minimum-degree vertex (ties broken by
lowest id) and records the order; kappa is the largest residual degree
seen. Orienting every edge from the earlier-peeled endpoint to the later
one yields an acyclic orientation with max outdegree <= kappa.

The peel is a ``heapq`` heap of packed (degree, id) keys over Python
lists, run on the CSR index of an ``UndirectedGraph``; the isolated
vertices, which an extension layer has many of, skip the heap. Each
graph is peeled once: its order is cached on the graph, so every
product and spasm quotient over one host shares it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph_core import UndirectedGraph


def _peel_kernel(n, indptr, nbrs):
    """Exact (degree, id) min-peel via a heap of packed keys.

    The isolated vertices go first, in id order, outside the heap: they
    lead the (degree, id) order and their removal changes no degree.
    Keys are deg * n + v so the heap minimum is the lexicographic
    (degree, id) minimum. A degree drop pushes a new key and leaves the
    old one, which sorts after it and so pops only once v is removed:
    skipping removed vertices skips every stale key.
    """
    degs = np.diff(indptr)
    rest = np.flatnonzero(degs)
    order = np.flatnonzero(degs == 0).tolist()
    ptr = indptr.tolist()
    adj = nbrs.tolist()
    deg = degs.tolist()
    heap = (degs[rest] * n + rest).tolist()
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    removed = [False] * n
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


def degeneracy_order(g: UndirectedGraph) -> DegeneracyOrder:
    """Peel g to a DegeneracyOrder through its CSR index.

    The order is computed once and cached on g, with a read-only
    ``order`` array.
    """
    if g._degeneracy is None:
        order, kappa = _peel_kernel(g.n, *g.csr)
        order.flags.writeable = False
        g._degeneracy = DegeneracyOrder(order, kappa)
    return g._degeneracy


def degeneracy_orient(g: UndirectedGraph) -> np.ndarray:
    """Orient each edge of g from its earlier-peeled endpoint to the
    later one.

    Returns the (m, 2) arc array sorted by (src, dst), acyclic with max
    outdegree <= the degeneracy of g. An extension layer is oriented on
    its own edges by passing them as a graph of their own.
    """
    if g.m == 0:
        return np.empty((0, 2), dtype=np.int64)
    return orient_by_rank(g.edge_array, degeneracy_order(g).positions())


def orient_by_rank(pairs: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Orient each edge towards its higher-ranked endpoint.

    ``rank`` holds one value per vertex and must differ across the two
    ends of every edge; any such ranking gives an acyclic layer. Arcs
    come out sorted by (src, dst): the codes ``src * n + dst`` are
    distinct for a simple graph's edges, so numpy's default sort (a
    vectorized quicksort) sorts them and ``divmod`` decodes them.
    """
    forward = rank[pairs[:, 0]] < rank[pairs[:, 1]]
    src = np.where(forward, pairs[:, 0], pairs[:, 1])
    dst = np.where(forward, pairs[:, 1], pairs[:, 0])
    n = max(rank.shape[0], 1)
    return np.column_stack(np.divmod(np.sort(src * n + dst), n))
