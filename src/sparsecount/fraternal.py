"""Fraternal extension machinery.

One round of the extension procedure links the endpoints of every
out-out wedge whose weight sum hits the round number. Pattern-side we
branch over all orientations of each new layer (Frat(H, t)), on plain
Python arc tuples, and a count reads each member's plain-Python
adjacency; no count builds a member's numpy graph. Host-side
(MinFrat) G's own extension is peeled layer by layer: each layer is
oriented by the degeneracy peel of its own edges. Every count runs on
G's n vertices, on G's own extension to its depth (at depth 1 its
degeneracy DAG), whose arcs and loops ``fastdp.signature_index``
classes so that each stands in for the arcs of the labeled product
H^L x G's extension over it. So the max
outdegree is G's own. A weighted digraph is a valid t-fraternal
extension exactly when its weights form a t-fraternity function; the
tests check that clause by clause (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degeneracy import degeneracy_orient
from .graph_core import DirWLGraph, UndirectedGraph, succ_lists
from .pattern_tools import acyclic_orientations

DEFAULT_FRAT_CAP = 10 ** 6


class ExtensionBlowupError(RuntimeError):
    """|Frat(H, t)| would exceed the configured cap."""


@dataclass(frozen=True)
class FraternalExtension:
    """A weighted digraph whose weight-i arcs form extension layer i."""

    graph: DirWLGraph
    depth: int
    layers: tuple[np.ndarray, ...]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending, by a sort and a diff mask
    (``np.unique`` hashes, which is slower on int64 codes)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _wedge_pairs(g: DirWLGraph, t: int) -> np.ndarray:
    """Unordered endpoint pairs of out-out wedges with weight sum t,
    sorted."""
    n = g.n
    by_weight = {}
    for a in np.flatnonzero(np.bincount(g.wgt)).tolist():
        mask = g.wgt == a
        by_weight[a] = (g.src[mask], g.dst[mask])  # still sorted by src
    chunks = []
    for a in range(1, t // 2 + 1):
        b = t - a
        if a not in by_weight or b not in by_weight:
            continue
        src_a, dst_a = by_weight[a]
        src_b, dst_b = by_weight[b]
        cb = np.bincount(src_b, minlength=n + 1)
        bstart = np.concatenate(([0], np.cumsum(cb)))
        rep = cb[src_a]
        total = int(rep.sum())
        if total == 0:
            continue
        u = np.repeat(dst_a, rep)
        base = np.repeat(bstart[src_a], rep)
        excl = np.cumsum(rep) - rep
        within = np.arange(total) - np.repeat(excl, rep)
        w = dst_b[base + within]
        if a == b:
            keep = u < w
            u, w = u[keep], w[keep]
        # lo * n + hi sorts as (lo, hi) does, since both are below n
        chunks.append(np.minimum(u, w) * n + np.maximum(u, w))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    lo, hi = np.divmod(_sorted_unique(np.concatenate(chunks)), n)
    return np.column_stack((lo, hi))


def extension_edges(g: DirWLGraph, t: int) -> np.ndarray:
    """One Extension round: the (p, 2) array of pairs {u, w} closed at
    depth t.

    Holds each unordered pair once, lower id first, sorted and unique,
    where some center v carries arcs v->u and v->w with weight sum
    exactly t and the pair is not yet linked in either direction. The
    input should be a (t-1)-fraternal extension; that precondition is
    not re-verified here.
    """
    if t < 2:
        raise ValueError("extension rounds start at t = 2")
    pairs = _wedge_pairs(g, t)
    linked = ((g.arc_weights(pairs[:, 0], pairs[:, 1]) > 0)
              | (g.arc_weights(pairs[:, 1], pairs[:, 0]) > 0))
    return pairs[~linked]


def _with_layer(ext: FraternalExtension, arcs: np.ndarray,
                weight: int) -> FraternalExtension:
    g = ext.graph
    src = np.concatenate((g.src, arcs[:, 0]))
    dst = np.concatenate((g.dst, arcs[:, 1]))
    wgt = np.concatenate((g.wgt, np.full(arcs.shape[0], weight, dtype=np.int64)))
    graph = DirWLGraph.from_arrays(g.n, src, dst, wgt)
    return FraternalExtension(graph, weight, ext.layers + (arcs,))


class PatternExtension:
    """One member of Frat(H, t): its arcs as (src, dst, weight) triples
    sorted by (src, dst), in plain Python.

    A count reads the member itself: ``succ`` (built from the arcs on the
    first read) feeds the BFS trees, reaches (cached in ``_reach_cache``),
    the width-1 decomposition and the DP plans, all as Python ints.
    ``layers`` holds the arcs of weight 1..depth as (p, 2) arrays, sorted.
    """

    __slots__ = ("n", "depth", "arcs", "_succ", "_reach_cache")

    def __init__(self, n: int, depth: int, arcs: tuple):
        self.n, self.depth, self.arcs = n, depth, arcs
        self._succ = None
        self._reach_cache = {}

    @property
    def succ(self) -> list[list[tuple[int, int]]]:
        """``succ_lists`` of the arcs, built on the first read."""
        if self._succ is None:
            self._succ = succ_lists(self.n, self.arcs)
        return self._succ

    @property
    def layers(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array([(a, b) for a, b, w in self.arcs if w == i],
                              dtype=np.int64).reshape(-1, 2)
                     for i in range(1, self.depth + 1))


def _round_pairs(arcs: tuple, t: int) -> list[tuple[int, int]]:
    """``extension_edges`` on a member's sorted arc triples: the pairs
    (u, w), u < w, closed at depth t, sorted."""
    linked = {(a, b) if a < b else (b, a) for a, b, _ in arcs}
    out: dict[int, list[tuple[int, int]]] = {}
    for a, b, w in arcs:
        out.setdefault(a, []).append((b, w))
    pairs = set()
    for nbrs in out.values():  # each ascending by target
        for j, (u, wu) in enumerate(nbrs):
            for x, wx in nbrs[j + 1:]:
                if wu + wx == t and (u, x) not in linked:
                    pairs.add((u, x))
    return sorted(pairs)


def enumerate_pattern_extensions(h: UndirectedGraph, t: int,
                                 cap: int = DEFAULT_FRAT_CAP
                                 ) -> list[PatternExtension]:
    """Frat(H, t): every t-fraternal extension over every acyclic
    orientation of the pattern.

    Members are unlabeled plain-Python arc tuples: round i >= 2 closes
    each member's out-out wedges from its out-lists (``_round_pairs``)
    and branches over all 2^|E^i| orientations of the new layer. No
    ``DirWLGraph`` is built here. Members are distinct as arc-weight
    sets, never deduplicated up to isomorphism. Aborts with
    ExtensionBlowupError if the member count would pass ``cap``.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    arcsets = [tuple((a, b, 1) for a, b in arcs)
               for arcs in acyclic_orientations(h)]
    if len(arcsets) > cap:
        raise ExtensionBlowupError(f"|Frat(H,1)| = {len(arcsets)} exceeds cap {cap}")
    for i in range(2, t + 1):
        nxt: list[tuple] = []
        for arcs in arcsets:
            pairs = _round_pairs(arcs, i)
            p = len(pairs)
            if len(nxt) + (1 << p) > cap:
                raise ExtensionBlowupError(
                    f"|Frat(H,{i})| exceeds cap {cap}; "
                    f"raise the cap or lower the depth")
            for bits in range(1 << p):
                nxt.append(tuple(sorted(arcs + tuple(
                    (b, a, i) if bits >> j & 1 else (a, b, i)
                    for j, (a, b) in enumerate(pairs)))))
        arcsets = nxt
    return [PatternExtension(h.n, t, arcs) for arcs in arcsets]


def _first_layer(n: int, arcs: np.ndarray) -> FraternalExtension:
    """Layer 1 from its arcs in any order; the layer keeps them sorted
    by (src, dst), as the graph holds them."""
    ones = np.ones(arcs.shape[0], dtype=np.int64)
    graph = DirWLGraph.from_arrays(n, arcs[:, 0], arcs[:, 1], ones)
    return FraternalExtension(graph, 1, (np.column_stack((graph.src,
                                                          graph.dst)),))


def _peeled_extension(base: UndirectedGraph, t: int,
                      ext: FraternalExtension | None = None
                      ) -> FraternalExtension:
    """Rounds up to t of base's extension, each layer oriented by its own
    degeneracy peel; continues ``ext`` when given."""
    if ext is None:
        ext = _first_layer(base.n, degeneracy_orient(base))
    for i in range(ext.depth + 1, t + 1):
        layer = UndirectedGraph(base.n, extension_edges(ext.graph, i))
        arcs = degeneracy_orient(layer)
        ext = _with_layer(ext, arcs, i)
    return ext


def _read_only(ext: FraternalExtension) -> FraternalExtension:
    for arr in (ext.graph.src, ext.graph.dst, ext.graph.wgt, *ext.layers):
        arr.flags.writeable = False
    return ext


def optimal_extension(g: UndirectedGraph, t: int) -> FraternalExtension:
    """MinFrat(G, t): a t-fraternal extension of G with small outdegree,
    cached on G with every shallower one.

    Every layer is oriented by the degeneracy peel of its own edges, so
    each layer is a DAG (the union may still be cyclic) and every vertex
    has label 0. It is the extension that a depth-t count indexes over
    G's n vertices (``fastdp.signature_index``); at depth 1 that is G's
    degeneracy DAG. Each
    round is built once per graph: a deeper request continues the
    deepest cached extension, and every depth keeps its own object, so
    every count over G at one depth (each spasm quotient of a subgraph
    count) reads the same extension and the same host index cached on
    its graph, also after a deeper count. Arrays are read-only.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    exts = g._extension
    while len(exts) < t:
        exts += (_read_only(_peeled_extension(
            g, len(exts) + 1, exts[-1] if exts else None)),)
    g._extension = exts
    return exts[t - 1]
