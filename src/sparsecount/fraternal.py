"""Fraternal extension machinery.

One round of the extension procedure links the endpoints of every
out-out wedge whose weight sum hits the round number. Pattern-side we
branch over all orientations of each new layer (Frat(H, t)), on plain
Python arc tuples, and a count reads each member's plain-Python
adjacency; no count builds a member's numpy graph. Host-side
(MinFrat) G's own extension is peeled layer by layer: each layer is
oriented by the degeneracy peel of its own edges. At depth 1 the count
runs on G's own layer 1, its degeneracy DAG, and at depth 2 on G's own
extension to depth 2, both over G's n vertices (``fastdp.two_hop_index``
says how depth 2 stands in for the product). From depth 3 on it runs
on the extension of the labeled product H^L x G, which is lifted from
G's own and never peeled or built: layer 1 is G's layer 1 arc for arc,
and every later layer follows G's own extension, with a fixed
tournament on pattern vertices for the pairs G cannot orient (two
fibers over one host vertex). So the max outdegree follows G's, and the
pattern automorphisms that keep the tournament are automorphisms of the
host extension. The lifted extension at depth 2 is kept as the depth-2
host's test oracle. A weighted digraph is a valid t-fraternal extension
exactly when its weights form a t-fraternity function, which
``validate_fraternity`` checks clause by clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import degeneracy_orient
from .graph_core import DirWLGraph, UndirectedGraph, succ_lists
from .pattern_tools import acyclic_orientations, fiber_tournament

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
    sorted, cached on g per t.

    A wedge of sum t reads arcs of weight below t only, so a layer of
    weight i >= t added later leaves them as they are: ``_with_layer``
    hands the cached pairs on to the deeper graph, where
    ``fastdp.two_hop_index`` reads those of sum 2.
    """
    pairs = g._wedges.get(t)
    if pairs is None:
        pairs = g._wedges[t] = _find_wedge_pairs(g, t)
    return pairs


def _find_wedge_pairs(g: DirWLGraph, t: int) -> np.ndarray:
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
    graph = DirWLGraph.from_arrays(g.n, src, dst, wgt, g.labels)
    graph._wedges = {t: p for t, p in g._wedges.items() if t <= weight}
    return FraternalExtension(graph, weight, ext.layers + (arcs,))


class PatternExtension:
    """One member of Frat(H, t): its arcs as (src, dst, weight) triples
    sorted by (src, dst), in plain Python.

    A count reads the member itself: ``succ`` (built from the arcs on the
    first read) feeds the BFS trees, reaches (cached in ``_reach_cache``),
    the width-1 decomposition and the DP plans, all as Python ints.
    ``labels`` is the pattern vertex of each vertex, or None for label 0.
    The ``DirWLGraph`` is built only on a read of ``graph``, which no
    count makes; tests and ``validate_fraternity`` do. ``layers`` holds
    the arcs of weight 1..depth as (p, 2) arrays, sorted.
    """

    __slots__ = ("n", "depth", "arcs", "labels", "_graph", "_succ",
                 "_reach_cache")

    def __init__(self, n: int, depth: int, arcs: tuple, labels=None):
        self.n, self.depth, self.arcs, self.labels = n, depth, arcs, labels
        self._graph = None
        self._succ = None
        self._reach_cache = {}

    @property
    def graph(self) -> DirWLGraph:
        if self._graph is None:
            self._graph = DirWLGraph(self.n, self.arcs, self.labels)
        return self._graph

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


def enumerate_pattern_extensions(h, t: int, cap: int = DEFAULT_FRAT_CAP
                                 ) -> list[PatternExtension]:
    """Frat(H, t): every t-fraternal extension over every acyclic
    orientation of the pattern.

    ``h`` is a bare UndirectedGraph, whose members carry label 0 (a
    depth-1 count runs them on G's own DAG), or a LabeledPattern, whose
    members carry their pattern vertex as label (counted on the lifted
    product extension). Members are plain-Python arc tuples: round
    i >= 2 closes each member's out-out wedges from its out-lists
    (``_round_pairs``) and branches over all 2^|E^i| orientations of the
    new layer. No ``DirWLGraph`` is built here; a member builds its own
    when its ``graph`` is first read. Members are distinct as arc-weight
    sets, never deduplicated up to isomorphism. Aborts with
    ExtensionBlowupError if the member count would pass ``cap``.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    graph = getattr(h, "graph", h)
    labels = getattr(h, "labels", None)
    arcsets = [tuple((a, b, 1) for a, b in arcs)
               for arcs in acyclic_orientations(graph)]
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
    return [PatternExtension(graph.n, t, arcs, labels) for arcs in arcsets]


def _first_layer(n: int, arcs: np.ndarray, labels) -> FraternalExtension:
    """Layer 1 from its arcs in any order; the layer keeps them sorted
    by (src, dst), as the graph holds them."""
    ones = np.ones(arcs.shape[0], dtype=np.int64)
    graph = DirWLGraph.from_arrays(n, arcs[:, 0], arcs[:, 1], ones, labels)
    return FraternalExtension(graph, 1, (np.column_stack((graph.src,
                                                          graph.dst)),))


def _peeled_extension(base: UndirectedGraph, labels, t: int,
                      ext: FraternalExtension | None = None
                      ) -> FraternalExtension:
    """Rounds up to t of base's extension, each layer oriented by its own
    degeneracy peel; continues ``ext`` when given."""
    if ext is None:
        ext = _first_layer(base.n, degeneracy_orient(base), labels)
    for i in range(ext.depth + 1, t + 1):
        layer = UndirectedGraph(base.n, extension_edges(ext.graph, i))
        arcs = degeneracy_orient(layer)
        ext = _with_layer(ext, arcs, i)
    return ext


def _read_only(ext: FraternalExtension) -> FraternalExtension:
    for arr in (ext.graph.src, ext.graph.dst, ext.graph.wgt, *ext.layers):
        arr.flags.writeable = False
    return ext


def _own_extension(g: UndirectedGraph, t: int) -> FraternalExtension:
    """G's own extension to depth t, cached on G with every shallower one.

    Each round is built once per graph: a deeper request continues the
    deepest cached extension, and every depth keeps its own object, so
    every count at depth t over G (each spasm quotient of a subgraph
    count) reads the same extension and the same DP host index cached on
    its graph. Depth 1 is G's degeneracy DAG. Arrays are read-only.
    """
    exts = g._extension
    while len(exts) < t:
        exts += (_read_only(_peeled_extension(
            g, None, len(exts) + 1, exts[-1] if exts else None)),)
    g._extension = exts
    return exts[t - 1]


class ExtensionLiftError(RuntimeError):
    """A product pair has no orientation to lift: G's own extension has no
    arc of weight <= its round between its host vertices, or its two
    fibers have no tournament arc. Either means a broken invariant."""


def _lift_arcs(h: UndirectedGraph, arcs: np.ndarray, n: int) -> np.ndarray:
    """Layer 1 of the product: <u,x> -> <u',y> for every edge uu' of H,
    taken both ways, and every arc x -> y of G's layer 1."""
    he = h.edge_array
    fro = np.concatenate((he[:, 0], he[:, 1]))[:, None] * n
    to = np.concatenate((he[:, 1], he[:, 0]))[:, None] * n
    return np.column_stack(((fro + arcs[:, 0]).ravel(),
                            (to + arcs[:, 1]).ravel()))


def _lift_pairs(n: int, k: int, pairs: np.ndarray, own: DirWLGraph,
                tau: np.ndarray, i: int) -> np.ndarray:
    """Orient round-i product pairs <u,v> - <u',v'> (over k fibers of n
    vertices) as G's own extension orients v - v', and vertical pairs
    (v = v') as tau orients u - u'."""
    fiber, v = np.divmod(pairs, n)

    def has_arc(a, b):
        w = own.arc_weights(a, b)
        return (w > 0) & (w <= i)

    vertical = v[:, 0] == v[:, 1]
    forward = (has_arc(v[:, 0], v[:, 1])
               | vertical & tau[fiber[:, 0], fiber[:, 1]])
    backward = (has_arc(v[:, 1], v[:, 0])
                | vertical & tau[fiber[:, 1], fiber[:, 0]])
    if not (forward | backward).all():
        x, y = pairs[np.argmin(forward | backward)]
        raise ExtensionLiftError(
            f"round {i}: no arc to lift onto product pair <{x // n},{x % n}>"
            f" - <{y // n},{y % n}>")
    src = np.where(forward, pairs[:, 0], pairs[:, 1])
    dst = np.where(forward, pairs[:, 1], pairs[:, 0])
    order = np.argsort(src * (k * n) + dst, kind="stable")
    return np.column_stack((src[order], dst[order]))


def optimal_extension(g: UndirectedGraph, t: int,
                      pattern: UndirectedGraph | None = None,
                      colors: tuple | None = None) -> FraternalExtension:
    """MinFrat(G, t), or MinFrat(H^L x G, t) lifted from it: a
    t-fraternal extension with small outdegree.

    Without ``pattern`` every layer of G is oriented by the degeneracy
    peel of its own edges, so each layer is a DAG (the union may still
    be cyclic) and every vertex has label 0. At depth 1 that is G's
    degeneracy DAG, the host of a depth-1 count, and at depth 2 the
    extension that a depth-2 count indexes (``fastdp.two_hop_index``).
    Every depth is built once per graph and cached on G, like G's peel
    order, so every depth-1 or depth-2 count over G (each spasm quotient
    of a subgraph count) reads the same extension and the same host
    index, also after a deeper count.

    With ``pattern`` H (k vertices) it is the extension of the labeled
    product H^L x G on k * n vertices, <u,v> = u * n + v labeled u, the
    host of a count from depth 3 on and the oracle of the depth-2 host,
    lifted from G's own extension (built once and cached on G) and never
    built or peeled itself. Layer 1 is G's layer 1 arc for arc: <u,x> ->
    <u',y> for every edge uu' of H, both ways, and every arc x -> y.
    Layer i >= 2 takes the round-i pairs of the product and orients
    <u,v> - <u',v'> as G's own extension orients v - v' (an arc of
    weight <= i always exists there, since every product arc projects
    onto a G arc or onto one vertex), and a vertical pair (v = v') by
    the tournament of ``fiber_tournament(H, t, colors)``, the one the
    count groups Frat(H, t) by. The lifted layers need
    not be acyclic from layer 2 on: the counts only need each pair
    oriented once. The tests check the lift against the peel of the
    materialized product (``product.pattern_product``).
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    if pattern is None:
        return _own_extension(g, t)
    k, n = pattern.n, g.n
    own = _own_extension(g, t)
    ext = _first_layer(k * n, _lift_arcs(pattern, own.layers[0], n),
                       np.repeat(np.arange(k, dtype=np.int64), n))
    tau = np.zeros((k, k), dtype=bool)
    for a, b in fiber_tournament(pattern, t, colors).arcs:
        tau[a, b] = True
    for i in range(2, t + 1):
        pairs = extension_edges(ext.graph, i)
        ext = _with_layer(ext, _lift_pairs(n, k, pairs, own.graph, tau, i), i)
    return ext


def validate_fraternity(ext, t: int | None = None, size_cap: int = 4096) -> bool:
    """Check the three t-fraternity clauses on a weighted digraph.

    For every vertex pair, with absent arcs read as infinity: the pair's
    minimum weight is 1, or it equals the minimum wedge sum
    min_z w(z,x) + w(z,y), or both exceed t. Only pairs that carry an arc
    or a wedge can violate a clause, so the scan is over arcs and
    out-pairs instead of all n^2 pairs. Intended for tests and debugging;
    the cost is quadratic in the outdegrees.
    """
    extension = not isinstance(ext, DirWLGraph)
    g = ext.graph if extension else ext
    if t is None:
        if extension:
            t = ext.depth
        else:
            t = int(g.wgt.max()) if g.arc_count else 1
    if g.n > size_cap:
        raise ValueError(f"validate_fraternity capped at {size_cap} vertices")
    pairw: dict[tuple[int, int], int] = {}
    for u, v, w in zip(g.src, g.dst, g.wgt):
        pairw[(min(int(u), int(v)), max(int(u), int(v)))] = int(w)
    wedge: dict[tuple[int, int], float] = {}
    for v in range(g.n):
        dst, wt = g.out_arcs(v)
        for i in range(dst.shape[0]):
            for j in range(i + 1, dst.shape[0]):
                key = (int(dst[i]), int(dst[j]))
                s = int(wt[i]) + int(wt[j])
                if s < wedge.get(key, math.inf):
                    wedge[key] = s
    for key in pairw.keys() | wedge.keys():
        mw = pairw.get(key, math.inf)
        zm = wedge.get(key, math.inf)
        if mw == 1 or mw == zm or (mw > t and zm > t):
            continue
        return False
    return True
