"""Fraternal extension machinery.

One round of the extension procedure links the endpoints of every
out-out wedge whose weight sum hits the round number. Pattern-side we
branch over all orientations of each new layer (Frat(H, t)). Host-side
(MinFrat) G's own extension is peeled layer by layer: each layer is
oriented by the degeneracy peel of its own edges. At depth 1 the count
runs on G's own layer 1, its degeneracy DAG. From depth 2 on it runs on
the extension of the labeled product H^L x G, which is lifted from G's
own and never peeled or built: layer 1 is G's layer 1 arc for arc, and
every later layer follows G's own extension, with a fixed tournament on
pattern vertices for the pairs G cannot orient (two fibers over one
host vertex). So the max outdegree follows G's, and the pattern
automorphisms that keep the tournament are automorphisms of the host
extension. A weighted digraph is a valid t-fraternal extension exactly
when its weights form a t-fraternity function, which
``validate_fraternity`` checks clause by clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import degeneracy_orient
from .graph_core import DirWLGraph, UndirectedGraph
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


def _wedge_pairs(g: DirWLGraph, t: int) -> np.ndarray:
    """Unordered endpoint pairs of out-out wedges with weight sum t."""
    n = g.n
    by_weight = {}
    for a in np.unique(g.wgt).tolist():
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
    lo, hi = np.divmod(np.unique(np.concatenate(chunks)), n)
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
    return FraternalExtension(graph, weight, ext.layers + (arcs,))


def enumerate_pattern_extensions(h, t: int, cap: int = DEFAULT_FRAT_CAP
                                 ) -> list[FraternalExtension]:
    """Frat(H, t): every t-fraternal extension over every acyclic
    orientation of the pattern.

    ``h`` is a bare UndirectedGraph, whose members carry label 0 (a
    depth-1 count runs them on G's own DAG), or a LabeledPattern, whose
    members carry their pattern vertex as label (counted on the lifted
    product extension). Round i >= 2 computes the extension edges of
    each member and branches over all 2^|E^i| orientations of the new
    layer; members are distinct as arc-weight sets, never deduplicated
    up to isomorphism. Aborts with ExtensionBlowupError if the member
    count would pass ``cap``.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    members = [FraternalExtension(g, 1, (np.column_stack((g.src, g.dst)),))
               for g in acyclic_orientations(h)]
    if len(members) > cap:
        raise ExtensionBlowupError(f"|Frat(H,1)| = {len(members)} exceeds cap {cap}")
    for i in range(2, t + 1):
        nxt: list[FraternalExtension] = []
        for ext in members:
            pairs = extension_edges(ext.graph, i)
            p = pairs.shape[0]
            if len(nxt) + (1 << p) > cap:
                raise ExtensionBlowupError(
                    f"|Frat(H,{i})| exceeds cap {cap}; "
                    f"raise the cap or lower the depth")
            for bits in range(1 << p):
                arcs = pairs.copy()
                for j in range(p):
                    if bits >> j & 1:
                        arcs[j, 0], arcs[j, 1] = pairs[j, 1], pairs[j, 0]
                nxt.append(_with_layer(ext, arcs, i))
        members = nxt
    return members


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


def _own_extension(g: UndirectedGraph, t: int) -> FraternalExtension:
    """G's own extension to depth t or deeper, cached on G.

    Each round is built once per graph: a deeper request continues the
    cached extension. Its arrays are read-only.
    """
    ext = g._extension
    if ext is None or ext.depth < t:
        ext = _peeled_extension(g, None, t, ext)
        for arr in (ext.graph.src, ext.graph.dst, ext.graph.wgt, *ext.layers):
            arr.flags.writeable = False
        g._extension = ext
    return ext


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
                      pattern: UndirectedGraph | None = None
                      ) -> FraternalExtension:
    """MinFrat(G, t), or MinFrat(H^L x G, t) lifted from it: a
    t-fraternal extension with small outdegree.

    Without ``pattern`` every layer of G is oriented by the degeneracy
    peel of its own edges, so each layer is a DAG (the union may still
    be cyclic) and every vertex has label 0. At depth 1 that is G's
    degeneracy DAG, the host of a depth-1 count.

    With ``pattern`` H (k vertices) it is the extension of the labeled
    product H^L x G on k * n vertices, <u,v> = u * n + v labeled u,
    lifted from G's own extension (built once and cached on G) and never
    built or peeled itself. Layer 1 is G's layer 1 arc for arc: <u,x> ->
    <u',y> for every edge uu' of H, both ways, and every arc x -> y.
    Layer i >= 2 takes the round-i pairs of the product and orients
    <u,v> - <u',v'> as G's own extension orients v - v' (an arc of
    weight <= i always exists there, since every product arc projects
    onto a G arc or onto one vertex), and a vertical pair (v = v') by
    the tournament of ``fiber_tournament(H, t)``. The lifted layers need
    not be acyclic from layer 2 on: the counts only need each pair
    oriented once. The tests check the lift against the peel of the
    materialized product (``product.pattern_product``).
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    if pattern is None:
        return _peeled_extension(g, None, t)
    k, n = pattern.n, g.n
    own = _own_extension(g, t)
    ext = _first_layer(k * n, _lift_arcs(pattern, own.layers[0], n),
                       np.repeat(np.arange(k, dtype=np.int64), n))
    tau = np.zeros((k, k), dtype=bool)
    for a, b in fiber_tournament(pattern, t).arcs:
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
    g = ext.graph if isinstance(ext, FraternalExtension) else ext
    if t is None:
        if isinstance(ext, FraternalExtension):
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
