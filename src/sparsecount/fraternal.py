"""Fraternal extension machinery.

One round of the extension procedure links the endpoints of every
out-out wedge whose weight sum hits the round number. Pattern-side we
branch over all orientations of each new layer (Frat(H, t)). Host-side
(MinFrat(F, t)) a product host F = H^L x G is never peeled: layer 1
follows G's degeneracy order, and every later layer follows G's own
fraternal extension, with a fixed tournament on pattern vertices for
the pairs G cannot orient (two fibers over one host vertex), so the max
outdegree follows G's and the pattern automorphisms that keep the
tournament are automorphisms of the host extension. Other hosts peel
each layer on its own edges. A weighted digraph is a valid t-fraternal
extension exactly when its weights form a t-fraternity function, which
``validate_fraternity`` checks clause by clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import degeneracy_order, degeneracy_orient, orient_by_rank
from .graph_core import DirWLGraph, UndirectedGraph
from .pattern_tools import acyclic_orientations, fiber_tournament
from .product import LabeledPattern, ProductHost

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


def _with_layer(ext: FraternalExtension, arcs: np.ndarray, weight: int,
                labels) -> FraternalExtension:
    g = ext.graph
    src = np.concatenate((g.src, arcs[:, 0]))
    dst = np.concatenate((g.dst, arcs[:, 1]))
    wgt = np.concatenate((g.wgt, np.full(arcs.shape[0], weight, dtype=np.int64)))
    graph = DirWLGraph.from_arrays(g.n, src, dst, wgt, labels)
    return FraternalExtension(graph, weight, ext.layers + (arcs,))


def enumerate_pattern_extensions(hl: LabeledPattern, t: int,
                                 cap: int = DEFAULT_FRAT_CAP
                                 ) -> list[FraternalExtension]:
    """Frat(H, t): every t-fraternal extension over every acyclic
    orientation of the labeled pattern.

    Round i >= 2 computes the extension edges of each member and branches
    over all 2^|E^i| orientations of the new layer; members are distinct
    as arc-weight sets, never deduplicated up to isomorphism. Aborts with
    ExtensionBlowupError if the member count would pass ``cap``.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    labels = np.asarray(hl.labels, dtype=np.int64)
    members = [FraternalExtension(g, 1, (np.column_stack((g.src, g.dst)),))
               for g in acyclic_orientations(hl)]
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
                nxt.append(_with_layer(ext, arcs, i, labels))
        members = nxt
    return members


def lifted_orientation(f: ProductHost) -> np.ndarray:
    """Layer 1 of a product host: arcs <u,v> -> <u',v'> with v peeled
    before v' in G.

    Every product edge joins two distinct host vertices, so the ranks
    never tie, and the layer is acyclic because its projection onto G is.
    Vertex <u, v> gets outdegree deg_H(u) * outdeg_G(v) <= deg_H(u) *
    kappa(G), and only G's n vertices and m edges are peeled.
    """
    pos = degeneracy_order(f.host).positions()
    return orient_by_rank(f.graph.edge_array, np.tile(pos, f.pattern_n))


def _first_layer(n: int, arcs: np.ndarray, labels) -> FraternalExtension:
    ones = np.ones(arcs.shape[0], dtype=np.int64)
    graph = DirWLGraph.from_arrays(n, arcs[:, 0], arcs[:, 1], ones, labels)
    return FraternalExtension(graph, 1, (arcs,))


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
        ext = _with_layer(ext, arcs, i, labels)
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


def _lift_pairs(f: ProductHost, pairs: np.ndarray, own: DirWLGraph,
                tau: np.ndarray, i: int) -> np.ndarray:
    """Orient round-i product pairs <u,v> - <u',v'> as G's own extension
    orients v - v', and vertical pairs (v = v') as tau orients u - u'."""
    n = f.base_n
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
    order = np.argsort(src * f.graph.n + dst, kind="stable")
    return np.column_stack((src[order], dst[order]))


def optimal_extension(f, t: int) -> FraternalExtension:
    """MinFrat(F, t): a t-fraternal extension with small outdegree.

    For a ProductHost F = H^L x G every layer is lifted, so only G is
    ever peeled. Layer 1 follows G's degeneracy order
    (``lifted_orientation``). Layer i >= 2 takes the round-i pairs of F
    and orients <u,v> - <u',v'> as G's own extension orients v - v'
    (an arc of weight <= i always exists there, since every product arc
    projects onto a G arc or onto one vertex), and a vertical pair
    (v = v') by the tournament of ``fiber_tournament(H, t)``. G's own
    extension is built once and cached on G, only when t >= 2. The
    layers of a lifted product need not be acyclic from layer 2 on: the
    counts only need each pair oriented once.

    A bare UndirectedGraph (trivial labels) or an object with ``graph``
    and ``labels`` is extended by peeling: each layer is oriented by the
    degeneracy peel of its own edges, so each layer is a DAG (the union
    may still be cyclic). That is how G's own extension is built, and it
    is the oracle the lift is tested against.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    if isinstance(f, UndirectedGraph):
        return _peeled_extension(f, None, t)
    if not isinstance(f, ProductHost):
        return _peeled_extension(f.graph, np.asarray(f.labels, dtype=np.int64),
                                 t)
    ext = _first_layer(f.graph.n, lifted_orientation(f), f.labels)
    if t >= 2:
        own = _own_extension(f.host, t).graph
        tau = np.zeros((f.pattern_n, f.pattern_n), dtype=bool)
        for a, b in fiber_tournament(f.pattern, t).arcs:
            tau[a, b] = True
        for i in range(2, t + 1):
            pairs = extension_edges(ext.graph, i)
            ext = _with_layer(ext, _lift_pairs(f, pairs, own, tau, i), i,
                              f.labels)
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
