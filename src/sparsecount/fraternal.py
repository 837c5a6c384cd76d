"""Fraternal extension machinery.

One round of the extension procedure links the endpoints of every
out-out wedge whose weight sum hits the round number. Pattern-side we
branch over all orientations of each new layer (Frat(H, t)), on plain
Python arc tuples; a count generates one member per Aut_tau orbit
round by round (``frat_orbits``) and reads its plain-Python adjacency,
and no count builds a member's numpy graph. Host-side
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
from typing import NamedTuple

import numpy as np

from .degeneracy import degeneracy_orient
from .graph_core import (DirWLGraph, UndirectedGraph, _sorted_unique,
                         succ_lists)
from .pattern_tools import acyclic_orientations, fiber_tournament, orbit_roots

# The largest |Frat(H, t)| that ``enumerate_pattern_extensions`` lists
# and ``frat_orbits`` groups: past it both raise ExtensionBlowupError at
# the same values, with the same message, and never cut the family short.
DEFAULT_FRAT_CAP = 10 ** 6


class ExtensionBlowupError(RuntimeError):
    """|Frat(H, t)| would exceed the configured cap."""


@dataclass(frozen=True)
class FraternalExtension:
    """A weighted digraph whose weight-i arcs form extension layer i."""

    graph: DirWLGraph
    depth: int
    layers: tuple[np.ndarray, ...]


def _same_source_pairs(src_a: np.ndarray, src_b: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with src_a[i] == src_b[j], by i then j,
    for sources below n and ``src_b`` ascending: each i repeats once per
    entry of its source in ``src_b``, and the running sum of those
    counts numbers the copies."""
    counts = np.bincount(src_b, minlength=n)
    rep = counts[src_a]
    i = np.repeat(np.arange(src_a.size), rep)
    first = (np.cumsum(counts) - counts)[src_a] - (np.cumsum(rep) - rep)
    return i, np.arange(i.size) + np.repeat(first, rep)


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
        i, j = _same_source_pairs(src_a, src_b, n)
        u, w = dst_a[i], dst_b[j]
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


def _child(arcs: tuple, pairs: list, bits: int, i: int) -> tuple:
    """The member that orients round i's ``pairs`` over ``arcs``, pair j
    reversed where bit j of ``bits`` is set, its arcs sorted."""
    return tuple(sorted(arcs + tuple(
        (b, a, i) if bits >> j & 1 else (a, b, i)
        for j, (a, b) in enumerate(pairs))))


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
            nxt += [_child(arcs, pairs, bits, i) for bits in range(1 << p)]
        arcsets = nxt
    return [PatternExtension(h.n, t, arcs) for arcs in arcsets]


class FratOrbits(NamedTuple):
    """Frat(H, t) as one member per Aut_tau orbit (``frat_orbits``)."""

    reps: list[PatternExtension]  # each orbit's first member
    sizes: list[int]              # each orbit's member count
    n_members: int                # |Frat(H, t)|


def _flips(pairs: list, s) -> tuple[int, list[int]]:
    """How the vertex map s acts on orientations of ``pairs`` (u < x,
    sorted), which it must keep as a set. Bit j of an orientation's mask
    reverses pair j; its image under s is ``base`` XOR ``moved[j]`` for
    every set bit j."""
    index = {pair: j for j, pair in enumerate(pairs)}
    base, moved = 0, []
    for u, x in pairs:
        a, b = s[u], s[x]
        bit = 1 << index[(a, b) if a < b else (b, a)]
        moved.append(bit)
        if a > b:
            base |= bit
    return base, moved


def _image(action: tuple[int, list[int]], mask: int) -> int:
    base, moved = action
    for j, bit in enumerate(moved):
        if mask >> j & 1:
            base ^= bit
    return base


def _group_elements(gens, n: int) -> list[tuple]:
    """Every element of the permutation group that ``gens`` generate."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        g = todo.pop()
        for s in gens:
            x = tuple(s[v] for v in g)
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return list(seen)


def _first_of_orbits(masks, stab: list, pairs: list) -> list[tuple]:
    """(position, orbit size, fixing elements) of the first of each
    orbit of ``stab`` on ``masks``, orientations of ``pairs`` that
    ``stab`` permutes among themselves, in order."""
    if len(stab) == 1:
        return [(j, 1, stab) for j in range(len(masks))]
    actions = [_flips(pairs, s) for s in stab]
    seen = set()
    out = []
    for j, mask in enumerate(masks):
        if mask in seen:
            continue
        images = [_image(a, mask) for a in actions]
        seen.update(images)
        fix = [s for s, x in zip(stab, images) if x == mask]
        out.append((j, len(stab) // len(fix), fix))
    return out


def frat_orbits(h: UndirectedGraph, t: int, colors: tuple | None = None,
                cap: int = DEFAULT_FRAT_CAP) -> FratOrbits:
    """Frat(H, t) grouped into Aut_tau orbits, without listing the
    members of rounds 2..t.

    A class is an Aut_tau(h) orbit (``fiber_tournament(h, t, colors)``):
    relabeling a member by such an automorphism s leaves its count
    unchanged. With ``colors``, h is a 2-core whose vertices carry the
    weights of their folded pendant trees, and s keeps every colour, so
    it keeps the weights too. A member arc (a, b, w) reads the host
    classes {s : 1 <= F_t[s][a, b] <= w} (``fastdp.SignatureHost``), and
    F_t is built from h's edges and tau alone, both of which s keeps: so
    F_t[s][s(a), s(b)] = F_t[s][a, b], and a relabeled member reads the
    same classes. At depth 1 there are no vertical pairs, so the group
    is all of Aut(h) that keeps the colours.

    Layer 1 (``enumerate_pattern_extensions(h, 1, cap)``) is the only
    round listed; each member is a mask over h's edges, bit j reversing
    edge j. At depth 1 it is grouped by a union-find over the
    generators, since all of Aut(h) may be far larger than its orbits.
    From depth 2 on, the elements of Aut_tau are listed, and layer 1 is
    walked in order: the first member of each orbit is its
    representative, with the orbit's size and its stabilizer. Round i
    then orients the new pairs of each round-(i-1) representative R of
    class size k: every member of the round is a child of a member of
    an earlier class, and the children of R's class that an orbit holds
    are one orbit of R's children under Stab(R) (the elements of Aut_tau
    that keep R), so the smallest mask of each Stab(R)-orbit of R's 2^p
    children is a representative, of class size k times the orbit's.
    Stab(child) is the part of Stab(R) that fixes the child's mask. The
    representatives, sizes and order are those of grouping the whole
    enumeration and listing each class by its first member
    (``tests/oracles.py``). The cap is checked on each round's |Frat| =
    sum of k * 2^p before its children are built, with
    ``enumerate_pattern_extensions``'s refusal.
    """
    if t < 1:
        raise ValueError("extension depth must be >= 1")
    members = enumerate_pattern_extensions(h, 1, cap)
    tournament = fiber_tournament(h, t, colors)
    edges = h.edge_list()
    index = {e: j for j, e in enumerate(edges)}
    masks = [sum(1 << index[b, a] for a, b, _ in m.arcs if a > b)
             for m in members]
    if t == 1:
        roots = orbit_roots(masks, [_flips(edges, s)
                                    for s in tournament.generators], _image)
        sizes: dict[int, int] = {}
        for r in roots:
            sizes[r] = sizes.get(r, 0) + 1
        return FratOrbits([members[r] for r in sizes], list(sizes.values()),
                          len(members))
    group = _group_elements(tournament.generators, h.n)
    assert len(group) == tournament.size
    level = [(members[j].arcs, k, fix)  # (arcs, class size, stabilizer)
             for j, k, fix in _first_of_orbits(masks, group, edges)]
    for i in range(2, t + 1):
        pairs_of = [_round_pairs(arcs, i) for arcs, _, _ in level]
        n_members = sum(k << len(pairs)
                        for (_, k, _), pairs in zip(level, pairs_of))
        if n_members > cap:
            raise ExtensionBlowupError(
                f"|Frat(H,{i})| exceeds cap {cap}; "
                f"raise the cap or lower the depth")
        level = [(_child(arcs, pairs, bits, i), k * m, fix)
                 for (arcs, k, stab), pairs in zip(level, pairs_of)
                 for bits, m, fix in _first_of_orbits(range(1 << len(pairs)),
                                                      stab, pairs)]
    return FratOrbits([PatternExtension(h.n, t, arcs) for arcs, _, _ in level],
                      [k for _, k, _ in level], n_members)


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
