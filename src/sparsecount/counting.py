"""The end-to-end pipeline.

``count_homomorphisms`` runs the whole pipeline (pendant trees folded
into vertex weights, host extension, pattern extension family of the
2-core, per-extension DP on the one engine, ``fastdp``) and
``count_subgraphs`` reduces subgraph counts to it through the spasm.
``count_family`` runs one DP per Aut_tau orbit of Frat(core, t) and
weights it by the orbit size; ``fraternal.frat_orbits`` generates one
representative per orbit, listing no member past layer 1, and says why
orbits count alike. Every DP runs on G's n vertices with unlabeled
members, on the signature host of G's own extension
(``fastdp.signature_index``), which stands in for the extension of the
labeled product H^L x G without building either. ``brute_force_hom``
and ``brute_force_sub`` enumerate every map, for ``verify``,
``--exact-fallback`` and the benchmark's check on tiny instances. All
counts are exact Python integers end to end.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from . import fastdp
from .fraternal import (FraternalExtension, PatternExtension, frat_orbits,
                        optimal_extension)
from .graph_core import UndirectedGraph, max_outdegree
from .hub_decomp import find_width1_decomposition
from .pattern_tools import (_bfs, automorphism_count, connected_components,
                            fiber_tournament, licl, min_extension_depth,
                            pendant_forest, spasm)

BRUTE_FORCE_HOM_CAP = 32  # host vertices brute_force_hom accepts by default


class NoWidth1Decomposition(Exception):
    """A pattern extension admits no width-1 hub-tree decomposition.

    Raised when the pattern/depth combination violates the LICL < 3(t+1)
    hypothesis; callers may retry with a larger depth or fall back to
    brute force.
    """

    def __init__(self, extension: PatternExtension, quotient=None):
        self.extension = extension
        self.quotient = quotient
        msg = "no width-1 hub-tree decomposition for a pattern extension"
        if quotient is not None:
            msg += f" of spasm quotient on {quotient.n} vertices"
        super().__init__(msg)


def count_hom_extension(pattern_ext: PatternExtension,
                        host: fastdp.SignatureHost) -> int:
    """Weighted Hom(host, pattern_ext) via the width-1 DP.

    Runs ``fastdp.extension_count`` on a width-1 hub-tree decomposition
    of the pattern extension, read from its arc tuple, so no pattern
    graph is built. ``host`` is the ``fastdp.SignatureHost`` of a count,
    with or without the vertex weights of folded pendant trees. Raises
    NoWidth1Decomposition when no such decomposition exists.
    """
    tree = find_width1_decomposition(pattern_ext)
    if tree is None:
        raise NoWidth1Decomposition(pattern_ext)
    return fastdp.extension_count(pattern_ext, tree, host)


def _component_patterns(h: UndirectedGraph) -> list[UndirectedGraph]:
    """The connected components of h, each densely re-indexed."""
    if h.n == 0:
        raise ValueError("pattern must have at least one vertex")
    parts = []
    for comp in connected_components(h):
        remap = {v: i for i, v in enumerate(sorted(comp))}
        parts.append(UndirectedGraph(len(remap), [
            (remap[u], remap[v]) for u, v in h.edge_list() if u in remap]))
    return parts


class Fold(NamedTuple):
    """A connected pattern with its pendant trees folded into weights."""

    core: UndirectedGraph | None  # the 2-core; None for a tree
    colors: tuple                 # per core vertex: its pendant forest's class
    weights: tuple                # per core vertex (a tree: its root): its
    #                               ``fastdp.pendant_weights`` vector or None


def fold_pendant_trees(g: UndirectedGraph, hc: UndirectedGraph) -> Fold:
    """hc peeled to its 2-core (``pattern_tools.pendant_forest``), each
    pendant tree turned into a weight vector over G's n vertices.

    Hom(G, hc) is the sum over homomorphisms phi of the core of the
    product over core vertices v of weights[v][phi(v)]. When hc is a
    tree it is the sum of its root's weights, and no DP runs.
    """
    forest = pendant_forest(hc)
    return Fold(forest.core, forest.colors,
                fastdp.pendant_weights(g, forest))


class FamilyCount(NamedTuple):
    """What ``count_family`` counted and ran."""

    count: int
    n_extensions: int  # |Frat(core, depth)|
    n_classes: int     # DPs run


def count_family(fold: Fold, depth: int,
                 host_ext: FraternalExtension) -> FamilyCount:
    """Weighted sum of the extension DPs over Frat(core, depth) of a
    folded pattern's 2-core.

    Runs one DP per Aut_tau orbit of ``fraternal.frat_orbits`` (under
    the automorphisms that keep the core's colours), in the calling
    thread, and weights it by the orbit size; only layer 1 is listed
    member by member. Each orbit's representative, its first member in
    enumeration order, is counted from its arc tuple's plain-Python
    ``succ``; no pattern graph is built. Every DP runs on a
    ``fastdp.SignatureHost`` carrying the fold's weights, over G's n
    vertices, with unlabeled members. ``host_ext`` is G's own
    ``optimal_extension(g, depth)``, and the DPs run on its
    ``fastdp.signature_index``, with the tau of ``fiber_tournament(core,
    depth, colors)``: the product's rounds factor into a G-side
    signature and an H-side weight per signature, so every member counts
    there what its labeled twin counts on the k * n-vertex product
    extension. At depth 1 there are no rounds, and the host is G's
    degeneracy DAG.
    """
    core, colors, weights = fold
    orbits = frat_orbits(core, depth, colors)
    sig = fastdp.signature_index(host_ext)
    tau = fiber_tournament(core, depth, colors).arcs
    host = fastdp.SignatureHost(
        sig.index, fastdp.class_weights(sig, core, tau), weights)
    total = sum(count_hom_extension(rep, host) * size
                for rep, size in zip(orbits.reps, orbits.sizes))
    return FamilyCount(total, orbits.n_members, len(orbits.reps))


class ComponentCount(NamedTuple):
    """One connected pattern's count and what its run measured.

    Every count runs on G's n vertices, so ``delta_plus`` is the max
    outdegree of G's own extension at the component's depth, the paper's
    class parameter, at every depth. A tree is counted by message
    passing alone: it reads 0 extensions, 0 classes and Delta+ 0, since
    it enumerates no Frat member and builds no host extension, and its
    message passing is timed as ``dp_ms``.
    """

    count: int
    n_extensions: int      # |Frat(core, depth)| of the 2-core
    n_classes: int         # DPs run, one per class
    delta_plus: int        # max out-degree of G's own extension at the
    #                        depth, without the signature index's loops
    host_extension_ms: float
    dp_ms: float


def _component_depth(core: UndirectedGraph, t: int | None) -> int:
    """The depth a count uses for a connected pattern's 2-core, which has
    the pattern's longest induced cycle."""
    return t if t is not None else min_extension_depth(licl(core))


def _count_component(g: UndirectedGraph, hc: UndirectedGraph,
                     t: int | None) -> ComponentCount:
    t0 = time.perf_counter()
    fold = fold_pendant_trees(g, hc)
    if fold.core is None:
        count = fastdp.weighted_total(fold.weights[0], g.n)
        return ComponentCount(count, 0, 0, 0, 0.0,
                              (time.perf_counter() - t0) * 1e3)
    depth = _component_depth(fold.core, t)
    t1 = time.perf_counter()
    host_ext = optimal_extension(g, depth)
    t2 = time.perf_counter()
    family = count_family(fold, depth, host_ext)
    t3 = time.perf_counter()
    return ComponentCount(family.count, family.n_extensions,
                          family.n_classes, max_outdegree(host_ext.graph),
                          (t2 - t1) * 1e3, (t1 - t0 + t3 - t2) * 1e3)


def count_homomorphisms(g: UndirectedGraph, h: UndirectedGraph,
                        t: int | None = None,
                        threads: int | None = None) -> int:
    """Hom(g, h) through the full near-linear pipeline.

    Each connected component is first peeled to its 2-core: every
    pendant tree becomes a weight vector over G's vertices, by message
    passing over G's CSR, and a tree component is counted by message
    passing alone (no DP: a 16-vertex tree takes milliseconds). For the
    core it builds the host extension and the pattern extension family
    at depth t (defaulting to the minimal depth for the pattern's
    longest induced cycle, which its pendant trees never raise), then
    sums the weighted per-extension DP counts. Every host is on G's n
    vertices and every member is unlabeled. The host is G's own
    extension to depth t, whose arcs and loops are classed by signature
    so that each class stands in for the labeled product h^L x G's arcs
    over it (``fastdp.signature_index``); the product is never built. At
    depth 1 that is G's own degeneracy DAG, and the members are the
    acyclic orientations of h. The DP runs once per Aut_tau orbit of the
    core's extensions, since relabeled members count alike, where Aut_tau
    keeps the tournament and every core vertex's pendant forest: at
    depth 1 Aut_tau is all of Aut(h) for an h with no pendant tree (3 DPs
    for the 30 orientations of C5, and 15 for C5 with a tail); at depth 2
    the clockwise tournament keeps the rotations of a cycle (36 DPs for
    the 196 extensions of C6, 149 for the 1152 of C8). Disconnected
    patterns multiply their per-component counts. Every DP runs in the
    calling thread on the one vectorized engine, which widens its values
    to exact Python ints wherever they could pass int64; ``threads`` is
    accepted and ignored.
    Raises NoWidth1Decomposition when some pattern extension has no
    width-1 decomposition, which happens when LICL(h) >= 3(t+1).
    """
    total = 1
    for hc in _component_patterns(h):
        total *= _count_component(g, hc, t).count
    return total


def count_subgraphs(g: UndirectedGraph, h: UndirectedGraph,
                    threads: int | None = None) -> int:
    """Sub(g, h) as the exact rational spasm combination of Hom counts.

    Every quotient runs at its own minimal extension depth; the rational
    accumulation must collapse to an integer, which is asserted.
    ``threads`` is accepted and ignored, as in ``count_homomorphisms``.
    """
    acc = Fraction(0)
    for entry in spasm(h):
        try:
            hom = count_homomorphisms(g, entry.quotient)
        except NoWidth1Decomposition as exc:
            raise NoWidth1Decomposition(exc.extension,
                                        quotient=entry.quotient) from exc
        acc += entry.coefficient * hom
    if acc.denominator != 1:
        raise ArithmeticError(f"spasm accumulation is not integral: {acc}")
    return int(acc)


def _count_maps(g: UndirectedGraph, h: UndirectedGraph, cap: int,
                injective: bool) -> int:
    """Every edge-preserving map V(h) -> V(g), or every injective one,
    counted by backtracking in a breadth-first order of h from its
    highest-degree vertices; each vertex goes to the common neighbours
    of its placed neighbours' images."""
    if g.n > cap:
        raise ValueError(f"host has {g.n} > {cap} vertices")
    hadj = h.adjacency_sets()
    gadj = g.adjacency_sets()
    starts = sorted(range(h.n), key=lambda v: (-len(hadj[v]), v))
    order = [v for part in _bfs(hadj, starts) for v in part]
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in hadj[v] if pos[u] < pos[v]) for v in order]
    all_hosts = frozenset(range(g.n))
    img = [-1] * h.n
    used: set[int] = set()

    def rec(i: int) -> int:
        back = earlier[i]
        cand = gadj[img[back[0]]] if back else all_hosts
        for u in back[1:]:
            cand = cand & gadj[img[u]]
        if injective:
            cand = cand - used
        if i + 1 == h.n:  # every candidate of the last vertex is a map
            return len(cand)
        total = 0
        for c in cand:
            img[order[i]] = c
            used.add(c)
            total += rec(i + 1)
            used.discard(c)
        return total

    return rec(0) if h.n else 1


def brute_force_hom(g: UndirectedGraph, h: UndirectedGraph,
                    cap: int = BRUTE_FORCE_HOM_CAP) -> int:
    """Exhaustive count of edge-preserving maps V(h) -> V(g)."""
    return _count_maps(g, h, cap, injective=False)


def brute_force_sub(g: UndirectedGraph, h: UndirectedGraph,
                    cap: int = 20) -> int:
    """Non-induced copies of h in g: injective maps / |Aut(h)|."""
    injective = _count_maps(g, h, cap, injective=True)
    aut = automorphism_count(h)
    assert injective % aut == 0
    return injective // aut
