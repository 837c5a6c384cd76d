"""The end-to-end pipeline and its oracles.

``count_homomorphisms`` runs the whole pipeline (host extension,
pattern extension family, per-extension DP on the one engine,
``fastdp``) and ``count_subgraphs`` reduces subgraph counts to
it through the spasm. ``count_family`` runs one DP per Aut_tau(H) orbit
of Frat(H, t) and weights it by the orbit size (``frat_classes`` says
why orbits count alike).
Oracles live here too, so every fast path has an exhaustive
counterpart: ``enumerate_root_homs`` lists the label/weight/arc-respecting
homomorphisms of a reachable sub-pattern, ``bressan_count`` is the
generalized width-1 tree DP over hub-tree decompositions as dictionaries,
and the ``brute_force_*`` functions enumerate every map. No production
path calls them. All counts are exact Python integers end to end.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from . import fastdp
from .fraternal import (FraternalExtension, enumerate_pattern_extensions,
                        optimal_extension)
from .graph_core import (DirWLGraph, UndirectedGraph, bfs_out_tree,
                         max_outdegree)
from .hub_decomp import (HubTree, down_reach, find_width1_decomposition,
                         reach)
from .pattern_tools import (automorphism_count, connected_components,
                            fiber_tournament, licl, min_extension_depth,
                            orbit_roots, spasm)
from .product import label_pattern

BRUTE_FORCE_HOM_CAP = 32  # host vertices brute_force_hom accepts by default


class NoWidth1Decomposition(Exception):
    """A pattern extension admits no width-1 hub-tree decomposition.

    Raised when the pattern/depth combination violates the LICL < 3(t+1)
    hypothesis; callers may retry with a larger depth or fall back to
    brute force.
    """

    def __init__(self, extension: FraternalExtension, quotient=None):
        self.extension = extension
        self.quotient = quotient
        msg = "no width-1 hub-tree decomposition for a pattern extension"
        if quotient is not None:
            msg += f" of spasm quotient on {quotient.n} vertices"
        super().__init__(msg)


class HomMap(tuple):
    """Partial pattern-to-host assignment in canonical encoding.

    A HomMap is the sorted tuple of (pattern_vertex, host_vertex) pairs,
    so it is hashable and serves directly as a dictionary key.
    """

    __slots__ = ()

    def __new__(cls, pairs=()):
        return super().__new__(cls, sorted(pairs))

    def restrict(self, vertices) -> "HomMap":
        vs = set(vertices)
        return HomMap(p for p in self if p[0] in vs)

    def assignment(self) -> dict[int, int]:
        return dict(self)


class CountDict(dict):
    """Counts keyed by canonical restriction; absent keys read as 0."""

    def __missing__(self, key):
        return 0


def enumerate_root_homs(pattern: DirWLGraph, s: int,
                        host: DirWLGraph) -> list[HomMap]:
    """All total homomorphisms of the reachable sub-pattern H(s) into host.

    The pattern is restricted to Reach(s) (which must be rooted at s, the
    precondition of the width-1 DP). Candidates extend along a BFS
    spanning out-tree from s; every non-tree arc is checked as soon as
    both endpoints are assigned, with label equality and pattern-weight
    >= host-weight on every mapped arc.
    """
    order, parent = bfs_out_tree(pattern, s)
    rset = frozenset(order)
    pos = {v: i for i, v in enumerate(order)}
    tree_wmax = {v: pattern.weight_of(parent[v], v) for v in order[1:]}
    checks: dict[int, list[tuple[int, int, int]]] = {v: [] for v in order}
    for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
        a, b, w = int(a), int(b), int(w)
        if a in rset and b in rset and parent.get(b) != a:
            late = a if pos[a] > pos[b] else b
            checks[late].append((a, b, w))
    fibers = host.fibers()
    labels = pattern.labels
    results: list[HomMap] = []
    assign: dict[int, int] = {}

    def rec(i: int):
        if i == len(order):
            results.append(HomMap(assign.items()))
            return
        v = order[i]
        lab = int(labels[v])
        if i == 0:
            candidates = fibers.get(lab, ())
        else:
            p_img = assign[parent[v]]
            dsts, wts = host.out_arcs(p_img)
            sel = (wts <= tree_wmax[v]) & (host.labels[dsts] == lab)
            candidates = dsts[sel]
        for c in candidates:
            c = int(c)
            ok = True
            for a, b, w in checks[v]:
                x = c if a == v else assign[a]
                y = c if b == v else assign[b]
                hw = host.weight_of(x, y)
                if hw is None or hw > w:
                    ok = False
                    break
            if ok:
                assign[v] = c
                rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return results


def bressan_count(pattern: DirWLGraph, tree: HubTree, bag: int,
                  host: DirWLGraph) -> CountDict:
    """Generalized tree DP: C_B[phi] = ext(H(down(B)), host, phi).

    Leaves assign 1 to every root homomorphism of H(B); an internal bag
    aggregates each child dictionary by restriction to
    Reach(B) & Reach(down(child)) and multiplies the aggregated values
    across children per root homomorphism.
    """
    hub = tree.bags[bag]
    homs = enumerate_root_homs(pattern, hub, host)
    result = CountDict()
    children = tree.children(bag)
    if not children:
        for phi in homs:
            result[phi] = 1
        return result
    reach_b = reach(pattern, hub)
    aggs = []
    for child in children:
        child_counts = bressan_count(pattern, tree, child, host)
        domain = reach_b & down_reach(pattern, tree, child)
        agg = CountDict()
        for phi, val in child_counts.items():
            agg[phi.restrict(domain)] += val
        aggs.append((domain, agg))
    for phi in homs:
        total = 1
        for domain, agg in aggs:
            total *= agg[phi.restrict(domain)]
            if total == 0:
                break
        if total:
            result[phi] = total
    return result


def count_hom_extension(pattern_ext: FraternalExtension,
                        host_ext: FraternalExtension) -> int:
    """Weighted/labeled Hom(host_ext, pattern_ext) via the width-1 DP.

    Runs ``fastdp.extension_count`` on a width-1 hub-tree decomposition
    of the pattern extension. Raises NoWidth1Decomposition when no such
    decomposition exists.
    """
    tree = find_width1_decomposition(pattern_ext.graph)
    if tree is None:
        raise NoWidth1Decomposition(pattern_ext)
    return fastdp.extension_count(pattern_ext.graph, tree, host_ext.graph)


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


def frat_classes(members: list[FraternalExtension], h: UndirectedGraph,
                 depth: int) -> list[list[int]]:
    """Member indices of Frat(h, depth) grouped into classes of equal count.

    A class is an Aut_tau(h) orbit (``fiber_tournament(h, depth)``):
    relabeling a member by such an automorphism s leaves its count
    unchanged. At depth 1 the members are unlabeled and the host is G's
    own DAG, so a relabeled member is an isomorphic pattern, and the
    group is all of Aut(h) (there are no vertical pairs). From depth 2
    on, every layer of the lifted product extension follows G (its arcs
    depend only on the host coordinate) except the vertical pairs, which
    tau orients and s keeps, so <u,v> -> <s(u),v> is an automorphism of
    the labeled host extension.
    Members are keyed by their (src, dst, weight) arcs. Classes are
    ordered by, and list first, their first member in enumeration order.
    """
    arcsets = [frozenset(zip(m.graph.src.tolist(), m.graph.dst.tolist(),
                             m.graph.wgt.tolist())) for m in members]
    roots = orbit_roots(arcsets, fiber_tournament(h, depth).generators,
                        lambda s, arcs: frozenset((s[a], s[b], w)
                                                  for a, b, w in arcs))
    classes: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        classes.setdefault(r, []).append(i)
    return list(classes.values())


def count_family(hc: UndirectedGraph, depth: int,
                 host_ext: FraternalExtension) -> tuple[int, int]:
    """Sum of the extension DPs over Frat(hc, depth), and |Frat(hc, depth)|.

    Runs one DP per class of ``frat_classes``, in the calling thread, and
    weights it by the class size. ``host_ext`` must be
    ``optimal_extension(g, depth, pattern=hc)`` from depth 2 on, whose
    members are labeled by pattern vertex, and G's own
    ``optimal_extension(g, 1)`` at depth 1, whose members are unlabeled:
    a label-respecting hom of an orientation P of hc into the lifted
    product's layer 1 is exactly a hom of P into G's degeneracy DAG.
    """
    members = enumerate_pattern_extensions(
        hc if depth == 1 else label_pattern(hc), depth)
    classes = frat_classes(members, hc, depth)
    total = sum(count_hom_extension(members[c[0]], host_ext) * len(c)
                for c in classes)
    return total, len(members)


class ComponentCount(NamedTuple):
    """One connected pattern's count and what its run measured."""

    count: int
    n_extensions: int      # |Frat(hc, depth)|
    delta_plus: int        # max out-degree of the host extension
    host_extension_ms: float
    dp_ms: float


def _component_depth(hc: UndirectedGraph, t: int | None) -> int:
    """The depth a count uses for the connected pattern hc."""
    return t if t is not None else min_extension_depth(licl(hc))


def _count_component(g: UndirectedGraph, hc: UndirectedGraph,
                     t: int | None) -> ComponentCount:
    depth = _component_depth(hc, t)
    t0 = time.perf_counter()
    # depth 1 keeps no fibers apart: the host is G's degeneracy DAG
    host_ext = optimal_extension(g, depth,
                                 pattern=None if depth == 1 else hc)
    t1 = time.perf_counter()
    count, n_ext = count_family(hc, depth, host_ext)
    t2 = time.perf_counter()
    return ComponentCount(count, n_ext, max_outdegree(host_ext.graph),
                          (t1 - t0) * 1e3, (t2 - t1) * 1e3)


def count_homomorphisms(g: UndirectedGraph, h: UndirectedGraph,
                        t: int | None = None,
                        threads: int | None = None) -> int:
    """Hom(g, h) through the full near-linear pipeline.

    Builds the host extension and the pattern extension family at depth
    t (defaulting to the minimal depth for the pattern's longest induced
    cycle), then sums the per-extension DP counts. At depth 1 the host
    is G's own degeneracy DAG on its n vertices and the members are the
    unlabeled acyclic orientations of h. From depth 2 on the host is the
    extension of the labeled product h^L x G, lifted from G's own
    extension without building the product, and the members carry
    their pattern vertex as label. The DP runs once per Aut_tau(h) orbit
    of extensions, since relabeled members count alike: at depth 1
    Aut_tau is all of Aut(h) (3 DPs for the 30 orientations of C5); at
    depth 2 the clockwise tournament keeps the
    rotations of a cycle (36 DPs for the 196 extensions of C6, 149 for
    the 1152 of C8). Disconnected patterns multiply their
    per-component counts. Every DP runs in the calling thread on the one
    vectorized engine, which widens its values to exact Python ints
    wherever they could pass int64; ``threads`` is accepted and ignored.
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


def _search_order(adj, n: int) -> list[int]:
    """Component-wise BFS order starting at a max-degree vertex."""
    order: list[int] = []
    seen = [False] * n
    for start in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def brute_force_hom(g: UndirectedGraph, h: UndirectedGraph,
                    cap: int = BRUTE_FORCE_HOM_CAP) -> int:
    """Exhaustive count of edge-preserving maps V(h) -> V(g)."""
    if g.n > cap:
        raise ValueError(f"host has {g.n} > {cap} vertices")
    hadj = h.adjacency_sets()
    gadj = g.adjacency_sets()
    order = _search_order(hadj, h.n)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in hadj[v] if pos[u] < pos[v]) for v in order]
    all_hosts = frozenset(range(g.n))
    assign: dict[int, int] = {}
    count = 0

    def rec(i: int):
        nonlocal count
        if i == h.n:
            count += 1
            return
        v = order[i]
        back = earlier[i]
        if not back:
            cand = all_hosts
        else:
            cand = gadj[assign[back[0]]]
            for u in back[1:]:
                cand = cand & gadj[assign[u]]
                if not cand:
                    return
        for c in cand:
            assign[v] = c
            rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return count


def brute_force_hom_wl(host: DirWLGraph, pattern: DirWLGraph,
                       cap: int = 32) -> int:
    """Exhaustive weighted/labeled count of maps pattern -> host.

    Label equality per vertex, host arc present per pattern arc, and
    pattern weight >= host weight on every mapped arc.
    """
    if host.n > cap:
        raise ValueError(f"host has {host.n} > {cap} vertices")
    out_w = [dict() for _ in range(host.n)]
    in_w = [dict() for _ in range(host.n)]
    for u, v, w in zip(host.src, host.dst, host.wgt):
        out_w[u][int(v)] = int(w)
        in_w[v][int(u)] = int(w)
    fibers = {}
    for x in range(host.n):
        fibers.setdefault(int(host.labels[x]), set()).add(x)
    padj = [set() for _ in range(pattern.n)]
    arc_w = {}
    for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
        a, b, w = int(a), int(b), int(w)
        padj[a].add(b)
        padj[b].add(a)
        arc_w[(a, b)] = w
    order = _search_order(padj, pattern.n)
    pos = {v: i for i, v in enumerate(order)}
    assign: dict[int, int] = {}
    count = 0

    def candidates(v: int):
        base = fibers.get(int(pattern.labels[v]), set())
        cand = None
        for u in sorted(padj[v]):
            if pos[u] >= pos[v]:
                continue
            img = assign[u]
            if (u, v) in arc_w:
                wmax = arc_w[(u, v)]
                step = {y for y, w in out_w[img].items() if w <= wmax}
            else:
                wmax = arc_w[(v, u)]
                step = {y for y, w in in_w[img].items() if w <= wmax}
            cand = step if cand is None else cand & step
            if not cand:
                return set()
        return base if cand is None else cand & base

    def rec(i: int):
        nonlocal count
        if i == pattern.n:
            count += 1
            return
        v = order[i]
        for c in candidates(v):
            assign[v] = c
            rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return count


def brute_force_sub(g: UndirectedGraph, h: UndirectedGraph,
                    cap: int = 20) -> int:
    """Non-induced copies of h in g: injective maps / |Aut(h)|."""
    if g.n > cap:
        raise ValueError(f"host has {g.n} > {cap} vertices")
    hadj = h.adjacency_sets()
    gadj = g.adjacency_sets()
    order = _search_order(hadj, h.n)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in hadj[v] if pos[u] < pos[v]) for v in order]
    all_hosts = frozenset(range(g.n))
    assign: dict[int, int] = {}
    used: set[int] = set()
    injective = 0

    def rec(i: int):
        nonlocal injective
        if i == h.n:
            injective += 1
            return
        v = order[i]
        back = earlier[i]
        if not back:
            cand = all_hosts - used
        else:
            cand = gadj[assign[back[0]]]
            for u in back[1:]:
                cand = cand & gadj[assign[u]]
            cand = cand - used
        for c in cand:
            assign[v] = c
            used.add(c)
            rec(i + 1)
            used.discard(c)
        assign.pop(v, None)

    rec(0)
    aut = automorphism_count(h)
    assert injective % aut == 0
    return injective // aut
