"""Static analysis of the constant-size pattern graph.

Longest induced cycle, minimal extension depth, the spasm with exact
rational coefficients, automorphisms, acyclic orientations, and the peel
of a pattern's pendant trees down to its 2-core. Inputs
here are pattern-sized (a dozen vertices at most), so exhaustive
enumeration is the right tool; all arithmetic on spasm coefficients is
exact rational, never floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .graph_core import UndirectedGraph

SPASM_SIZE_LIMIT = 10


@dataclass(frozen=True)
class SpasmEntry:
    """One quotient pattern and its coefficient in the subgraph identity."""

    quotient: UndirectedGraph
    coefficient: Fraction


def _induces_cycle(subset: tuple[int, ...], adj) -> bool:
    inside = set(subset)
    for v in subset:
        if len(adj[v] & inside) != 2:
            return False
    # 2-regular and connected means a single cycle
    seen = {subset[0]}
    stack = [subset[0]]
    while stack:
        v = stack.pop()
        for u in adj[v] & inside:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(inside)


def licl(h: UndirectedGraph) -> int:
    """Length of the longest induced cycle; 0 when h has none (forests)."""
    from itertools import combinations

    adj = h.adjacency_sets()
    for size in range(h.n, 2, -1):
        for subset in combinations(range(h.n), size):
            if _induces_cycle(subset, adj):
                return size
    return 0


def min_extension_depth(licl_value: int) -> int:
    """Smallest t >= 1 with licl < 3(t+1)."""
    if licl_value < 0:
        raise ValueError("negative cycle length")
    t = 1
    while licl_value >= 3 * (t + 1):
        t += 1
    return t


def _bfs(adj, starts) -> list[list[int]]:
    """The breadth-first orders of a graph's components, neighbours in
    ascending order: one order per start that no earlier order reached.
    The callers choose the starts, and with them the order."""
    seen = [False] * len(adj)
    orders = []
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        order = [start]
        for v in order:  # the loop reads what it appends
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        orders.append(order)
    return orders


def _first_map(order: list[int], i: int, img: list[int], used: list[bool],
               candidates) -> list[int] | None:
    """The first completion of a partial map that places ``order[:i]``:
    each later vertex order[j] goes, by backtracking, to the first of
    ``candidates(j)`` (the unused vertices it may map to, given ``img``)
    from which the rest completes. ``img`` and ``used`` are restored on
    return; None when no completion exists."""
    if i == len(order):
        return list(img)
    v = order[i]
    for c in candidates(i):
        used[c], img[v] = True, c
        found = _first_map(order, i + 1, img, used, candidates)
        used[c], img[v] = False, -1
        if found is not None:
            return found
    return None


def connected_components(h: UndirectedGraph) -> list[frozenset]:
    """Maximal connected vertex sets, ordered by smallest member."""
    return [frozenset(part) for part in _bfs(h.adjacency_sets(), range(h.n))]


@dataclass(frozen=True)
class PendantForest:
    """A connected pattern peeled leaf by leaf down to its 2-core.

    ``peel`` lists each peeled leaf with its one remaining neighbour, in
    peel order, so a leaf's own pendant children come before it.
    ``core`` is the 2-core, its vertices ``core_vertices`` (ascending)
    renumbered 0.., or None when the pattern is a tree; then
    ``core_vertices`` holds the tree's last vertex, its root. ``colors``
    gives each core vertex the rank of its rooted pendant forest's AHU
    code among the core's codes, so two core vertices share a colour
    exactly when isomorphic forests hang at them.
    """

    peel: tuple[tuple[int, int], ...]
    core: UndirectedGraph | None
    core_vertices: tuple[int, ...]
    colors: tuple[int, ...]


def pendant_forest(h: UndirectedGraph) -> PendantForest:
    """The peel of the connected pattern h to its 2-core, cached per h.

    A pendant tree has no induced cycle, so h and its 2-core have the
    same longest induced cycle and need the same extension depth. The
    AHU code of a rooted tree is the sorted tuple of its children's
    codes (Aho, Hopcroft and Ullman), equal exactly for isomorphic
    rooted trees, at any size.
    """
    return _pendant_forest(h.n, tuple(h.edge_list()))


@functools.lru_cache(maxsize=256)
def _pendant_forest(n: int, edges: tuple) -> PendantForest:
    h = UndirectedGraph(n, edges)
    adj = [set(nb) for nb in h.adjacency_sets()]
    kids: list[list[tuple]] = [[] for _ in range(n)]
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    peel = []
    while leaves:
        u = leaves.pop()
        if len(adj[u]) != 1:  # the last vertex of a tree
            continue
        p = adj[u].pop()
        adj[p].discard(u)
        peel.append((u, p))
        kids[p].append(tuple(sorted(kids[u])))
        if len(adj[p]) == 1:
            leaves.append(p)
    left = [v for v in range(n) if adj[v]]
    codes = [tuple(sorted(kids[v])) for v in left]
    ranks = {c: i for i, c in enumerate(sorted(set(codes)))}
    core = None
    if left:
        index = {v: i for i, v in enumerate(left)}
        core = UndirectedGraph(len(left), [
            (index[a], index[b]) for a, b in edges
            if a in index and b in index])
    else:
        left = [peel[-1][1] if peel else 0]
    return PendantForest(tuple(peel), core, tuple(left),
                         tuple(ranks[c] for c in codes))


def _automorphism_chain(h: UndirectedGraph, arcs: frozenset = frozenset(),
                        colors: tuple | None = None
                        ) -> tuple[list[list[int]], int]:
    """Generators of the automorphisms of h that keep ``arcs`` and
    ``colors``, from a stabilizer chain, and the group's order.

    ``arcs`` is a set of directed pairs (a, b); an automorphism keeps it
    when it maps every arc onto an arc. ``colors`` gives each vertex a
    colour (None: all alike), which an automorphism keeps when it maps
    every vertex onto one of its colour. Level i fixes the first i
    vertices of a search order and asks, for each image c of the next
    vertex v, for one automorphism sending v to c; the backtracking
    stops at its first completion. The images that complete form v's
    orbit under the stabilizer of the earlier vertices, so the order is
    the product of the orbit sizes and the automorphisms found (one per
    non-trivial image) generate the group. No search walks the whole
    group.
    """
    n = h.n
    adj = h.adjacency_sets()
    deg = [len(adj[v]) for v in range(n)]
    color = colors if colors is not None else (0,) * n
    alike: dict[tuple, list[int]] = {}
    for c in range(n):
        alike.setdefault((deg[c], color[c]), []).append(c)

    # visit vertices so each one touches an already-placed vertex when the
    # graph allows it; that makes the adjacency filter bite early
    starts = [max(comp, key=lambda v: (deg[v], -v))
              for comp in connected_components(h)]
    order = [v for part in _bfs(adj, starts) for v in part]
    img = [-1] * n
    used = [False] * n

    def fits(i: int):
        v = order[i]
        for c in alike[deg[v], color[v]]:
            if not used[c] and all(
                    (u in adj[v]) == (img[u] in adj[c])
                    and ((u, v) in arcs) == ((img[u], c) in arcs)
                    and ((v, u) in arcs) == ((c, img[u]) in arcs)
                    for u in order[:i]):
                yield c

    gens: list[list[int]] = []
    size = 1
    for i, v in enumerate(order):
        orbit = 1  # v itself, by the identity
        for c in fits(i):
            if c == v:
                continue
            used[c], img[v] = True, c
            found = _first_map(order, i + 1, img, used, fits)
            used[c], img[v] = False, -1
            if found is not None:
                gens.append(found)
                orbit += 1
        size *= orbit
        used[v] = True
        img[v] = v
    return gens, size


def automorphism_generators(h: UndirectedGraph) -> list[list[int]]:
    """A generating set of Aut(h); each generator maps vertex v to g[v].

    Empty when h has no non-trivial automorphism.
    """
    return _automorphism_chain(h)[0]


def automorphism_count(h: UndirectedGraph) -> int:
    """|Aut(h)| as the product of the stabilizer chain's orbit sizes."""
    return _automorphism_chain(h)[1]


@dataclass(frozen=True)
class FiberTournament:
    """How a depth-t product extension orients its vertical pairs.

    A vertical pair <a,v> - <b,v> of H^L x G joins two fibers over one
    host vertex, so G cannot orient it; it points a -> b for (a, b) in
    ``arcs``, one arc per pattern pair whose fibers such a pair can join.
    ``generators`` generate Aut_tau(h), the automorphisms of h that keep
    ``arcs``, and ``size`` is its order. For s in Aut_tau(h), <u,v> ->
    <s(u),v> is an automorphism of the whole product extension.
    """

    arcs: frozenset
    generators: tuple
    size: int


def _vertical_pairs(h: UndirectedGraph, t: int) -> set[tuple[int, int]]:
    """Ordered pairs (a, b), a != b, of pattern vertices whose fibers a
    round 2..t of a product extension over any host can link.

    Round i links the ends of an out-out wedge with weights w and i - w,
    so by induction a pair of fibers linked at weight i is a pair of
    pattern vertices with a common "neighbor" c, linked to one end at
    some weight w and to the other at i - w. A fiber is linked to itself
    from round 2 on (two host vertices over one pattern vertex).
    """
    n = h.n
    near = [[set(nb) for nb in h.adjacency_sets()]]  # near[w-1][c]
    pairs: set[tuple[int, int]] = set()
    for i in range(2, t + 1):
        layer: list[set[int]] = [set() for _ in range(n)]
        for c in range(n):
            for w in range(1, i):
                for a in near[w - 1][c]:
                    layer[a] |= near[i - w - 1][c]
        near.append(layer)
        pairs.update((a, b) for a in range(n) for b in layer[a] if a != b)
    return pairs


def orbit_roots(items: list, gens, act) -> list[int]:
    """For each item, the index of the first item of its orbit under the
    group that ``gens`` generate; ``act(s, item)`` is the image of item
    under s and must be one of ``items``. A union-find of every item
    with its image under each generator, so no group element beyond the
    generators is formed.
    """
    index = {x: i for i, x in enumerate(items)}
    root = list(range(len(items)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for s in gens:
        for i, x in enumerate(items):
            j = index.get(act(s, x))
            assert j is not None, "an automorphism left the item set"
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(items))]


def _pair_orbits(pairs: list, gens) -> dict:
    roots = orbit_roots(pairs, gens, lambda s, p: (s[p[0]], s[p[1]]))
    return dict(zip(pairs, roots))


def _order(perm: tuple) -> int:
    power, k = perm, 1
    while any(v != x for v, x in enumerate(power)):
        power = tuple(perm[x] for x in power)
        k += 1
    return k


@functools.lru_cache(maxsize=256)
def _fiber_tournament(n: int, edges: tuple, t: int,
                      colors: tuple | None) -> FiberTournament:
    h = UndirectedGraph(n, edges)
    pairs = sorted(_vertical_pairs(h, t))
    gens = _automorphism_chain(h, colors=colors)[0] if pairs else []
    # K: a subgroup no element of which swaps a vertical pair, grown
    # greedily from the chain's generators and their products, highest
    # element order first (for a cycle a rotation, so K is all of Z_k
    # unless the half turn swaps a vertical pair)
    cands = sorted({tuple(g[s[v]] for v in range(n))
                    for g in gens for s in [list(range(n))] + gens},
                   key=lambda g: (-_order(g), g))
    k_gens: list = []
    for g in cands:
        orbit = _pair_orbits(pairs, k_gens + [g])
        if all(orbit[(a, b)] != orbit[(b, a)] for a, b in pairs):
            k_gens.append(g)
    # tau: the lowest unoriented pair points up, and so does its K-orbit
    orbit = _pair_orbits(pairs, k_gens)
    arcs: set[tuple[int, int]] = set()
    for a, b in pairs:
        if a < b and (a, b) not in arcs and (b, a) not in arcs:
            arcs.update(p for p in pairs if orbit[p] == orbit[(a, b)])
    arcs = frozenset(arcs)
    gens, size = _automorphism_chain(h, arcs, colors)
    return FiberTournament(arcs, tuple(tuple(g) for g in gens), size)


def fiber_tournament(h: UndirectedGraph, t: int,
                     colors: tuple | None = None) -> FiberTournament:
    """The vertical-pair tournament of depth-t product extensions over h.

    tau is chosen so that Aut_tau(h) is large: take a subgroup K of
    Aut(h) in which no element swaps the two ends of a vertical pair, and
    orient one pair per K-orbit, the rest of the orbit following it. K
    is grown greedily, so it is not always the largest such subgroup;
    when nothing better is found it is trivial, which is still correct.
    At depth 1 there are no vertical pairs and Aut_tau(h) = Aut(h).
    With ``colors`` (one per vertex, as ``PendantForest.colors`` gives a
    2-core's vertices) only the automorphisms that keep every colour
    count, both for K and for Aut_tau(h). The result is cached per
    (h, t, colors), so the signature host's class weights and the
    grouping of Frat(h, t) read the same tau.
    """
    return _fiber_tournament(h.n, tuple(h.edge_list()), t,
                             None if colors is None else tuple(colors))


def _independent_partitions(n: int, adj):
    """All partitions of range(n) whose blocks are independent sets."""
    blocks: list[list[int]] = []

    def rec(v: int):
        if v == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            if all(v not in adj[u] for u in b):
                b.append(v)
                yield from rec(v + 1)
                b.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    yield from rec(0)


def _adjacency(k: int, edges: tuple) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(k)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _refined_colours(adj: list[set[int]], table: dict) -> list[int]:
    """Stable colour refinement of a graph, starting from the degrees: a
    vertex's next colour is its colour with the multiset of its
    neighbours' colours, until no class splits. ``table`` numbers the
    colours and is shared by every graph refined against it, so a colour
    means the same on each of them and isomorphic graphs get the same
    colours, vertex for vertex under any isomorphism."""
    col = [table.setdefault(len(nb), len(table)) for nb in adj]
    classes = len(set(col))
    while True:
        col = [table.setdefault((c, tuple(sorted(col[u] for u in nb))),
                                len(table)) for c, nb in zip(col, adj)]
        split = len(set(col))
        if split == classes:
            return col
        classes = split


def _isomorphic(adj: list[set[int]], col: list[int],
                rep_adj: list[set[int]], rep_col: list[int]) -> bool:
    """Whether some bijection that keeps the refined colours maps one
    graph onto the other, both on len(adj) vertices. Vertices are placed
    in breadth-first order, each onto an unused vertex of its colour
    whose links to the placed vertices match; the search stops at its
    first completion."""
    of_colour: dict[int, list[int]] = {}
    for x, c in enumerate(rep_col):
        of_colour.setdefault(c, []).append(x)
    starts = sorted(range(len(adj)), key=lambda v: len(of_colour[col[v]]))
    order = [v for part in _bfs(adj, starts) for v in part]
    img = [-1] * len(adj)
    used = [False] * len(adj)

    def fits(i: int):
        v = order[i]
        for c in of_colour[col[v]]:
            if not used[c] and all((u in adj[v]) == (img[u] in rep_adj[c])
                                   for u in order[:i]):
                yield c

    return _first_map(order, 0, img, used, fits) is not None


def spasm(h: UndirectedGraph) -> tuple[SpasmEntry, ...]:
    """Quotients and exact coefficients with
    Sub(G, h) = sum_i c_i * Hom(G, quotient_i) for every simple G.

    Partitions of V(h) into independent blocks are weighted by the
    partition-lattice Moebius value prod_B (-1)^(|B|-1) (|B|-1)!, divided
    by |Aut(h)|; isomorphic quotients are merged and zero sums dropped.
    Each quotient is a sorted edge tuple until it survives. Quotients
    are bucketed by n, m and the multiset of their refined colours
    (``_refined_colours``, one colour table per spasm), and a quotient
    joins the first class of its bucket it is isomorphic to
    (``_isomorphic``). One ``UndirectedGraph`` is built per entry, h
    itself for the partition into singletons, which comes first: entries
    are sorted by decreasing n, then by their bucket's invariant, then
    in the order their classes were found. The result is cached per
    (h.n, edges), so a caller that sizes the spasm before counting
    through it computes it once. The independent partitions grow like
    the Bell numbers, so an h of more than SPASM_SIZE_LIMIT vertices
    raises ValueError before any partition is enumerated.
    """
    if h.n > SPASM_SIZE_LIMIT:
        raise ValueError(f"spasm limited to {SPASM_SIZE_LIMIT} "
                         f"vertices; the pattern has {h.n}")
    return _spasm(h.n, tuple(h.edge_list()))


@functools.lru_cache(maxsize=64)
def _spasm(n: int, edges: tuple) -> tuple[SpasmEntry, ...]:
    h = UndirectedGraph(n, edges)
    aut = automorphism_count(h)
    table: dict = {}
    # a class: [invariant, k, edges, adjacency, colours, summed Moebius
    # value]
    classes: list[list] = []
    buckets: dict[tuple, list[int]] = {}
    seen: dict[tuple, int] = {}  # (k, quotient edges) -> its class
    for blocks in _independent_partitions(n, h.adjacency_sets()):
        mu = 1
        block_of = [0] * n
        for i, b in enumerate(blocks):
            mu *= (-1) ** (len(b) - 1) * factorial(len(b) - 1)
            for v in b:
                block_of[v] = i
        k = len(blocks)
        qedges = tuple(sorted({(block_of[u], block_of[v])
                               if block_of[u] < block_of[v]
                               else (block_of[v], block_of[u])
                               for u, v in edges}))
        c = seen.get((k, qedges))
        if c is None:
            adj = _adjacency(k, qedges)
            col = _refined_colours(adj, table)
            inv = (k, len(qedges), tuple(sorted(col)))
            bucket = buckets.setdefault(inv, [])
            c = next((j for j in bucket
                      if _isomorphic(adj, col, *classes[j][3:5])), None)
            if c is None:
                c = len(classes)
                classes.append([inv, k, qedges, adj, col, 0])
                bucket.append(c)
            seen[(k, qedges)] = c
        classes[c][5] += mu
    kept = sorted((cls for cls in classes if cls[5] != 0),
                  key=lambda cls: (-cls[1], cls[0]))
    return tuple(SpasmEntry(h if k == n else UndirectedGraph(k, qedges),
                            Fraction(acc, aut))
                 for _, k, qedges, _, _, acc in kept)


def _is_acyclic(n: int, arcs) -> bool:
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    taken = 0
    while queue:
        v = queue.pop()
        taken += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return taken == n


def acyclic_orientations(h: UndirectedGraph
                         ) -> list[tuple[tuple[int, int], ...]]:
    """The arcs of every acyclic orientation of h, each sorted by
    (src, dst).

    Orientations are the 2^|E| bitmasks over ``h.edge_list()``, bit j
    reversing edge j, in mask order, filtered by a cycle check; members
    are distinct as arc sets, no isomorphism dedup.
    """
    edges = h.edge_list()
    result = []
    for mask in range(1 << len(edges)):
        arcs = [(v, u) if mask >> j & 1 else (u, v)
                for j, (u, v) in enumerate(edges)]
        if _is_acyclic(h.n, arcs):
            result.append(tuple(sorted(arcs)))
    return result
