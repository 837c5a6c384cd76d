"""Shared builders and independent oracles for the test suite.

Everything here, and in ``oracles.py``, is deliberately separate from
the library code paths it checks: cycle enumeration for longest induced
cycles, adjacency-power traces for cycle homomorphism counts, the
extension of the labeled product lifted from G's own (the oracle of the
signature host) and the materialized product peeled layer by layer (the
oracle of the lift), a label-respecting undirected homomorphism counter
for it, a search over every labeled hub tree for width-1
decompositions, and an exhaustive (batch canonicalized) catalogue of
small connected patterns.
"""

from __future__ import annotations

import functools
import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np

from sparsecount import (DirWLGraph, FraternalExtension, HubTree,
                         UndirectedGraph, count_hom_extension, extension_edges,
                         fastdp, hubset, load_edge_list, optimal_extension)
from sparsecount.fraternal import _first_layer, _peeled_extension, _with_layer
from sparsecount.pattern_tools import fiber_tournament

from oracles import LabeledGraph, pattern_product, validate_decomposition


ROOT = Path(__file__).resolve().parents[1]


def benchmark_host(name: str, tmp_path) -> tuple[UndirectedGraph, int]:
    """The benchmark's seed-1 host of ``name``, written and loaded as
    its samples load it, and its expected count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    inst = WORKLOADS[name].build(1, False)
    path = tmp_path / f"{name}.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in inst.edges))
    return load_edge_list(path), inst.expected


# ---------------------------------------------------------------------------
# small graph families
# ---------------------------------------------------------------------------

def path_graph(k: int) -> UndirectedGraph:
    return UndirectedGraph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> UndirectedGraph:
    return UndirectedGraph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> UndirectedGraph:
    return UndirectedGraph(k, list(combinations(range(k), 2)))


def star_graph(leaves: int) -> UndirectedGraph:
    return UndirectedGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(a: UndirectedGraph, b: UndirectedGraph) -> UndirectedGraph:
    edges = a.edge_list() + [(u + a.n, v + a.n) for u, v in b.edge_list()]
    return UndirectedGraph(a.n + b.n, edges)


def random_graph(n: int, p: float, rng: random.Random) -> UndirectedGraph:
    return UndirectedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < p])


def fold_hosts() -> tuple:
    """Small hosts for the pendant-tree differential tests: a sparse
    degeneracy-2 graph, a dense random graph, K4, and C5 with a pendant
    path and an isolated vertex (where a pendant weight reads 0)."""
    from sparsecount.harness import generate_bounded_degeneracy

    tailed = UndirectedGraph(8, cycle_graph(5).edge_list() + [(0, 5), (5, 6)])
    return (generate_bounded_degeneracy(10, 2, 3),
            random_graph(7, 0.5, random.Random(1)), complete_graph(4), tailed)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def licl_oracle(h: UndirectedGraph) -> int:
    """Longest chordless cycle by explicit cycle enumeration (small k)."""
    adj = h.adjacency_sets()
    best = 0

    def chordless(path) -> bool:
        size = len(path)
        for i in range(size):
            for j in range(i + 1, size):
                on_rim = j == i + 1 or (i == 0 and j == size - 1)
                if not on_rim and path[j] in adj[path[i]]:
                    return False
        return True

    def dfs(path):
        nonlocal best
        v = path[-1]
        for u in sorted(adj[v]):
            if u == path[0] and len(path) >= 3:
                if path[1] < path[-1] and chordless(path):
                    best = max(best, len(path))
            elif u > path[0] and u not in path:
                path.append(u)
                dfs(path)
                path.pop()

    for s in range(h.n):
        dfs([s])
    return best


def triangle_count(g: UndirectedGraph) -> int:
    adj = g.adjacency_sets()
    total = 0
    for u, v in g.edge_list():
        total += len(adj[u] & adj[v] & frozenset(range(max(u, v) + 1, g.n)))
    return total


def cycle_hom_trace(g: UndirectedGraph, length: int) -> int:
    """Hom(G, C_len) as the trace of the adjacency power, exact ints."""
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.edge_list():
        a[u][v] = a[v][u] = 1
    power = [row[:] for row in a]
    for _ in range(length - 1):
        power = [[sum(power[i][x] * a[x][j] for x in range(n))
                  for j in range(n)] for i in range(n)]
    return sum(power[i][i] for i in range(n))


def labeled_trees(b: int):
    """Parent arrays (rooted at node 0) of all b^(b-2) labeled trees on
    b nodes, decoded from their Pruefer sequences."""
    if b == 1:
        yield (-1,)
        return
    for seq in product(range(b), repeat=b - 2):
        degree = [1] * b
        for x in seq:
            degree[x] += 1
        adj = [[] for _ in range(b)]
        for x in seq:
            leaf = min(v for v in range(b) if degree[v] == 1)
            adj[leaf].append(x)
            adj[x].append(leaf)
            degree[leaf] -= 1
            degree[x] -= 1
        u, v = (v for v in range(b) if degree[v] == 1)
        adj[u].append(v)
        adj[v].append(u)
        parent = [-2] * b
        parent[0] = -1
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if parent[y] == -2:
                    parent[y] = x
                    stack.append(y)
        yield tuple(parent)


def width1_tree_exists(g) -> bool:
    """Whether some labeled tree on g's hubset is a width-1 decomposition,
    by trying every one of them."""
    hubs = hubset(g)
    return any(validate_decomposition(g, HubTree(hubs, parent, 0))
               for parent in labeled_trees(len(hubs)))


def fiber_labels(k: int, n: int) -> np.ndarray:
    """Labels of the product H x G: vertex <u, v> = u * n + v is labeled u."""
    return np.arange(k * n, dtype=np.int64) // max(n, 1)


def peeled_product_extension(h: UndirectedGraph, g: UndirectedGraph, t: int):
    """The lift's oracle: the materialized product H x G, each extension
    layer oriented by the degeneracy peel of its own edges. Unlabeled,
    like ``lifted_extension``: fiber u is the block [u * n, (u+1) * n)."""
    return _peeled_extension(pattern_product(h, g), t)


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


def lifted_extension(g: UndirectedGraph, t: int, h: UndirectedGraph,
                     colors: tuple | None = None) -> FraternalExtension:
    """The oracle of the signature host: the extension of the labeled
    product H^L x G to depth t on k * n vertices, <u,v> = u * n + v,
    lifted from G's own extension without building the product.

    Layer 1 is G's layer 1 arc for arc: <u,x> -> <u',y> for every edge
    uu' of H, both ways, and every arc x -> y. Layer i >= 2 takes the
    round-i pairs of the product and orients <u,v> - <u',v'> as G's own
    extension orients v - v' (an arc of weight <= i always exists there,
    since every product arc projects onto a G arc or onto one vertex),
    and a vertical pair (v = v') by the tournament of
    ``fiber_tournament(H, t, colors)``. The lifted layers need not be
    acyclic from layer 2 on. Unlabeled: ``count_on_lift`` reads fiber u
    as the block [u * n, (u+1) * n).
    """
    k, n = h.n, g.n
    own = optimal_extension(g, t)
    ext = _first_layer(k * n, _lift_arcs(h, own.layers[0], n))
    tau = np.zeros((k, k), dtype=bool)
    for a, b in fiber_tournament(h, t, colors).arcs:
        tau[a, b] = True
    for i in range(2, t + 1):
        pairs = extension_edges(ext.graph, i)
        ext = _with_layer(ext, _lift_pairs(n, k, pairs, own.graph, tau, i), i)
    return ext


@functools.lru_cache(maxsize=4)
def _fiber_host(graph: DirWLGraph, depth: int,
                k: int) -> fastdp.SignatureHost:
    fiber = fiber_labels(k, graph.n // k)
    cls = ((graph.wgt - 1) * k + fiber[graph.src]) * k + fiber[graph.dst] + 1
    ncls = depth * k * k
    weights = np.zeros((ncls + 1, k, k), dtype=np.int64)
    for w in range(1, depth + 1):
        for a in range(k):
            for b in range(k):
                weights[((w - 1) * k + a) * k + b + 1, a, b] = w
    index = fastdp._HostIndex(graph.n, graph.src, graph.dst, cls, ncls)
    return fastdp.SignatureHost(index, weights, tuple(
        (fiber == u).astype(np.int64) for u in range(k)))


def weight_host(graph: DirWLGraph, k: int) -> fastdp.SignatureHost:
    """``graph`` as a host for patterns on k vertices, read as the dict
    engine reads it: an arc's class is its weight, and F[s] = s
    everywhere, so a pattern arc of weight w reads the arcs of weight
    1..w."""
    wmax = int(graph.wgt.max()) if graph.arc_count else 1
    weights = np.repeat(np.arange(wmax + 1), k * k).reshape(wmax + 1, k, k)
    return fastdp.SignatureHost(fastdp._HostIndex(
        graph.n, graph.src, graph.dst, graph.wgt, wmax), weights)


def signature_host(g: UndirectedGraph, h: UndirectedGraph,
                   t: int) -> fastdp.SignatureHost:
    """The host a depth-t count of h runs on, with h's bare
    tournament."""
    sig = fastdp.signature_index(optimal_extension(g, t))
    return fastdp.SignatureHost(sig.index, fastdp.class_weights(
        sig, h, fiber_tournament(h, t).arcs))


def count_on_lift(member, lifted) -> int:
    """Hom of a member's labeled twin into a product extension over k
    fibers (``lifted_extension`` or ``peeled_product_extension``): pattern
    vertex u may only land in fiber u. The engine reads no labels, so
    the extension becomes a ``fastdp.SignatureHost`` whose classes are
    (weight, source fiber, target fiber), an arc (u, u', w) reading those
    of fibers u, u' and weight at most w, and fiber u weighs 1 for
    pattern vertex u and 0 elsewhere (for a root with no out-arc)."""
    return count_hom_extension(
        member, _fiber_host(lifted.graph, max(lifted.depth, 1), member.n))


def with_fiber_labels(graph: DirWLGraph, k: int) -> LabeledGraph:
    """A product extension's graph with <u,v> labeled u, for the label-
    reading oracles (``bressan_count``, ``brute_force_hom_wl``)."""
    return LabeledGraph(graph.n, np.column_stack((graph.src, graph.dst,
                                                  graph.wgt)),
                        fiber_labels(k, graph.n // k))


def self_labeled(member) -> LabeledGraph:
    """A member's graph with every vertex labeled by itself: its labeled
    twin H^L, for the label-reading oracles."""
    return LabeledGraph(member.n, member.arcs, labels=range(member.n))


def labeled_product_hom_count(product: UndirectedGraph, h: UndirectedGraph,
                              n: int) -> int:
    """Label-respecting homomorphisms H^L -> H x G by direct backtracking.

    Every pattern vertex u must land in the fiber of u, the block
    [u * n, (u+1) * n) of G's n vertices; edges of the pattern must map
    to product edges.
    """
    fadj = product.adjacency_sets()
    k = h.n
    labels = fiber_labels(k, n)
    hadj = h.adjacency_sets()
    count = 0
    assign = {}

    def rec(u):
        nonlocal count
        if u == k:
            count += 1
            return
        for x in range(u * n, (u + 1) * n):
            assert labels[x] == u
            if all(assign[w] in fadj[x] for w in hadj[u] if w < u):
                assign[u] = x
                rec(u + 1)
        assign.pop(u, None)

    rec(0)
    return count


def is_acyclic_arcs(n: int, arcs) -> bool:
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[int(u)].append(int(v))
        indeg[int(v)] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == n


# ---------------------------------------------------------------------------
# catalogue of connected patterns up to isomorphism
# ---------------------------------------------------------------------------

def _is_connected_mask(k: int, pairs, mask: int) -> bool:
    adj = [0] * k
    for j, (a, b) in enumerate(pairs):
        if mask >> j & 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    seen = 1
    frontier = 1
    while frontier:
        v = frontier.bit_length() - 1
        frontier &= ~(1 << v)
        new = adj[v] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << k) - 1


@functools.cache
def connected_patterns(k: int) -> tuple:
    """All connected graphs on exactly k vertices, one per iso class."""
    if k == 1:
        return (UndirectedGraph(1, []),)
    pairs = list(combinations(range(k), 2))
    npairs = len(pairs)
    index = {p: j for j, p in enumerate(pairs)}
    masks = [m for m in range(1 << npairs)
             if _is_connected_mask(k, pairs, m)]
    bits = np.zeros((len(masks), npairs), dtype=np.int64)
    for row, m in enumerate(masks):
        for j in range(npairs):
            bits[row, j] = m >> j & 1
    powers = 1 << np.arange(npairs, dtype=np.int64)
    best = None
    for perm in permutations(range(k)):
        table = np.array([index[(min(perm[a], perm[b]), max(perm[a], perm[b]))]
                          for a, b in pairs])
        codes = bits[:, table] @ powers
        best = codes if best is None else np.minimum(best, codes)
    reps = {}
    for m, code in zip(masks, best):
        reps.setdefault(int(code), m)
    out = []
    for code in sorted(reps):
        m = reps[code]
        out.append(UndirectedGraph(k, [pairs[j] for j in range(npairs)
                                       if m >> j & 1]))
    return tuple(out)


def connected_patterns_up_to(k: int) -> list:
    return [h for kk in range(1, k + 1) for h in connected_patterns(kk)]
