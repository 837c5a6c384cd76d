"""Shared builders and independent oracles for the test suite.

Everything here is deliberately separate from the library code paths it
checks: cycle enumeration for longest induced cycles, adjacency-power
traces for cycle homomorphism counts, the materialized labeled product
peeled layer by layer (the oracle of the lifted product extension), a
label-respecting undirected homomorphism counter for it, a search over every labeled hub
tree for width-1 decompositions, and an exhaustive (batch
canonicalized) catalogue of small connected patterns.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations, permutations, product

import numpy as np

from sparsecount import (HubTree, UndirectedGraph, hubset, pattern_product,
                         validate_decomposition)


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
    """The lift's oracle: the materialized labeled product H^L x G, each
    extension layer oriented by the degeneracy peel of its own edges."""
    from sparsecount.fraternal import _peeled_extension

    return _peeled_extension(pattern_product(h, g), fiber_labels(h.n, g.n), t)


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
