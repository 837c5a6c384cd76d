"""Static analysis of the constant-size pattern graph.

Longest induced cycle, minimal extension depth, the spasm with exact
rational coefficients, automorphisms, and acyclic orientations. Inputs
here are pattern-sized (a dozen vertices at most), so exhaustive
enumeration is the right tool; all arithmetic on spasm coefficients is
exact rational, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .graph_core import DirWLGraph, UndirectedGraph

CANONICAL_SIZE_LIMIT = 10


@dataclass(frozen=True)
class SpasmEntry:
    """One quotient pattern and its coefficient in the subgraph identity."""

    quotient: UndirectedGraph
    coefficient: Fraction


@dataclass(frozen=True)
class PatternProfile:
    licl: int
    t_min: int
    spasm_licl: int


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


def connected_components(h: UndirectedGraph) -> list[frozenset]:
    """Maximal connected vertex sets, ordered by smallest member."""
    adj = h.adjacency_sets()
    seen = [False] * h.n
    comps = []
    for start in range(h.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def _automorphism_chain(h: UndirectedGraph) -> tuple[list[list[int]], int]:
    """Generators of Aut(h) from a stabilizer chain, and |Aut(h)|.

    Level i fixes the first i vertices of a search order and asks, for
    each image c of the next vertex v, for one automorphism sending v to
    c; the backtracking stops at its first completion. The images that
    complete form v's orbit under the stabilizer of the earlier vertices,
    so |Aut(h)| is the product of the orbit sizes and the automorphisms
    found (one per non-trivial image) generate Aut(h). No search walks
    the whole group.
    """
    n = h.n
    adj = h.adjacency_sets()
    deg = [len(adj[v]) for v in range(n)]

    # visit vertices so each one touches an already-placed vertex when the
    # graph allows it; that makes the adjacency filter bite early
    order: list[int] = []
    placed = [False] * n
    for comp in connected_components(h):
        start = max(comp, key=lambda v: (deg[v], -v))
        queue = [start]
        placed[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj[v]):
                if not placed[u]:
                    placed[u] = True
                    queue.append(u)

    img = [-1] * n
    used = [False] * n

    def fits(i: int, c: int) -> bool:
        v = order[i]
        if used[c] or deg[c] != deg[v]:
            return False
        return all((u in adj[v]) == (img[u] in adj[c]) for u in order[:i])

    def place(i: int, c: int) -> list[int] | None:
        """The first automorphism extending img with order[i] -> c."""
        v = order[i]
        used[c] = True
        img[v] = c
        found = list(img) if i + 1 == n else None
        if found is None:
            for c2 in range(n):
                if fits(i + 1, c2):
                    found = place(i + 1, c2)
                    if found is not None:
                        break
        used[c] = False
        img[v] = -1
        return found

    gens: list[list[int]] = []
    size = 1
    for i, v in enumerate(order):
        orbit = 1  # v itself, by the identity
        for c in range(n):
            if c != v and fits(i, c):
                found = place(i, c)
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


def canonical_form(h: UndirectedGraph) -> tuple[int, int]:
    """Canonical code: minimum adjacency bit-string over all relabelings.

    Equal codes iff isomorphic. Bits are taken column by column (vertex j
    against all earlier positions), which lets the search prune on prefix
    blocks. Raises for more than CANONICAL_SIZE_LIMIT vertices.
    """
    n = h.n
    if n > CANONICAL_SIZE_LIMIT:
        raise ValueError(f"canonical_form limited to {CANONICAL_SIZE_LIMIT} vertices")
    adj = h.adjacency_sets()
    best: list[int] | None = None
    perm: list[int] = []
    used = [False] * n

    def rec(blocks: list[int]):
        nonlocal best
        j = len(perm)
        if j == n:
            if best is None or blocks < best:
                best = list(blocks)
            return
        for v in range(n):
            if used[v]:
                continue
            block = 0
            for i in range(j):
                block = (block << 1) | (1 if perm[i] in adj[v] else 0)
            blocks.append(block)
            if best is None or blocks <= best[:len(blocks)]:
                used[v] = True
                perm.append(v)
                rec(blocks)
                perm.pop()
                used[v] = False
            blocks.pop()

    rec([])
    assert best is not None
    code = 0
    for j, block in enumerate(best):
        code = (code << j) | block
    return (n, code)


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


def spasm(h: UndirectedGraph) -> list[SpasmEntry]:
    """Quotients and exact coefficients with
    Sub(G, h) = sum_i c_i * Hom(G, quotient_i) for every simple G.

    Partitions of V(h) into independent blocks are weighted by the
    partition-lattice Moebius value prod_B (-1)^(|B|-1) (|B|-1)!, divided
    by |Aut(h)|; isomorphic quotients are merged and zero sums dropped.
    """
    adj = h.adjacency_sets()
    aut = automorphism_count(h)
    classes: dict[tuple[int, int], tuple[UndirectedGraph, Fraction]] = {}
    for blocks in _independent_partitions(h.n, adj):
        mu = 1
        for b in blocks:
            size = len(b)
            mu *= (-1) ** (size - 1) * factorial(size - 1)
        block_of = {}
        for i, b in enumerate(blocks):
            for v in b:
                block_of[v] = i
        qedges = {(min(block_of[u], block_of[v]), max(block_of[u], block_of[v]))
                  for u, v in h.edge_list()}
        quotient = UndirectedGraph(len(blocks), sorted(qedges))
        code = canonical_form(quotient)
        if code in classes:
            rep, acc = classes[code]
            classes[code] = (rep, acc + mu)
        else:
            classes[code] = (quotient, Fraction(mu))
    entries = [SpasmEntry(rep, acc / aut)
               for rep, acc in classes.values() if acc != 0]
    entries.sort(key=lambda e: (-e.quotient.n, canonical_form(e.quotient)))
    return entries


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


def acyclic_orientations(h, labels=None) -> list[DirWLGraph]:
    """Every acyclic orientation of h, unit weights, labels carried over.

    Orientations are enumerated as all 2^|E| arc choices filtered by a
    cycle check; members are distinct as arc sets, no isomorphism dedup.
    Accepts an UndirectedGraph or anything with .graph/.labels.
    """
    graph: UndirectedGraph = getattr(h, "graph", h)
    if labels is None:
        labels = getattr(h, "labels", None)
    edges = graph.edge_list()
    m = len(edges)
    result = []
    for mask in range(1 << m):
        arcs = []
        for j, (u, v) in enumerate(edges):
            if mask >> j & 1:
                arcs.append((v, u))
            else:
                arcs.append((u, v))
        if _is_acyclic(graph.n, arcs):
            result.append(DirWLGraph(graph.n, [(s, d, 1) for s, d in arcs],
                                     labels=labels))
    return result


def pattern_profile(h: UndirectedGraph) -> PatternProfile:
    """licl, minimal extension depth, and the spasm-wide licl of h."""
    base = licl(h)
    entries = spasm(h)
    spasm_licl = max((licl(e.quotient) for e in entries), default=0)
    return PatternProfile(base, min_extension_depth(base), spasm_licl)
