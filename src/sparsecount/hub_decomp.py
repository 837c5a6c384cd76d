"""Hubsets, reachability, unique reachability graphs, and width-1
hub-tree decompositions.

The hubs of a pattern extension are its sources, the vertices of
in-degree 0. A round of the extension only links two out-neighbors of a
common center, so a source of the acyclic first layer never gains an
in-arc, and the sources stay pairwise unreachable and jointly reach
every vertex. A width-1 decomposition, when one exists, is a
maximum-weight spanning tree over the hubs weighted by shared reach,
and one such tree decides whether any exists.

Everything here runs on patterns only, a ``DirWLGraph`` or a
``fraternal.PatternExtension``, and reads their plain-Python ``succ``
adjacency and ``_reach_cache``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graph_core import bfs_out_tree


def reach(g, s) -> frozenset:
    """Vertices with a directed path from some member of s (s included).

    Accepts a single vertex or an iterable. The reach of one vertex is
    the visit order of ``bfs_out_tree``, cached on the graph with the
    tree itself (``out_tree``).
    """
    if isinstance(s, (int,)) or hasattr(s, "__index__"):
        return _cached_tree(g, int(s))[0]
    out: frozenset = frozenset()
    for v in sorted(s):
        out |= _cached_tree(g, int(v))[0]
    return out


def out_tree(g, s: int) -> tuple[list[int], dict[int, int | None]]:
    """``bfs_out_tree(g, s)``, cached on the graph with s's reach; the
    caller must not change it."""
    return _cached_tree(g, s)[1:]


def _cached_tree(g, s: int) -> tuple:
    cached = g._reach_cache.get(s)
    if cached is None:
        order, parent = bfs_out_tree(g, s)
        cached = g._reach_cache[s] = (frozenset(order), order, parent)
    return cached


def hubset(g) -> tuple[int, ...]:
    """The sources of g (its in-degree-0 vertices), ascending.

    Sources are pairwise unreachable. Raises ValueError when they do not
    reach every vertex, as on a digraph whose cycle no source reaches:
    such a graph has no hub-tree decomposition.
    """
    targets = {b for out in g.succ for b, _ in out}
    hubs = tuple(v for v in range(g.n) if v not in targets)
    if len(reach(g, hubs)) != g.n:
        raise ValueError("the sources of the digraph do not reach every "
                         "vertex")
    return hubs


@dataclass(frozen=True)
class URGraph:
    """Unique reachability graph over a hub subset."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def is_forest(self) -> bool:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


def unique_reachability_graph(g, sp) -> URGraph:
    """Edge {s1, s2} iff some vertex is reached by s1 and s2 and by no
    other hub of sp."""
    hubs = tuple(sorted(sp))
    reaches = {s: reach(g, s) for s in hubs}
    edges = []
    for i, s1 in enumerate(hubs):
        for s2 in hubs[i + 1:]:
            others = frozenset()
            for s3 in hubs:
                if s3 != s1 and s3 != s2:
                    others |= reaches[s3]
            if (reaches[s1] & reaches[s2]) - others:
                edges.append((s1, s2))
    return URGraph(hubs, tuple(edges))


@dataclass(frozen=True)
class HubTree:
    """Rooted tree of singleton hub bags (bags[i] is the hub of node i)."""

    bags: tuple[int, ...]
    parent: tuple[int, ...]
    root: int

    def children(self, i: int) -> tuple[int, ...]:
        return self._children.get(i, ())

    @functools.cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        """Each node's children, ascending, from one pass over parent."""
        kids: dict[int, list[int]] = {}
        for j, p in enumerate(self.parent):
            kids.setdefault(p, []).append(j)
        return {p: tuple(js) for p, js in kids.items()}

    def postorder(self) -> list[int]:
        out = []
        stack = [self.root]
        while stack:
            b = stack.pop()
            out.append(b)
            stack.extend(self.children(b))
        return out[::-1]


def find_width1_decomposition(g) -> HubTree | None:
    """A width-1 hub-tree decomposition of g, or None when none exists.

    Prim's maximum-weight spanning tree over the hubs, an edge {s, x}
    weighing |Reach(s) & Reach(x)|. Let S_v be the hubs that reach v; a
    tree T's edges inside S_v form a forest, so weight(T) =
    sum_v |E(T[S_v])| <= sum_v (|S_v| - 1) = sum_s |Reach(s)| - n, with
    equality iff every S_v is connected in T, which is the width-1
    condition. So a maximum-weight tree reaches the bound iff some tree
    is width-1 (the junction-tree criterion). The bound needs the hubs
    to reach every vertex, which ``hubset`` checks.

    The root is the hub of largest reach; each step adds the outside hub
    with the heaviest link into the tree (ties: larger reach, then lower
    id) under the first-inserted bag carrying that weight.
    """
    hubs = hubset(g)
    if not hubs:
        return None
    reaches = {s: reach(g, s) for s in hubs}
    root = min(hubs, key=lambda s: (-len(reaches[s]), s))
    bags = [root]
    parent = [-1]
    # outside hub -> (heaviest link into the tree, bag index carrying it)
    link = {x: (len(reaches[x] & reaches[root]), 0)
            for x in hubs if x != root}
    weight = 0
    while link:
        s = min(link, key=lambda x: (-link[x][0], -len(reaches[x]), x))
        w, attach = link.pop(s)
        weight += w
        bags.append(s)
        parent.append(attach)
        for x, (wx, _) in link.items():
            ws = len(reaches[x] & reaches[s])
            if ws > wx:
                link[x] = (ws, len(bags) - 1)
    if weight != sum(len(r) for r in reaches.values()) - g.n:
        return None
    return HubTree(tuple(bags), tuple(parent), 0)
