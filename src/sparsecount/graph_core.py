"""Compact graph containers shared by every stage of the pipeline.

Vertices are dense 0-based integers everywhere; file loaders compact
arbitrary ids and keep the mapping. ``UndirectedGraph`` holds the simple
host/pattern graphs, ``DirWLGraph`` the directed weighted labeled graphs
produced by orientations and fraternal extensions.
Both are immutable after construction and every iteration order is
deterministic, so repeated runs give bit-identical counts and
decompositions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph input: self-loop, parallel edge, or bad vertex id."""


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError("expected an array of vertex pairs")
    return arr


class UndirectedGraph:
    """Simple undirected graph over vertices 0..n-1.

    Edges are stored once as (u, v) with u < v, sorted; adjacency is a CSR
    index built lazily, and so are the degeneracy order
    (``degeneracy.degeneracy_order``) and the graph's own fraternal
    extension that lifted product extensions follow (``fraternal``). No
    self-loops or parallel edges.
    """

    __slots__ = ("n", "edge_array", "id_map", "_indptr", "_nbrs", "_adj_sets",
                 "_degeneracy", "_extension")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        arr = _as_pair_array(edges)
        if n < 0:
            raise GraphFormatError("negative vertex count")
        self.n = int(n)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise GraphFormatError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                bad = int(arr[np.nonzero(arr[:, 0] == arr[:, 1])[0][0], 0])
                raise GraphFormatError(f"self-loop at vertex {bad}")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            codes = lo * n + hi
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            if np.any(codes[1:] == codes[:-1]):
                dup = int(np.nonzero(codes[1:] == codes[:-1])[0][0])
                u, v = divmod(int(codes[dup]), n)
                raise GraphFormatError(f"parallel edge {u} {v}")
            arr = np.column_stack((lo[order], hi[order]))
        self.edge_array = arr
        self.id_map: dict | None = None
        self._indptr = None
        self._nbrs = None
        self._adj_sets = None
        self._degeneracy = None
        self._extension = None

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    def _build_csr(self):
        if self._indptr is not None:
            return
        ends = np.concatenate((self.edge_array[:, 0], self.edge_array[:, 1]))
        nbrs = np.concatenate((self.edge_array[:, 1], self.edge_array[:, 0]))
        order = np.argsort(ends * self.n + nbrs, kind="stable")
        ends, nbrs = ends[order], nbrs[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        counts = np.bincount(ends, minlength=self.n)
        np.cumsum(counts, out=indptr[1:])
        self._indptr, self._nbrs = indptr, nbrs

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        self._build_csr()
        return self._indptr, self._nbrs

    def neighbors(self, v: int) -> np.ndarray:
        self._build_csr()
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        self._build_csr()
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        self._build_csr()
        return self._indptr[1:] - self._indptr[:-1]

    def adjacency_sets(self) -> tuple[frozenset, ...]:
        """Per-vertex neighbor sets; intended for pattern-sized graphs."""
        if self._adj_sets is None:
            sets = [set() for _ in range(self.n)]
            for u, v in self.edge_array:
                sets[u].add(int(v))
                sets[v].add(int(u))
            self._adj_sets = tuple(frozenset(s) for s in sets)
        return self._adj_sets

    def edge_list(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in self.edge_array]

    def edge_set(self) -> frozenset:
        return frozenset(self.edge_list())

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


class DirWLGraph:
    """Directed graph with positive integer arc weights and vertex labels.

    At most one of (u, v) and (v, u) may be present. Labels default to 0
    (the trivial label); lifted product extensions carry pattern-vertex
    labels.
    """

    __slots__ = ("n", "src", "dst", "wgt", "labels", "_out_indptr",
                 "_arc_codes", "_reach_cache", "_fibers", "_dp_index")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, int]] = (),
                 labels: Sequence[int] | np.ndarray | None = None):
        trips = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs,
                           dtype=np.int64)
        if trips.size == 0:
            trips = trips.reshape(0, 3)
        if trips.ndim != 2 or trips.shape[1] != 3:
            raise GraphFormatError("expected (src, dst, weight) triples")
        self._init_from(n, trips[:, 0], trips[:, 1], trips[:, 2], labels)

    @classmethod
    def from_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray,
                    wgt: np.ndarray, labels=None) -> "DirWLGraph":
        g = cls.__new__(cls)
        g._init_from(n, src, dst, wgt, labels)
        return g

    def _init_from(self, n, src, dst, wgt, labels):
        self.n = int(n)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        wgt = np.asarray(wgt, dtype=np.int64)
        if src.size:
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
                raise GraphFormatError("arc endpoint out of range")
            if np.any(src == dst):
                raise GraphFormatError("self-arc")
            if wgt.min() < 1:
                raise GraphFormatError("arc weight below 1")
            codes = src * n + dst
            order = np.argsort(codes, kind="stable")
            src, dst, wgt, codes = src[order], dst[order], wgt[order], codes[order]
            if np.any(codes[1:] == codes[:-1]):
                raise GraphFormatError("duplicate arc")
            rev = dst * n + src
            rev.sort()
            both = np.intersect1d(codes, rev, assume_unique=True)
            if both.size:
                u, v = divmod(int(both[0]), n)
                raise GraphFormatError(f"antiparallel arc pair {u} {v}")
        self.src, self.dst, self.wgt = src, dst, wgt
        if labels is None:
            self.labels = np.zeros(n, dtype=np.int64)
        else:
            self.labels = np.asarray(labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise GraphFormatError("label array has wrong length")
        self._out_indptr = None
        self._arc_codes = None
        self._reach_cache = {}
        self._fibers = None
        self._dp_index = None

    @property
    def arc_count(self) -> int:
        return self.src.shape[0]

    def arc_set(self) -> frozenset:
        return frozenset((int(u), int(v)) for u, v in zip(self.src, self.dst))

    def arc_weights(self, a, b) -> np.ndarray:
        """Weight of each arc a -> b, or 0 where there is none."""
        code = np.asarray(a, dtype=np.int64) * self.n + np.asarray(b)
        if not self.arc_count:
            return np.zeros(code.shape, dtype=np.int64)
        if self._arc_codes is None:
            self._arc_codes = self.src * self.n + self.dst  # already sorted
        pos = np.minimum(np.searchsorted(self._arc_codes, code),
                         self.arc_count - 1)
        return np.where(self._arc_codes[pos] == code, self.wgt[pos], 0)

    def weight_of(self, u: int, v: int) -> int | None:
        """Weight of arc (u, v), or None when absent."""
        return int(self.arc_weights(u, v)) or None

    def _build_out(self):
        if self._out_indptr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, self.src + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._out_indptr = indptr  # arcs already sorted by (src, dst)

    def out_arcs(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(targets, weights) of arcs leaving v, ascending by target id."""
        self._build_out()
        lo, hi = self._out_indptr[v], self._out_indptr[v + 1]
        return self.dst[lo:hi], self.wgt[lo:hi]

    def out_degrees(self) -> np.ndarray:
        self._build_out()
        return self._out_indptr[1:] - self._out_indptr[:-1]

    def fibers(self) -> dict[int, np.ndarray]:
        """Vertex ids grouped by label, each group ascending."""
        if self._fibers is None:
            if self.n == 0:
                self._fibers = {}
            else:
                order = np.argsort(self.labels, kind="stable")
                lab = self.labels[order]
                cuts = np.nonzero(lab[1:] != lab[:-1])[0] + 1
                groups = np.split(order, cuts)
                self._fibers = {int(g_lab[0]): grp for g_lab, grp in
                                zip(np.split(lab, cuts), groups)}
        return self._fibers

    def __repr__(self):
        return f"DirWLGraph(n={self.n}, arcs={self.arc_count})"


def max_outdegree(g: DirWLGraph) -> int:
    if g.n == 0 or g.arc_count == 0:
        return 0
    return int(g.out_degrees().max())


def bfs_out_tree(g: DirWLGraph, s: int) -> tuple[list[int], dict[int, int | None]]:
    """Breadth-first spanning out-tree of Reach(s), ties by vertex id.

    Returns the visit order (s first) and the tree parent of every
    visited vertex (None for s). The order covers exactly the vertices
    reachable from s.
    """
    order = [s]
    parent: dict[int, int | None] = {s: None}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in g.out_arcs(v)[0]:
            u = int(u)
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


def load_edge_list(path) -> UndirectedGraph:
    """Read a whitespace-separated "u v" edge list; '#' starts a comment.

    Arbitrary ids are compacted to 0..n-1 (numeric sort when every token
    parses as an integer, lexicographic otherwise); the mapping is kept in
    ``id_map``. Self-loops and parallel edges are rejected with the
    offending line in the diagnostic.
    """
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected two ids")
            raw.append((parts[0], parts[1], lineno))
    tokens = {t for u, v, _ in raw for t in (u, v)}
    try:
        ordered = sorted(tokens, key=int)
    except ValueError:
        ordered = sorted(tokens)
    idx = {t: i for i, t in enumerate(ordered)}
    seen = {}
    edges = []
    for u, v, lineno in raw:
        a, b = idx[u], idx[v]
        if a == b:
            raise GraphFormatError(f"{path}:{lineno}: self-loop at '{u}'")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError(
                f"{path}:{lineno}: parallel edge '{u} {v}' "
                f"(first seen at line {seen[key]})")
        seen[key] = lineno
        edges.append(key)
    g = UndirectedGraph(len(ordered), edges)
    g.id_map = idx
    return g


def save_edge_list(g: UndirectedGraph, path) -> None:
    with open(path, "w") as fh:
        for u, v in g.edge_array:
            fh.write(f"{u} {v}\n")

