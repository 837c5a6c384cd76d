"""Compact graph containers shared by every stage of the pipeline.

Vertices are dense 0-based integers everywhere; file loaders compact
arbitrary ids and keep the mapping. ``UndirectedGraph`` holds the simple
host/pattern graphs, ``DirWLGraph`` the directed weighted graphs
produced by orientations and fraternal extensions.
Both are immutable after construction and every iteration order is
deterministic, so repeated runs give bit-identical counts and
decompositions.
"""

from __future__ import annotations

import re
from typing import Iterable

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
    extension at every depth asked for (``fraternal``), whose depth 1,
    the degeneracy DAG, depth-1 counts run on. No self-loops or parallel
    edges.
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
            lo, hi = arr[:, 0], arr[:, 1]
            # pairs that come as (lo, hi) with increasing codes, as the
            # loader and an extension round hand them over, skip the
            # self-loop scan, the sort and the repeat scan
            if not (lo < hi).all():
                if np.any(lo == hi):
                    bad = int(lo[np.argmax(lo == hi)])
                    raise GraphFormatError(f"self-loop at vertex {bad}")
                lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            codes = lo * n + hi
            if (codes[1:] > codes[:-1]).all():
                arr = np.column_stack((lo, hi))
            else:
                codes.sort()
                if np.any(codes[1:] == codes[:-1]):
                    dup = int(np.nonzero(codes[1:] == codes[:-1])[0][0])
                    u, v = divmod(int(codes[dup]), n)
                    raise GraphFormatError(f"parallel edge {u} {v}")
                arr = np.column_stack(np.divmod(codes, n))
        self.edge_array = arr
        self.id_map: dict | None = None
        self._indptr = None
        self._nbrs = None
        self._adj_sets = None
        self._degeneracy = None
        self._extension = ()

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    def _build_csr(self):
        if self._indptr is not None:
            return
        n = max(self.n, 1)
        lo, hi = self.edge_array.T
        ends, nbrs = np.divmod(
            np.sort(np.concatenate((lo * n + hi, hi * n + lo))), n)
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
    """Directed graph with positive integer arc weights.

    At most one of (u, v) and (v, u) may be present. It carries no vertex
    labels: the tests' oracles read a subclass that does
    (``tests/oracles.py``), and the DP engine refuses a pattern with a
    nonzero label. ``succ`` is the plain-Python adjacency that
    pattern-side code reads; a host graph never builds it. On G's own
    extension, ``_signatures`` caches the host of a count at
    the extension's depth over G's n vertices (``fastdp``).
    """

    __slots__ = ("n", "src", "dst", "wgt", "_out_indptr", "_arc_codes",
                 "_reach_cache", "_signatures", "_succ")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, int]] = ()):
        trips = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs,
                           dtype=np.int64)
        if trips.size == 0:
            trips = trips.reshape(0, 3)
        if trips.ndim != 2 or trips.shape[1] != 3:
            raise GraphFormatError("expected (src, dst, weight) triples")
        self._init_from(n, trips[:, 0], trips[:, 1], trips[:, 2])

    @classmethod
    def from_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray,
                    wgt: np.ndarray) -> "DirWLGraph":
        g = cls.__new__(cls)
        g._init_from(n, src, dst, wgt)
        return g

    def _init_from(self, n, src, dst, wgt):
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
        self._out_indptr = None
        self._arc_codes = None
        self._reach_cache = {}
        self._signatures = None
        self._succ = None

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

    @property
    def succ(self) -> list[list[tuple[int, int]]]:
        """``succ_lists`` of the arcs, built on the first read."""
        if self._succ is None:
            self._succ = succ_lists(self.n, zip(
                self.src.tolist(), self.dst.tolist(), self.wgt.tolist()))
        return self._succ

    def out_degrees(self) -> np.ndarray:
        self._build_out()
        return self._out_indptr[1:] - self._out_indptr[:-1]

    def __repr__(self):
        return f"DirWLGraph(n={self.n}, arcs={self.arc_count})"


def max_outdegree(g: DirWLGraph) -> int:
    if g.n == 0 or g.arc_count == 0:
        return 0
    return int(g.out_degrees().max())


def succ_lists(n: int, arcs) -> list[list[tuple[int, int]]]:
    """Per vertex, its (target, weight) out-arcs, in the order of ``arcs``
    (src, dst, weight), so ascending by target when they are sorted."""
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, w in arcs:
        succ[a].append((b, w))
    return succ


def bfs_out_tree(g, s: int) -> tuple[list[int], dict[int, int | None]]:
    """Breadth-first spanning out-tree of Reach(s), ties by vertex id.

    ``g`` is a pattern: a ``DirWLGraph`` or a ``fraternal.PatternExtension``,
    read through its plain-Python ``succ``. Returns the visit order (s
    first) and the tree parent of every visited vertex (None for s). The
    order covers exactly the vertices reachable from s.
    """
    succ = g.succ
    order = [s]
    parent: dict[int, int | None] = {s: None}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u, _ in succ[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])


def _code_points(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The code points of ``text`` and, for each, whether it is whitespace
    in the sense of ``str.isspace``, which is where ``str.split()`` cuts."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return codes, _ASCII_SPACE[codes]
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    distinct = np.unique(codes).tolist()
    return codes, np.isin(codes, [c for c in distinct if chr(c).isspace()])


def load_edge_list(path) -> UndirectedGraph:
    """Read a whitespace-separated "u v" edge list; '#' starts a comment.

    Arbitrary ids are compacted to 0..n-1 (numeric sort when every token
    parses as an integer, lexicographic otherwise; tokens that sort equal,
    such as "7" and "07", keep their order of first appearance, so the
    ids never depend on the string hash seed); the mapping is kept in
    ``id_map``. Only the first two ids of a line count. A line with one
    id is reported first; then the earliest self-loop or parallel edge
    in file order, each with its line in the diagnostic.

    The text is read once and split once. Lines end at "\\n" only, as
    file iteration ends them (universal newlines turn "\\r\\n" and "\\r"
    into "\\n" on read), so "\\u2028" or "\\x0c" separate ids within a
    line. Numpy places every token on its line: a token starts at a
    non-space after a space (``str.isspace``, as ``str.split`` uses), a
    ``searchsorted`` against the newlines gives its line and a
    ``bincount`` the ids per line. The tokens are compacted through one
    dict, and the self-loop and parallel-edge checks run on the id
    arrays.
    """
    with open(path) as fh:
        text = fh.read()
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    toks = text.split()
    codes, space = _code_points(text)
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    per_line = np.bincount(np.searchsorted(np.flatnonzero(codes == 10),
                                           starts))
    short = np.flatnonzero(per_line == 1)
    if short.size:
        raise GraphFormatError(f"{path}:{short[0] + 1}: expected two ids")
    lines = np.flatnonzero(per_line)
    if 2 * lines.size < len(toks):  # drop the ids past the second
        heads = (np.cumsum(per_line) - per_line)[lines]
        toks = list(map(toks.__getitem__,
                        np.column_stack((heads, heads + 1)).ravel().tolist()))
    distinct = dict.fromkeys(toks)
    try:
        ordered = sorted(distinct, key=int)
    except ValueError:
        ordered = sorted(distinct)
    idx = dict(zip(ordered, range(len(ordered))))
    ids = np.fromiter(map(idx.__getitem__, toks), dtype=np.int64,
                      count=len(toks))
    lo = np.minimum(ids[0::2], ids[1::2])
    hi = np.maximum(ids[0::2], ids[1::2])
    keys = lo * len(ordered) + hi
    loops = np.flatnonzero(lo == hi)
    sorted_keys = np.sort(keys)
    if loops.size or np.any(sorted_keys[1:] == sorted_keys[:-1]):
        repeats = np.ones(lo.size, dtype=bool)
        repeats[np.unique(keys, return_index=True)[1]] = False
        i = np.argmax(repeats) if repeats.any() else lo.size
        if loops.size and loops[0] < i:
            raise GraphFormatError(f"{path}:{lines[loops[0]] + 1}: "
                                   f"self-loop at '{toks[2 * loops[0]]}'")
        j = np.flatnonzero(keys == keys[i])[0]
        raise GraphFormatError(
            f"{path}:{lines[i] + 1}: parallel edge '{toks[2 * i]} "
            f"{toks[2 * i + 1]}' (first seen at line {lines[j] + 1})")
    g = UndirectedGraph(len(ordered),
                        np.column_stack(np.divmod(sorted_keys, len(ordered))))
    g.id_map = idx
    return g


def edge_list_text(g: UndirectedGraph) -> str:
    """The edges as "u v" lines, u < v, in ``edge_array`` order."""
    return "".join(f"{u} {v}\n" for u, v in g.edge_array.tolist())


def save_edge_list(g: UndirectedGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(edge_list_text(g))
