"""The vectorized width-1 DP engine that every count runs.

Semantically identical to the dict-based generalized tree DP that the
tests keep as its oracle (``tests/oracles.py``); rows of numpy arrays
stand in for partial homomorphisms. Per bag, the root fiber is expanded
along the BFS spanning out-tree, depth-first in blocks of at most
``ROW_BLOCK`` rows: a block runs through the remaining steps before the
next one starts, so the rows alive at once are bounded by the block size
and Delta+, not by the host's size. There is one host kind, at every
depth t: the ``SignatureHost`` of G's own depth-t extension, on G's n
vertices with one label, so a root fiber is all n vertices, less those
where the root's weight is 0. A pattern arc reads a set of its arc
classes (``signature_index``), held as a table padded to the set's
width D <= Delta+ (plus a loop) per source vertex
(``_HostIndex.padded``): an expansion gathers each row's source in one
take, and a non-tree arc is checked with D column gathers per row
(``_HostIndex.has_arcs``). Where the slot right after an expansion
checks an arc from the new vertex v back to an assigned b, a large block
first drops the rows whose parent p reaches b by no 2-path p -> x -> b
of the two arcs' class sets, read from a hashed bitmap of those pairs
(``_HostIndex.may_close``): such a row expands only into rows the check
drops, so it is dropped before it pays for the expansion.
Columns stop being carried as soon as nothing downstream reads them; a
parent column whose last read is an expansion is dropped before that
expansion gathers the others.
Host-sized work is plain numpy; each bag's plan is compiled in plain
Python from the pattern's ``succ`` adjacency.

The DPs of one family share their bags' common prefixes, the multiple-
query optimisation of Sellis (ACM TODS 1988): most bags start with the
same few expansions from the root fiber. Each step's state has a key
(``_prefix_keys``) that reads no host: the root's weight and every
check, drop, filter, expansion and weight up to it, with vertices
written as positions in the bag's order. The first bag to reach a key
leaves its state on the ``SignatureHost``, read-only and keyed by
position, and every later bag with that key starts from it. Only whole
states are kept, those from before a bag's first cut into blocks, and
only those of at most ``ROW_BLOCK`` rows, so each costs at most a
block's arrays; a dead prefix is kept as no rows. From the first slot
that joins a child table on, a state belongs to one DP and has no key.

Every bag yields one ``_Table``: its rows' restrictions to the vertices
it shares with its parent, packed into sorted int64 codes, with their
summed counts. The parent joins it with ``searchsorted``; on a large
table a hashed membership bitmap first drops the queries that cannot
match, so mostly hits pay the search (``_Table``). Where a key would
pack past int64 its prefix is first replaced by its rank among the
table's distinct prefixes, and queries replay those ranks. The root
shares no vertex with a parent, so its table holds one code and the
count; so does a child that shares none with its own parent.

Every count is weighted (``SignatureHost.vertex_weights``): a
homomorphism counts the product of its pattern vertices' weights at
their images, where a pattern vertex's weight is the number of ways its
folded pendant trees map (``pendant_weights``, message passing over G's
CSR) and 1 when none hangs at it. Each weight enters once, in the one
bag where its vertex is not shared with the parent: the root fiber
starts at its weight, and every expansion multiplies by the new column's
weight.

Values are int64. Before each multiply or sum, a bound on its result is
computed from the operands' maxima; where it could pass int64 the value
array is widened to exact Python ints (``dtype=object``) and stays
widened from there on, so every count is exact on this one engine.
``np.bincount(weights=...)`` is never used: it sums in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fraternal import FraternalExtension, _sorted_unique
from .graph_core import UndirectedGraph
from .hub_decomp import HubTree, out_tree, reach
from .pattern_tools import PendantForest

ROW_BLOCK = 1 << 15
# the fewest codes at which a child table filters its join (``_Table``),
# and the fewest rows at which a block filters a step (``_run_bag``)
FILTER_MIN = 1 << 12
_SLOTS_PER_CODE = 8
_FIB_HASH = np.uint64(0x9E3779B97F4A7C15)
_I64_LIMIT = 2 ** 63 - 1


def _widen(vals: np.ndarray, bound: int) -> np.ndarray:
    """``vals`` as exact Python ints once ``bound``, an upper bound on what
    the next multiply or sum of them yields, could pass int64."""
    return vals.astype(object) if bound > _I64_LIMIT else vals


def _top(vals: np.ndarray) -> int:
    """The largest value, 0 for none; values are never negative."""
    return int(vals.max()) if vals.size else 0


def _times(vals: np.ndarray | None, other: np.ndarray) -> np.ndarray:
    """``vals * other``, widened first where it could pass int64; None
    reads as all ones."""
    if vals is None:
        return other
    return _widen(vals, _top(vals) * _top(other)) * other


def _prefix_sums(vals: np.ndarray) -> np.ndarray:
    """0 and the running sums of ``vals``, widened first where the total
    could pass int64."""
    vals = _widen(vals, _top(vals) * vals.size)
    out = np.zeros(vals.size + 1, dtype=vals.dtype)
    np.cumsum(vals, out=out[1:])
    return out


def pendant_weights(g: UndirectedGraph, forest: PendantForest) -> tuple:
    """Per core vertex v of ``forest`` (a tree's root for a tree): the
    exact integer vector m_v over G's n vertices whose entry x counts the
    homomorphisms of v's rooted pendant forest that send v to x, or None
    when no tree hangs at v (weight 1 everywhere).

    The tree-hom DP of Diaz, Serna and Thilikos (TCS 2002) as message
    passing: every m starts as all ones, and peeling leaf u off its
    neighbour p sets m_p <- m_p * (A m_u), with (A m)(x) the sum of m
    over x's neighbours, read from G's CSR as differences of prefix sums.
    """
    indptr, nbrs = g.csr
    m: dict[int, np.ndarray] = {}
    for u, p in forest.peel:
        mu = m.pop(u, None)
        if mu is None:
            mu = np.ones(g.n, dtype=np.int64)
        sums = _prefix_sums(mu[nbrs])
        m[p] = _times(m.get(p), sums[indptr[1:]] - sums[indptr[:-1]])
    return tuple(m.get(v) for v in forest.core_vertices)


def weighted_total(w: np.ndarray | None, n: int) -> int:
    """The sum of a weight vector over n host vertices, n for None."""
    return n if w is None else int(_widen(w, _top(w) * w.size).sum())


class _HostIndex:
    """Padded out-arc tables over G's n vertices, one per class set: the
    ELLPACK layout (Bell and Garland, SC 2009).

    Every arc has a class from 1 to ``ncls``, its signature
    (``signature_index``). A pattern arc reads a set of classes, and
    ``padded(classes)`` lists, per source vertex, its arcs of those
    classes in (class, target) order, padded with -1 to the set's width
    D, the largest such count; D is at most Delta+ plus a loop, since G's
    extension is oriented by degeneracy. The arcs must come sorted by
    (source, target), as a ``DirWLGraph`` holds them: a stable sort by
    the int64 key source x (ncls + 1) + class then orders them by
    (source, class, target), in a fraction of a lexsort's time, since the
    key is already sorted by source. A table is built on first use from
    the sorted arcs and kept twice, row-major (n x D) for ``_expand`` and
    as its contiguous transpose (D x n) for ``has_arcs``: 2 x n x D x 4
    bytes per class set. A host whose n x D
    is far above its arc count (n x Delta+ >> m: a few wide sources
    among many narrow ones) pays for that padding: a known limit, left
    open. ``root`` lists all n vertices, the root fiber of a bag whose
    root carries no weight. ``may_close`` reads, per pair of class sets,
    a hashed bitmap of the pairs (a, b) joined by a 2-path a -> x -> b
    over them, built on its first probe and kept like the tables.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 cls: np.ndarray, ncls: int):
        self.n = n
        self.ncls = ncls
        order = np.argsort(src * (ncls + 1) + cls, kind="stable")
        # int32 holds every vertex id and class
        self._arcs = tuple(arr[order].astype(np.int32)
                           for arr in (src, cls, dst))
        self.root = np.arange(n, dtype=np.int32)
        self._padded: dict[tuple[int, ...], tuple] = {}
        self._two_paths: dict[tuple, np.ndarray] = {}

    def padded(self, classes: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
        """The int32 table of a class set, (n x D) row-major, and its
        contiguous transpose: row x lists x's arcs of those classes, by
        (class, target), then -1."""
        got = self._padded.get(classes)
        if got is None:
            src, cls, dst = self._arcs
            keep = np.isin(cls, classes)
            src, dst = src[keep], dst[keep]
            counts = np.bincount(src, minlength=self.n)
            rows = np.full((self.n, int(counts.max(initial=0))), -1,
                           dtype=np.int32)
            first = np.cumsum(counts) - counts
            rows[src, np.arange(src.size) - first[src]] = dst
            got = self._padded[classes] = (rows, np.ascontiguousarray(rows.T))
        return got

    def has_arcs(self, a: np.ndarray, b: np.ndarray,
                 classes: tuple[int, ...]) -> np.ndarray:
        """Per row: is there a host arc a -> b of one of ``classes``?

        Gathers a's row from each of the set's D columns and compares it
        with b, so a row costs D gathers, at most Delta+ plus a loop; the
        padding, -1, matches no vertex, so no count mask is needed.
        """
        found = np.zeros(a.shape[0], dtype=bool)
        for col in self.padded(classes)[1]:
            found |= col.take(a) == b
        return found

    def may_close(self, a: np.ndarray, b: np.ndarray, first: tuple[int, ...],
                  then: tuple[int, ...]) -> np.ndarray:
        """Per row: may a host 2-path a -> x -> b run, with a -> x of one
        of ``first`` and x -> b of one of ``then``? False only where none
        does.

        Probes a ``_bitmap`` of the codes a x n + b of every such 2-path,
        built on the first probe of the pair of class sets from their
        padded tables: ``first``'s valid entries give the pairs (a, x),
        and ``then``'s rows at those x the b. There are at most about
        arcs x Delta+ of them (Chiba and Nishizeki, SIAM J. Comput. 1985),
        and the bitmap costs 8 to 16 bytes each.
        """
        bits = self._two_paths.get((first, then))
        if bits is None:
            rows = self.padded(first)[0]
            src, col = np.nonzero(rows >= 0)
            nxt = self.padded(then)[0].take(rows[src, col], axis=0)
            k, j = np.nonzero(nxt >= 0)
            bits = self._two_paths[(first, then)] = _bitmap(
                src[k] * self.n + nxt[k, j])
        return bits.take(_hash_slots(a.astype(np.int64) * self.n + b,
                                     bits.size.bit_length() - 1))


@dataclass(frozen=True)
class _Round:
    """Round i of ``signature_index``, per class c of the round (c = 0
    is none): ``prev[c]``, its class at round i - 1 (0: none), whether
    it holds loops (``loop[c]``), and its pairs of round-(i - 1)
    classes, (``first[j]``, ``second[j]``) for every j with
    ``pair_cls[j] == c`` (ascending)."""

    prev: np.ndarray
    loop: np.ndarray
    pair_cls: np.ndarray
    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class Signatures:
    """G's side of a depth-t count: the index of the elements whose
    signature is not none, and the rounds that refined their classes."""

    index: _HostIndex
    rounds: tuple[_Round, ...]


def signature_index(ext: FraternalExtension) -> Signatures:
    """The host of a count at depth t = ``ext.depth``, over G's n
    vertices with one label, read from G's own extension ``ext`` and
    cached on its graph.

    Its elements are the arcs x -> y of ``ext`` (weights 1..t) and a
    loop x -> x at every vertex. The extension of the labeled product
    H^L x G to depth t can hold an arc <a,x> -> <b,y> only over an
    element (x, y): its layer 1 is G's DAG lifted, and a round-i pair
    closes over a pair of G that G closes by round i, and orients the
    same way, or over one vertex. Every element gets a signature,
    refined round by round:

    - sigma_1(x, y): "DAG arc" for an arc of weight 1, none otherwise;
    - sigma_i(x, y): sigma_{i-1}(x, y), whether x = y, and the set of
      pairs (sigma_{i-1}(z, x), sigma_{i-1}(z, y)) over every centre z
      with elements (z, x) and (z, y); z = x or z = y reads the loop.

    The round-i rule of the product reads nothing of G beyond these, so
    the product's weight of <a,x> -> <b,y> is F_t[sigma_t(x, y)][a, b],
    with F computed from H, its tournament and ``rounds`` alone
    (``class_weights``). A pair whose classes carry no weights p and
    i - p (``carry``, one bit per product weight a class can take for
    some H) never closes at round i and is left out, and a class that
    carries no weight is none, so it holds no arc of the index. At t = 1
    there are no rounds, so no loops are built: class 1 is the DAG arcs.
    At t = 2 that leaves at most four classes, in this order:

    1. a DAG arc whose ends share no in-neighbour;
    2. a DAG arc whose ends share an in-neighbour;
    3. an arc of G's layer 2;
    4. a loop x -> x at a vertex x with an in-arc.

    Each round numbers the classes that occur from 1 up, in the
    lexicographic order of (previous class, none last; loop or not;
    sorted pair codes), which at t = 2 is this order. The loops live
    only here, since a ``DirWLGraph`` holds no self-arc.
    """
    graph = ext.graph
    if graph._signatures is None:
        n = graph.n
        src, dst = graph.src, graph.dst
        cls = (graph.wgt == 1).astype(np.int64)
        carry = np.array([0, 1 << 1], dtype=np.int64)
        rounds = []
        if ext.depth >= 2:
            # the loops join the arcs only where a round can class them
            verts = np.arange(n, dtype=np.int64)
            codes = np.concatenate((src * n + dst, verts * (n + 1)))
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            src, dst = np.divmod(codes, max(n, 1))
            cls = np.concatenate((cls, np.zeros(n, dtype=np.int64)))[order]
        for i in range(2, ext.depth + 1):
            cls, carry, rnd = _refine(n, src, dst, codes, cls, carry, i)
            rounds.append(rnd)
        keep = cls > 0
        graph._signatures = Signatures(
            _HostIndex(n, src[keep], dst[keep], cls[keep], carry.size - 1),
            tuple(rounds))
    return graph._signatures


def _refine(n: int, src: np.ndarray, dst: np.ndarray, codes: np.ndarray,
            cls: np.ndarray, carry: np.ndarray, i: int) -> tuple:
    """Round i of ``signature_index``: every element's class, every
    class's carried weights, and the round's ``_Round``. Elements are
    sorted by (source, target), with codes ``src * n + dst``."""
    size = carry.size  # round i - 1 classes, none included
    live = np.flatnonzero(cls)
    # every ordered pair (e1, e2) of live elements out of one centre,
    # e1 = e2 included, kept where (dst[e1], dst[e2]) is an element
    z = src[live]
    start = np.searchsorted(z, z)
    rep = np.searchsorted(z, z, side="right") - start
    e1 = np.repeat(live, rep)
    within = np.arange(e1.size) - np.repeat(np.cumsum(rep) - rep, rep)
    e2 = live[np.repeat(start, rep) + within]
    query = dst[e1] * n + dst[e2]
    pos = np.minimum(np.searchsorted(codes, query), max(codes.size - 1, 0))
    hit = codes[pos] == query if codes.size else np.zeros(0, dtype=bool)
    elem, one, two = pos[hit], cls[e1[hit]], cls[e2[hit]]
    closes = np.zeros((size, size), dtype=bool)
    for p in range(1, i):
        closes |= ((carry[:, None] >> p) & (carry[None, :] >> (i - p))
                   & 1).astype(bool)
    keep = closes[one, two]
    key = _sorted_unique(elem[keep] * size ** 2
                         + one[keep] * size + two[keep])
    elem, pair = np.divmod(key, size ** 2)
    # one row per element: (previous class, none last; loop; its pair
    # codes ascending, then -1)
    counts = np.bincount(elem, minlength=codes.size)
    rows = np.full((codes.size, 2 + int(counts.max(initial=0))), -1,
                   dtype=np.int64)
    rows[:, 0] = np.where(cls > 0, cls, size)
    rows[:, 1] = src == dst
    rows[elem, 2 + np.arange(elem.size) - (np.cumsum(counts) - counts)[elem]] \
        = pair
    # distinct rows in lexicographic order (np.unique(axis=0) is ~8x
    # slower), each element's row numbered among them
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    uniq = rows[new]
    inv = np.empty(rows.shape[0], dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    prev = np.where(uniq[:, 0] == size, 0, uniq[:, 0])
    grown = (uniq[:, 2] >= 0 if uniq.shape[1] > 2
             else np.zeros(uniq.shape[0], dtype=bool))
    carried = carry[prev] | (grown.astype(np.int64) << i)
    alive = carried > 0
    ids = np.cumsum(alive) * alive
    kept = uniq[alive]
    row, col = np.nonzero(kept[:, 2:] >= 0)
    first, second = np.divmod(kept[row, 2 + col], size)
    rnd = _Round(np.concatenate(([0], prev[alive])),
                 np.concatenate(([False], kept[:, 1] == 1)),
                 row + 1, first, second)
    return ids[inv], np.concatenate(([0], carried[alive])), rnd


def class_weights(sig: Signatures, h: UndirectedGraph,
                  tau: frozenset) -> np.ndarray:
    """F_t of ``signature_index``: per class s of its last round (s = 0
    is none), the k x k matrix whose entry (a, b) is the weight of the
    product arc <a,x> -> <b,y> over an element (x, y) of class s, 0
    where there is none; tau orients pattern pairs as
    ``fiber_tournament(h, t)`` does.

    The product's own round rule: F_1 is 1 on the edges of h (class 1,
    "DAG arc"). At round i a class keeps its previous class's weights,
    and an (a, b) with none yet takes weight i when some centre c has
    weights p and i - p to a and b through one of the class's pairs, and
    on a loop also a != b and tau orients a -> b. The pair is then
    linked neither way: the reverse arc <b,y> -> <a,x> lies over (y, x),
    which is no element unless x = y, and on a loop tau orients each
    pair one way only."""
    k = h.n
    weights = np.zeros((2, k, k), dtype=np.int64)
    edges = h.edge_array
    weights[1, edges[:, 0], edges[:, 1]] = 1
    weights[1, edges[:, 1], edges[:, 0]] = 1
    orient = np.zeros((k, k), dtype=bool)
    for a, b in tau:
        orient[a, b] = True
    for i, rnd in enumerate(sig.rounds, 2):
        base = weights[rnd.prev]
        close = np.zeros(base.shape, dtype=bool)
        if rnd.pair_cls.size:
            hit = np.zeros((rnd.pair_cls.size, k, k), dtype=bool)
            for p in range(1, i):
                one = (weights[rnd.first] == p).astype(np.int32)
                two = (weights[rnd.second] == i - p).astype(np.int32)
                hit |= np.matmul(one.transpose(0, 2, 1), two) > 0
            starts = np.flatnonzero(np.diff(rnd.pair_cls, prepend=-1))
            close[rnd.pair_cls[starts]] = np.logical_or.reduceat(
                hit, starts, axis=0)
        close &= ~rnd.loop[:, None, None] | orient
        weights = np.where(base > 0, base, np.where(close, i, 0))
    return weights


class SignatureHost:
    """What every count at depth t runs on: the index of
    ``signature_index`` of G's own depth-t extension, the
    ``class_weights`` F_t of its pattern h and tournament tau, and the
    pattern's vertex weights.

    A pattern arc (a, b, w) reads the classes {s : 1 <= F_t[s][a, b] <=
    w}: the host arcs x -> y whose product twin <a,x> -> <b,y> exists
    with weight at most w. So an unlabeled member counts on G's n
    vertices what its labeled twin counts on the k * n-vertex product
    extension. At t = 1 every member arc reads (1,), the DAG arcs.
    ``vertex_weights`` holds, per pattern vertex, an exact integer array
    over the host's vertices or None, and a homomorphism phi counts the
    product of vertex_weights[a][phi(a)]; None, for one vertex or for
    the whole tuple, is weight 1 everywhere.

    The host also holds the family's prefix cache: the block states its
    bags left before their first cut, of at most ``ROW_BLOCK`` rows
    each, keyed by ``_prefix_keys``, so a bag starts where an earlier
    bag of any member with the same prefix stopped. It lives as long as
    the host, one ``count_family``.
    """

    __slots__ = ("index", "class_weights", "vertex_weights", "_reads",
                 "_prefixes")

    def __init__(self, index: _HostIndex, class_weights: np.ndarray,
                 vertex_weights: tuple | None = None):
        self.index = index
        self.class_weights = class_weights
        self.vertex_weights = vertex_weights
        self._reads: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._prefixes: dict[tuple, _BlockState] = {}

    def read(self, a: int, b: int, w: int) -> tuple[int, ...]:
        """The classes a pattern arc (a, b, w) maps onto."""
        got = self._reads.get((a, b, w))
        if got is None:
            col = self.class_weights[:, a, b]
            got = self._reads[(a, b, w)] = tuple(
                np.flatnonzero((col >= 1) & (col <= w)).tolist())
        return got


class _Slot(NamedTuple):
    """Everything to run after a fixed number of vertices are assigned."""

    checks: tuple          # (a, b, classes)
    lookups: tuple         # indices into the plan's children
    drops_pre: tuple       # columns dead before the lookups run
    drops_post: tuple      # columns last read by this slot's lookups


class _BagPlan(NamedTuple):
    hub: int
    order: tuple[int, ...]
    # (vertex, parent, classes the arc reads, columns last read by this
    # expansion)
    steps: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]
    # per step, (b, classes) of the first check v -> b in the slot right
    # after v is assigned, or None
    closes: tuple[tuple[int, tuple[int, ...]] | None, ...]
    slots: tuple[_Slot, ...]                      # indexed by assigned count
    out_cols: tuple[int, ...]                     # shared with the parent
    children: tuple[int, ...]
    child_domains: tuple[tuple[int, ...], ...]


def _build_plan(pattern, tree: HubTree, bag: int,
                domains: dict[int, tuple[int, ...]], read) -> _BagPlan:
    """The bag's plan, compiled in plain Python from the pattern's
    ``succ`` and the hub's BFS out-tree (``hub_decomp.out_tree``, cached
    on the pattern), so every field holds Python ints. ``pattern`` is a
    ``PatternExtension`` or a ``DirWLGraph``. ``domains`` maps each bag
    to the sorted vertices it shares with its parent (none at the root).
    ``read(a, b, w)`` is the tuple of host classes a pattern arc
    (a, b, w) maps onto."""
    hub = tree.bags[bag]
    succ = pattern.succ
    order, parent = out_tree(pattern, hub)
    pos = {v: i for i, v in enumerate(order)}
    nverts = len(order)
    checks_at: list[list[tuple]] = [[] for _ in range(nverts + 1)]
    lookups_at: list[list[int]] = [[] for _ in range(nverts + 1)]
    tree_read = {}
    # Reach(hub) is closed under out-arcs; ascending sources keep the
    # checks in (src, dst) order
    ascending = sorted(order)
    for a in ascending:
        for b, w in succ[a]:
            if parent[b] == a:
                tree_read[b] = read(a, b, w)
            else:
                checks_at[max(pos[a], pos[b]) + 1].append((a, b, read(a, b, w)))
    steps = [(v, parent[v], tree_read[v]) for v in order[1:]]
    children = tree.children(bag)
    child_domains = [domains[ch] for ch in children]
    for idx, dom in enumerate(child_domains):
        lookups_at[max((pos[x] for x in dom), default=0) + 1].append(idx)
    # last slot at which each column is read
    last = {v: pos[v] + 1 for v in order}
    for t_at in range(nverts + 1):
        for a, b, *_ in checks_at[t_at]:
            last[a] = max(last[a], t_at)
            last[b] = max(last[b], t_at)
        for idx in lookups_at[t_at]:
            for x in child_domains[idx]:
                last[x] = max(last[x], t_at)
    out_cols = domains[bag]
    for x in out_cols:
        last[x] = nverts + 1
    # step i's expansion reads its parent p just before slot i + 2; when
    # no later slot reads p, its last expansion drops it before gathering
    # the other columns, and no slot does
    final = {p: i for i, (v, p, *_) in enumerate(steps)}
    steps = tuple((v, p, classes,
                   (p,) if final[p] == i and last[p] < i + 2 else ())
                  for i, (v, p, classes) in enumerate(steps))
    for *_, drops in steps:
        for p in drops:
            last[p] = -1
    closes = tuple(next(((b, classes) for a, b, classes in checks_at[i + 2]
                         if a == v), None)
                   for i, (v, *_) in enumerate(steps))
    # the columns whose last read is each slot, ascending; a column that
    # an expansion drops (-1) or the parent reads (nverts + 1) lands in
    # the last list, which no slot reads
    dying: list[list[int]] = [[] for _ in range(nverts + 2)]
    for v in ascending:
        dying[last[v]].append(v)
    slots = []
    for checks, lookups, dead in zip(checks_at, lookups_at, dying):
        in_lookup = {x for idx in lookups for x in child_domains[idx]}
        slots.append(_Slot(tuple(checks), tuple(lookups),
                           tuple(v for v in dead if v not in in_lookup),
                           tuple(v for v in dead if v in in_lookup)))
    return _BagPlan(hub, tuple(order), steps, closes, tuple(slots),
                    out_cols, children, tuple(child_domains))


def _prefix_keys(plan: _BagPlan, pos: dict[int, int], marks: list) -> tuple:
    """Per step i, the key of the state that slot i + 1 and step i leave:
    everything run on the rows from the root fiber up to there, with
    each vertex written as its position in ``plan.order`` (``pos``),
    and each weight as ``marks[j]`` at position j: the pattern vertex
    whose weight it applies, or None. Equal keys on one
    ``SignatureHost`` give equal states, in any bag of any member. The
    key is None from the first slot with a lookup on, since a child
    table belongs to one DP."""
    key = (marks[0],)
    keys = []
    for i, ((v, p, classes, drops), closes, slot) in enumerate(
            zip(plan.steps, plan.closes, plan.slots[1:]), 1):
        if key is None or slot.lookups:
            key = None
        else:
            # a step drops at most its parent
            key = (key,
                   tuple([(pos[a], pos[b], c) for a, b, c in slot.checks]),
                   tuple([pos[x] for x in slot.drops_pre]),
                   pos[p], classes, bool(drops), marks[i],
                   closes and (pos[closes[0]], closes[1]))
        keys.append(key)
    return tuple(keys)


def _pack(mat: np.ndarray, n: int, steps: tuple | None = None):
    """Row codes of a key matrix with entries below ``n``, and the steps
    that a query replays to code its rows the same way.

    Columns fold in as ``code * n + col``. Before a fold that could pass
    ``_I64_LIMIT``, the code is replaced by its rank among the distinct
    codes so far, and that sorted array is recorded as a step. Given the
    ``steps`` of a table, a query replays them with ``searchsorted``; a
    prefix that the table lacks becomes -1, which matches no code. With
    no columns every row packs to 0.
    """
    replay = None if steps is None else iter(steps)
    made = []
    code = np.zeros(mat.shape[0], dtype=np.int64)
    bound = 1  # every code is below it
    for j in range(mat.shape[1]):
        if bound * n - 1 > _I64_LIMIT:
            if replay is None:
                uniq, code = np.unique(code, return_inverse=True)
                made.append(uniq)
            else:
                uniq = next(replay)
                pos = np.minimum(np.searchsorted(uniq, code), uniq.size - 1)
                code = np.where(uniq[pos] == code, pos, -1)
            bound = uniq.size
        code = code * n + mat[:, j]
        bound *= n
    return code, (tuple(made) if steps is None else steps)


def _hash_slots(codes: np.ndarray, bits: int) -> np.ndarray:
    """Each int64 code's slot among 2^bits: the top ``bits`` bits of its
    product with 2^64 / phi, mod 2^64 (Fibonacci hashing, Knuth TAOCP
    6.4). A negative code, a replayed prefix the table lacks, hashes
    like any other."""
    slots = codes.view(np.uint64) * _FIB_HASH
    slots >>= np.uint64(64 - bits)
    return slots


def _bitmap(codes: np.ndarray) -> np.ndarray:
    """The membership bitmap of int64 codes (a ``_Table``'s, or the
    2-path pairs of ``_HostIndex.may_close``): at least
    ``_SLOTS_PER_CODE`` slots a code, a power of two, set at each
    code's slot."""
    bits = (_SLOTS_PER_CODE * codes.size - 1).bit_length()
    out = np.zeros(1 << bits, dtype=bool)
    out[_hash_slots(codes, bits)] = True
    return out


class _Table:
    """A bag's result: sorted unique codes of its restrictions to the
    vertices it shares with its parent, their summed counts, and the
    packing steps a query replays. The root shares none, so its table
    holds one code, 0, whose value is the count.

    A table of at least ``FILTER_MIN`` codes filters its join, a
    Bloom-style semi-join reduction (Bloom, CACM 1970; Bernstein and
    Chiu, JACM 1981): a bitmap of one bool per slot, at least
    ``_SLOTS_PER_CODE`` = 8 slots a code rounded up to a power of two,
    set at each code's ``_hash_slots``. A query whose slot is clear is
    no code, so only those whose slot is set pay the exact
    ``searchsorted``, and at most about 1 miss in 8 gets through. The
    bitmap is built on the first ``lookup``, so a table no parent probes
    (the root's) never holds one, and it costs 8 to 16 bytes a code,
    held while the table lives. A smaller table keeps the plain search,
    which is short and stays in cache, so a bitmap's build and hashing
    cost about what they save: built for every table, bitmaps cost the
    road-grid benchmark host (tables of at most 2,068 codes, mostly
    hit) 1-2 ms of DP time a count. ``FILTER_MIN`` also gates the
    2-path filter of ``_run_bag``, by a block's rows.
    """

    __slots__ = ("codes", "values", "steps", "n", "_bits")

    def __init__(self, codes, values, steps, n):
        self.codes = codes
        self.values = values
        self.steps = steps
        self.n = n
        self._bits = None

    def _search(self, q: np.ndarray):
        """(mask of the queries that are codes, each query's position)."""
        pos = np.searchsorted(self.codes, q)
        return self.codes[np.minimum(pos, self.codes.size - 1)] == q, pos

    def lookup(self, qmat: np.ndarray):
        """(mask of matched rows, values of the matches)."""
        if not self.codes.size:
            return np.zeros(qmat.shape[0], dtype=bool), self.values
        q, _ = _pack(qmat, self.n, self.steps)
        if self.codes.size < FILTER_MIN:
            ok, pos = self._search(q)
            return ok, self.values[pos[ok]]
        if self._bits is None:
            self._bits = _bitmap(self.codes)
        maybe = np.flatnonzero(self._bits.take(
            _hash_slots(q, self._bits.size.bit_length() - 1)))
        hit, pos = self._search(q[maybe])
        ok = np.zeros(q.size, dtype=bool)
        ok[maybe[hit]] = True
        return ok, self.values[pos[hit]]


def _aggregate_table(key_chunks, val_chunks, n: int) -> _Table:
    """One table from a bag's finished blocks: their key rows packed,
    and the values of equal codes summed. The sort need not be stable:
    the values are integers (widened first if their sum could pass
    int64), so each sum is exact in any order."""
    if not key_chunks:
        empty = np.empty(0, dtype=np.int64)
        return _Table(empty, empty, (), n)
    vals = np.concatenate(val_chunks)
    vals = _widen(vals, int(vals.max()) * vals.shape[0])
    codes, steps = _pack(np.concatenate(key_chunks, axis=0), n)
    srt = np.argsort(codes)
    cs = codes[srt]
    starts = np.concatenate(([0], np.nonzero(cs[1:] != cs[:-1])[0] + 1))
    return _Table(cs[starts], np.add.reduceat(vals[srt], starts), steps, n)


def _key_matrix(state: _BlockState, cols: tuple[int, ...]) -> np.ndarray:
    """The live rows' values at ``cols``, one row each; width 0 when
    ``cols`` is empty."""
    if not cols:
        return np.empty((state.nrows, 0), dtype=np.int64)
    return np.stack([state.cols[x] for x in cols], axis=1)


class _BlockState:
    __slots__ = ("cols", "vals", "nrows")

    def __init__(self, cols, vals, nrows):
        self.cols = cols
        self.vals = vals
        self.nrows = nrows

    def rows(self, lo: int, hi: int) -> _BlockState:
        """Rows lo..hi - 1 as views of this state's arrays."""
        return _BlockState({x: col[lo:hi] for x, col in self.cols.items()},
                           None if self.vals is None else self.vals[lo:hi],
                           min(hi, self.nrows) - lo)

    def shared(self, names) -> _BlockState:
        """This state with each column x renamed ``names[x]``, on the same
        arrays, now read-only: how the prefix cache stores a state (by
        position in the bag's order) and hands it out (by vertex)."""
        for arr in (*self.cols.values(), self.vals):
            if arr is not None:
                arr.flags.writeable = False
        return _BlockState({names[x]: col for x, col in self.cols.items()},
                           self.vals, self.nrows)

    def keep(self, mask: np.ndarray) -> None:
        """Keep the rows where ``mask`` is set, in their order: one
        ``take`` a column, several times faster than a boolean index
        under a sparse random mask."""
        idx = np.flatnonzero(mask)
        for key in list(self.cols):
            self.cols[key] = self.cols[key].take(idx)
        if self.vals is not None:
            self.vals = self.vals.take(idx)
        self.nrows = idx.size


def _run_bag(host: SignatureHost, plan: _BagPlan,
             tables: list[_Table]) -> _Table:
    """Evaluate one bag into its table, keyed by ``plan.out_cols``.

    A vertex shared with the parent (in ``out_cols``) gets its weight
    there, so its weight is not applied here. The root fiber keeps only
    the vertices where the root's weight is nonzero: a row of weight 0
    adds 0 to every sum it reaches.

    The rows are walked depth-first in blocks, on an explicit stack: a
    state of more than ``ROW_BLOCK`` rows (the root fiber, or what an
    expansion leaves) is cut into ``ROW_BLOCK``-row slices, views of its
    arrays, and each slice runs through the remaining slots and steps
    before the next one starts. So no slot or expansion reads more than
    ``ROW_BLOCK`` rows, and the live rows are at most len(steps) x
    ``ROW_BLOCK`` x the widest class set's outdegree, plus the root
    fiber (all n vertices) and the child tables. Each finished block
    adds its keys and values to the bag's chunks, which are aggregated
    once.

    Before a step expands v from its parent p, a block of at least
    ``FILTER_MIN`` rows whose step ``closes`` (the slot right after v is
    assigned checks an arc v -> b) drops the rows whose (p, b) starts no
    host 2-path p -> x -> b over the step's and the check's class sets
    (``_HostIndex.may_close``). Those rows would expand only into rows
    that fail the check, so every table is what it would be without the
    filter. A smaller block skips it: its hashing costs about what it
    saves where many rows close, and filtering every block cost the
    road-grid benchmark host (blocks of at most 3,619 rows, 30% passing)
    2-5% of a warm count.

    The bag starts from the deepest state of its prefix that the host's
    prefix cache holds (keyed by ``_prefix_keys``), renamed to its own
    vertices, and skips the slots and expansions that built it; with
    none cached, from the root fiber. Until its first cut, every state
    it builds of at most ``ROW_BLOCK`` rows joins the cache. A cached
    state is never written again: a slot or step replaces a column, it
    never writes into one."""
    hidx = host.index
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    vertex_weights = host.vertex_weights
    weights = [None if vertex_weights is None or v in plan.out_cols
               else vertex_weights[v] for v in plan.order]
    steps = [(*step, w) for step, w in zip(plan.steps, weights[1:])]
    prefixes = host._prefixes
    pos = {v: i for i, v in enumerate(plan.order)}
    keys = _prefix_keys(plan, pos, [None if w is None else v
                                    for v, w in zip(plan.order, weights)])
    # the keys a family has cached are closed under prefixes, so the bag
    # starts from the deepest cached state of its own
    start = 0
    while start < len(keys) and keys[start] in prefixes:
        start += 1
    if start:
        state = prefixes[keys[start - 1]].shared(plan.order)
    else:
        root_w = weights[0]
        fiber = (hidx.root if root_w is None
                 else np.flatnonzero(root_w).astype(np.int32))
        state = _BlockState({plan.order[0]: fiber},
                            None if root_w is None else root_w[fiber],
                            fiber.size)
    # (a state, the steps it has run); slot i + 1 runs next on it
    stack = [(state, start)] if state.nrows else []
    while stack:
        state, i = stack.pop()
        if state.nrows > ROW_BLOCK:
            # from here on a state holds a slice of its prefix's rows
            keys = (None,) * len(steps)
            stack.extend((state.rows(lo, lo + ROW_BLOCK), i) for lo in
                         reversed(range(0, state.nrows, ROW_BLOCK)))
        elif i == len(steps):
            if _apply_slot(hidx, plan, tables, state, i + 1):
                key_chunks.append(_key_matrix(state, plan.out_cols))
                val_chunks.append(state.vals if state.vals is not None
                                  else np.ones(state.nrows, dtype=np.int64))
        else:
            if not _advance(hidx, plan, tables, state, i, steps[i]):
                state = _BlockState({}, None, 0)
            if keys[i] is not None and state.nrows <= ROW_BLOCK:
                prefixes[keys[i]] = state.shared(pos)
            if state.nrows:
                stack.append((state, i + 1))
    return _aggregate_table(key_chunks, val_chunks, hidx.n)


def _advance(hidx: _HostIndex, plan: _BagPlan, tables: list[_Table],
             state: _BlockState, i: int, step: tuple) -> bool:
    """Slot i + 1, then step i, on one block; False when no row is left.
    Where the step ``closes``, a block of at least ``FILTER_MIN`` rows
    first keeps the rows that may close (``_HostIndex.may_close``)."""
    if not _apply_slot(hidx, plan, tables, state, i + 1):
        return False
    closes = plan.closes[i]
    if closes is not None and state.nrows >= FILTER_MIN:
        _, p, classes, *_ = step
        state.keep(hidx.may_close(state.cols[p], state.cols[closes[0]],
                                  classes, closes[1]))
    return _expand(hidx, state, *step)


def _expand(hidx: _HostIndex, state: _BlockState, v: int, p: int,
            classes: tuple[int, ...], dying: tuple[int, ...],
            w: np.ndarray | None) -> bool:
    """Extend every row by each candidate image of v, times v's weight
    ``w`` there (None: 1); the ``dying`` columns, read last here, are
    dropped before the gather. The candidates are p's rows in the class
    set's padded table, one ``take``; the new rows keep the parent
    rows' order, and within a row the (class, target) order."""
    rows = hidx.padded(classes)[0]
    width = rows.shape[1]
    if width == 0:
        return False
    cand = rows.take(state.cols[p], axis=0).ravel()
    keep = np.flatnonzero(cand >= 0)
    if keep.size == 0:
        return False
    for x in dying:
        del state.cols[x]
    ridx = keep // width
    newcol = cand[keep]
    for key in list(state.cols):
        state.cols[key] = state.cols[key][ridx]
    if state.vals is not None:
        state.vals = state.vals[ridx]
    if w is not None:
        state.vals = _times(state.vals, w[newcol])
    state.cols[v] = newcol
    state.nrows = keep.size
    return True


def _apply_slot(hidx: _HostIndex, plan: _BagPlan, tables: list[_Table],
                state: _BlockState, t_at: int) -> bool:
    slot = plan.slots[t_at]
    if slot.checks and state.nrows:
        mask = None
        for a, b, classes in slot.checks:
            ok = hidx.has_arcs(state.cols[a], state.cols[b], classes)
            mask = ok if mask is None else (mask & ok)
        for v in slot.drops_pre:
            state.cols.pop(v, None)
        if not mask.all():
            state.keep(mask)
    else:
        for v in slot.drops_pre:
            state.cols.pop(v, None)
    if state.nrows == 0:
        return False
    for idx in slot.lookups:
        ok, looked = tables[idx].lookup(
            _key_matrix(state, plan.child_domains[idx]))
        if not looked.size:
            state.nrows = 0
            return False
        if not ok.all():
            state.keep(ok)
            if state.nrows == 0:
                return False
        state.vals = _times(state.vals, looked)
    for v in slot.drops_post:
        state.cols.pop(v, None)
    return state.nrows > 0


def extension_count(pattern, tree: HubTree, host: SignatureHost) -> int:
    """The weighted count in the root's table, whose one code is 0.

    ``pattern`` is a ``fraternal.PatternExtension`` (what a count
    passes) or a ``DirWLGraph``; only its plain-Python side is read.
    ``host`` is the ``SignatureHost`` of a count; without vertex weights
    it is read with weight 1 everywhere. On the host of a count the
    result equals the count of the member's labeled twin on the
    extension of H^L x G (the tests lift it from G's own as their
    oracle). On an index whose classes are arc weights, with F_t[s] = s
    everywhere, a pattern arc of weight w reads classes 1..w, and the
    result equals sum(bressan_count(pattern, tree, tree.root,
    graph).values()), the dict engine the tests keep as its oracle
    (``tests/oracles.py``). With vertex weights, every homomorphism
    counts the product of its vertices' weights, each applied in the one
    bag where its vertex is not shared with the parent. A bag B shares
    Reach(parent) & Reach(B) with its parent; the oracle's Reach(parent)
    & Reach(down(B)) is the same set on a width-1 tree, where a vertex
    reached by two bags is reached by every bag between them. Every root
    fiber is drawn from all host vertices: raises ValueError when the
    pattern carries a nonzero vertex label, which this engine does not
    read.
    """
    if np.any(getattr(pattern, "labels", 0) != 0):
        raise ValueError("the DP engine reads no vertex labels")
    read = host.read
    order = tree.postorder()
    domains = {bag: tuple(sorted(reach(pattern, tree.bags[tree.parent[bag]])
                                 & reach(pattern, tree.bags[bag])))
               for bag in order if bag != tree.root}
    domains[tree.root] = ()
    tables: dict[int, _Table] = {}
    for bag in order:
        plan = _build_plan(pattern, tree, bag, domains, read)
        tables[bag] = _run_bag(host, plan,
                               [tables.pop(ch) for ch in plan.children])
    root = tables[tree.root]
    return int(root.values[0]) if root.codes.size else 0
