"""The vectorized width-1 DP engine that every count runs.

Semantically identical to the dict-based generalized tree DP in
``counting``, kept as its oracle; rows of numpy arrays stand in for
partial homomorphisms. Per bag, the root fiber is expanded along the
BFS spanning out-tree, depth-first in blocks of at most ``ROW_BLOCK``
rows: a block runs through the remaining steps before the next one
starts, so the rows alive at once are bounded by the block size and
Delta+, not by the host's size. A pattern arc reads a contiguous class
range of host arcs (weights 1..w on a weight host, arc classes on the
depth-2 host over G's n vertices), held as a table padded to the
range's width D <= Delta+ per (source, target label) bucket
(``_HostIndex.padded``): an expansion gathers each row's bucket in one
take, and a non-tree arc is checked with D column gathers per row
(``_HostIndex.has_arcs``). Columns stop being carried as soon as
nothing downstream reads them; a parent column whose last read is an
expansion is dropped before that expansion gathers the others.
Host-sized work is plain numpy; each bag's plan is compiled in plain
Python from the pattern's ``succ`` adjacency.

Every bag yields one ``_Table``: its rows' restrictions to the vertices
it shares with its parent, packed into sorted int64 codes, with their
summed counts. The parent joins it with ``searchsorted``. Where a key
would pack past int64 its prefix is first replaced by its rank among
the table's distinct prefixes, and queries replay those ranks. The root
shares no vertex with a parent, so its table holds one code and the
count; so does a child that shares none with its own parent.

Every count is weighted (``WeightedHost``): a homomorphism counts the
product of its pattern vertices' weights at their images, where a
pattern vertex's weight is the number of ways its folded pendant trees
map (``pendant_weights``, message passing over G's CSR) and 1 when none
hangs at it. Each weight enters once, in the one bag where its vertex
is not shared with the parent: the root fiber starts at its weight,
and every expansion multiplies by the new column's weight.

Values are int64. Before each multiply or sum, a bound on its result is
computed from the operands' maxima; where it could pass int64 the value
array is widened to exact Python ints (``dtype=object``) and stays
widened from there on, so every count is exact on this one engine.
``np.bincount(weights=...)`` is never used: it sums in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fraternal import FraternalExtension, _wedge_pairs
from .graph_core import DirWLGraph, UndirectedGraph, bfs_out_tree, plain_labels
from .hub_decomp import HubTree, reach
from .pattern_tools import PendantForest

ROW_BLOCK = 1 << 15
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
    """Padded out-arc tables over (source, target-label) buckets, one per
    class range: the ELLPACK layout (Bell and Garland, SC 2009).

    Every arc has a class from 1 to ``ncls``: its weight on a weight
    host, or its arc class on the two-hop host (``two_hop_index``). A
    bucket is a source and a target label, ``src * k + label``; with one
    label (k = 1, every host at depths 1 and 2) it is the source itself.
    ``padded(lo, hi)`` lists, per bucket, its arcs of class lo..hi in
    (class, target) order, padded with -1 to the range's width D, the
    largest such count; D is at most Delta+, since G's extension is
    oriented by degeneracy. A range is built on first use from the arcs
    sorted by (bucket, class, target) and kept twice, row-major (buckets
    x D) for ``_expand`` and as its contiguous transpose (D x buckets)
    for ``has_arcs``: 2 x buckets x D x 4 bytes per range. A host whose
    buckets x D is far above its arc count (n x Delta+ >> m: a few wide
    buckets among many narrow ones) pays for that padding: a known
    limit, left open. A grid past ``MAX_BUCKETS`` is refused; only a
    lifted product extension (t >= 3), with k * n vertices x k labels,
    can reach it: the depth-1 and depth-2 hosts have G's n vertices and
    one label, n buckets.
    """

    # (vertices x labels) bucket grid; a larger one is refused
    MAX_BUCKETS = 64_000_000

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 cls: np.ndarray, ncls: int, fibers: dict, labels=None):
        self.n = n
        self.k = int(labels.max()) + 1 if labels is not None and n else 1
        self.tmax = ncls
        nb = self.n * self.k
        if nb > self.MAX_BUCKETS:
            raise ValueError(f"host index of {self.n} vertices x {self.k} "
                             f"labels = {nb} buckets is past the cap of "
                             f"{self.MAX_BUCKETS}")
        bucket = src * self.k + labels[dst] if self.k > 1 else src
        order = np.lexsort((dst, cls, bucket))
        # int32 holds every bucket id, since MAX_BUCKETS < 2**31
        self._arcs = tuple(arr[order].astype(np.int32)
                           for arr in (bucket, cls, dst))
        self.fibers = {lab: arr.astype(np.int32)
                       for lab, arr in fibers.items()}
        self._padded: dict[tuple[int, int], tuple] = {}

    def padded(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The int32 table of class range lo..hi, (buckets x D) row-major,
        and its contiguous transpose: row x lists bucket x's arcs of the
        range, by (class, target), then -1."""
        key = (lo, min(hi, self.tmax))
        got = self._padded.get(key)
        if got is None:
            bucket, cls, dst = self._arcs
            keep = (cls >= lo) & (cls <= key[1])
            bucket, dst = bucket[keep], dst[keep]
            counts = np.bincount(bucket, minlength=self.n * self.k)
            rows = np.full((counts.size, int(counts.max(initial=0))), -1,
                           dtype=np.int32)
            first = np.cumsum(counts) - counts
            rows[bucket, np.arange(bucket.size) - first[bucket]] = dst
            got = self._padded[key] = (rows, np.ascontiguousarray(rows.T))
        return got

    def bucket(self, verts: np.ndarray, lab: int) -> np.ndarray:
        """Each vertex's ``lab`` bucket: the vertex itself when k = 1."""
        return verts if self.k == 1 else verts.astype(np.int64) * self.k + lab

    def has_arcs(self, a: np.ndarray, b: np.ndarray, lo: int, hi: int,
                 lab_b: int) -> np.ndarray:
        """Per row: is there a host arc a -> b of class lo..hi?

        ``lab_b`` is the label of every b. Gathers a's bucket from each of
        the range's D columns and compares it with b, so a row costs D
        gathers, at most Delta+; the padding, -1, matches no vertex, so
        no count mask is needed.
        """
        bucket = self.bucket(a, lab_b)
        found = np.zeros(a.shape[0], dtype=bool)
        for col in self.padded(lo, hi)[1]:
            found |= col.take(bucket) == b
        return found


def _host_index(g: DirWLGraph) -> _HostIndex:
    """The weight host over g, cached on it: an arc's class is its
    weight."""
    if g._dp_index is None:
        g._dp_index = _HostIndex(
            g.n, g.src, g.dst, g.wgt, int(g.wgt.max()) if g.arc_count else 1,
            g.fibers(), g.labels)
    return g._dp_index


def two_hop_index(ext: FraternalExtension) -> _HostIndex:
    """The host of a depth-2 count over G's n vertices, one label, read
    from G's own extension ``ext`` (its layers 1 and 2; deeper layers
    are ignored) and cached on its graph. Per source, the arc classes
    are:

    1. a layer-1 (DAG) arc whose ends share no in-neighbour;
    2. a DAG arc whose ends share an in-neighbour;
    3. an arc of G's layer 2;
    4. a loop x -> x at each vertex x with an in-arc.

    A round-2 pair <a,x> - <b,y> of the lifted product extension exists
    exactly when a and b share an H-neighbour, x and y share a DAG
    in-neighbour (x = y when x has an in-arc) and the pair is not linked
    at weight 1; it points as G's extension orients x - y, or as tau
    orients a - b when x = y. So a pattern arc (a, b, 2), whose ends
    share an H-neighbour and no H-edge, maps onto classes 2..3, or 2..4
    when tau orients a -> b, and an arc (a, b, 1) onto the DAG, classes
    1..2 (``TwoHopHost.arc_range``). The loops live only here, since a
    ``DirWLGraph`` holds no self-arc.
    """
    graph = ext.graph
    if graph._two_hop is None:
        n = graph.n
        dag, layer2 = ext.layers[0], ext.layers[1]
        # _wedge_pairs before the "already linked" filter: a DAG arc
        # closing a triangle still has ends that share an in-neighbour.
        # They are the ones G's round 2 found, cached on the graph, and
        # their codes are sorted
        shared = _wedge_pairs(graph, 2)
        shared = shared[:, 0] * n + shared[:, 1]
        codes = (np.minimum(dag[:, 0], dag[:, 1]) * n
                 + np.maximum(dag[:, 0], dag[:, 1]))
        pos = np.minimum(np.searchsorted(shared, codes),
                         max(shared.size - 1, 0))
        closed = (shared[pos] == codes if shared.size
                  else np.zeros(codes.size, dtype=bool))
        loops = np.flatnonzero(np.bincount(dag[:, 1], minlength=n))
        src = np.concatenate((dag[:, 0], layer2[:, 0], loops))
        dst = np.concatenate((dag[:, 1], layer2[:, 1], loops))
        cls = np.concatenate((1 + closed, np.full(layer2.shape[0], 3),
                              np.full(loops.shape[0], 4)))
        fibers = {0: np.arange(n)} if n else {}
        graph._two_hop = _HostIndex(n, src, dst, cls, 4, fibers)
    return graph._two_hop


def _weight_range(a: int, b: int, w: int) -> tuple[int, int]:
    """A pattern arc of weight w maps onto host arcs of weight 1..w."""
    return 1, w


@dataclass(frozen=True)
class TwoHopHost:
    """What a depth-2 count runs on: ``two_hop_index`` of G's own
    extension, and the pattern pairs (a, b) that ``fiber_tournament(H,
    2)`` orients a -> b."""

    index: _HostIndex
    tau: frozenset

    def arc_range(self, a: int, b: int, w: int) -> tuple[int, int]:
        """The classes a pattern arc (a, b, w) of a depth-2 member maps
        onto."""
        if w == 1:
            return 1, 2
        return 2, 4 if (a, b) in self.tau else 3


@dataclass(frozen=True)
class WeightedHost:
    """What every count runs on: a host and its per-vertex weights.

    ``host`` is a weight host (a ``DirWLGraph``) or a ``TwoHopHost``.
    ``weights`` holds, per pattern vertex, an exact integer array over
    the host's vertices, or None for weight 1 everywhere; a homomorphism
    phi counts the product of weights[a][phi(a)].
    """

    host: DirWLGraph | TwoHopHost
    weights: tuple


@dataclass(frozen=True)
class _Slot:
    """Everything to run after a fixed number of vertices are assigned."""

    checks: tuple          # (a, b, lo, hi, label_b)
    lookups: tuple         # indices into the plan's children
    drops_pre: tuple       # columns dead before the lookups run
    drops_post: tuple      # columns last read by this slot's lookups


@dataclass(frozen=True)
class _BagPlan:
    hub: int
    root_label: int
    order: tuple[int, ...]
    # (vertex, parent, lo, hi, label, columns last read by this
    # expansion); lo..hi is the arc's class range
    steps: tuple[tuple[int, int, int, int, int, tuple[int, ...]], ...]
    slots: tuple[_Slot, ...]                      # indexed by assigned count
    out_cols: tuple[int, ...]                     # shared with the parent
    children: tuple[int, ...]
    child_domains: tuple[tuple[int, ...], ...]


def _build_plan(pattern, tree: HubTree, bag: int,
                domains: dict[int, tuple[int, ...]],
                arc_range=_weight_range) -> _BagPlan:
    """The bag's plan, compiled in plain Python from the pattern's
    ``succ`` and ``labels`` (None reads as label 0), so every field holds
    Python ints. ``pattern`` is a ``PatternExtension`` or a
    ``DirWLGraph``. ``domains`` maps each bag to the sorted vertices it
    shares with its parent (none at the root). ``arc_range(a, b, w)`` is
    the host's class range lo..hi for a pattern arc (a, b, w)."""
    hub = tree.bags[bag]
    succ = pattern.succ
    order, parent = bfs_out_tree(pattern, hub)
    pos = {v: i for i, v in enumerate(order)}
    labels = plain_labels(pattern)
    nverts = len(order)
    checks_at: list[list[tuple]] = [[] for _ in range(nverts + 1)]
    lookups_at: list[list[int]] = [[] for _ in range(nverts + 1)]
    tree_rng = {}
    # Reach(hub) is closed under out-arcs; ascending sources keep the
    # checks in (src, dst) order
    for a in sorted(order):
        for b, w in succ[a]:
            if parent[b] == a:
                tree_rng[b] = arc_range(a, b, w)
            else:
                checks_at[max(pos[a], pos[b]) + 1].append(
                    (a, b, *arc_range(a, b, w), labels[b]))
    steps = [(v, parent[v], *tree_rng[v], labels[v]) for v in order[1:]]
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
    steps = tuple((v, p, lo, hi, lab,
                   (p,) if final[p] == i and last[p] < i + 2 else ())
                  for i, (v, p, lo, hi, lab) in enumerate(steps))
    for *_, drops in steps:
        for p in drops:
            last[p] = -1
    slots = []
    for t_at in range(nverts + 1):
        dying = sorted(v for v in order if last[v] == t_at)
        in_lookup = {x for idx in lookups_at[t_at]
                     for x in child_domains[idx]}
        pre = tuple(v for v in dying if v not in in_lookup)
        post = tuple(v for v in dying if v in in_lookup)
        slots.append(_Slot(tuple(checks_at[t_at]), tuple(lookups_at[t_at]),
                           pre, post))
    return _BagPlan(hub, labels[hub], tuple(order), steps, tuple(slots),
                    out_cols, children, tuple(child_domains))


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


class _Table:
    """A bag's result: sorted unique codes of its restrictions to the
    vertices it shares with its parent, their summed counts, and the
    packing steps a query replays. The root shares none, so its table
    holds one code, 0, whose value is the count."""

    __slots__ = ("codes", "values", "steps", "n")

    def __init__(self, codes, values, steps, n):
        self.codes = codes
        self.values = values
        self.steps = steps
        self.n = n

    def lookup(self, qmat: np.ndarray):
        """(mask of matched rows, values of the matches)."""
        if not self.codes.size:
            return np.zeros(qmat.shape[0], dtype=bool), self.values
        q, _ = _pack(qmat, self.n, self.steps)
        pos = np.searchsorted(self.codes, q)
        ok = self.codes[np.minimum(pos, self.codes.size - 1)] == q
        return ok, self.values[pos[ok]]


def _aggregate_table(key_chunks, val_chunks, n: int) -> _Table:
    if not key_chunks:
        empty = np.empty(0, dtype=np.int64)
        return _Table(empty, empty, (), n)
    vals = np.concatenate(val_chunks)
    vals = _widen(vals, int(vals.max()) * vals.shape[0])
    codes, steps = _pack(np.concatenate(key_chunks, axis=0), n)
    srt = np.argsort(codes, kind="stable")
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


def _run_bag(hidx: _HostIndex, host: WeightedHost, plan: _BagPlan,
             tables: list[_Table]) -> _Table:
    """Evaluate one bag into its table, keyed by ``plan.out_cols``.

    A vertex shared with the parent (in ``out_cols``) gets its weight
    there, so its weight is not applied here.

    The rows are walked depth-first in blocks, on an explicit stack: a
    state of more than ``ROW_BLOCK`` rows (the root fiber, or what an
    expansion leaves) is cut into ``ROW_BLOCK``-row slices, views of its
    arrays, and each slice runs through the remaining slots and steps
    before the next one starts. So no slot or expansion reads more than
    ``ROW_BLOCK`` rows, and the live rows are at most len(steps) x
    ``ROW_BLOCK`` x the widest class range's outdegree, plus the root
    fiber and the child tables. Each finished block adds its keys and
    values to the bag's chunks, which are aggregated once."""
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    fiber = hidx.fibers.get(plan.root_label)
    if fiber is None or any(step[4] >= hidx.k for step in plan.steps):
        return _aggregate_table(key_chunks, val_chunks, hidx.n)
    weights = [None if v in plan.out_cols else host.weights[v]
               for v in plan.order]
    root_w = weights[0]
    steps = [(*step, w) for step, w in zip(plan.steps, weights[1:])]

    state = _BlockState({plan.order[0]: fiber},
                        None if root_w is None else root_w[fiber], fiber.size)
    # (a state, the steps it has run); slot i + 1 runs next on it
    stack = [(state, 0)]
    while stack:
        state, i = stack.pop()
        if state.nrows > ROW_BLOCK:
            stack.extend((state.rows(lo, lo + ROW_BLOCK), i) for lo in
                         reversed(range(0, state.nrows, ROW_BLOCK)))
        elif not _apply_slot(hidx, plan, tables, state, i + 1):
            continue
        elif i == len(steps):
            key_chunks.append(_key_matrix(state, plan.out_cols))
            val_chunks.append(state.vals if state.vals is not None
                              else np.ones(state.nrows, dtype=np.int64))
        elif _expand(hidx, state, *steps[i]):
            stack.append((state, i + 1))
    return _aggregate_table(key_chunks, val_chunks, hidx.n)


def _expand(hidx: _HostIndex, state: _BlockState, v: int, p: int,
            lo: int, hi: int, lab: int, dying: tuple[int, ...],
            w: np.ndarray | None) -> bool:
    """Extend every row by each candidate image of v, times v's weight
    ``w`` there (None: 1); the ``dying`` columns, read last here, are
    dropped before the gather. The candidates are the rows of p's
    buckets in the range's padded table, one ``take``; the new rows
    keep the parent rows' order, and within a row the bucket's (class,
    target) order."""
    rows = hidx.padded(lo, hi)[0]
    width = rows.shape[1]
    if width == 0:
        return False
    cand = rows.take(hidx.bucket(state.cols[p], lab), axis=0).ravel()
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
        for a, b, lo, hi, lb in slot.checks:
            ok = hidx.has_arcs(state.cols[a], state.cols[b], lo, hi, lb)
            mask = ok if mask is None else (mask & ok)
        for v in slot.drops_pre:
            state.cols.pop(v, None)
        if not mask.all():
            for key in list(state.cols):
                state.cols[key] = state.cols[key][mask]
            if state.vals is not None:
                state.vals = state.vals[mask]
            state.nrows = int(mask.sum())
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
        if ok.all():
            kept = state.vals
        else:
            for key in list(state.cols):
                state.cols[key] = state.cols[key][ok]
            kept = state.vals[ok] if state.vals is not None else None
            state.nrows = int(ok.sum())
            if state.nrows == 0:
                return False
        state.vals = _times(kept, looked)
    for v in slot.drops_post:
        state.cols.pop(v, None)
    return state.nrows > 0


def extension_count(pattern, tree: HubTree,
                    host: DirWLGraph | TwoHopHost | WeightedHost) -> int:
    """The weighted count in the root's table, whose one code is 0.

    ``pattern`` is a ``fraternal.PatternExtension`` (what a count passes)
    or a ``DirWLGraph``; only its plain-Python side is read. ``host`` is
    the ``WeightedHost`` a count passes, or a bare host, read with weight
    1 everywhere. The bare host is a weight host (a ``DirWLGraph``: a
    pattern arc of weight w maps onto host arcs of weight 1..w), where
    the count equals sum(bressan_count(pattern, tree, tree.root,
    host).values()), the dict engine kept as its oracle; or the
    ``TwoHopHost`` of a depth-2 count, where it equals the count of the
    labeled member on the lifted ``fraternal.optimal_extension(g, 2,
    pattern=h)``. With weights, every homomorphism counts the product of
    its vertices' weights, each applied in the one bag where its vertex
    is not shared with the parent. A bag B shares
    Reach(parent) & Reach(B) with its parent; the oracle's Reach(parent)
    & Reach(down(B)) is the same set on a width-1 tree, where a vertex
    reached by two bags is reached by every bag between them. Raises
    ValueError when the host's (vertex x label) bucket grid is past
    ``_HostIndex.MAX_BUCKETS``, which only a lifted extension (t >= 3)
    can reach; each class range the count reads then holds 2 x buckets x
    D int32 entries, D its widest bucket.
    """
    if not isinstance(host, WeightedHost):
        host = WeightedHost(host, (None,) * pattern.n)
    base = host.host
    if isinstance(base, TwoHopHost):
        hidx, arc_range = base.index, base.arc_range
    else:
        hidx, arc_range = _host_index(base), _weight_range
    order = tree.postorder()
    domains = {bag: tuple(sorted(reach(pattern, tree.bags[tree.parent[bag]])
                                 & reach(pattern, tree.bags[bag])))
               for bag in order if bag != tree.root}
    domains[tree.root] = ()
    tables: dict[int, _Table] = {}
    for bag in order:
        plan = _build_plan(pattern, tree, bag, domains, arc_range)
        tables[bag] = _run_bag(hidx, host, plan,
                               [tables.pop(ch) for ch in plan.children])
    root = tables[tree.root]
    return int(root.values[0]) if root.codes.size else 0
