"""The vectorized width-1 DP engine that every count runs.

Semantically identical to the dict-based generalized tree DP in
``counting``, kept as its oracle; rows of numpy arrays stand in for
partial homomorphisms. Per bag, the root fiber is expanded chunk by
chunk along the BFS spanning out-tree (CSR buckets keyed by (source,
target label) with weight-prefix counts). Non-tree arcs are checked by
scanning the same buckets (``_HostIndex.has_arcs``), at most Delta+
gathers per row. Columns stop being carried as soon as nothing
downstream reads them. Everything is plain numpy.

Every bag yields one ``_Table``: its rows' restrictions to the vertices
it shares with its parent, packed into sorted int64 codes, with their
summed counts. The parent joins it with ``searchsorted``. Where a key
would pack past int64 its prefix is first replaced by its rank among
the table's distinct prefixes, and queries replay those ranks. The root
shares no vertex with a parent, so its table holds one code and the
count; so does a child that shares none with its own parent.

Values are int64. Before each multiply or sum, a bound on its result is
computed from the operands' maxima; where it could pass int64 the value
array is widened to exact Python ints (``dtype=object``) and stays
widened from there on, so every count is exact on this one engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import DirWLGraph, bfs_out_tree
from .hub_decomp import HubTree, reach

CHUNK_ROOTS = 1 << 16
_I64_LIMIT = 2 ** 63 - 1


def _widen(vals: np.ndarray, bound: int) -> np.ndarray:
    """``vals`` as exact Python ints once ``bound``, an upper bound on what
    the next multiply or sum of them yields, could pass int64."""
    return vals.astype(object) if bound > _I64_LIMIT else vals


class _HostIndex:
    """CSR over (source, target-label) buckets with weight-prefix counts.

    Each bucket lists its arcs sorted by (weight, target), so the arcs of
    weight <= w are its first ``cnt_upto[w - 1, bucket]`` entries. A grid
    past ``MAX_BUCKETS`` can be refused only at t >= 2: a depth-1 host is
    G's own DAG with one label, n x 1 buckets, while a depth-t product
    extension has k * n vertices x k labels.
    """

    # (vertices x labels) bucket grid; a larger one is refused
    MAX_BUCKETS = 64_000_000

    def __init__(self, g: DirWLGraph):
        self.n = g.n
        labels = g.labels
        self.k = int(labels.max()) + 1 if g.n else 1
        self.tmax = int(g.wgt.max()) if g.arc_count else 1
        nb = self.n * self.k
        if nb > self.MAX_BUCKETS:
            raise ValueError(f"host index of {self.n} vertices x {self.k} "
                             f"labels = {nb} buckets is past the cap of "
                             f"{self.MAX_BUCKETS}")
        bucket = g.src * self.k + labels[g.dst]
        order = np.lexsort((g.dst, g.wgt, bucket))
        self.targets = g.dst[order].astype(np.int32)
        bsorted = bucket[order]
        wsorted = g.wgt[order]
        counts = np.bincount(bsorted, minlength=nb)
        self.bucket_start = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(counts, out=self.bucket_start[1:])
        self.cnt_upto = np.zeros((self.tmax, nb), dtype=np.int32)
        for w in range(1, self.tmax + 1):
            self.cnt_upto[w - 1] = np.bincount(bsorted[wsorted <= w],
                                               minlength=nb)
        self.fibers = {lab: arr.astype(np.int32)
                       for lab, arr in g.fibers().items()}

    def bucket_counts(self, verts: np.ndarray, wmax: int, lab: int):
        """Per vertex: its ``lab`` bucket and that bucket's number of arcs
        of weight <= wmax."""
        bucket = verts.astype(np.int64) * self.k + lab
        return bucket, self.cnt_upto[min(wmax, self.tmax) - 1, bucket]

    def has_arcs(self, a: np.ndarray, b: np.ndarray, wmax: int,
                 lab_b: int) -> np.ndarray:
        """Per row: is there a host arc a -> b of weight <= wmax?

        ``lab_b`` is the label of every b. Scans a's bucket one position
        at a time, so a row costs at most Delta+ gathers. Past a row's
        count a position holds some other arc (or, clipped, the last
        one) and is masked out.
        """
        bucket, cnt = self.bucket_counts(a, wmax, lab_b)
        start = self.bucket_start[bucket]
        found = np.zeros(a.shape[0], dtype=bool)
        for j in range(int(cnt.max(initial=0))):
            found |= (cnt > j) & (self.targets.take(start + j, mode="clip")
                                  == b)
        return found


def _host_index(g: DirWLGraph) -> _HostIndex:
    if g._dp_index is None:
        g._dp_index = _HostIndex(g)
    return g._dp_index


@dataclass(frozen=True)
class _Slot:
    """Everything to run after a fixed number of vertices are assigned."""

    checks: tuple          # (a, b, wmax, label_b)
    lookups: tuple         # indices into the plan's children
    drops_pre: tuple       # columns dead before the lookups run
    drops_post: tuple      # columns last read by this slot's lookups


@dataclass(frozen=True)
class _BagPlan:
    hub: int
    root_label: int
    order: tuple[int, ...]
    steps: tuple[tuple[int, int, int, int], ...]  # (vertex, parent, wmax, label)
    slots: tuple[_Slot, ...]                      # indexed by assigned count
    out_cols: tuple[int, ...]                     # shared with the parent
    children: tuple[int, ...]
    child_domains: tuple[tuple[int, ...], ...]
    # fused last step (parent, wmax, label): the final vertex is counted
    # per row, never materialized
    tail: tuple | None = None


def _build_plan(pattern: DirWLGraph, tree: HubTree, bag: int,
                domains: dict[int, tuple[int, ...]]) -> _BagPlan:
    """``domains`` maps each bag to the sorted vertices it shares with its
    parent (none at the root)."""
    hub = tree.bags[bag]
    order, parent = bfs_out_tree(pattern, hub)
    pos = {v: i for i, v in enumerate(order)}
    rset = frozenset(order)
    labels = pattern.labels
    wmax = pattern.arc_weights([parent[v] for v in order[1:]], order[1:])
    steps = tuple((v, parent[v], int(w), int(labels[v]))
                  for v, w in zip(order[1:], wmax))
    nverts = len(order)
    checks_at: list[list[tuple]] = [[] for _ in range(nverts + 1)]
    lookups_at: list[list[int]] = [[] for _ in range(nverts + 1)]
    for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
        a, b, w = int(a), int(b), int(w)
        if a in rset and b in rset and parent.get(b) != a:
            checks_at[max(pos[a], pos[b]) + 1].append(
                (a, b, w, int(labels[b])))
    children = tree.children(bag)
    child_domains = [domains[ch] for ch in children]
    for idx, dom in enumerate(child_domains):
        lookups_at[max((pos[x] for x in dom), default=0) + 1].append(idx)
    # last slot at which each column is read
    last = {v: pos[v] + 1 for v in order}
    for i, (v, p, w, lab) in enumerate(steps):
        last[p] = max(last[p], i + 2)  # the expansion reads p before slot i+2
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
    # fuse the last step into a per-row candidate count when nothing
    # reads the final vertex: no check, lookup or output column
    tail = None
    if steps:
        v, p, wmax, lab = steps[-1]
        if (not checks_at[nverts] and not lookups_at[nverts]
                and v not in out_cols):
            tail = (p, wmax, lab)
            steps = steps[:-1]
    slots = []
    for t_at in range(nverts + 1):
        dying = sorted(v for v in order if last[v] == t_at)
        in_lookup = {x for idx in lookups_at[t_at]
                     for x in child_domains[idx]}
        pre = tuple(v for v in dying if v not in in_lookup)
        post = tuple(v for v in dying if v in in_lookup)
        slots.append(_Slot(tuple(checks_at[t_at]), tuple(lookups_at[t_at]),
                           pre, post))
    return _BagPlan(hub, int(labels[hub]), tuple(order), steps, tuple(slots),
                    out_cols, children, tuple(child_domains), tail)


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


def _key_matrix(state: _ChunkState, cols: tuple[int, ...]) -> np.ndarray:
    """The live rows' values at ``cols``, one row each; width 0 when
    ``cols`` is empty."""
    if not cols:
        return np.empty((state.nrows, 0), dtype=np.int64)
    return np.stack([state.cols[x] for x in cols], axis=1)


class _ChunkState:
    __slots__ = ("cols", "vals", "nrows")

    def __init__(self, cols, vals):
        self.cols = cols
        self.vals = vals
        self.nrows = 0


def _run_bag(hidx: _HostIndex, plan: _BagPlan,
             tables: list[_Table]) -> _Table:
    """Evaluate one bag into its table, keyed by ``plan.out_cols``."""
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    fiber = hidx.fibers.get(plan.root_label)
    labels = [lab for *_, lab in plan.steps]
    if plan.tail is not None:
        labels.append(plan.tail[2])
    if fiber is None or any(lab >= hidx.k for lab in labels):
        return _aggregate_table(key_chunks, val_chunks, hidx.n)

    for lo in range(0, fiber.size, CHUNK_ROOTS):
        state = _ChunkState(cols={plan.order[0]: fiber[lo:lo + CHUNK_ROOTS]},
                            vals=None)
        state.nrows = state.cols[plan.order[0]].shape[0]
        if not _apply_slot(hidx, plan, tables, state, 1):
            continue
        dead = False
        for i, (v, p, wmax, lab) in enumerate(plan.steps):
            if not _expand(hidx, state, v, p, wmax, lab):
                dead = True
                break
            if not _apply_slot(hidx, plan, tables, state, i + 2):
                dead = True
                break
        if dead or state.nrows == 0:
            continue
        keys = _key_matrix(state, plan.out_cols)
        vals = state.vals
        if plan.tail is not None:
            p, wmax, lab = plan.tail
            counts = hidx.bucket_counts(state.cols[p], wmax,
                                        lab)[1].astype(np.int64)
            vals = counts if vals is None else _widen(
                vals, int(vals.max()) * int(counts.max())) * counts
            # rows with no candidate for the last vertex count zero
            keep = counts > 0
            if not keep.any():
                continue
            keys, vals = keys[keep], vals[keep]
        key_chunks.append(keys)
        val_chunks.append(vals if vals is not None
                          else np.ones(state.nrows, dtype=np.int64))
    return _aggregate_table(key_chunks, val_chunks, hidx.n)


def _expand(hidx: _HostIndex, state: _ChunkState, v: int, p: int,
            wmax: int, lab: int) -> bool:
    bucket, cnt = hidx.bucket_counts(state.cols[p], wmax, lab)
    offs = np.cumsum(cnt, dtype=np.int64)
    ntotal = int(offs[-1]) if cnt.size else 0
    if ntotal == 0:
        return False
    ridx = np.repeat(np.arange(cnt.size), cnt)
    # row r's entries sit at bucket_start + (i - first output index of r)
    shift = hidx.bucket_start[bucket] - (offs - cnt)
    newcol = hidx.targets[np.arange(ntotal, dtype=np.int64) + shift[ridx]]
    for key in list(state.cols):
        state.cols[key] = state.cols[key][ridx]
    if state.vals is not None:
        state.vals = state.vals[ridx]
    state.cols[v] = newcol
    state.nrows = ntotal
    return True


def _apply_slot(hidx: _HostIndex, plan: _BagPlan, tables: list[_Table],
                state: _ChunkState, t_at: int) -> bool:
    slot = plan.slots[t_at]
    if slot.checks and state.nrows:
        mask = None
        for a, b, w, lb in slot.checks:
            ok = hidx.has_arcs(state.cols[a], state.cols[b], w, lb)
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
        if kept is None:
            state.vals = looked
        else:
            state.vals = _widen(kept, int(kept.max())
                                * int(looked.max())) * looked
    for v in slot.drops_post:
        state.cols.pop(v, None)
    return state.nrows > 0


def extension_count(pattern: DirWLGraph, tree: HubTree,
                    host: DirWLGraph) -> int:
    """The count in the root's table, whose one code is 0.

    Equals sum(bressan_count(pattern, tree, tree.root, host).values()),
    the dict engine kept as its oracle. A bag B shares Reach(parent) &
    Reach(B) with its parent; the oracle's Reach(parent) & Reach(down(B))
    is the same set on a width-1 tree, where a vertex reached by two bags
    is reached by every bag between them. Raises ValueError when the
    host's (vertex x label) bucket grid is past ``_HostIndex.MAX_BUCKETS``.
    """
    hidx = _host_index(host)
    order = tree.postorder()
    domains = {bag: tuple(sorted(reach(pattern, tree.bags[tree.parent[bag]])
                                 & reach(pattern, tree.bags[bag])))
               for bag in order if bag != tree.root}
    domains[tree.root] = ()
    tables: dict[int, _Table] = {}
    for bag in order:
        plan = _build_plan(pattern, tree, bag, domains)
        tables[bag] = _run_bag(hidx, plan,
                               [tables.pop(ch) for ch in plan.children])
    root = tables[tree.root]
    return int(root.values[0]) if root.codes.size else 0
