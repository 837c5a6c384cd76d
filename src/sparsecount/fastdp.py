"""The vectorized width-1 DP engine that every count runs.

Semantically identical to the dict-based generalized tree DP in
``counting``, kept as its oracle; rows of numpy arrays stand in for
partial homomorphisms. Per bag, the root fiber is expanded chunk by
chunk along the BFS spanning out-tree (CSR buckets keyed by (source,
target label) with weight-prefix counts). Non-tree arcs are checked by
scanning the same buckets (``_HostIndex.has_arcs``), at most Delta+
gathers per row. Child aggregates are joined on packed restriction keys,
and columns stop being carried as soon as nothing downstream reads them.
Everything is plain numpy.

Values are int64. Before each multiply or sum, a bound on its result is
computed from the operands' maxima; where it could pass int64 the value
array is widened to exact Python ints (``dtype=object``) and stays
widened from there on, so every count is exact on this one engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import DirWLGraph, bfs_out_tree
from .hub_decomp import HubTree, down_reach, reach

CHUNK_ROOTS = 1 << 16
_I64_LIMIT = 2 ** 63 - 1


def _widen(vals: np.ndarray, bound: int) -> np.ndarray:
    """``vals`` as exact Python ints once ``bound``, an upper bound on what
    the next multiply or sum of them yields, could pass int64."""
    return vals.astype(object) if bound > _I64_LIMIT else vals


class _HostIndex:
    """CSR over (source, target-label) buckets with weight-prefix counts.

    Each bucket lists its arcs sorted by (weight, target), so the arcs of
    weight <= w are its first ``cnt_upto[w - 1, bucket]`` entries.
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
    # per-extension DPs may run in threads; build the index only once
    with g._reach_lock:
        if g._dp_index is None:
            g._dp_index = _HostIndex(g)
    return g._dp_index


@dataclass(frozen=True)
class _Slot:
    """Everything to run after a fixed number of vertices are assigned."""

    checks: tuple          # (a, b, wmax, label_b)
    lookups: tuple         # indices into the plan's lookup children
    drops_pre: tuple       # columns dead before the lookups run
    drops_post: tuple      # columns last read by this slot's lookups


@dataclass(frozen=True)
class _BagPlan:
    hub: int
    root_label: int
    order: tuple[int, ...]
    steps: tuple[tuple[int, int, int, int], ...]  # (vertex, parent, wmax, label)
    slots: tuple[_Slot, ...]                      # indexed by assigned count
    out_cols: tuple[int, ...] | None              # None = return a plain sum
    lookup_children: tuple[int, ...]
    child_domains: tuple[tuple[int, ...], ...]
    scalar_children: tuple[int, ...]
    # fused last step (parent, wmax, label): the final vertex is counted
    # per row, never materialized
    tail: tuple | None = None


def _build_plan(pattern: DirWLGraph, tree: HubTree, bag: int,
                out_cols: tuple[int, ...] | None) -> _BagPlan:
    hub = tree.bags[bag]
    order, parent = bfs_out_tree(pattern, hub)
    pos = {v: i for i, v in enumerate(order)}
    rset = frozenset(order)
    labels = pattern.labels
    steps = tuple((v, parent[v], int(pattern.weight_of(parent[v], v)),
                   int(labels[v])) for v in order[1:])
    nverts = len(order)
    checks_at: list[list[tuple]] = [[] for _ in range(nverts + 1)]
    lookups_at: list[list[int]] = [[] for _ in range(nverts + 1)]
    for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
        a, b, w = int(a), int(b), int(w)
        if a in rset and b in rset and parent.get(b) != a:
            checks_at[max(pos[a], pos[b]) + 1].append(
                (a, b, w, int(labels[b])))
    reach_b = reach(pattern, hub)
    lookup_children: list[int] = []
    child_domains: list[tuple[int, ...]] = []
    scalar_children: list[int] = []
    for ch in tree.children(bag):
        dom = tuple(sorted(reach_b & down_reach(pattern, tree, ch)))
        if not dom:
            scalar_children.append(ch)
            continue
        idx = len(lookup_children)
        lookup_children.append(ch)
        child_domains.append(dom)
        lookups_at[max(pos[x] for x in dom) + 1].append(idx)
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
    if out_cols:
        for x in out_cols:
            last[x] = nverts + 1
    # fuse the last step into a per-row candidate count when nothing
    # reads the final vertex: no check, lookup or output column
    tail = None
    if steps:
        v, p, wmax, lab = steps[-1]
        if (not checks_at[nverts] and not lookups_at[nverts]
                and v not in (out_cols or ())):
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
                    out_cols, tuple(lookup_children), tuple(child_domains),
                    tuple(scalar_children), tail)


def _direct_packable(n: int, width: int) -> bool:
    return width >= 1 and (max(n, 1) ** width) < 2 ** 62


def _direct_pack(mat: np.ndarray, n: int) -> np.ndarray:
    code = mat[:, 0].astype(np.int64)
    for j in range(1, mat.shape[1]):
        code = code * n + mat[:, j]
    return code


def _progressive_pack(kmat: np.ndarray, qmat: np.ndarray, n: int):
    """Collision-free joint codes via per-column dictionary compaction."""
    total = np.concatenate((kmat, qmat), axis=0).astype(np.int64)
    acc = total[:, 0].copy()
    for j in range(1, total.shape[1]):
        key = acc * (n + 1) + total[:, j]
        _, acc = np.unique(key, return_inverse=True)
    return acc[:kmat.shape[0]], acc[kmat.shape[0]:]


class _Table:
    """Aggregated child result: unique restriction keys and their counts.

    ``codes``/``sorted_values`` when the key tuple packs into int64;
    otherwise the raw key matrix, joined per query batch.
    """

    __slots__ = ("keys", "values", "codes", "sorted_values", "n")

    def __init__(self, n, keys=None, values=None, codes=None,
                 sorted_values=None):
        self.n = n
        self.keys = keys
        self.values = values
        self.codes = codes
        self.sorted_values = sorted_values

    def is_empty(self) -> bool:
        arr = self.codes if self.codes is not None else self.keys
        return arr is None or arr.shape[0] == 0

    def lookup(self, qmat: np.ndarray):
        """(mask of matched rows, values of the matches)."""
        if self.is_empty():
            return np.zeros(qmat.shape[0], dtype=bool), None
        if self.codes is not None:
            codes, vals = self.codes, self.sorted_values
            q = _direct_pack(qmat, self.n)
        else:
            ck, q = _progressive_pack(self.keys, qmat, self.n)
            srt = np.argsort(ck, kind="stable")
            codes, vals = ck[srt], self.values[srt]
        pos = np.searchsorted(codes, q)
        posc = np.minimum(pos, codes.size - 1)
        ok = codes[posc] == q
        return ok, vals[pos[ok]]


def _aggregate_table(key_chunks, val_chunks, width: int, n: int) -> _Table:
    if not key_chunks:
        return _Table(n, codes=np.empty(0, dtype=np.int64),
                      sorted_values=np.empty(0, dtype=np.int64))
    kmat = np.concatenate(key_chunks, axis=0)
    vals = np.concatenate(val_chunks)
    vals = _widen(vals, int(vals.max()) * vals.shape[0])
    if _direct_packable(n, width):
        codes = _direct_pack(kmat, n)
        srt = np.argsort(codes, kind="stable")
        cs = codes[srt]
        vs = vals[srt]
        starts = np.concatenate(([0], np.nonzero(cs[1:] != cs[:-1])[0] + 1))
        return _Table(n, codes=cs[starts],
                      sorted_values=np.add.reduceat(vs, starts))
    srt = np.lexsort(kmat.T[::-1])
    ks = kmat[srt]
    vs = vals[srt]
    change = np.any(ks[1:] != ks[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
    return _Table(n, keys=ks[starts], values=np.add.reduceat(vs, starts))


class _ChunkState:
    __slots__ = ("cols", "vals", "nrows")

    def __init__(self, cols, vals):
        self.cols = cols
        self.vals = vals
        self.nrows = 0


def _run_bag(hidx: _HostIndex, plan: _BagPlan, tables: list[_Table],
             scalar: int):
    """Evaluate one bag; returns a python int (sum mode) or a _Table."""
    sum_mode = not plan.out_cols
    width = 0 if sum_mode else len(plan.out_cols)

    def empty_result():
        return 0 if sum_mode else _aggregate_table([], [], width, hidx.n)

    if scalar == 0:
        return empty_result()
    fiber = hidx.fibers.get(plan.root_label)
    if fiber is None or fiber.size == 0:
        return empty_result()
    if any(lab >= hidx.k for _, _, _, lab in plan.steps):
        return empty_result()
    if plan.tail is not None and plan.tail[2] >= hidx.k:
        return empty_result()

    total_sum = 0
    key_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []

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
        if plan.tail is not None:
            p, wmax, lab = plan.tail
            counts = hidx.bucket_counts(state.cols[p], wmax,
                                        lab)[1].astype(np.int64)
            if state.vals is None:
                state.vals = counts
            else:
                state.vals = _widen(state.vals, int(state.vals.max())
                                    * int(counts.max())) * counts
            if not sum_mode:
                keep = state.vals > 0
                if not keep.all():
                    for key in list(state.cols):
                        state.cols[key] = state.cols[key][keep]
                    state.vals = state.vals[keep]
                    state.nrows = int(keep.sum())
                    if state.nrows == 0:
                        continue
        if sum_mode:
            if state.vals is None:
                total_sum += state.nrows
            else:
                total_sum += int(_widen(state.vals, int(state.vals.max())
                                        * state.vals.shape[0]).sum())
        else:
            key_chunks.append(np.stack([state.cols[x] for x in plan.out_cols],
                                       axis=1))
            val_chunks.append(state.vals if state.vals is not None
                              else np.ones(state.nrows, dtype=np.int64))

    if sum_mode:
        return total_sum * scalar  # exact: python ints
    table = _aggregate_table(key_chunks, val_chunks, width, hidx.n)
    if scalar != 1 and not table.is_empty():
        attr = "sorted_values" if table.codes is not None else "values"
        vals = getattr(table, attr)
        setattr(table, attr,
                _widen(vals, scalar * max(int(vals.max()), 1)) * scalar)
    return table


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
        dom = plan.child_domains[idx]
        qmat = np.stack([state.cols[x] for x in dom], axis=1)
        ok, looked = tables[idx].lookup(qmat)
        if looked is None or not looked.size:
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
    """Sum of the root DP dictionary, computed without materializing it.

    Equals sum(bressan_count(pattern, tree, tree.root, host).values()),
    the dict engine kept as its oracle. Raises ValueError when the host's
    (vertex x label) bucket grid is past ``_HostIndex.MAX_BUCKETS``.
    """
    hidx = _host_index(host)
    plans: dict[int, _BagPlan] = {}
    order = [tree.root]
    head = 0
    while head < len(order):
        bag = order[head]
        head += 1
        if bag == tree.root:
            out_cols = None
        else:
            parent_hub = tree.bags[tree.parent[bag]]
            dom = tuple(sorted(reach(pattern, parent_hub)
                               & down_reach(pattern, tree, bag)))
            out_cols = dom  # empty means a scalar result
        plans[bag] = _build_plan(pattern, tree, bag, out_cols)
        order.extend(tree.children(bag))
    results: dict[int, object] = {}
    for bag in tree.postorder():
        plan = plans[bag]
        tables = [results.pop(ch) for ch in plan.lookup_children]
        scalar = 1
        for ch in plan.scalar_children:
            scalar *= results.pop(ch)
        results[bag] = _run_bag(hidx, plan, tables, scalar)
    return results[tree.root]
