"""The oracles the fast paths are checked against, and vertex labels.

No production path reads any of this. ``bressan_count`` is the
generalized width-1 tree DP over hub-tree decompositions as
dictionaries, built on ``enumerate_root_homs``, which lists the
label/weight/arc-respecting homomorphisms of a reachable sub-pattern;
``brute_force_hom_wl`` enumerates every weighted, labeled map.
``validate_fraternity`` and ``validate_decomposition`` check the
fraternity clauses and a hub tree's width-1 condition directly, and
``pattern_product`` materializes the product H x G. Fraternal extension
by itself does not preserve homomorphism counts past depth 1, so from
depth 2 on a count stands for the label-respecting count from H^L into
that product, which equals Hom(G, H); the pipeline counts it on G's n
vertices without building the product (``fastdp.signature_index``).
``member_graph`` builds a Frat(H, t) member's ``DirWLGraph``, which no
count reads, and ``load_edge_list_reference`` is the per-line edge-list
loader that the vectorized ``load_edge_list`` must match.
``spasm_reference``, ``frat_classes_reference`` and
``build_plan_reference`` are the pattern-side bodies the package
replaced: the spasm merged by ``canonical_form``, the Frat classes keyed
by sorted relabeled arc triples, and the bag plan with its own BFS and a
rescan of ``order`` per slot. ``canonical_form`` (the minimum adjacency
code over all relabelings) left the package, since no count read it.
``automorphism_chain_reference``, ``isomorphic_reference``,
``brute_force_hom_reference`` and ``brute_force_sub_reference`` are the
small-graph searches that each ran its own breadth-first order and
backtracking before the package shared one of each; the brute forces'
order is ``search_order_reference``. ``bag_table_digests`` hashes
every bag table a count builds, so fast paths that must leave the
tables alone are compared bit for bit.

The package's ``DirWLGraph`` carries no vertex labels, and its DP
engine refuses a pattern that does. Labeled graphs are built here, as
``LabeledGraph``; every oracle reads a graph without labels as all 0.
All counts are exact Python integers.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from math import factorial

import numpy as np

from sparsecount import (DirWLGraph, GraphFormatError, HubTree,
                         PatternExtension, SpasmEntry, UndirectedGraph,
                         automorphism_count, connected_components, fastdp,
                         fiber_tournament)
from sparsecount.counting import BRUTE_FORCE_HOM_CAP
from sparsecount.fastdp import _BagPlan, _Slot
from sparsecount.graph_core import bfs_out_tree, succ_lists
from sparsecount.hub_decomp import hubset, reach
from sparsecount.pattern_tools import _independent_partitions, orbit_roots


class LabeledGraph(DirWLGraph):
    """A ``DirWLGraph`` whose vertices carry integer labels, for the
    label-reading oracles."""

    __slots__ = ("labels",)

    def __init__(self, n: int, arcs, labels):
        super().__init__(n, arcs)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (n,):
            raise GraphFormatError("label array has wrong length")


def plain_labels(g) -> list[int]:
    """A pattern's vertex labels as Python ints; none reads as all 0."""
    labels = getattr(g, "labels", None)
    return [0] * g.n if labels is None else [int(x) for x in labels]


def label_fibers(g) -> dict[int, np.ndarray]:
    """Vertex ids grouped by label, each group ascending."""
    if g.n == 0:
        return {}
    labels = np.asarray(plain_labels(g), dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    lab = labels[order]
    cuts = np.nonzero(lab[1:] != lab[:-1])[0] + 1
    groups = np.split(order, cuts)
    return {int(g_lab[0]): grp for g_lab, grp in
            zip(np.split(lab, cuts), groups)}


class HomMap(tuple):
    """Partial pattern-to-host assignment in canonical encoding.

    A HomMap is the sorted tuple of (pattern_vertex, host_vertex) pairs,
    so it is hashable and serves directly as a dictionary key.
    """

    __slots__ = ()

    def __new__(cls, pairs=()):
        return super().__new__(cls, sorted(pairs))

    def restrict(self, vertices) -> "HomMap":
        vs = set(vertices)
        return HomMap(p for p in self if p[0] in vs)

    def assignment(self) -> dict[int, int]:
        return dict(self)


class CountDict(dict):
    """Counts keyed by canonical restriction; absent keys read as 0."""

    def __missing__(self, key):
        return 0


def enumerate_root_homs(pattern, s: int, host: DirWLGraph) -> list[HomMap]:
    """All total homomorphisms of the reachable sub-pattern H(s) into host.

    The pattern (a ``DirWLGraph`` or a ``PatternExtension``) is read
    through its ``succ`` and restricted to Reach(s) (which must be rooted
    at s, the precondition of the width-1 DP). Candidates extend along a
    BFS spanning out-tree from s; every non-tree arc is checked as soon
    as both endpoints are assigned, with label equality and
    pattern-weight >= host-weight on every mapped arc. The host side
    reads its arc arrays once per call, into out-lists and an arc-weight
    dict, so no check touches numpy.
    """
    succ = pattern.succ
    order, parent = bfs_out_tree(pattern, s)
    pos = {v: i for i, v in enumerate(order)}
    tree_wmax = {}
    checks: dict[int, list[tuple[int, int, int]]] = {v: [] for v in order}
    for a in order:  # Reach(s) is closed under out-arcs
        for b, w in succ[a]:
            if parent[b] == a:
                tree_wmax[b] = w
            else:
                checks[a if pos[a] > pos[b] else b].append((a, b, w))
    labels = plain_labels(pattern)
    host_labels = plain_labels(host)
    arcs = list(zip(host.src.tolist(), host.dst.tolist(), host.wgt.tolist()))
    host_out = succ_lists(host.n, arcs)
    host_weight = {(x, y): w for x, y, w in arcs}
    results: list[HomMap] = []
    assign: dict[int, int] = {}

    def rec(i: int):
        if i == len(order):
            results.append(HomMap(assign.items()))
            return
        v = order[i]
        lab = labels[v]
        if i == 0:
            candidates = [x for x in range(host.n) if host_labels[x] == lab]
        else:
            wmax = tree_wmax[v]
            candidates = [y for y, w in host_out[assign[parent[v]]]
                          if w <= wmax and host_labels[y] == lab]
        for c in candidates:
            ok = True
            for a, b, w in checks[v]:
                x = c if a == v else assign[a]
                y = c if b == v else assign[b]
                if host_weight.get((x, y), w + 1) > w:
                    ok = False
                    break
            if ok:
                assign[v] = c
                rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return results


def bressan_count(pattern, tree: HubTree, bag: int,
                  host: DirWLGraph) -> CountDict:
    """Generalized tree DP: C_B[phi] = ext(H(down(B)), host, phi).

    Leaves assign 1 to every root homomorphism of H(B); an internal bag
    aggregates each child dictionary by restriction to
    Reach(B) & Reach(down(child)) and multiplies the aggregated values
    across children per root homomorphism.
    """
    hub = tree.bags[bag]
    homs = enumerate_root_homs(pattern, hub, host)
    result = CountDict()
    children = tree.children(bag)
    if not children:
        for phi in homs:
            result[phi] = 1
        return result
    reach_b = reach(pattern, hub)
    aggs = []
    for child in children:
        child_counts = bressan_count(pattern, tree, child, host)
        domain = reach_b & down_reach(pattern, tree, child)
        agg = CountDict()
        for phi, val in child_counts.items():
            agg[phi.restrict(domain)] += val
        aggs.append((domain, agg))
    for phi in homs:
        total = 1
        for domain, agg in aggs:
            total *= agg[phi.restrict(domain)]
            if total == 0:
                break
        if total:
            result[phi] = total
    return result


def brute_force_hom_wl(host: DirWLGraph, pattern: DirWLGraph,
                       cap: int = 32) -> int:
    """Exhaustive weighted/labeled count of maps pattern -> host.

    Label equality per vertex, host arc present per pattern arc, and
    pattern weight >= host weight on every mapped arc.
    """
    if host.n > cap:
        raise ValueError(f"host has {host.n} > {cap} vertices")
    out_w = [dict() for _ in range(host.n)]
    in_w = [dict() for _ in range(host.n)]
    for u, v, w in zip(host.src, host.dst, host.wgt):
        out_w[u][int(v)] = int(w)
        in_w[v][int(u)] = int(w)
    fibers = {lab: set(grp.tolist())
              for lab, grp in label_fibers(host).items()}
    labels = plain_labels(pattern)
    padj = [set() for _ in range(pattern.n)]
    arc_w = {}
    for a, b, w in zip(pattern.src, pattern.dst, pattern.wgt):
        a, b, w = int(a), int(b), int(w)
        padj[a].add(b)
        padj[b].add(a)
        arc_w[(a, b)] = w
    order = search_order_reference(padj, pattern.n)
    pos = {v: i for i, v in enumerate(order)}
    assign: dict[int, int] = {}
    count = 0

    def candidates(v: int):
        base = fibers.get(labels[v], set())
        cand = None
        for u in sorted(padj[v]):
            if pos[u] >= pos[v]:
                continue
            img = assign[u]
            if (u, v) in arc_w:
                wmax = arc_w[(u, v)]
                step = {y for y, w in out_w[img].items() if w <= wmax}
            else:
                wmax = arc_w[(v, u)]
                step = {y for y, w in in_w[img].items() if w <= wmax}
            cand = step if cand is None else cand & step
            if not cand:
                return set()
        return base if cand is None else cand & base

    def rec(i: int):
        nonlocal count
        if i == pattern.n:
            count += 1
            return
        v = order[i]
        for c in candidates(v):
            assign[v] = c
            rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return count


def member_graph(m: PatternExtension) -> DirWLGraph:
    """A Frat(H, t) member's arcs as a ``DirWLGraph``, for the checks that
    read numpy graphs; no count builds one."""
    return DirWLGraph(m.n, m.arcs)


def validate_fraternity(ext, t: int | None = None, size_cap: int = 4096) -> bool:
    """Check the three t-fraternity clauses on a weighted digraph.

    For every vertex pair, with absent arcs read as infinity: the pair's
    minimum weight is 1, or it equals the minimum wedge sum
    min_z w(z,x) + w(z,y), or both exceed t. Only pairs that carry an arc
    or a wedge can violate a clause, so the scan is over arcs and
    out-pairs instead of all n^2 pairs. Intended for tests and debugging;
    the cost is quadratic in the outdegrees.
    """
    extension = not isinstance(ext, DirWLGraph)
    if isinstance(ext, PatternExtension):
        g = member_graph(ext)
    else:
        g = ext.graph if extension else ext
    if t is None:
        if extension:
            t = ext.depth
        else:
            t = int(g.wgt.max()) if g.arc_count else 1
    if g.n > size_cap:
        raise ValueError(f"validate_fraternity capped at {size_cap} vertices")
    pairw: dict[tuple[int, int], int] = {}
    for u, v, w in zip(g.src, g.dst, g.wgt):
        pairw[(min(int(u), int(v)), max(int(u), int(v)))] = int(w)
    wedge: dict[tuple[int, int], float] = {}
    for v in range(g.n):
        dst, wt = g.out_arcs(v)
        for i in range(dst.shape[0]):
            for j in range(i + 1, dst.shape[0]):
                key = (int(dst[i]), int(dst[j]))
                s = int(wt[i]) + int(wt[j])
                if s < wedge.get(key, math.inf):
                    wedge[key] = s
    for key in pairw.keys() | wedge.keys():
        mw = pairw.get(key, math.inf)
        zm = wedge.get(key, math.inf)
        if mw == 1 or mw == zm or (mw > t and zm > t):
            continue
        return False
    return True


def down_reach(g, tree: HubTree, bag: int) -> frozenset:
    """Union of Reach over every bag in the subtree rooted at bag."""
    verts: frozenset = frozenset()
    stack = [bag]
    while stack:
        b = stack.pop()
        verts |= reach(g, tree.bags[b])
        stack.extend(tree.children(b))
    return verts


def tree_path(tree: HubTree, i: int, j: int) -> list[int]:
    """Node indices on the unique i-j path of ``tree``, endpoints
    included."""
    anc_i = [i]
    while tree.parent[anc_i[-1]] != -1:
        anc_i.append(tree.parent[anc_i[-1]])
    seen = {v: d for d, v in enumerate(anc_i)}
    up_j = [j]
    while up_j[-1] not in seen:
        up_j.append(tree.parent[up_j[-1]])
    meet = up_j[-1]
    return anc_i[:seen[meet] + 1] + up_j[:-1][::-1]


def validate_decomposition(g, tree: HubTree) -> bool:
    """True iff bags are hubs covering the hubset and every bag on a
    tree path contains the endpoints' shared reach."""
    hubs = set(hubset(g))
    bags = tree.bags
    b = len(bags)
    if b == 0 or len(tree.parent) != b:
        return False
    if tree.parent[tree.root] != -1:
        return False
    if sum(1 for p in tree.parent if p == -1) != 1:
        return False
    for i, p in enumerate(tree.parent):
        if i != tree.root and not (0 <= p < b):
            return False
    # parent pointers must form a tree (every node walks up to the root)
    for i in range(b):
        seen = set()
        v = i
        while v != tree.root:
            if v in seen:
                return False
            seen.add(v)
            v = tree.parent[v]
    if not set(bags) <= hubs:
        return False
    if set(bags) != hubs:
        return False
    reaches = [reach(g, x) for x in bags]
    for i in range(b):
        for j in range(i + 1, b):
            shared = reaches[i] & reaches[j]
            for k in tree_path(tree, i, j):
                if not shared <= reaches[k]:
                    return False
    return True


def pattern_product(h: UndirectedGraph, g: UndirectedGraph) -> UndirectedGraph:
    """H x G: edge (<u,v>, <u',v'>) iff (u,u') in E_H and (v,v') in E_G.

    Vertex <u, v> has id u * n + v, so the fiber of pattern vertex u is
    the block [u * n, (u+1) * n) and its label is the id // n. Each
    (pattern edge, host edge) pair contributes exactly two product
    edges, so |E| = 2 |E_H| |E_G| and |V| = k * n.
    """
    k, n = h.n, g.n
    he = h.edge_array
    ge = g.edge_array
    if he.shape[0] and ge.shape[0]:
        gx, gy = ge[:, 0], ge[:, 1]
        srcs = []
        dsts = []
        for u, up in he:
            base_u, base_up = u * n, up * n
            srcs.append(base_u + gx)
            dsts.append(base_up + gy)
            srcs.append(base_u + gy)
            dsts.append(base_up + gx)
        edges = np.column_stack((np.concatenate(srcs), np.concatenate(dsts)))
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    product = UndirectedGraph(k * n, edges)
    assert product.m == 2 * h.m * g.m
    return product


def load_edge_list_reference(path) -> UndirectedGraph:
    """``graph_core.load_edge_list`` as a per-line loop, the reference its
    vectorized tokenizer is checked against: the same graph, ``id_map``
    and ``GraphFormatError`` text."""
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
    tokens = dict.fromkeys(t for u, v, _ in raw for t in (u, v))
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
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphFormatError(
                f"{path}:{lineno}: parallel edge '{u} {v}' "
                f"(first seen at line {seen[key]})")
        seen[key] = lineno
        edges.append(key)
    g = UndirectedGraph(len(ordered), edges)
    g.id_map = idx
    return g


def spasm_reference(h: UndirectedGraph) -> tuple[SpasmEntry, ...]:
    """``pattern_tools.spasm`` with its classes keyed by the brute-force
    ``canonical_form``, the reference the colour-refined merge is checked
    against: equal entries up to isomorphism and order."""
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
    return tuple(entries)


def frat_classes_reference(members: list[PatternExtension],
                           h: UndirectedGraph, depth: int,
                           colors: tuple | None = None) -> list[list[int]]:
    """``counting.frat_classes`` with members keyed by their sorted
    relabeled arc triples, the reference its arc-id keys are checked
    against: the same classes in the same order."""
    roots = orbit_roots([m.arcs for m in members],
                        fiber_tournament(h, depth, colors).generators,
                        lambda s, arcs: tuple(sorted((s[a], s[b], w)
                                                     for a, b, w in arcs)))
    classes: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        classes.setdefault(r, []).append(i)
    return list(classes.values())


def build_plan_reference(pattern, tree: HubTree, bag: int,
                         domains: dict[int, tuple[int, ...]], read
                         ) -> _BagPlan:
    """``fastdp._build_plan`` as it rescanned ``order`` per slot and ran
    its own BFS, the reference the plan is checked against field by
    field."""
    hub = tree.bags[bag]
    succ = pattern.succ
    order, parent = bfs_out_tree(pattern, hub)
    pos = {v: i for i, v in enumerate(order)}
    nverts = len(order)
    checks_at: list[list[tuple]] = [[] for _ in range(nverts + 1)]
    lookups_at: list[list[int]] = [[] for _ in range(nverts + 1)]
    tree_read = {}
    # Reach(hub) is closed under out-arcs; ascending sources keep the
    # checks in (src, dst) order
    for a in sorted(order):
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
    slots = []
    for t_at in range(nverts + 1):
        dying = sorted(v for v in order if last[v] == t_at)
        in_lookup = {x for idx in lookups_at[t_at]
                     for x in child_domains[idx]}
        pre = tuple(v for v in dying if v not in in_lookup)
        post = tuple(v for v in dying if v in in_lookup)
        slots.append(_Slot(tuple(checks_at[t_at]), tuple(lookups_at[t_at]),
                           pre, post))
    return _BagPlan(hub, tuple(order), steps, closes, tuple(slots),
                    out_cols, children, tuple(child_domains))


def bag_table_digests(count) -> tuple:
    """``count()``'s result and, in the order the bags ran, the SHA-256 of
    each bag table it built: the dtype, shape and contents of its codes,
    its values and its packing steps, read by a spy on
    ``fastdp._run_bag``. Two runs that must build the same tables bit
    for bit give equal lists."""
    run_bag = fastdp._run_bag
    digests = []

    def spy(host, plan, tables):
        out = run_bag(host, plan, tables)
        digest = hashlib.sha256()
        for arr in (out.codes, out.values, *out.steps):
            digest.update(f"{arr.dtype} {arr.shape};".encode())
            digest.update(repr(arr.tolist()).encode() if arr.dtype == object
                          else arr.tobytes())
        digests.append(digest.hexdigest())
        return out

    fastdp._run_bag = spy
    try:
        return count(), digests
    finally:
        fastdp._run_bag = run_bag


# canonical_form's brute force over relabelings, which grows like n!
CANONICAL_SIZE_LIMIT = 10


def canonical_form(h: UndirectedGraph) -> tuple[int, int]:
    """Canonical code: minimum adjacency bit-string over all relabelings.

    Equal codes iff isomorphic. Bits are taken column by column (vertex j
    against all earlier positions), which lets the search prune on prefix
    blocks. Raises for more than CANONICAL_SIZE_LIMIT vertices. A brute
    force over relabelings, kept for callers that want a code: no count
    reads it, and ``spasm`` merges its quotients by refined colours and a
    first-found isomorphism instead.
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


def automorphism_chain_reference(h: UndirectedGraph,
                                 arcs: frozenset = frozenset(),
                                 colors: tuple | None = None
                                 ) -> tuple[list[list[int]], int]:
    """``pattern_tools._automorphism_chain`` with its own breadth-first
    order and first-completion search ``place``, the reference the
    shared ``_bfs`` and ``_first_map`` are checked against: the same
    generators in the same order, and the same group order.

    Generators of the automorphisms of h that keep ``arcs`` and
    ``colors``, from a stabilizer chain, and the group's order.

    ``arcs`` is a set of directed pairs (a, b); an automorphism keeps it
    when it maps every arc onto an arc. ``colors`` gives each vertex a
    colour (None: all alike), which an automorphism keeps when it maps
    every vertex onto one of its colour. Level i fixes the first i
    vertices of a search order and asks, for each image c of the next
    vertex v, for one automorphism sending v to c; the backtracking
    stops at its first completion. The images that complete form v's
    orbit under the stabilizer of the earlier vertices, so the order is
    the product of the orbit sizes and the automorphisms found (one per
    non-trivial image) generate the group. No search walks the whole
    group.
    """
    n = h.n
    adj = h.adjacency_sets()
    deg = [len(adj[v]) for v in range(n)]
    color = colors if colors is not None else (0,) * n

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
        if used[c] or deg[c] != deg[v] or color[c] != color[v]:
            return False
        return all((u in adj[v]) == (img[u] in adj[c])
                   and ((u, v) in arcs) == ((img[u], c) in arcs)
                   and ((v, u) in arcs) == ((c, img[u]) in arcs)
                   for u in order[:i])

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


def isomorphic_reference(adj: list[set[int]], col: list[int],
                         rep_adj: list[set[int]], rep_col: list[int]
                         ) -> bool:
    """``pattern_tools._isomorphic`` with its own breadth-first order and
    search ``place``, the reference the shared helpers are checked
    against.

    Whether some bijection that keeps the refined colours maps one
    graph onto the other, both on len(adj) vertices. Vertices are placed
    in breadth-first order, each onto an unused vertex of its colour
    whose links to the placed vertices match; the search stops at its
    first completion."""
    k = len(adj)
    of_colour: dict[int, list[int]] = {}
    for x, c in enumerate(rep_col):
        of_colour.setdefault(c, []).append(x)
    order: list[int] = []
    placed = [False] * k
    for start in sorted(range(k), key=lambda v: len(of_colour[col[v]])):
        if placed[start]:
            continue
        placed[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            for u in sorted(adj[order[head]]):
                if not placed[u]:
                    placed[u] = True
                    order.append(u)
            head += 1
    img = [-1] * k
    used = [False] * k

    def place(i: int) -> bool:
        if i == k:
            return True
        v = order[i]
        for c in of_colour[col[v]]:
            if used[c] or any((u in adj[v]) != (img[u] in rep_adj[c])
                              for u in order[:i]):
                continue
            used[c], img[v] = True, c
            if place(i + 1):
                return True
            used[c] = False
        img[v] = -1
        return False

    return place(0)


def search_order_reference(adj, n: int) -> list[int]:
    """Component-wise BFS order starting at a max-degree vertex: the
    order ``counting._search_order`` gave the brute force, which
    ``brute_force_hom_wl`` still reads."""
    order: list[int] = []
    seen = [False] * n
    for start in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def brute_force_hom_reference(g: UndirectedGraph, h: UndirectedGraph,
                              cap: int = BRUTE_FORCE_HOM_CAP) -> int:
    """``counting.brute_force_hom`` as its own backtracking, the
    reference the shared ``_count_maps`` is checked against.

    Exhaustive count of edge-preserving maps V(h) -> V(g)."""
    if g.n > cap:
        raise ValueError(f"host has {g.n} > {cap} vertices")
    hadj = h.adjacency_sets()
    gadj = g.adjacency_sets()
    order = search_order_reference(hadj, h.n)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in hadj[v] if pos[u] < pos[v]) for v in order]
    all_hosts = frozenset(range(g.n))
    assign: dict[int, int] = {}
    count = 0

    def rec(i: int):
        nonlocal count
        if i == h.n:
            count += 1
            return
        v = order[i]
        back = earlier[i]
        if not back:
            cand = all_hosts
        else:
            cand = gadj[assign[back[0]]]
            for u in back[1:]:
                cand = cand & gadj[assign[u]]
                if not cand:
                    return
        for c in cand:
            assign[v] = c
            rec(i + 1)
        assign.pop(v, None)

    rec(0)
    return count


def brute_force_sub_reference(g: UndirectedGraph, h: UndirectedGraph,
                              cap: int = 20) -> int:
    """``counting.brute_force_sub`` as its own backtracking, the
    reference the shared ``_count_maps`` is checked against.

    Non-induced copies of h in g: injective maps / |Aut(h)|."""
    if g.n > cap:
        raise ValueError(f"host has {g.n} > {cap} vertices")
    hadj = h.adjacency_sets()
    gadj = g.adjacency_sets()
    order = search_order_reference(hadj, h.n)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [sorted(u for u in hadj[v] if pos[u] < pos[v]) for v in order]
    all_hosts = frozenset(range(g.n))
    assign: dict[int, int] = {}
    used: set[int] = set()
    injective = 0

    def rec(i: int):
        nonlocal injective
        if i == h.n:
            injective += 1
            return
        v = order[i]
        back = earlier[i]
        if not back:
            cand = all_hosts - used
        else:
            cand = gadj[assign[back[0]]]
            for u in back[1:]:
                cand = cand & gadj[assign[u]]
            cand = cand - used
        for c in cand:
            assign[v] = c
            used.add(c)
            rec(i + 1)
            used.discard(c)
        assign.pop(v, None)

    rec(0)
    aut = automorphism_count(h)
    assert injective % aut == 0
    return injective // aut
