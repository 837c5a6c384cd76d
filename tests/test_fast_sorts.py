"""The count path sorts int64 keys with numpy's default (unstable,
vectorized) sort, except at the sites listed in ``STABLE_SORTS``.

Each site sorts keys that are distinct, or feeds a reader that does not
depend on the order of equal keys. These tests compare every site with
a stable-sort reference written here, on random graphs: the edge array,
the CSR index, ``orient_by_rank``, a ``DirWLGraph``'s arcs, the host
index's arc order and ``signature_index``'s arrays, plus
``_aggregate_table`` on duplicate-heavy keys with int64 values and with
values widened past 2^63, and the input errors, which still name the
same pair. A scan of the package keeps stable sorts and lexsorts to the
sites listed in ``STABLE_SORTS``. Last, the DP drops root rows of
weight 0, and counts stay exact on hosts with isolated vertices.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsecount
from sparsecount import (DirWLGraph, GraphFormatError, UndirectedGraph,
                         brute_force_hom, count_homomorphisms, fastdp,
                         optimal_extension)
from sparsecount.degeneracy import degeneracy_orient, orient_by_rank
from sparsecount.harness import generate_bounded_degeneracy

from conftest import cycle_graph, weight_host

# (module, function) -> why the site keeps a stable sort or a lexsort
STABLE_SORTS = {
    ("graph_core", "DirWLGraph._init_from"):
        "arcs arrive sorted, one run per layer, which a stable sort merges "
        "in linear time: 0.04 against 0.06 ms for the default sort on the "
        "hom-c5-degen DAG",
    ("fastdp", "signature_index"):
        "two sorted runs, arcs then loops: 0.016 against 0.073 ms for the "
        "default sort on the sub-c6-road host",
    ("fastdp", "_refine"):
        "rows of several columns; about 0.1 ms a count on the road host",
    ("fastdp", "_HostIndex.__init__"):
        "arcs come sorted by (source, target); a stable sort keeps that",
}


@st.composite
def graphs(draw, max_n=30):
    """(n, edges): a simple graph with its edges listed in a random
    order, each in a random direction."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=4 * n))
    edges = [(u, v) for u, v in pairs if u < v]
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


def _stable_edge_array(n, edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    order = np.argsort(lo * n + hi, kind="stable")
    return np.column_stack((lo[order], hi[order]))


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_edge_array_csr_and_dag_match_stable_sorts(case):
    n, edges = case
    g = UndirectedGraph(n, edges)
    want = _stable_edge_array(n, edges)
    assert g.edge_array.dtype == np.int64
    assert np.array_equal(g.edge_array, want)
    ends = np.concatenate((want[:, 0], want[:, 1]))
    nbrs = np.concatenate((want[:, 1], want[:, 0]))
    order = np.argsort(ends * n + nbrs, kind="stable")
    indptr, got_nbrs = g.csr
    assert got_nbrs.dtype == np.int64
    assert np.array_equal(got_nbrs, nbrs[order])
    assert np.array_equal(indptr, np.concatenate(
        ([0], np.cumsum(np.bincount(ends, minlength=n)))))
    dag = degeneracy_orient(g)
    assert dag.shape == (g.m, 2) and dag.dtype == np.int64
    assert np.array_equal(dag, np.array(sorted(map(tuple, dag.tolist())),
                                        dtype=np.int64).reshape(-1, 2))


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_orient_by_rank_matches_a_stable_sort(case, rnd):
    n, edges = case
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rank = np.array(rnd.sample(range(3 * n), n), dtype=np.int64)
    forward = rank[pairs[:, 0]] < rank[pairs[:, 1]]
    src = np.where(forward, pairs[:, 0], pairs[:, 1])
    dst = np.where(forward, pairs[:, 1], pairs[:, 0])
    order = np.argsort(src * n + dst, kind="stable")
    got = orient_by_rank(pairs, rank)
    assert got.shape == (pairs.shape[0], 2)
    assert np.array_equal(got, np.column_stack((src[order], dst[order])))


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_dirwl_arcs_and_host_index_match_stable_sorts(case, rnd):
    n, edges = case
    arcs = [(u, v, rnd.randint(1, 3)) for u, v in edges]
    g = DirWLGraph(n, arcs)
    trips = np.asarray(arcs, dtype=np.int64).reshape(-1, 3)
    order = np.argsort(trips[:, 0] * n + trips[:, 1], kind="stable")
    for got, col in zip((g.src, g.dst, g.wgt), trips[order].T):
        assert np.array_equal(got, col)
    # the host index orders arcs by (source, class, target), as a
    # lexsort does
    cls = np.array([rnd.randint(1, 4) for _ in range(g.arc_count)],
                   dtype=np.int64)
    hidx = fastdp._HostIndex(n, g.src, g.dst, cls, 4)
    want = np.lexsort((g.dst, cls, g.src))
    for got, col in zip(hidx._arcs, (g.src, cls, g.dst)):
        assert got.dtype == np.int32
        assert np.array_equal(got, col[want])
    weights = weight_host(g, 1).index._arcs
    want = np.lexsort((g.dst, g.wgt, g.src))
    for got, col in zip(weights, (g.src, g.wgt, g.dst)):
        assert np.array_equal(got, col[want])


_NUMPY_ARGSORT = np.argsort


def _stable_argsort(a, axis=-1, kind=None, order=None, **kwargs):
    return _NUMPY_ARGSORT(a, axis=axis, kind="stable", order=order, **kwargs)


@pytest.mark.parametrize("seed", [2, 7])
@pytest.mark.parametrize("depth", [2, 3])
def test_signature_index_matches_stable_sorts(seed, depth, monkeypatch):
    g = generate_bounded_degeneracy(60, 3, seed=seed)
    ext = optimal_extension(g, depth)
    got = fastdp.signature_index(ext)
    ext.graph._signatures = None
    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", _stable_argsort)
        want = fastdp.signature_index(ext)
    assert want is not got
    src, cls, dst = got.index._arcs
    assert np.array_equal(np.lexsort((dst, cls, src)), np.arange(src.size))
    for a, b in zip(got.index._arcs, want.index._arcs):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.index.ncls == want.index.ncls
    assert len(got.rounds) == len(want.rounds) == depth - 1
    for r1, r2 in zip(got.rounds, want.rounds):
        for field in ("prev", "loop", "pair_cls", "first", "second"):
            assert np.array_equal(getattr(r1, field), getattr(r2, field))


def _stable_table(key_chunks, val_chunks, n):
    vals = np.concatenate(val_chunks)
    vals = fastdp._widen(vals, int(vals.max()) * vals.shape[0])
    codes, steps = fastdp._pack(np.concatenate(key_chunks, axis=0), n)
    srt = np.argsort(codes, kind="stable")
    cs = codes[srt]
    starts = np.concatenate(([0], np.nonzero(cs[1:] != cs[:-1])[0] + 1))
    return cs[starts], np.add.reduceat(vals[srt], starts), steps


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("n,width", [(5, 2), (40, 3), (3000, 6)])
def test_aggregate_table_sums_duplicate_keys_exactly(n, width, wide):
    """Keys drawn from a few distinct rows, so most codes repeat; with
    ``wide`` the values sum past 2^63 and are widened to Python ints.
    (3000, 6) packs past int64, so the table carries packing steps."""
    rng = np.random.default_rng(n * width + wide)
    distinct = rng.integers(0, n, size=(7, width))
    chunks = [distinct[rng.integers(0, 7, size=size)]
              for size in (50, 1, 300)]
    top = 2 ** 62 if wide else 1000
    vals = [rng.integers(1, top, size=c.shape[0], dtype=np.int64)
            for c in chunks]
    table = fastdp._aggregate_table(chunks, vals, n)
    codes, values, steps = _stable_table(chunks, vals, n)
    assert np.array_equal(table.codes, codes)
    assert table.values.dtype == (object if wide else np.int64)
    assert table.values.tolist() == values.tolist()
    assert len(table.steps) == len(steps) == (1 if n == 3000 else 0)
    assert all(np.array_equal(a, b) for a, b in zip(table.steps, steps))
    sums = {}
    for c, v in zip(np.concatenate(chunks), np.concatenate(vals)):
        sums[tuple(c.tolist())] = sums.get(tuple(c.tolist()), 0) + int(v)
    ok, looked = table.lookup(np.array(sorted(sums)))
    assert ok.all()
    assert looked.tolist() == [sums[k] for k in sorted(sums)]
    assert sum(looked.tolist()) == sum(int(v) for c in vals for v in c)


def test_input_errors_name_the_same_pair():
    with pytest.raises(GraphFormatError, match=r"^parallel edge 2 5$"):
        UndirectedGraph(8, [(6, 7), (5, 2), (0, 1), (7, 6), (2, 5)])
    # the smallest of several repeated pairs
    with pytest.raises(GraphFormatError, match=r"^parallel edge 0 1$"):
        UndirectedGraph(8, [(6, 7), (1, 0), (7, 6), (0, 1)])
    with pytest.raises(GraphFormatError, match=r"^duplicate arc$"):
        DirWLGraph(5, [(3, 4, 1), (0, 1, 1), (3, 4, 2)])
    with pytest.raises(GraphFormatError, match=r"^antiparallel arc pair 1 2$"):
        DirWLGraph(5, [(3, 4, 1), (4, 3, 1), (2, 1, 1), (1, 2, 2)])
    with pytest.raises(GraphFormatError, match=r"^self-loop at vertex 3$"):
        UndirectedGraph(5, [(0, 1), (3, 3)])


def _sort_calls(tree: ast.Module):
    """(qualified function name, line) of every np.lexsort call and of
    every call passing kind="stable" or its alias "mergesort"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                lexsort = (isinstance(func, ast.Attribute)
                           and func.attr == "lexsort")
                stable = any(kw.arg == "kind"
                             and isinstance(kw.value, ast.Constant)
                             and kw.value.value in ("stable", "mergesort")
                             for kw in child.keywords)
                if lexsort or stable:
                    found.append((scope, child.lineno))
            visit(child, name)

    visit(tree, "")
    return found


def test_stable_sorts_only_at_listed_sites():
    package = Path(sparsecount.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _sort_calls(tree):
            if (path.stem, scope) not in STABLE_SORTS:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, ("stable sort or lexsort outside STABLE_SORTS; "
                       "numpy's default sort is several times faster on "
                       "int64 keys: " + ", ".join(stray))


def test_the_sort_scan_sees_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(a):\n"
        "    np.lexsort((a, a))\n"
        "    a.argsort(kind='mergesort')\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        np.sort(a, kind='stable')\n"
        "        np.argsort(a)\n")
    assert _sort_calls(tree) == [("f", 3), ("f", 4), ("C.g", 7)]


def _with_isolated(g: UndirectedGraph, extra: int) -> UndirectedGraph:
    return UndirectedGraph(g.n + extra, g.edge_list())


def _sunlet(k: int) -> UndirectedGraph:
    """C_k with a leaf at every cycle vertex; the leaf of vertex 0 has
    a leaf of its own, so vertex 0 carries a two-edge path."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)] + [(k, 2 * k)]
    return UndirectedGraph(2 * k + 1, edges)


@pytest.mark.parametrize("k", [3, 4])
def test_zero_weight_root_rows_are_dropped(k, monkeypatch):
    """Every core vertex of the sunlet carries a pendant tree, so every
    bag's root has weights, 0 exactly at the host's isolated vertices;
    its root fiber holds the other vertices only, and the count still
    equals brute force."""
    g = _with_isolated(generate_bounded_degeneracy(16, 2, seed=k), 6)
    h = _sunlet(k)
    root_weights = {}
    seen = []
    run_bag = fastdp._run_bag
    apply_slot = fastdp._apply_slot

    def bag_spy(hidx, host, plan, tables):
        root_weights[id(plan)] = host.vertex_weights[plan.order[0]]
        return run_bag(hidx, host, plan, tables)

    def slot_spy(hidx, plan, tables, state, t_at):
        if t_at == 1 and plan.order[0] not in plan.out_cols:
            seen.append((root_weights[id(plan)],
                         state.cols[plan.order[0]].copy()))
        return apply_slot(hidx, plan, tables, state, t_at)

    monkeypatch.setattr(fastdp, "_run_bag", bag_spy)
    monkeypatch.setattr(fastdp, "_apply_slot", slot_spy)
    assert count_homomorphisms(g, h) == brute_force_hom(g, h)
    assert seen
    for w, rows in seen:
        assert set(np.flatnonzero(w == 0).tolist()) == set(range(16, 22))
        assert rows.dtype == np.int32
        assert np.array_equal(rows, np.flatnonzero(w))


def test_zero_weight_rows_with_a_tree_free_pattern():
    """Isolated host vertices change no count of a pattern without
    pendant trees, whose root fibers carry no weight and so keep every
    vertex."""
    g = generate_bounded_degeneracy(20, 3, seed=9)
    for h in (cycle_graph(4), cycle_graph(5)):
        assert (count_homomorphisms(_with_isolated(g, 5), h)
                == count_homomorphisms(g, h) == brute_force_hom(g, h))
