import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecount import (DirWLGraph, GraphFormatError, UndirectedGraph,
                         load_edge_list, max_outdegree, save_edge_list)
from sparsecount.graph_core import bfs_out_tree

from oracles import LabeledGraph, label_fibers


def test_max_outdegree():
    assert max_outdegree(DirWLGraph(0, [])) == 0
    assert max_outdegree(DirWLGraph(3, [(0, 1, 1), (0, 2, 1)])) == 2
    path = DirWLGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert max_outdegree(path) == 1


def test_rejects_self_loop_and_parallel():
    with pytest.raises(GraphFormatError):
        UndirectedGraph(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        UndirectedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        UndirectedGraph(2, [(0, 5)])


def test_dirwl_invariants():
    with pytest.raises(GraphFormatError):
        DirWLGraph(2, [(0, 1, 1), (1, 0, 1)])  # antiparallel pair
    with pytest.raises(GraphFormatError):
        DirWLGraph(2, [(0, 1, 0)])  # weight below 1
    with pytest.raises(GraphFormatError):
        DirWLGraph(2, [(0, 0, 1)])  # self-arc
    with pytest.raises(GraphFormatError):
        DirWLGraph(2, [(0, 1, 1), (0, 1, 2)])  # duplicate arc


def test_weight_layers_partition_arcs():
    g = DirWLGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3)])
    total = sum(int((g.wgt == i).sum()) for i in range(1, 4))
    assert total == g.arc_count


def test_arc_weights_vectorized():
    g = DirWLGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 3)])
    a = np.array([0, 1, 2, 3, 0, 3, 1])
    b = np.array([1, 2, 3, 0, 3, 2, 0])
    assert g.arc_weights(a, b).tolist() == [1, 2, 1, 0, 3, 0, 0]
    assert g.arc_weights(a[:0], b[:0]).shape == (0,)
    assert DirWLGraph(3).arc_weights(a[:2], b[:2]).tolist() == [0, 0]


def test_fibers_group_by_label():
    g = LabeledGraph(4, [], labels=[1, 0, 1, 0])
    fibers = label_fibers(g)
    assert list(fibers[0]) == [1, 3]
    assert list(fibers[1]) == [0, 2]


def test_bfs_out_tree_order_and_parents():
    g = DirWLGraph(5, [(0, 2, 1), (0, 1, 1), (1, 3, 1), (2, 3, 1)])
    order, parent = bfs_out_tree(g, 0)
    assert order == [0, 1, 2, 3]
    assert parent == {0: None, 1: 0, 2: 0, 3: 1}


def test_edge_list_roundtrip_via_file(tmp_path):
    g = UndirectedGraph(5, [(0, 1), (2, 4), (1, 3)])
    path = tmp_path / "g.el"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n == 5 and back.edge_set() == g.edge_set()


def test_loader_compacts_ids_and_skips_comments(tmp_path):
    path = tmp_path / "sparse.el"
    path.write_text("# a comment\n10 30\n30 700  # trailing\n\n10 700\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert g.m == 3
    assert g.id_map == {"10": 0, "30": 1, "700": 2}


def test_loader_ids_do_not_depend_on_the_hash_seed(tmp_path):
    # "7" and "07" are equal as numbers; first appearance orders them
    path = tmp_path / "ties.el"
    path.write_text("7 1\n07 2\n1 2\n")
    script = ("import json, sys; from sparsecount import load_edge_list; "
              "print(json.dumps(load_edge_list(sys.argv[1]).id_map))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    maps = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        maps.append(json.loads(proc.stdout))
    assert maps[0] == maps[1] == {"1": 0, "2": 1, "7": 2, "07": 3}


def test_loader_diagnostics(tmp_path):
    loop = tmp_path / "loop.el"
    loop.write_text("1 1\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_edge_list(loop)
    dup = tmp_path / "dup.el"
    dup.write_text("1 2\n2 1\n")
    with pytest.raises(GraphFormatError, match="parallel"):
        load_edge_list(dup)


@given(st.integers(2, 12), st.sets(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
@settings(max_examples=120, deadline=None)
def test_roundtrip_property(n, raw):
    edges = {(min(u, v) % n, max(u, v) % n) for u, v in raw}
    edges = {(u, v) for u, v in edges if u != v}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    g = UndirectedGraph(n, sorted(edges))
    assert g.edge_set() == frozenset(edges)
    degs = g.degrees()
    assert int(degs.sum()) == 2 * len(edges)
    for v in range(n):
        for u in g.neighbors(v):
            assert v in g.neighbors(int(u))
