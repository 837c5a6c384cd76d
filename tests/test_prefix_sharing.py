"""The DPs of one family expand each shared bag prefix once.

``fastdp._run_bag`` keys the state that each op of a bag's program
leaves by ``fastdp._prefix_keys`` and keeps those that an EXPAND leaves
on the family's ``SignatureHost``;
a later bag with the same key starts from that state. These tests check
that counts and every bag table (``oracles.bag_table_digests``) are the
same with sharing on and with it off (the key function patched to give
no key), on cycles at depths 1 to 3, Sub(C6) on a road and a pattern
with pendant weights, also with blocks of 3, 64 and 256 rows (a root
fiber cut at once, and states kept until a later cut), the 2-path
filter on every block and every value widened to Python ints; that
sharing saves expansions on a road; and that every cached array is
read-only and no cached state holds more than ``ROW_BLOCK`` rows.
"""

import pytest

from sparsecount import (UndirectedGraph, brute_force_hom, count_homomorphisms,
                         count_subgraphs, fastdp)
from sparsecount.harness import generate_bounded_degeneracy

from conftest import (benchmark_host, complete_graph, cycle_graph,
                      cycle_hom_trace)
from oracles import bag_table_digests

C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])


def _road(r: int, length: int) -> UndirectedGraph:
    """An r x r grid with two pendant paths of ``length`` new vertices,
    hung from its centre and its last corner: the shape of the
    ``sub-c6-road`` benchmark host, Sub(C6) = 2(r - 1)(r - 2)."""
    edges = [(i * r + j, i * r + j + 1) for i in range(r)
             for j in range(r - 1)]
    edges += [(i * r + j, (i + 1) * r + j) for i in range(r - 1)
              for j in range(r)]
    n = r * r
    for hook in ((r // 2) * (r + 1), r * r - 1):
        edges += [(hook, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
        n += length
    return UndirectedGraph(n, edges)


def _sharing_off(monkeypatch):
    monkeypatch.setattr(fastdp, "_prefix_keys",
                        lambda plan, marks: (None,) * len(plan.ops))


CASES = {
    "c5-t1": (lambda g: count_homomorphisms(g, cycle_graph(5), t=1),
              generate_bounded_degeneracy(40, 3, 5), "trace"),
    "sub-c6-road": (lambda g: count_subgraphs(g, cycle_graph(6)),
                    _road(4, 5), 12),
    "c6-t2": (lambda g: count_homomorphisms(g, cycle_graph(6), t=2),
              generate_bounded_degeneracy(16, 3, 6), "trace"),
    "c7-t2": (lambda g: count_homomorphisms(g, cycle_graph(7), t=2),
              generate_bounded_degeneracy(16, 3, 7), "trace"),
    "c8-t2": (lambda g: count_homomorphisms(g, cycle_graph(8), t=2),
              generate_bounded_degeneracy(11, 3, 8), "trace"),
    "c9-t3": (lambda g: count_homomorphisms(g, cycle_graph(9), t=3),
              complete_graph(4), "trace"),
    "c4-tail": (lambda g: count_homomorphisms(g, C4_TAIL),
                generate_bounded_degeneracy(14, 3, 4), "brute"),
}

SETTINGS = {
    "default": {},
    "block-3": {"ROW_BLOCK": 3},
    "block-64": {"ROW_BLOCK": 64},
    "block-256": {"ROW_BLOCK": 256},
    "filter-all": {"FILTER_MIN": 0},
    "wide": {"_I64_LIMIT": 1},
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_equal_with_sharing_on_and_off(case, setting, monkeypatch):
    count, g, want = CASES[case]
    if want == "trace":
        want = cycle_hom_trace(g, int(case[1]))
    elif want == "brute":
        want = brute_force_hom(g, C4_TAIL)
    for name, value in SETTINGS[setting].items():
        monkeypatch.setattr(fastdp, name, value)
    shared = bag_table_digests(lambda: count(g))
    _sharing_off(monkeypatch)
    plain = bag_table_digests(lambda: count(g))
    assert shared[0] == plain[0] == want
    assert shared[1] == plain[1]


@pytest.mark.parametrize("name, count", [
    ("hom-c5-degen", lambda g: count_homomorphisms(g, cycle_graph(5))),
    ("sub-c6-road", lambda g: count_subgraphs(g, cycle_graph(6))),
])
def test_benchmark_tables_equal_with_sharing_on_and_off(name, count,
                                                        tmp_path,
                                                        monkeypatch):
    g, want = benchmark_host(name, tmp_path)
    shared = bag_table_digests(lambda: count(g))
    _sharing_off(monkeypatch)
    assert bag_table_digests(lambda: count(g)) == shared
    assert shared[0] == want


@pytest.fixture
def spied(monkeypatch):
    """Record the hosts the bags ran on, the EXPAND ops of their
    programs, the ``_expand`` calls and the rows each expansion left."""
    seen = {"hosts": {}, "steps": 0, "expands": 0, "rows": []}
    run_bag, expand = fastdp._run_bag, fastdp._expand

    def tracked_bag(host, plan, tables):
        seen["hosts"][id(host)] = host
        seen["steps"] += sum(op[0] == fastdp.EXPAND for op in plan.ops)
        return run_bag(host, plan, tables)

    def tracked_expand(hidx, state, *step):
        seen["expands"] += 1
        alive = expand(hidx, state, *step)
        seen["rows"].append(state.nrows if alive else 0)
        return alive

    monkeypatch.setattr(fastdp, "_run_bag", tracked_bag)
    monkeypatch.setattr(fastdp, "_expand", tracked_expand)
    return seen


def _cached(seen) -> list:
    return [state for host in seen["hosts"].values()
            for state in host._prefixes.values()]


def test_a_road_expands_fewer_times_than_it_has_steps(spied):
    assert count_subgraphs(_road(6, 12), cycle_graph(6)) == 40
    assert 0 < spied["expands"] < spied["steps"]
    assert _cached(spied)


@pytest.mark.parametrize("block", [256, fastdp.ROW_BLOCK])
def test_cached_states_are_read_only_and_at_most_a_block(block, spied,
                                                         monkeypatch):
    monkeypatch.setattr(fastdp, "ROW_BLOCK", block)
    g = generate_bounded_degeneracy(30, 3, 5)
    assert count_homomorphisms(g, cycle_graph(6), t=2) == \
        cycle_hom_trace(g, 6)
    cached = _cached(spied)
    assert any(state.nrows for state in cached)
    for state in cached:
        assert state.nrows <= block
        for arr in (*state.cols.values(), state.vals):
            if arr is not None:
                assert arr.shape == (state.nrows,)
                assert not arr.flags.writeable
    if block == 256:
        # some expansion left more than a block, and was not kept
        assert max(spied["rows"]) > block
