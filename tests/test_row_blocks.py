"""Each bag's DP runs depth-first in blocks of at most ``ROW_BLOCK`` rows.

``fastdp._run_bag`` cuts the root fiber, and every state an expansion
leaves, into ``ROW_BLOCK``-row slices and carries each slice through the
remaining slots and steps before the next one. With the block patched
down to a few rows, every bag of these small hosts is cut many times;
the counts must stay those of the oracles and of the unsplit run, and
no slot or expansion may see more than a block.
"""

import pytest

from sparsecount import (UndirectedGraph, brute_force_hom, brute_force_sub,
                         count_homomorphisms, count_subgraphs, fastdp)
from sparsecount.harness import generate_bounded_degeneracy

from conftest import complete_graph, cycle_graph, cycle_hom_trace

C4_TAIL = UndirectedGraph(5, cycle_graph(4).edge_list() + [(0, 4)])


def _road() -> UndirectedGraph:
    """A 3x3 grid with two 4-vertex pendant paths, the shape of the
    ``sub-c6-road`` benchmark host: Sub(C6) = 2(r - 1)(r - 2) = 4."""
    edges = [(i * 3 + j, i * 3 + j + 1) for i in range(3) for j in range(2)]
    edges += [(i * 3 + j, (i + 1) * 3 + j) for i in range(2) for j in range(3)]
    edges += [(4, 9), (9, 10), (10, 11), (11, 12)]
    edges += [(8, 13), (13, 14), (14, 15), (15, 16)]
    return UndirectedGraph(17, edges)


@pytest.fixture
def blocks(monkeypatch):
    """Record the rows every slot and expansion receives, the slices
    cut, and per aggregated table its chunks, key width and whether its
    values are Python ints."""
    seen = {"reads": [], "cuts": 0, "joined": []}
    expand, slot, rows, aggregate = (
        fastdp._expand, fastdp._apply_slot, fastdp._BlockState.rows,
        fastdp._aggregate_table)

    def read(state):
        seen["reads"].append(state.nrows)
        for col in state.cols.values():
            assert col.shape[0] == state.nrows

    def tracked_expand(hidx, state, *step):
        read(state)
        return expand(hidx, state, *step)

    def tracked_slot(hidx, plan, tables, state, t_at):
        read(state)
        return slot(hidx, plan, tables, state, t_at)

    def tracked_rows(self, lo, hi):
        seen["cuts"] += 1
        return rows(self, lo, hi)

    def tracked_aggregate(key_chunks, val_chunks, n):
        width = key_chunks[0].shape[1] if key_chunks else 0
        wide = any(v.dtype == object for v in val_chunks)
        seen["joined"].append((len(key_chunks), width, wide))
        return aggregate(key_chunks, val_chunks, n)

    monkeypatch.setattr(fastdp, "_expand", tracked_expand)
    monkeypatch.setattr(fastdp, "_apply_slot", tracked_slot)
    monkeypatch.setattr(fastdp._BlockState, "rows", tracked_rows)
    monkeypatch.setattr(fastdp, "_aggregate_table", tracked_aggregate)
    return seen


def _split_counts(monkeypatch, seen, count):
    """count() unsplit, then with blocks of 3 and of 64 rows. The
    unsplit run cuts nothing; in the split runs no slot or expansion
    reads more than a block, and blocks of 3 rows cut some state."""
    out = []
    for block in (1 << 62, 3, 64):
        monkeypatch.setattr(fastdp, "ROW_BLOCK", block)
        seen["reads"].clear()
        seen["cuts"] = 0
        out.append(count())
        assert seen["reads"] and max(seen["reads"]) <= block
        if block == 3:
            assert seen["cuts"]
        if block == 1 << 62:
            assert not seen["cuts"]
    return out[0], out[1:]


@pytest.mark.parametrize("h, t, g", [
    (cycle_graph(5), 1, generate_bounded_degeneracy(40, 3, 5)),
    (cycle_graph(6), 2, generate_bounded_degeneracy(16, 3, 6)),
    (cycle_graph(7), 2, generate_bounded_degeneracy(16, 3, 7)),
    (cycle_graph(9), 3, complete_graph(4)),
])
def test_cycles_in_blocks(h, t, g, blocks, monkeypatch):
    want = cycle_hom_trace(g, h.n)
    whole, split = _split_counts(monkeypatch, blocks,
                                 lambda: count_homomorphisms(g, h, t=t))
    assert whole == want
    assert split == [want, want]


def test_c5_child_table_from_several_blocks(blocks, monkeypatch):
    # one class of C5 has a child bag that shares vertices with its
    # parent; with 3-row blocks that keyed table is joined from many
    # finished blocks
    g = generate_bounded_degeneracy(40, 3, 5)
    monkeypatch.setattr(fastdp, "ROW_BLOCK", 3)
    assert count_homomorphisms(g, cycle_graph(5)) == cycle_hom_trace(g, 5)
    assert any(chunks > 1 and width > 0
               for chunks, width, _ in blocks["joined"])


def test_weights_in_blocks(blocks, monkeypatch):
    g = generate_bounded_degeneracy(12, 3, 4)
    want = brute_force_hom(g, C4_TAIL)
    whole, split = _split_counts(monkeypatch, blocks,
                                 lambda: count_homomorphisms(g, C4_TAIL))
    assert whole == want
    assert split == [want, want]


def test_subgraphs_on_a_road_in_blocks(blocks, monkeypatch):
    g = _road()
    want = brute_force_sub(g, cycle_graph(6))
    assert want == 4
    whole, split = _split_counts(monkeypatch, blocks,
                                 lambda: count_subgraphs(g, cycle_graph(6)))
    assert whole == want
    assert split == [want, want]


def test_widened_values_in_blocks(blocks, monkeypatch):
    # with an int64 limit of 1 every value array widens to Python ints,
    # so the blocks of one bag carry object values into its table
    g = generate_bounded_degeneracy(24, 3, 8)
    monkeypatch.setattr(fastdp, "_I64_LIMIT", 1)
    for k, t in ((5, 1), (6, 2)):
        want = cycle_hom_trace(g, k)
        blocks["joined"].clear()
        whole, split = _split_counts(
            monkeypatch, blocks,
            lambda: count_homomorphisms(g, cycle_graph(k), t=t))
        assert whole == want
        assert split == [want, want]
        assert any(chunks > 1 and wide
                   for chunks, _, wide in blocks["joined"])
