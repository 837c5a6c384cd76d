"""Frat(H, t) orbits generated round by round, against the member list.

``fraternal.frat_orbits`` lists only layer 1 and walks each later round
from the previous round's representatives and their stabilizers. Its
reference, ``oracles.frat_orbits_reference``, lists every member and
groups them by ``oracles.frat_classes``. These tests check that both
give the same representatives (arc tuples), sizes, class order and
|Frat| on cycles, complete graphs, every folded and coloured 2-core of
spasm(C6) and spasm(C8), and a core whose Aut_tau is trivial; that the
cap refuses at exactly the values where the enumeration refuses, with
its message; that Frat(C12, 4) gives its 21,669 classes, which the
reference alone would take seconds to group; and that a count builds
every bag table bit for bit as it does from the reference's classes.
"""

import pytest

from sparsecount import (ExtensionBlowupError, UndirectedGraph, counting,
                         count_homomorphisms, count_subgraphs,
                         enumerate_pattern_extensions, fiber_tournament,
                         fraternal, licl, min_extension_depth,
                         pendant_forest, spasm)
from sparsecount.counting import _component_patterns
from sparsecount.fraternal import frat_orbits
from sparsecount.harness import generate_bounded_degeneracy

from conftest import (benchmark_host, complete_graph, cycle_graph,
                      cycle_hom_trace)
from oracles import bag_table_digests, frat_orbits_reference

# K4 less one edge: Aut(h) has order 4, but no element of it keeps the
# depth-2 tournament
DIAMOND = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _spasm_cores(k: int) -> list:
    """(core, colours, depth) of every component of every quotient in
    spasm(C_k) that has a 2-core, at the depth a count gives it."""
    out = []
    for entry in spasm(cycle_graph(k)):
        for part in _component_patterns(entry.quotient):
            forest = pendant_forest(part)
            if forest.core is not None:
                out.append((forest.core, forest.colors,
                            min_extension_depth(licl(forest.core))))
    return out


CASES = ([(cycle_graph(k), None, min_extension_depth(k))
          for k in range(3, 11)]
         + [(cycle_graph(5), None, 2), (cycle_graph(6), None, 3),
            (cycle_graph(7), None, 3), (complete_graph(4), None, 1),
            (complete_graph(5), None, 1)]
         + _spasm_cores(6) + _spasm_cores(8)
         + [(DIAMOND, None, 2), (DIAMOND, None, 3)])


def _flat(orbits) -> tuple:
    return ([(r.n, r.depth, r.arcs) for r in orbits.reps], orbits.sizes,
            orbits.n_members)


@pytest.mark.parametrize("i", range(len(CASES)))
def test_orbits_equal_the_grouped_member_list(i):
    h, colors, t = CASES[i]
    assert _flat(frat_orbits(h, t, colors)) == _flat(
        frat_orbits_reference(h, t, colors))


def test_the_cases_cover_the_spasm_cores_and_a_trivial_group():
    assert len(CASES) == 49
    assert fiber_tournament(DIAMOND, 2).size == 1
    assert fiber_tournament(DIAMOND, 1).size == 4
    assert any(colors is not None and len(set(colors)) > 1
               for _, colors, _ in CASES)


def test_only_layer_1_is_listed(monkeypatch):
    depths = []
    real = fraternal.enumerate_pattern_extensions

    def spy(h, t, *args):
        depths.append(t)
        return real(h, t, *args)

    monkeypatch.setattr(fraternal, "enumerate_pattern_extensions", spy)
    assert frat_orbits(cycle_graph(9), 3).n_members == 6642
    assert depths == [1]


def _refusal(make, cap):
    try:
        make(cap)
    except ExtensionBlowupError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("k, t", [(6, 2), (7, 3)])
def test_the_cap_refuses_where_the_enumeration_refuses(k, t):
    h = cycle_graph(k)
    sizes = [len(enumerate_pattern_extensions(h, i)) for i in range(1, t + 1)]
    for cap in sorted({c for n in sizes for c in (n - 1, n)}):
        got = _refusal(lambda c: frat_orbits(h, t, cap=c), cap)
        want = _refusal(lambda c: enumerate_pattern_extensions(h, t, c), cap)
        assert got == want, cap
    n = sizes[-1]
    assert _refusal(lambda c: frat_orbits(h, t, cap=c), n - 1) == (
        f"|Frat(H,{t})| exceeds cap {n - 1}; raise the cap or lower the depth")
    assert frat_orbits(h, t, cap=n).n_members == n


def test_c12_at_depth_4():
    orbits = frat_orbits(cycle_graph(12), 4)
    assert len(orbits.reps) == 21669
    assert sum(orbits.sizes) == orbits.n_members == 259346


def _on_reference(monkeypatch):
    monkeypatch.setattr(counting, "frat_orbits", frat_orbits_reference)


@pytest.mark.parametrize("name, count", [
    ("hom-c5-degen", lambda g: count_homomorphisms(g, cycle_graph(5))),
    ("sub-c6-road", lambda g: count_subgraphs(g, cycle_graph(6))),
])
def test_benchmark_tables_equal_on_reference_classes(name, count, tmp_path,
                                                    monkeypatch):
    g, want = benchmark_host(name, tmp_path)
    generated = bag_table_digests(lambda: count(g))
    _on_reference(monkeypatch)
    assert bag_table_digests(lambda: count(g)) == generated
    assert generated[0] == want


@pytest.mark.parametrize("k, t, g", [
    (7, 2, generate_bounded_degeneracy(16, 3, 7)),
    (9, 3, complete_graph(4)),
])
def test_deep_tables_equal_on_reference_classes(k, t, g, monkeypatch):
    count = lambda: count_homomorphisms(g, cycle_graph(k), t=t)  # noqa: E731
    generated = bag_table_digests(count)
    _on_reference(monkeypatch)
    assert bag_table_digests(count) == generated
    assert generated[0] == cycle_hom_trace(g, k)
