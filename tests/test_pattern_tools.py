import random
from fractions import Fraction
from itertools import permutations

import pytest

from sparsecount import (acyclic_orientations, automorphism_count,
                         automorphism_generators, brute_force_hom,
                         brute_force_sub, connected_components, licl,
                         min_extension_depth, spasm, UndirectedGraph)

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      disjoint_union, licl_oracle, path_graph, random_graph,
                      star_graph)
from oracles import canonical_form


def test_licl_basics():
    assert licl(cycle_graph(6)) == 6
    assert licl(complete_graph(4)) == 3
    assert licl(path_graph(5)) == 0
    assert licl(star_graph(4)) == 0


def test_licl_chorded_nine_cycle():
    # chord between vertices three steps apart leaves induced C4 and C7
    g = UndirectedGraph(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 3)])
    assert licl_oracle(g) == 7
    assert licl(g) == 7


def test_licl_matches_oracle_on_random_graphs():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.2, 0.8), rng)
        assert licl(g) == licl_oracle(g)


def test_min_extension_depth():
    assert min_extension_depth(0) == 1
    assert min_extension_depth(5) == 1
    assert min_extension_depth(6) == 2
    assert min_extension_depth(9) == 3
    assert min_extension_depth(11) == 3
    assert min_extension_depth(12) == 4
    with pytest.raises(ValueError):
        min_extension_depth(-1)


def test_connected_components():
    assert connected_components(cycle_graph(5)) == [frozenset(range(5))]
    two = UndirectedGraph(4, [(0, 1), (2, 3)])
    assert connected_components(two) == [frozenset({0, 1}), frozenset({2, 3})]
    assert connected_components(UndirectedGraph(0, [])) == []


def test_automorphism_counts():
    assert automorphism_count(complete_graph(3)) == 6
    assert automorphism_count(path_graph(3)) == 2
    assert automorphism_count(cycle_graph(6)) == 12
    assert automorphism_count(cycle_graph(12)) == 24
    assert automorphism_count(star_graph(4)) == 24
    assert automorphism_count(UndirectedGraph(1, [])) == 1
    assert automorphism_count(star_graph(9)) == 362880
    assert automorphism_count(disjoint_union(complete_graph(3),
                                             complete_graph(3))) == 72


def _closure(gens, n):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[v]] for v in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def test_automorphism_generators_generate_the_group():
    patterns = connected_patterns_up_to(6) + [
        UndirectedGraph(0, []), UndirectedGraph(3, []),
        disjoint_union(complete_graph(3), complete_graph(3)),
        disjoint_union(path_graph(2), path_graph(3))]
    for h in patterns:
        edges = h.edge_set()
        gens = automorphism_generators(h)
        for g in gens:
            assert sorted(g) == list(range(h.n))
            assert {(min(g[u], g[v]), max(g[u], g[v]))
                    for u, v in edges} == edges
        group = _closure(gens, h.n)
        # the closure is exactly the edge-preserving permutations
        brute = {p for p in permutations(range(h.n))
                 if all((min(p[u], p[v]), max(p[u], p[v])) in edges
                        for u, v in edges)}
        assert group == brute
        assert len(group) == automorphism_count(h)


def test_canonical_form():
    a = UndirectedGraph(3, [(0, 1), (1, 2)])
    b = UndirectedGraph(3, [(0, 2), (1, 2)])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(complete_graph(3))
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))
    with pytest.raises(ValueError):
        canonical_form(path_graph(11))


def test_acyclic_orientation_counts():
    assert len(acyclic_orientations(path_graph(2))) == 2
    assert len(acyclic_orientations(complete_graph(3))) == 6
    assert len(acyclic_orientations(cycle_graph(4))) == 14


def test_spasm_path3():
    entries = spasm(path_graph(3))
    by_size = {e.quotient.n: e.coefficient for e in entries}
    assert by_size == {3: Fraction(1, 2), 2: Fraction(-1, 2)}


def test_spasm_triangle():
    entries = spasm(complete_graph(3))
    assert len(entries) == 1
    assert entries[0].coefficient == Fraction(1, 6)
    assert entries[0].quotient.n == 3


def test_spasm_c4():
    entries = spasm(cycle_graph(4))
    lead = entries[0]
    assert lead.quotient.n == 4 and lead.coefficient == Fraction(1, 8)
    sizes = sorted(e.quotient.n for e in entries)
    assert sizes == [2, 3, 4]


def test_spasm_identity_example_star():
    # subgraph count of the 2-edge path inside the 3-leaf star
    star = star_graph(3)
    p3 = path_graph(3)
    assert brute_force_hom(star, p3) == 12
    assert brute_force_hom(star, path_graph(2)) == 6
    total = sum(e.coefficient * brute_force_hom(star, e.quotient)
                for e in spasm(p3))
    assert total == 3 == brute_force_sub(star, p3)


def test_spasm_shape_invariants():
    for h in connected_patterns_up_to(5):
        entries = spasm(h)
        assert all(e.quotient.n <= h.n for e in entries)
        assert all(e.coefficient != 0 for e in entries)
        assert entries[0].quotient.n == h.n
        assert entries[0].coefficient == Fraction(1, automorphism_count(h))


def test_spasm_identity_random_hosts():
    rng = random.Random(23)
    patterns = [p for p in connected_patterns_up_to(5) if p.n >= 2]
    for trial in range(120):
        h = patterns[trial % len(patterns)]
        g = random_graph(rng.randint(1, 12), rng.uniform(0.15, 0.6), rng)
        total = sum(e.coefficient * brute_force_hom(g, e.quotient)
                    for e in spasm(h))
        assert total.denominator == 1
        assert int(total) == brute_force_sub(g, h)


def test_disconnected_pattern_spasm_runs():
    h = disjoint_union(path_graph(2), path_graph(2))
    entries = spasm(h)
    rng = random.Random(4)
    g = random_graph(9, 0.4, rng)
    total = sum(e.coefficient * brute_force_hom(g, e.quotient)
                for e in entries)
    assert int(total) == brute_force_sub(g, h)
