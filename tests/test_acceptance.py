"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line. All counts are exact integers; tolerance is 0
everywhere, the scaling check uses the stated wall-clock bounds."""

import random
import time

from sparsecount import (DirWLGraph, brute_force_hom, brute_force_hom_wl,
                         brute_force_sub, count_homomorphisms,
                         count_subgraphs, enumerate_pattern_extensions,
                         find_width1_decomposition, label_pattern, licl,
                         min_extension_depth, optimal_extension,
                         validate_decomposition,
                         validate_fraternity)
from sparsecount.harness import (generate_bounded_degeneracy,
                                 generate_double_subdivision, generate_gnp,
                                 generate_subdivision)

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      random_graph, triangle_count)

SEED = 20260811


def report(num, name, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS{suffix}")


def test_acceptance_1_hom_oracle_equivalence():
    rng = random.Random(SEED)
    patterns = connected_patterns_up_to(6)
    started = time.time()
    checked = 0
    for i in range(300):
        h = patterns[i % len(patterns)]
        n = rng.randint(6, 20)
        if i % 2 == 0:
            g = generate_bounded_degeneracy(n, rng.randint(1, 3),
                                            rng.randrange(10 ** 9))
        else:
            g = generate_gnp(n, rng.uniform(0.1, 0.5), rng.randrange(10 ** 9))
        fast = count_homomorphisms(g, h)
        slow = brute_force_hom(g, h, cap=32)
        assert fast == slow, (i, h.edge_list(), g.n)
        checked += 1
    elapsed = time.time() - started
    assert checked == 300
    assert elapsed < 300, f"took {elapsed:.0f}s, expected under 5 minutes"
    report(1, "homomorphism oracle equivalence",
           f"300 pairs in {elapsed:.0f}s")


def test_acceptance_2_partition_identity():
    rng = random.Random(SEED + 1)
    small = [p for p in connected_patterns_up_to(4) if p.n >= 2]
    checked = 0
    for i in range(50):
        h = small[i % len(small)]
        depth = [1, 2, 3][i % 3]
        g = random_graph(rng.randint(2, 8), rng.uniform(0.25, 0.55), rng)
        hl = label_pattern(h)
        host_ext = optimal_extension(g, depth, pattern=h)
        members = enumerate_pattern_extensions(hl, depth)
        total = sum(brute_force_hom_wl(host_ext.graph, m.graph, cap=10 ** 6)
                    for m in members)
        assert total == brute_force_hom(g, h), (i, h.edge_list(), depth)
        checked += 1
    assert checked == 50
    report(2, "partition identity over Frat(H,t)", "50 instances, t in 1..3")


def test_acceptance_3_spasm_subgraph_identity():
    rng = random.Random(SEED + 2)
    patterns = [p for p in connected_patterns_up_to(6) if 2 <= p.n]
    rng.shuffle(patterns)
    checked = 0
    started = time.time()
    for i in range(100):
        h = patterns[i % len(patterns)]
        g = random_graph(rng.randint(4, 16), rng.uniform(0.2, 0.5), rng)
        value = count_subgraphs(g, h)  # raises if not integral
        assert value == brute_force_sub(g, h, cap=20), (i, h.edge_list())
        checked += 1
    assert checked == 100
    report(3, "spasm subgraph identity",
           f"100 instances in {time.time() - started:.0f}s")


def test_acceptance_4_width1_guarantee():
    trees = 0
    for h in connected_patterns_up_to(6):
        depth = min_extension_depth(licl(h))
        hl = label_pattern(h)
        for member in enumerate_pattern_extensions(hl, depth):
            tree = find_width1_decomposition(member.graph)
            assert tree is not None, (h.edge_list(), depth)
            assert validate_decomposition(member.graph, tree)
            trees += 1
    # the alternating orientation of the 6-cycle is the classic obstruction
    blocked = DirWLGraph(6, [(0, 1, 1), (2, 1, 1), (2, 3, 1), (4, 3, 1),
                             (4, 5, 1), (0, 5, 1)])
    assert find_width1_decomposition(blocked) is None
    report(4, "width-1 decomposition guarantee",
           f"{trees} extensions, all k<=6 patterns")


def test_acceptance_5_fraternity_validity():
    rng = random.Random(SEED + 3)
    for i in range(100):
        g = random_graph(rng.randint(2, 24), rng.uniform(0.1, 0.5), rng)
        depth = 2 + (i % 2)
        assert validate_fraternity(optimal_extension(g, depth)), (i, depth)
    members_checked = 0
    for h in connected_patterns_up_to(6):
        depth = min_extension_depth(licl(h))
        hl = label_pattern(h)
        for member in enumerate_pattern_extensions(hl, depth):
            assert validate_fraternity(member), h.edge_list()
            members_checked += 1
    report(5, "fraternity-function validity",
           f"100 hosts at t=2,3 plus {members_checked} pattern extensions")


def test_acceptance_6_reduction_correspondence():
    rng = random.Random(SEED + 4)
    for i in range(30):
        base = random_graph(rng.randint(4, 9), rng.uniform(0.3, 0.6), rng)
        tri = triangle_count(base)
        for depth in (2, 3):
            sub = generate_subdivision(base, depth)
            length = 3 * (depth + 1)
            assert brute_force_sub(sub, cycle_graph(length),
                                   cap=sub.n) == tri, (i, depth)
            dbl = generate_double_subdivision(base, depth)
            assert brute_force_sub(dbl, cycle_graph(length + 1),
                                   cap=dbl.n) == 3 * tri, (i, depth)
    report(6, "subdivision reduction correspondence",
           "30 graphs, single and double, t in {2,3}")


def test_acceptance_7_known_values():
    k3 = complete_graph(3)
    assert count_homomorphisms(k3, k3) == 6
    assert count_homomorphisms(k3, cycle_graph(4)) == 18
    assert count_homomorphisms(cycle_graph(5), cycle_graph(5)) == 10
    assert count_subgraphs(complete_graph(4), k3) == 4
    report(7, "known values",
           "Hom(K3,K3)=6 Hom(C4,K3)=18 Hom(C5,C5)=10 Sub(K4,K3)=4")


def test_acceptance_8_scaling_smoke():
    c5 = cycle_graph(5)
    # warm the jit kernels outside the timed region
    warm = generate_bounded_degeneracy(200, 3, 1)
    count_homomorphisms(warm, c5)
    times = []
    counts = []
    started = time.time()
    for i, m in enumerate((100_000, 200_000, 400_000)):
        n = round((m + 6) / 3)
        g = generate_bounded_degeneracy(n, 3, SEED + i)
        t0 = time.perf_counter()
        counts.append(count_homomorphisms(g, c5))
        times.append(time.perf_counter() - t0)
    total = time.time() - started
    for prev, cur in zip(times, times[1:]):
        ratio = cur / prev
        assert ratio <= 3.0, f"doubling ratio {ratio:.2f} exceeds 3"
    assert total < 120, f"total {total:.0f}s exceeds 2 minutes"
    ratios = [f"{b / a:.2f}" for a, b in zip(times, times[1:])]
    report(8, "near-linear scaling",
           f"times {'/'.join(f'{t:.1f}s' for t in times)}, "
           f"ratios {'/'.join(ratios)}, total {total:.0f}s")
