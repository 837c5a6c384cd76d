"""Seeded workload generators and their independent count oracles.

Every host is built here from the seed alone, so the program under test
sees only the edge-list files the benchmark writes. The oracles do not
touch the counting pipeline:

* Hom(G, C_k) is trace(A^k), computed with scipy sparse products.
* Sub(G, C6) on a road host is 2(r-1)(r-2): the 6-cycles of an r x r
  grid are its 1x2 and 2x1 rectangles, and pendant paths add no cycle.

Each workload also has a tiny instance from the same generator, small
enough for the library's brute-force counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Instance:
    n: int
    edges: list[tuple[int, int]]
    expected: int


@dataclass(frozen=True)
class Workload:
    name: str
    count: str          # "hom" or "sub"
    cycle: int          # the pattern is the cycle C_cycle
    threads: int
    build: Callable[[int, bool], Instance]   # (seed, tiny) -> Instance
    host: str           # the generated host, for the record
    why: str            # what the workload exercises, and why this size


def cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def degenerate_edges(n: int, c: int, seed: int) -> list[tuple[int, int]]:
    """Random graph of degeneracy <= c: vertex i picks min(c, i) distinct
    earlier neighbours uniformly: the same draw as the library's
    ``harness.generate_bounded_degeneracy``, copied so that the benchmark
    outlives the harness module."""
    rng = random.Random(seed)
    return [(j, i) for i in range(1, n)
            for j in rng.sample(range(i), min(c, i))]


def road_edges(r: int, paths: int, length: int,
               seed: int) -> tuple[int, list[tuple[int, int]]]:
    """An r x r grid core with pendant paths of ``length`` new vertices,
    each hung from a random grid vertex; vertex ids are shuffled."""
    rng = random.Random(seed)
    edges = []
    for i in range(r):
        for j in range(r):
            if i + 1 < r:
                edges.append((i * r + j, (i + 1) * r + j))
            if j + 1 < r:
                edges.append((i * r + j, i * r + j + 1))
    n = r * r
    for _ in range(paths):
        prev = rng.randrange(r * r)
        for v in range(n, n + length):
            edges.append((prev, v))
            prev = v
        n += length
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def cycle_hom_trace(n: int, edges, k: int) -> int:
    """Hom(G, C_k) = trace(A^k) = sum((A^a) * (A^(k-a))^T), exact in int64."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate((e[:, 0], e[:, 1]))
    cols = np.concatenate((e[:, 1], e[:, 0]))
    a = sp.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)),
                      shape=(n, n))
    half = k // 2
    left = a
    for _ in range(half - 1):
        left = left @ a
    right = left if k - half == half else left @ a
    return int(left.multiply(right.T).sum())


def _degenerate(size: int, tiny_size: int, k: int):
    def build(seed: int, tiny: bool) -> Instance:
        n = tiny_size if tiny else size
        edges = degenerate_edges(n, 3, seed)
        return Instance(n, edges, cycle_hom_trace(n, edges, k))
    return build


def _road(r: int, paths: int, length: int):
    def build(seed: int, tiny: bool) -> Instance:
        rr, pp, ll = (3, 2, 4) if tiny else (r, paths, length)
        n, edges = road_edges(rr, pp, ll, seed)
        return Instance(n, edges, 2 * (rr - 1) * (rr - 2))
    return build


# Sizes are set so that one sample takes 2-5 s on a 2-vCPU VM without
# numba, which gives 12-20 samples in a 55-second run; the larger
# instances ROADMAP cites take 10-25 s a sample, too long to measure
# steadily.
WORKLOADS = {w.name: w for w in (
    Workload(
        "hom-c5-degen", "hom", 5, 1, _degenerate(6668, 12, 5),
        "random degeneracy-3 graph, n=6668, m=19998: vertex i joins "
        "min(3, i) distinct earlier vertices (the draw of "
        "generate_bounded_degeneracy)",
        "The product host has 33,340 vertices and 199,980 edges and there "
        "are only 30 extensions, so the heap peel of the product takes "
        "about 40% of count_s and the bag DP most of the rest. It "
        "exercises the peel (ROADMAP item 1), arc membership in the DP "
        "(item 2) and host-size memory together. A fifth of the "
        "1e5-edge instance ROADMAP cites."),
    Workload(
        "hom-c8-frat", "hom", 8, 2, _degenerate(102, 8, 8),
        "random degeneracy-3 graph as above, n=102, m=300",
        "|Frat(C8, 2)| = 1152 extension DPs and decompositions carry more "
        "than 90% of count_s while the peel has almost nothing to do, so "
        "Frat sharing (item 3) should move it and a peel change (item 1) "
        "should not. At 2 threads, the per-extension thread dispatch "
        "carries the DP."),
    Workload(
        "sub-c6-road", "sub", 6, 2, _road(16, 2, 600),
        "16x16 grid core with 2 pendant paths of 600 vertices hung from "
        "random grid vertices, vertex ids shuffled; n=1456, m=1680",
        "The spasm's 10 quotients each rebuild and peel the product; the "
        "600-vertex chains force about 600 rounds on a batched k-core "
        "peel (its worst case), and the heap peel takes most of count_s. "
        "A faster DP should barely move it. At 2 threads, its 320 "
        "extension DPs go through the per-extension thread dispatch."),
)}
