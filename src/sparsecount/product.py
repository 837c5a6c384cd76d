"""The labeled pattern H^L and the labeled product host F = H^L x G.

Fraternal extension by itself does not preserve homomorphism counts, so
the pipeline counts label-respecting homomorphisms into the categorical
product instead: every pattern vertex u may only land in the fiber of
host vertices labeled u, and Hom(G, H) equals the label-respecting count
from H^L into F exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import UndirectedGraph


@dataclass(frozen=True)
class LabeledPattern:
    """The pattern with every vertex labeled by itself."""

    graph: UndirectedGraph
    labels: tuple[int, ...]


class ProductHost:
    """Categorical product of pattern and host with first-coordinate labels.

    Vertex <u, v> has id u * base_n + v, so the fiber of pattern vertex u
    is the contiguous block [u * base_n, (u+1) * base_n). ``pattern`` is
    H and ``host`` is G itself, kept so G's own extension and a
    tournament on H's vertices can orient the product's extension.
    """

    __slots__ = ("graph", "pattern", "pattern_n", "base_n", "host", "labels")

    def __init__(self, graph: UndirectedGraph, pattern: UndirectedGraph,
                 host: UndirectedGraph):
        self.graph = graph
        self.pattern = pattern
        self.pattern_n = pattern.n
        self.base_n = base_n = host.n
        self.host = host
        self.labels = (np.arange(graph.n, dtype=np.int64) // base_n
                       if base_n else np.zeros(graph.n, dtype=np.int64))

    def vertex_of(self, u: int, v: int) -> int:
        return u * self.base_n + v

    def pair_of(self, x: int) -> tuple[int, int]:
        return divmod(x, self.base_n)

    def label_of(self, x: int) -> int:
        return x // self.base_n

    def __repr__(self):
        return (f"ProductHost(k={self.pattern_n}, n={self.base_n}, "
                f"m={self.graph.m})")


def label_pattern(h: UndirectedGraph) -> LabeledPattern:
    return LabeledPattern(h, tuple(range(h.n)))


def pattern_product(hl: LabeledPattern, g: UndirectedGraph) -> ProductHost:
    """Build F: edge (<u,v>, <u',v'>) iff (u,u') in E_H and (v,v') in E_G.

    Each (pattern edge, host edge) pair contributes exactly two product
    edges, so |E_F| = 2 |E_H| |E_G| and |V_F| = k * n.
    """
    k, n = hl.graph.n, g.n
    he = hl.graph.edge_array
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
    assert product.m == 2 * hl.graph.m * g.m
    return ProductHost(product, hl.graph, g)
