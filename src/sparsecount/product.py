"""The labeled product H^L x G, as an oracle.

Fraternal extension by itself does not preserve homomorphism counts past
depth 1, so from depth 2 on a count stands for the label-respecting
count into the categorical product: every pattern vertex u may only
land in the fiber of host vertices <u, v>, and Hom(G, H) equals the
label-respecting count from H^L into the product exactly. The pipeline
never builds the product nor its extension: it counts unlabeled members
on G's n vertices, on arcs classed by signature
(``fastdp.signature_index``). ``pattern_product`` builds the product for
the tests, which peel its extension as an oracle.
"""

from __future__ import annotations

import numpy as np

from .graph_core import UndirectedGraph


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
