"""Every count runs on G's n vertices, with one label.

``fastdp.signature_index`` classes the arcs and loops of G's own
depth-t extension by signature, and ``fastdp.class_weights`` gives, per
class, the k x k weights of the product arcs over it. These tests check
those weights against the extension of the labeled product H^L x G
lifted from G's own (``conftest.lifted_extension``), arc for arc and
weight for weight at t = 1, 2, 3 and 4, and the counts of a depth-3 host
against the lift member by member.
"""

import random

import numpy as np
import pytest

from sparsecount import (UndirectedGraph, brute_force_hom, count_hom_extension,
                         enumerate_pattern_extensions)
from sparsecount.harness import (generate_bounded_degeneracy,
                                 generate_subdivision)
from sparsecount.pattern_tools import fiber_tournament

from conftest import (complete_graph, connected_patterns_up_to, count_on_lift,
                      cycle_graph, cycle_hom_trace, lifted_extension,
                      random_graph, signature_host)
from oracles import frat_classes


def _grid(r: int, c: int) -> UndirectedGraph:
    edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1)
              for j in range(c)]
    return UndirectedGraph(r * c, edges)


K4_MINUS_E = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])

HOSTS = {
    "degen3-40": generate_bounded_degeneracy(40, 3, 1),
    "degen3-80": generate_bounded_degeneracy(80, 3, 2),
    "degen3-160": generate_bounded_degeneracy(160, 3, 3),
    "degen5-60": generate_bounded_degeneracy(60, 5, 4),
    "grid7": _grid(7, 7),
    "subdivided": generate_subdivision(generate_bounded_degeneracy(25, 3, 5),
                                       1),
}

PATTERNS = {"C9": cycle_graph(9), "C6": cycle_graph(6),
            "K3": complete_graph(3), "K4-e": K4_MINUS_E}


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_class_weights_match_the_lift_arc_for_arc(t):
    # every index arc x -> y of class s stands for the product arcs
    # <a,x> -> <b,y> of weight F_t[s][a, b] > 0, and those are all of
    # the lift's arcs
    for g in HOSTS.values():
        for h in PATTERNS.values():
            host = signature_host(g, h, t)
            src, cls, dst = (a.tolist() for a in host.index._arcs)
            want = {}
            for x, s, y in zip(src, cls, dst):
                for a, b in zip(*np.nonzero(host.class_weights[s])):
                    want[(int(a) * g.n + x, int(b) * g.n + y)] = \
                        int(host.class_weights[s][a, b])
            lift = lifted_extension(g, t, h).graph
            got = dict(zip(zip(lift.src.tolist(), lift.dst.tolist()),
                           lift.wgt.tolist()))
            assert got == want, (t, g, h.edge_list())
            assert host.index.n == g.n
    # no class is none, and none is read
    assert (host.class_weights[0] == 0).all()


def test_class_weights_at_depth2_read_the_two_hop_ranges():
    # the four depth-2 classes: an arc (a, b, 1) reads the DAG, classes
    # 1..2; an arc (a, b, 2) reads classes 2..3, and the loops (4) too
    # when tau orients a -> b
    for h in connected_patterns_up_to(5) + [cycle_graph(k) for k in (6, 7)]:
        tau = fiber_tournament(h, 2).arcs
        host = signature_host(HOSTS["degen3-40"], h, 2)
        for member in enumerate_pattern_extensions(h, 2):
            for a, b, w in member.arcs:
                want = ((1, 2) if w == 1 else
                        (2, 3, 4) if (a, b) in tau else (2, 3))
                assert host.read(a, b, w) == want


def test_depth3_host_matches_the_lift_member_by_member():
    nonzero = 0
    patterns = connected_patterns_up_to(4) + [cycle_graph(6),
                                              cycle_graph(7)]
    hosts = (random_graph(7, 0.5, random.Random(3)),
             generate_bounded_degeneracy(11, 3, 2), _grid(3, 3),
             generate_subdivision(complete_graph(4), 1))
    for h in patterns:
        members = enumerate_pattern_extensions(h, 3)
        classes = frat_classes(members, h, 3)
        for g in hosts:
            host, lifted = signature_host(g, h, 3), lifted_extension(g, 3, h)
            total = 0
            for c in classes:
                got = count_hom_extension(members[c[0]], host)
                assert got == count_on_lift(members[c[0]], lifted), \
                    (h.edge_list(), g.edge_list(), members[c[0]].arcs)
                nonzero += got > 0
                total += got * len(c)
            want = (cycle_hom_trace(g, h.n) if h.n > 5
                    else brute_force_hom(g, h))
            assert total == want, (h.edge_list(), g)
    assert nonzero > 300
