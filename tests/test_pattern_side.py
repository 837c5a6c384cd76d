"""The pattern side of a count runs on plain-Python members.

A count hands each class representative of Frat(H, t) to the hub-tree
decomposition and the DP as its arc tuple's ``succ`` adjacency, never as
a numpy ``DirWLGraph``. These tests check that path against the numpy
graph each member still builds on request, and against the dict engine.
"""

import random
from dataclasses import fields

from sparsecount import (count_homomorphisms, count_subgraphs,
                         enumerate_pattern_extensions, fastdp,
                         find_width1_decomposition, optimal_extension)
from sparsecount.counting import frat_classes
from sparsecount.hub_decomp import reach

from conftest import (complete_graph, connected_patterns_up_to, cycle_graph,
                      lifted_extension, random_graph, self_labeled,
                      signature_host, with_fiber_labels)
from oracles import bressan_count, member_graph

HOSTS = (complete_graph(4), random_graph(7, 0.5, random.Random(11)))


def _cases():
    """(pattern, depth)."""
    for h in connected_patterns_up_to(5):
        yield h, 1
        yield h, 2
    for k in (6, 7):
        yield cycle_graph(k), 2


def _hosts(h, t):
    """(the host a count runs on, the dict engine's host and whether it
    is the labeled lift) per host of HOSTS."""
    for g in HOSTS:
        if t == 1:
            yield (signature_host(g, h, 1), optimal_extension(g, 1).graph,
                   False)
        else:
            lifted = lifted_extension(g, t, h).graph
            yield signature_host(g, h, t), with_fiber_labels(lifted, h.n), True


def _assert_plain_ints(value, where):
    if isinstance(value, tuple):
        for x in value:
            _assert_plain_ints(x, where)
    elif hasattr(value, "__dataclass_fields__"):
        for f in fields(value):
            _assert_plain_ints(getattr(value, f.name), (where, f.name))
    else:
        assert value is None or type(value) is int, (where, value)


def _plans(pattern, tree):
    order = tree.postorder()
    domains = {bag: tuple(sorted(reach(pattern, tree.bags[tree.parent[bag]])
                                 & reach(pattern, tree.bags[bag])))
               for bag in order if bag != tree.root}
    domains[tree.root] = ()
    return [fastdp._build_plan(pattern, tree, bag, domains,
                               lambda a, b, w: tuple(range(1, w + 1)))
            for bag in order]


def test_plain_members_match_their_graphs():
    nonzero = 0
    for h, t in _cases():
        hosts = list(_hosts(h, t))
        members = enumerate_pattern_extensions(h, t)
        reps = {c[0] for c in frat_classes(members, h, t)}
        for i, member in enumerate(members):
            graph = member_graph(member)
            assert member.succ == graph.succ == [
                list(zip(*(a.tolist() for a in graph.out_arcs(v))))
                for v in range(graph.n)]
            tree = find_width1_decomposition(member)
            assert tree == find_width1_decomposition(graph)
            if tree is None:
                continue
            plans = _plans(member, tree)
            for plan in plans:
                _assert_plain_ints(plan, (h, t))
            assert plans == _plans(graph, tree)
            # the DP runs on what a count runs: each class representative
            for host, ref, labeled in hosts if i in reps else ():
                want = sum(bressan_count(
                    self_labeled(member) if labeled else graph, tree,
                    tree.root, ref).values())
                assert fastdp.extension_count(member, tree,
                                              host) == want, (h, t)
                nonzero += want > 0
    assert nonzero > 1000


def test_a_count_builds_no_succ_on_its_host(monkeypatch):
    hosts = []
    real = fastdp.extension_count

    def recorded(pattern, tree, host):
        hosts.append(host)  # the SignatureHost a count passes
        return real(pattern, tree, host)

    monkeypatch.setattr(fastdp, "extension_count", recorded)
    g = random_graph(12, 0.4, random.Random(5))
    count_subgraphs(g, cycle_graph(6))
    count_homomorphisms(g, cycle_graph(7))
    # every depth runs on the signature index over G's own extension:
    # depth 1 on its DAG, depth 2 on its two layers
    assert all(isinstance(h, fastdp.SignatureHost) for h in hosts)
    exts = [optimal_extension(g, t) for t in (1, 2)]
    assert {id(h.index) for h in hosts} == {
        id(fastdp.signature_index(ext).index) for ext in exts}
    assert {h.index.n for h in hosts} == {g.n}
    graphs = [ext.graph for ext in exts]
    assert all(h._succ is None for h in graphs)
    assert all(h._reach_cache == {} for h in graphs)
