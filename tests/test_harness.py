import hashlib
import json
import random

import pytest

from sparsecount import (NoWidth1Decomposition, UndirectedGraph,
                         brute_force_hom, brute_force_sub, cli_main,
                         degeneracy_order, find_width1_decomposition,
                         load_edge_list, max_outdegree, optimal_extension,
                         save_edge_list)
from sparsecount.harness import (generate_bounded_degeneracy,
                                 generate_double_subdivision, generate_gnp,
                                 generate_subdivision, run_count_hom)

from conftest import (complete_graph, cycle_graph, cycle_hom_trace,
                      disjoint_union, lifted_extension, path_graph,
                      random_graph, triangle_count)
from oracles import canonical_form


def test_subdivision_triangle_becomes_nine_cycle():
    g = generate_subdivision(complete_graph(3), 2)
    assert canonical_form(g) == canonical_form(cycle_graph(9))


def test_subdivision_single_edge():
    g = generate_subdivision(path_graph(2), 3)
    assert canonical_form(g) == canonical_form(path_graph(5))


def test_subdivision_structure():
    base = random_graph(8, 0.4, random.Random(1))
    g = generate_subdivision(base, 2)
    assert g.n == base.n + 2 * base.m
    assert g.m == 3 * base.m
    for v in range(base.n, g.n):
        assert g.degree(v) == 2
    assert degeneracy_order(g).kappa <= max(2, degeneracy_order(base).kappa)


def test_double_subdivision_theta():
    g = generate_double_subdivision(path_graph(2), 2)
    # paths of 3 and 4 edges between the endpoints close into a 7-cycle
    assert canonical_form(g) == canonical_form(cycle_graph(7))


def test_double_subdivision_edgeless():
    g = generate_double_subdivision(UndirectedGraph(4, []), 2)
    assert g.n == 4 and g.m == 0


def test_double_subdivision_triangle_gives_three_ten_cycles():
    g = generate_double_subdivision(complete_graph(3), 2)
    assert brute_force_sub(g, cycle_graph(10), cap=g.n) == 3


def test_subdivision_counts_match_triangles():
    rng = random.Random(6)
    for _ in range(6):
        base = random_graph(rng.randint(4, 7), 0.5, rng)
        tri = triangle_count(base)
        for t in (2, 3):
            sub = generate_subdivision(base, t)
            assert brute_force_sub(sub, cycle_graph(3 * (t + 1)),
                                   cap=sub.n) == tri


def test_generate_bounded_degeneracy():
    g = generate_bounded_degeneracy(1000, 3, 11)
    assert degeneracy_order(g).kappa <= 3
    tree = generate_bounded_degeneracy(60, 1, 4)
    assert degeneracy_order(tree).kappa == 1
    again = generate_bounded_degeneracy(1000, 3, 11)
    assert g.edge_set() == again.edge_set()
    with pytest.raises(ValueError):
        generate_bounded_degeneracy(5, 0, 1)


def test_generate_gnp_seeded():
    a = generate_gnp(30, 0.2, 5)
    b = generate_gnp(30, 0.2, 5)
    assert a.edge_set() == b.edge_set()


def test_run_count_hom_report():
    g = generate_bounded_degeneracy(40, 2, 9)
    h = cycle_graph(4)
    report = run_count_hom(g, h)
    assert report.count == brute_force_hom(g, h, cap=64)
    assert report.licl == 4 and report.t == 1
    assert report.n_extensions == 14
    assert report.kappa <= 2
    assert set(report.stage_timings_ms) == {"host_extension", "dp"}
    # depth 1 counts on G's own DAG: Delta+ is its max outdegree
    assert report.delta_plus == max_outdegree(optimal_extension(g, 1).graph)
    payload = json.loads(report.to_json())
    assert payload["count"] == report.count
    for key in ("licl", "t", "n_extensions", "kappa", "delta_plus",
                "stage_timings_ms"):
        assert key in payload


def test_run_count_hom_delta_plus_at_depth_2():
    # depth 2 counts on G's own extension to depth 2: Delta+ is its max
    # outdegree over layers 1 and 2, the paper's class parameter, not that
    # of a lifted product extension and without the index's loops
    g = generate_bounded_degeneracy(60, 3, 4)
    report = run_count_hom(g, cycle_graph(6))
    assert report.t == 2 and report.count == cycle_hom_trace(g, 6)
    own = optimal_extension(g, 2)
    sources = [x for layer in own.layers for x, _ in layer.tolist()]
    assert report.delta_plus == max_outdegree(own.graph) == \
        max(sources.count(x) for x in set(sources))


def test_run_count_hom_delta_plus_at_depth_3(tmp_path, capsys):
    # depth 3 counts on G's own extension to depth 3 too, over its n
    # vertices: Delta+ is its max outdegree over layers 1 to 3, below
    # that of the 6n-vertex lifted product extension
    g = generate_bounded_degeneracy(100, 3, 7)
    report = run_count_hom(g, cycle_graph(6), t=3)
    assert report.t == 3 and report.count == cycle_hom_trace(g, 6)
    own = optimal_extension(g, 3)
    sources = [x for layer in own.layers for x, _ in layer.tolist()]
    assert report.delta_plus == max_outdegree(own.graph) == \
        max(sources.count(x) for x in set(sources))
    lifted = lifted_extension(g, 3, cycle_graph(6)).graph
    assert report.delta_plus < max_outdegree(lifted)
    host = _write(tmp_path, "host.el", g)
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    assert cli_main(["count-hom", host, c6, "--t", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["delta_plus"] == \
        report.delta_plus


def _write(tmp_path, name, g):
    path = tmp_path / name
    save_edge_list(g, path)
    return str(path)


def test_cli_count_hom(tmp_path, capsys):
    tri = _write(tmp_path, "tri.el", complete_graph(3))
    assert cli_main(["count-hom", tri, tri]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert cli_main(["count-hom", tri, tri, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6 and payload["licl"] == 3


def test_cli_count_sub(tmp_path, capsys):
    host = _write(tmp_path, "k4.el", complete_graph(4))
    tri = _write(tmp_path, "tri.el", complete_graph(3))
    assert cli_main(["count-sub", host, tri]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_count_sub_json_omits_unmeasured_keys(tmp_path, capsys):
    # a subgraph count sums many Hom runs, so it reports no single
    # extension family size or host-extension out-degree
    host = _write(tmp_path, "k4.el", complete_graph(4))
    tri = _write(tmp_path, "tri.el", complete_graph(3))
    assert cli_main(["count-sub", host, tri, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4 and payload["spasm_size"] == 1
    assert "n_extensions" not in payload and "delta_plus" not in payload


def test_cli_count_sub_computes_the_spasm_once(tmp_path, capsys):
    # count-sub sizes the spasm for its report and sums the count over
    # it: one computation serves both
    from sparsecount import pattern_tools

    host = _write(tmp_path, "g.el", random_graph(10, 0.4, random.Random(4)))
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    pattern_tools._spasm.cache_clear()
    assert cli_main(["count-sub", host, c6, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spasm_size"] == len(pattern_tools.spasm(cycle_graph(6)))
    assert pattern_tools._spasm.cache_info().misses == 1


def test_cli_count_sub_past_the_canonical_limit(tmp_path, capsys,
                                                monkeypatch):
    # an 11-vertex pattern is refused before any partition of its
    # vertices is enumerated
    from sparsecount import pattern_tools

    def refuse(n, adj):
        raise AssertionError("a partition was enumerated")

    monkeypatch.setattr(pattern_tools, "_independent_partitions", refuse)
    host = _write(tmp_path, "k4.el", complete_graph(4))
    pat = _write(tmp_path, "c11.el", cycle_graph(11))
    assert cli_main(["count-sub", host, pat]) == 2
    assert "limited to 10 vertices" in capsys.readouterr().err


def test_cli_analyze(tmp_path, capsys):
    c9 = _write(tmp_path, "c9.el", cycle_graph(9))
    assert cli_main(["analyze", c9, "--t", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["licl"] == 9
    assert payload["t_min"] == 3
    assert payload["n_extensions"] == 2 ** 9 - 2
    assert payload["n_classes"] == 29  # Aut(C9) orbits of orientations
    # at depth 1 the alternating orientations have no width-1 witness
    assert any(not w["width1"] for w in payload["extensions"])
    assert all("hubset" in w and "ur_edges" in w for w in payload["extensions"])


@pytest.mark.parametrize("h, classes", [
    (disjoint_union(complete_graph(3), complete_graph(3)), 2),
    # C6 at depth 2 (36 classes) beside K2, a tree, counted by message
    # passing with no DP
    (disjoint_union(cycle_graph(6), path_graph(2)), 36),
])
def test_cli_analyze_classes_per_component(tmp_path, capsys, monkeypatch, h,
                                           classes):
    import sparsecount.counting as counting

    pat = _write(tmp_path, "h.el", h)
    assert cli_main(["analyze", pat, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_classes"] == classes
    # the witnesses are those of the 2-cores' members, at their depths
    cores = [i for i, c in enumerate(payload["components"]) if c["core_n"]]
    assert payload["n_frat"] == payload["n_extensions"] == \
        len(payload["extensions"])
    assert sorted({w["component"] for w in payload["extensions"]}) == cores
    calls = []
    real = counting.count_hom_extension

    def counted(pattern_ext, host_ext):
        calls.append(pattern_ext)
        return real(pattern_ext, host_ext)

    monkeypatch.setattr(counting, "count_hom_extension", counted)
    g = random_graph(8, 0.5, random.Random(1))
    assert run_count_hom(g, h).count == brute_force_hom(g, h)
    assert len(calls) == classes


def test_cli_analyze_text(tmp_path, capsys):
    c4 = _write(tmp_path, "c4.el", cycle_graph(4))
    assert cli_main(["analyze", c4]) == 0
    out = capsys.readouterr().out
    assert "licl: 4" in out and "t_min: 1" in out
    assert "1/8" in out  # leading spasm coefficient
    assert "|Frat(H,1)| = 14 in 3 classes" in out


def test_cli_verify(tmp_path, capsys):
    host = _write(tmp_path, "host.el", random_graph(9, 0.4, random.Random(3)))
    pat = _write(tmp_path, "pat.el", cycle_graph(5))
    assert cli_main(["verify", host, pat]) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_cli_verify_seeded_batch(tmp_path, capsys):
    rng = random.Random(2026)
    patterns = [path_graph(3), cycle_graph(4), complete_graph(3),
                cycle_graph(5)]
    for i in range(12):
        host = _write(tmp_path, f"h{i}.el",
                      random_graph(rng.randint(4, 11), rng.uniform(0.2, 0.5),
                                   rng))
        pat = _write(tmp_path, f"p{i}.el", patterns[i % len(patterns)])
        assert cli_main(["verify", host, pat]) == 0
        assert capsys.readouterr().out.startswith("OK")


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.el"
    assert cli_main(["gen", "degen", "--n", "50", "--c", "2",
                     "--seed", "7", "-o", str(out)]) == 0

    g = load_edge_list(out)
    assert g.n == 50 and degeneracy_order(g).kappa <= 2
    tri = _write(tmp_path, "tri.el", complete_graph(3))
    assert cli_main(["gen", "subdiv", tri, "--t", "2", "-o",
                     str(tmp_path / "sub.el")]) == 0
    sub = load_edge_list(tmp_path / "sub.el")
    assert canonical_form(sub) == canonical_form(cycle_graph(9))
    assert cli_main(["gen", "gnp", "--n", "10", "--p", "0.3"]) == 0
    assert capsys.readouterr().out.count("\n") >= 1


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["count-hom", "missing-file", "also-missing"]) == 2
    assert cli_main(["no-such-command"]) == 2
    host = _write(tmp_path, "host.el", random_graph(8, 0.4, random.Random(5)))
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    code = cli_main(["count-hom", host, c6, "--t", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "offending extension" in err
    assert cli_main(["count-hom", host, c6, "--t", "1",
                     "--exact-fallback"]) == 0
    out = capsys.readouterr().out.strip()
    g = random_graph(8, 0.4, random.Random(5))
    assert int(out) == brute_force_hom(g, cycle_graph(6))
    # a directory where a file belongs is an input error, not a traceback
    assert cli_main(["count-hom", str(tmp_path), c6]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_frat_blowup_is_an_input_error(tmp_path, capsys, monkeypatch):
    from sparsecount import ExtensionBlowupError, counting, harness

    def blowup(h, t, *args, **kwargs):
        raise ExtensionBlowupError(f"|Frat(H,{t})| exceeds cap 1")

    monkeypatch.setattr(counting, "enumerate_pattern_extensions", blowup)
    monkeypatch.setattr(harness, "enumerate_pattern_extensions", blowup)
    host = _write(tmp_path, "host.el", random_graph(8, 0.4, random.Random(5)))
    c5 = _write(tmp_path, "c5.el", cycle_graph(5))
    for cmd in (["count-hom", host, c5], ["verify", host, c5],
                ["analyze", c5]):
        assert cli_main(cmd) == 2, cmd
        captured = capsys.readouterr()
        assert captured.err == "error: |Frat(H,1)| exceeds cap 1\n"
        assert captured.out == ""


# SHA-256 of `gen subdiv --t 2` and `gen subdiv2 --t 3` on
# generate_bounded_degeneracy(40, 3, 11), as the generators wrote them
# before they shared one chain builder
GEN_SHA256 = {
    ("subdiv", 2):
        "9bb7c2e62f7dfa18e251561f50ca944b38e97725352f8919f759a646900e5377",
    ("subdiv2", 3):
        "e5e5ec041864d4287056e8b49d012b7c6ff374b42afe527fc5e5e4bcb551b8a9",
}


@pytest.mark.parametrize("kind, t", sorted(GEN_SHA256))
def test_cli_gen_subdivisions_are_pinned(tmp_path, capsys, kind, t):
    base = _write(tmp_path, "base.el", generate_bounded_degeneracy(40, 3, 11))
    assert cli_main(["gen", kind, base, "--t", str(t)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[kind, t]


def test_cli_exit_3_lists_the_offending_members_arcs(tmp_path, capsys):
    # C6 has LICL 6 >= 3(1 + 1), so at depth 1 some member of its Frat
    # has no width-1 decomposition; stderr lists that member's arcs
    g = random_graph(8, 0.4, random.Random(5))
    host = _write(tmp_path, "host.el", g)
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    with pytest.raises(NoWidth1Decomposition) as info:
        run_count_hom(load_edge_list(host), load_edge_list(c6), t=1)
    member = info.value.extension
    assert member.depth == 1 and len(member.arcs) == 6
    assert find_width1_decomposition(member) is None
    assert cli_main(["count-hom", host, c6, "--t", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    head = err.index("offending extension (depth 1):")
    assert err[head + 1:] == [f"  {u} -> {v}  weight {w}"
                              for u, v, w in member.arcs]


def test_cli_empty_pattern_is_usage_error(tmp_path, capsys):
    host = _write(tmp_path, "tri.el", complete_graph(3))
    empty = _write(tmp_path, "empty.el", UndirectedGraph(0, []))
    for cmd in (["count-hom", host, empty, "--json"],
                ["count-sub", host, empty, "--json"],
                ["verify", host, empty], ["analyze", empty, "--json"]):
        assert cli_main(cmd) == 2
        captured = capsys.readouterr()
        assert "at least one vertex" in captured.err
        assert captured.out == ""


def test_cli_exact_fallback_refused_past_cap(tmp_path, capsys):
    from sparsecount.counting import BRUTE_FORCE_HOM_CAP

    g = random_graph(40, 0.15, random.Random(3))
    host = _write(tmp_path, "host.el", g)
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    assert cli_main(["count-hom", host, c6, "--t", "1",
                     "--exact-fallback"]) == 3
    err = capsys.readouterr().err
    assert f"past the brute-force cap of {BRUTE_FORCE_HOM_CAP}" in err
    assert "offending extension" in err


def test_cli_exact_fallback_json_reports_only_brute_force(tmp_path,
                                                          capsys):
    # the failed pipeline run returned no extension count, Delta+ or
    # stage timings, so the report holds only what brute force measured
    g = generate_gnp(12, 0.4, 3)
    host = _write(tmp_path, "host.el", g)
    c6 = _write(tmp_path, "c6.el", cycle_graph(6))
    assert cli_main(["count-hom", host, c6, "--t", "1", "--exact-fallback",
                     "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fallback"] is True
    assert report["count"] == brute_force_hom(g, cycle_graph(6))
    assert "n_extensions" not in report and "delta_plus" not in report
    assert set(report["stage_timings_ms"]) == {"brute_force"}


def test_cli_bench(tmp_path, capsys):
    pat = _write(tmp_path, "c4.el", cycle_graph(4))
    assert cli_main(["bench", pat, "--sizes", "200,400", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["ratio"] is None and rows[1]["ratio"] > 0
    assert all("count" in row and "seconds" in row for row in rows)
