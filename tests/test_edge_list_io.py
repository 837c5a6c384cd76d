"""Edge-list files: the loader's diagnostics and id compaction, the
loader against the per-line reference in ``oracles.py``, and the one
writer.

``load_edge_list`` tokenizes the whole text with numpy; the reference
reads it a line at a time. Both must give the same ``n``,
``edge_array`` and ``id_map``, or the same ``GraphFormatError`` text,
on any file: generated ones, both benchmark hosts and the 1e5-edge
host of acceptance 8.
"""

import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecount import (GraphFormatError, UndirectedGraph, cli_main,
                         generate_bounded_degeneracy, load_edge_list,
                         save_edge_list)
from sparsecount.graph_core import edge_list_text

from oracles import load_edge_list_reference

ROOT = Path(__file__).resolve().parent.parent


def _write(path: Path, text: str) -> Path:
    with open(path, "w", newline="") as fh:  # keep "\r\n" as written
        fh.write(text)
    return path


def _error(path: Path) -> str:
    with pytest.raises(GraphFormatError) as info:
        load_edge_list(path)
    return str(info.value)


def _outcome(load, path):
    try:
        g = load(path)
    except GraphFormatError as exc:
        return str(exc)
    arr = g.edge_array
    return g.n, arr.dtype, arr.shape, arr.tolist(), list(g.id_map.items())


# ---------------------------------------------------------------------------
# diagnostics and parsing, pinned
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, line, message", [
    ("# header\n\n   \n1 2\n# 3 4\n3 # one id\n2 3\n", 6, "expected two ids"),
    ("1 2\n2 1\n", 2, "parallel edge '2 1' (first seen at line 1)"),
    ("a b\n\nb c\n# x\nc b\n", 5,
     "parallel edge 'c b' (first seen at line 3)"),
    ("1 2\n# 3 3\n3 3\n", 3, "self-loop at '3'"),
    ("1 2\n2 1\n3 3\n", 2, "parallel edge '2 1' (first seen at line 1)"),
    ("1 2\n4 4\n2 1\n", 2, "self-loop at '4'"),
    ("1 1\n2 3\n2 3\n4\n", 4, "expected two ids"),
    ("1 2\r\n\r\n5\r\n", 3, "expected two ids"),
    ("1 2\n2 3\n3 1\n2\t1", 4, "parallel edge '2 1' (first seen at line 1)"),
])
def test_loader_diagnostics_are_exact(tmp_path, text, line, message):
    path = _write(tmp_path / "bad.el", text)
    assert _error(path) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("text", [
    "1 2\r\n2 3\r\n3 1\r\n",       # CRLF
    "1 2\n2 3\n3 1",               # no trailing newline
    "1 2 9\n2 3 x y\n3\t1  # c\n",  # columns past the second are ignored
    "1\xa02\n2\u20283\n3 \x0c1\n",  # Unicode whitespace between ids
])
def test_loader_reads_the_triangle(tmp_path, text):
    g = load_edge_list(_write(tmp_path / "tri.el", text))
    assert g.n == 3
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.id_map == {"1": 0, "2": 1, "3": 2}


def test_loader_sorts_string_ids_lexicographically(tmp_path):
    g = load_edge_list(_write(tmp_path / "names.el", "b a\nc b\n10 b\n"))
    assert g.id_map == {"10": 0, "a": 1, "b": 2, "c": 3}
    assert g.edge_array.tolist() == [[0, 2], [1, 2], [2, 3]]


def test_loader_reads_an_empty_file(tmp_path):
    for text in ("", "\n\n", "# only a comment\n"):
        g = load_edge_list(_write(tmp_path / "empty.el", text))
        assert (g.n, g.edge_array.shape, g.id_map) == (0, (0, 2), {})


# ---------------------------------------------------------------------------
# against the per-line reference
# ---------------------------------------------------------------------------

IDS = ["7", "07", "+7", "00", "-3", "x", "y", "1", "2"]
SEPS = [" ", "\t", "  ", "\xa0", "\u2028", "\x0c"]

_line = st.tuples(
    st.lists(st.sampled_from(IDS), min_size=0, max_size=3),
    st.sampled_from(SEPS),
    st.sampled_from(["", " ", "\t"]),                         # lead
    st.sampled_from(["", " ", "\xa0", "#", "# 1 2", "#7 x"]),  # tail
).map(lambda p: p[2] + p[1].join(p[0]) + p[3])


@given(st.lists(_line, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_reference(tmp_path_factory, lines, end, closed):
    path = tmp_path_factory.getbasetemp() / "differential.el"
    _write(path, end.join(lines) + (end if closed and lines else ""))
    assert _outcome(load_edge_list, path) == \
        _outcome(load_edge_list_reference, path)


def _benchmark_hosts():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name in ("hom-c5-degen", "sub-c6-road"):
        for seed in (1, 2, 3):
            inst = WORKLOADS[name].build(seed, False)
            yield f"{name}-{seed}", len(inst.edges), "".join(
                f"{u} {v}\n" for u, v in inst.edges)


def test_loader_matches_the_reference_on_the_benchmark_hosts(tmp_path):
    for name, m, text in _benchmark_hosts():
        path = _write(tmp_path / f"{name}.el", text)
        got = _outcome(load_edge_list, path)
        assert got[2] == (m, 2), name
        assert got == _outcome(load_edge_list_reference, path), name


def test_loader_matches_the_reference_on_the_acceptance_host(tmp_path):
    # the first host of acceptance 8: 1e5 edges, seed 20260811
    g = generate_bounded_degeneracy(round(100_006 / 3), 3, 20260811)
    path = tmp_path / "host.el"
    save_edge_list(g, path)
    got = _outcome(load_edge_list, path)
    assert got == _outcome(load_edge_list_reference, path)
    assert got[3] == g.edge_array.tolist() and g.m > 99_000


# ---------------------------------------------------------------------------
# the one writer
# ---------------------------------------------------------------------------

def test_save_edge_list_writes_the_formatted_lines(tmp_path):
    g = UndirectedGraph(5, [(3, 4), (0, 1), (1, 3)])
    assert edge_list_text(g) == "0 1\n1 3\n3 4\n"
    save_edge_list(g, tmp_path / "g.el")
    assert (tmp_path / "g.el").read_bytes() == b"0 1\n1 3\n3 4\n"
    assert edge_list_text(UndirectedGraph(2)) == ""


@pytest.mark.parametrize("args, size, digest", [
    (["degen", "--n", "2000", "--c", "3", "--seed", "5"], 50188,
     "117eacedff90ad09c3454c53c74e5e71d51c93d9ee7d402aa2ffd241f2b6eb14"),
    (["gnp", "--n", "300", "--p", "0.02", "--seed", "3"], 6674,
     "14e4afd7b08a8d0cad91d17727be58b541964760eae85ffe4e98102ed2372198"),
])
def test_gen_output_is_byte_identical(tmp_path, capsys, args, size, digest):
    assert cli_main(["gen", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
    path = tmp_path / "gen.el"
    assert cli_main(["gen", *args, "-o", str(path)]) == 0
    assert path.read_bytes() == out
