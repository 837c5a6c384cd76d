"""Command line interface, instance generators, and the benchmark driver.

Subcommands: count-hom, count-sub, analyze, gen, verify, bench. Edge
lists are the only ingestion format and JSON the only structured output.
Exit codes: 2 usage or input error, 1 verify mismatch, 3 no width-1
decomposition (without --exact-fallback, or on a host past the
brute-force cap).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from .counting import (BRUTE_FORCE_HOM_CAP, NoWidth1Decomposition,
                       _component_depth, _component_patterns,
                       _count_component, brute_force_hom,
                       count_homomorphisms, count_subgraphs)
from .degeneracy import degeneracy_order
from .fraternal import (ExtensionBlowupError, enumerate_pattern_extensions,
                        frat_orbits)
from .graph_core import (GraphFormatError, UndirectedGraph, edge_list_text,
                         load_edge_list, save_edge_list)
from .hub_decomp import (find_width1_decomposition, hubset,
                         unique_reachability_graph)
from .pattern_tools import (licl, min_extension_depth, pendant_forest,
                            spasm)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NO_DECOMPOSITION = 3


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _chains(g: UndirectedGraph, lengths: tuple[int, ...]) -> UndirectedGraph:
    """g with each edge replaced by one path per entry of ``lengths``,
    through that many new vertices; original vertices keep their ids."""
    edges = []
    nxt = g.n
    for u, v in g.edge_list():
        for extra in lengths:
            chain = [u] + list(range(nxt, nxt + extra)) + [v]
            nxt += extra
            edges.extend(zip(chain, chain[1:]))
    return UndirectedGraph(nxt, edges)


def generate_subdivision(g: UndirectedGraph, t: int) -> UndirectedGraph:
    """G_t: every edge becomes a path of t+1 edges through t new vertices.

    Original vertices keep their ids; triangle counting in g reduces to
    counting C_{3(t+1)} subgraph copies in the output.
    """
    if t < 1:
        raise ValueError("subdivision needs t >= 1")
    return _chains(g, (t,))


def generate_double_subdivision(g: UndirectedGraph, t: int) -> UndirectedGraph:
    """G_t': per edge, two internally disjoint paths of t+1 and t+2 edges."""
    if t < 2:
        raise ValueError("double subdivision needs t >= 2")
    return _chains(g, (t, t + 1))


def generate_bounded_degeneracy(n: int, c: int, seed: int) -> UndirectedGraph:
    """Random graph with degeneracy <= c: vertex i picks min(c, i) distinct
    earlier neighbors uniformly."""
    if c < 1:
        raise ValueError("c must be >= 1")
    rng = random.Random(seed)
    edges = []
    for i in range(1, n):
        for j in rng.sample(range(i), min(c, i)):
            edges.append((j, i))
    return UndirectedGraph(n, edges)


def generate_gnp(n: int, p: float, seed: int) -> UndirectedGraph:
    """Erdos-Renyi G(n, p) with an explicit seed."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return UndirectedGraph(n, edges)


# ---------------------------------------------------------------------------
# instrumented pipeline
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Everything one counting run learned, for text or JSON output."""

    count: int
    licl: int
    t: int
    n_extensions: int | None   # None: not measured, left out of the JSON
    spasm_size: int | None
    n: int
    m: int
    kappa: int
    delta_plus: int | None
    stage_timings_ms: dict = field(default_factory=dict)
    fallback: bool = False
    # DPs run (one per class of each 2-core's Frat), and components
    # counted by message passing alone; None: not measured
    n_classes: int | None = None
    trees: int | None = None

    def to_json(self) -> str:
        payload = {
            "count": self.count,
            "licl": self.licl,
            "t": self.t,
            "n_extensions": self.n_extensions,
            "n_classes": self.n_classes,
            "trees": self.trees,
            "n": self.n,
            "m": self.m,
            "kappa": self.kappa,
            "delta_plus": self.delta_plus,
            "stage_timings_ms": {k: round(v, 3)
                                 for k, v in self.stage_timings_ms.items()},
            "spasm_size": self.spasm_size,
        }
        payload = {k: v for k, v in payload.items() if v is not None}
        if self.fallback:
            payload["fallback"] = True
        return json.dumps(payload)


def _core_licl(parts: list[UndirectedGraph]) -> int:
    """The longest induced cycle of the pattern whose connected
    components are ``parts``, read from their 2-cores: an induced cycle
    lies in its component's 2-core, and a tree has none."""
    cores = (pendant_forest(hc).core for hc in parts)
    return max((licl(core) for core in cores if core is not None), default=0)


def run_count_hom(g: UndirectedGraph, h: UndirectedGraph,
                  t: int | None = None,
                  exact_fallback: bool = False) -> RunReport:
    """count_homomorphisms with the per-stage timings its components report.

    ``n_extensions`` and ``n_classes`` are summed over the components'
    2-cores, whose Frat a count enumerates and runs one DP per class of;
    ``trees`` counts the components that are trees, counted by message
    passing alone with no DP (their pendant-tree weights are timed as
    "dp"). With ``exact_fallback`` a NoWidth1Decomposition is answered by
    brute force on hosts of at most BRUTE_FORCE_HOM_CAP vertices and
    re-raised on larger ones. A fallback report holds only the
    brute-force timing and leaves out the extension and class counts and
    Delta+, which the failed run never returned.
    """
    parts = _component_patterns(h)
    base_licl = _core_licl(parts)
    depth = t if t is not None else min_extension_depth(base_licl)
    timings = {"host_extension": 0.0, "dp": 0.0}
    total = 1
    n_ext = n_classes = trees = 0
    delta_plus = 0
    fallback = False
    try:
        for hc in parts:
            part = _count_component(g, hc, t)
            timings["host_extension"] += part.host_extension_ms
            timings["dp"] += part.dp_ms
            n_ext += part.n_extensions
            n_classes += part.n_classes
            trees += pendant_forest(hc).core is None
            delta_plus = max(delta_plus, part.delta_plus)
            total *= part.count
    except NoWidth1Decomposition:
        if not exact_fallback:
            raise
        if g.n > BRUTE_FORCE_HOM_CAP:
            print(f"exact fallback refused: the host has {g.n} vertices, "
                  f"past the brute-force cap of {BRUTE_FORCE_HOM_CAP}",
                  file=sys.stderr)
            raise
        fallback = True
        print("warning: no width-1 decomposition at the chosen depth; "
              "falling back to brute force", file=sys.stderr)
        t0 = time.perf_counter()
        total = brute_force_hom(g, h)
        timings = {"brute_force": (time.perf_counter() - t0) * 1e3}
        n_ext = n_classes = trees = delta_plus = None
    kappa = degeneracy_order(g).kappa
    return RunReport(total, base_licl, depth, n_ext, None, g.n, g.m,
                     kappa, delta_plus, timings, fallback, n_classes, trees)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_graph(g: UndirectedGraph, out: str | None):
    if out:
        save_edge_list(g, out)
    else:
        sys.stdout.write(edge_list_text(g))


def _cmd_count_hom(args) -> int:
    g = load_edge_list(args.host)
    h = load_edge_list(args.pattern)
    try:
        report = run_count_hom(g, h, t=args.t,
                               exact_fallback=args.exact_fallback)
    except NoWidth1Decomposition as exc:
        print(f"error: {exc}", file=sys.stderr)
        _dump_extension(exc.extension)
        return EXIT_NO_DECOMPOSITION
    if args.json:
        print(report.to_json())
    else:
        print(report.count)
    return EXIT_OK


def _cmd_count_sub(args) -> int:
    g = load_edge_list(args.host)
    h = load_edge_list(args.pattern)
    entries = spasm(h)
    t0 = time.perf_counter()
    try:
        value = count_subgraphs(g, h)
    except NoWidth1Decomposition as exc:
        print(f"error: {exc}", file=sys.stderr)
        _dump_extension(exc.extension)
        return EXIT_NO_DECOMPOSITION
    elapsed = (time.perf_counter() - t0) * 1e3
    if args.json:
        base = _core_licl(_component_patterns(h))
        report = RunReport(value, base, min_extension_depth(base), None,
                           len(entries), g.n, g.m,
                           degeneracy_order(g).kappa, None,
                           {"total": elapsed})
        print(report.to_json())
    else:
        print(value)
    return EXIT_OK


def _dump_extension(ext) -> None:
    print(f"offending extension (depth {ext.depth}):", file=sys.stderr)
    for u, v, w in ext.arcs:
        print(f"  {u} -> {v}  weight {w}", file=sys.stderr)


def _cmd_analyze(args) -> int:
    h = load_edge_list(args.pattern)
    parts = _component_patterns(h)
    base = _core_licl(parts)
    t_min = min_extension_depth(base)
    depth = args.t if args.t is not None else t_min
    try:
        entries, spasm_error = spasm(h), None
    except ValueError as exc:  # past SPASM_SIZE_LIMIT vertices
        entries, spasm_error = None, str(exc)
    # a count peels each component to its 2-core and runs one DP per
    # class of the core's Frat at its own depth; a tree runs none. The
    # witnesses are those of the members a count runs on
    components = []
    members = []
    for i, hc in enumerate(parts):
        forest = pendant_forest(hc)
        part = {"n": hc.n, "m": hc.m, "core_n": 0, "t": None,
                "n_extensions": 0, "n_classes": 0,
                "counted_by": "message passing"}
        if forest.core is not None:
            core = forest.core
            d = _component_depth(core, args.t)
            frat = enumerate_pattern_extensions(core, d)
            part.update(core_n=core.n, t=d, n_extensions=len(frat),
                        n_classes=len(frat_orbits(core, d,
                                                  forest.colors).reps),
                        counted_by="dp")
            members += [(i, ext) for ext in frat]
        components.append(part)
    n_ext = sum(c["n_extensions"] for c in components)
    n_classes = sum(c["n_classes"] for c in components)
    witnesses = []
    for i, ext in members:
        tree = find_width1_decomposition(ext)
        hubs = hubset(ext)
        ur = unique_reachability_graph(ext, hubs)
        witnesses.append({
            "component": i,
            "arcs": [list(arc) for arc in ext.arcs],
            "hubset": [int(x) for x in hubs],
            "ur_edges": [[int(a), int(b)] for a, b in ur.edges],
            "width1": tree is not None,
            "tree": None if tree is None else {
                "bags": [int(b) for b in tree.bags],
                "parent": [int(p) for p in tree.parent],
            },
        })
    payload = {
        "n": h.n,
        "m": h.m,
        "licl": base,
        "t_min": t_min,
        "t": depth,
        "spasm": None if entries is None else [
            {"n": e.quotient.n, "edges": e.quotient.edge_list(),
             "coefficient": str(e.coefficient)} for e in entries],
        "spasm_error": spasm_error,
        "n_frat": len(witnesses),
        "n_extensions": n_ext,
        "n_classes": n_classes,
        "components": components,
        "extensions": witnesses,
    }
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    print(f"pattern: n={h.n} m={h.m}")
    print(f"licl: {base}")
    print(f"t_min: {t_min}  (analyzing at t={depth})")
    if entries is None:
        print(f"spasm: not computed ({spasm_error})")
    else:
        print(f"spasm ({len(entries)} classes):")
        for e in entries:
            print(f"  {e.coefficient!s:>8}  *  Hom(G, quotient "
                  f"n={e.quotient.n} edges={e.quotient.edge_list()})")
    for i, c in enumerate(components):
        line = (f"{c['n_extensions']} in {c['n_classes']} classes "
                f"(one DP each)")
        if c["core_n"] == h.n:
            print(f"|Frat(H,{c['t']})| = {line}")
        elif c["core_n"]:
            print(f"component {i} (n={c['n']}): 2-core n={c['core_n']}, "
                  f"|Frat(core,{c['t']})| = {line}")
        else:
            print(f"component {i} (n={c['n']}): a tree, counted by "
                  f"message passing (no DP)")
    width1 = sum(1 for w in witnesses if w["width1"])
    print(f"width-1 witnesses: {width1}/{len(witnesses)} "
          f"of the 2-cores' Frat members")
    for i, w in enumerate(witnesses):
        tree = w["tree"]
        shape = ("absent" if tree is None else
                 f"bags={tree['bags']} parent={tree['parent']}")
        print(f"  extension {i} (component {w['component']}): "
              f"hubset={w['hubset']} ur={w['ur_edges']} tree: {shape}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "degen":
        g = generate_bounded_degeneracy(args.n, args.c, args.seed)
    elif args.kind == "gnp":
        g = generate_gnp(args.n, args.p, args.seed)
    else:
        base = load_edge_list(args.input)
        if args.kind == "subdiv":
            g = generate_subdivision(base, args.t)
        else:
            g = generate_double_subdivision(base, args.t)
    _write_graph(g, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_edge_list(args.host)
    h = load_edge_list(args.pattern)
    fast = count_homomorphisms(g, h)
    slow = brute_force_hom(g, h, cap=g.n)
    if fast != slow:
        print(f"MISMATCH: pipeline={fast} brute_force={slow}")
        return EXIT_MISMATCH
    print(f"OK: {fast}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    h = load_edge_list(args.pattern)
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for i, m in enumerate(sizes):
        n = max(args.c + 1, round((m + args.c * (args.c + 1) / 2) / args.c))
        g = generate_bounded_degeneracy(n, args.c, args.seed + i)
        t0 = time.perf_counter()
        value = count_homomorphisms(g, h)
        elapsed = time.perf_counter() - t0
        rows.append({"target_m": m, "n": g.n, "m": g.m,
                     "seconds": elapsed, "count": value})
    for i, row in enumerate(rows):
        row["ratio"] = (None if i == 0 or rows[i - 1]["seconds"] == 0
                        else rows[i]["seconds"] / rows[i - 1]["seconds"])
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            ratio = "" if row["ratio"] is None else f"  x{row['ratio']:.2f}"
            print(f"m={row['m']:>9}  count={row['count']}  "
                  f"{row['seconds'] * 1e3:10.1f} ms{ratio}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecount",
        description="Count pattern homomorphisms and subgraph copies in "
                    "sparse host graphs in near-linear time.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-hom", help="count Hom(host, pattern)")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--t", type=int, default=None,
                   help="extension depth (default: minimal for the pattern)")
    p.add_argument("--exact-fallback", action="store_true",
                   help="fall back to brute force when no width-1 "
                        "decomposition exists (hosts of at most "
                        f"{BRUTE_FORCE_HOM_CAP} vertices)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count_hom)

    p = sub.add_parser("count-sub", help="count Sub(host, pattern)")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count_sub)

    p = sub.add_parser("analyze", help="static pattern analysis")
    p.add_argument("pattern")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="write a generated edge list")
    gsub = p.add_subparsers(dest="kind", required=True)
    d = gsub.add_parser("degen", help="random bounded-degeneracy graph")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--c", type=int, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=_cmd_gen)
    d = gsub.add_parser("gnp", help="Erdos-Renyi G(n,p)")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--p", type=float, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=_cmd_gen)
    d = gsub.add_parser("subdiv", help="replace edges by (t+1)-edge paths")
    d.add_argument("input")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=_cmd_gen)
    d = gsub.add_parser("subdiv2", help="two disjoint paths per edge")
    d.add_argument("input")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="pipeline vs brute force on one pair")
    p.add_argument("host")
    p.add_argument("pattern")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="near-linear scaling measurement")
    p.add_argument("pattern")
    p.add_argument("--sizes", required=True,
                   help="comma-separated target edge counts")
    p.add_argument("--c", type=int, default=3)
    p.add_argument("--seed", type=int, default=20260811)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GraphFormatError, OSError, ValueError,
            ExtensionBlowupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
