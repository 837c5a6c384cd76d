"""Spans around the program's module-level functions, recorded from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper in every loaded module of the package that holds a reference to
it, so calls made through ``from .x import f`` are seen too. A function
that no longer exists is skipped and its layer reports 0 calls, so a
refactor of the program never breaks the benchmark.

Each span records its layer, start, end, parent span, wall time and
thread CPU time (``time.thread_time``). Spans stay in memory until the
count returns; then ``metrics`` turns them into per-layer numbers and
``write_spans`` writes them out. A span opened in a worker
thread with no open span of its own takes as parent the innermost open
span of the thread that created the tracer.

Self time: every instant inside a traced span goes to the innermost open
spans at that instant, split evenly when several threads are inside
spans at once. A span with an open child anywhere is waiting, not
working, and gets none. Single-threaded, that is a span's duration minus
the time its children cover; in every case the self times of the spans
under the root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass(eq=False)
class Span:
    layer: str
    parent: "Span | None"
    start: float
    rss0: float
    thread: int
    end: float = 0.0
    cpu: float = 0.0


def _product_stats(c, args, out):
    c["product.n_F"] += out.graph.n
    c["product.m_F"] += out.graph.m


def _peel_stats(c, args, out):
    edges = args[0]
    c["degeneracy.peeled_edges"] += edges.m if hasattr(edges, "m") else len(edges)


def _host_ext_stats(c, args, out):
    for i, arcs in enumerate(out.layers[:2], 1):
        c[f"fraternal.arcs_l{i}"] += len(arcs)
    src = out.graph.src
    dplus = int(np.bincount(src).max()) if len(src) else 0
    c["fraternal.delta_plus"] = max(c["fraternal.delta_plus"], dplus)


def _frat_stats(c, args, out):
    c["fraternal.n_frat"] += len(out)


def _decomp_stats(c, args, out):
    c["hub_decomp.bags"] += len(out.bags) if out is not None else 0


def _spasm_stats(c, args, out):
    c["counting.spasm_terms"] += len(out)


# (module, function, layer, skip when the thread is already inside one of
# these layers, size counters taken from the arguments and the result)
LAYERS = (
    ("graph_core", "load_edge_list", "graph_core.load", (), None),
    ("product", "pattern_product", "product.build", (), _product_stats),
    ("degeneracy", "degeneracy_order", "degeneracy.peel", (), _peel_stats),
    # host side only: the pattern-side rounds belong to Frat(H, t)
    ("fraternal", "extension_edges", "fraternal.wedge",
     ("fraternal.frat",), None),
    ("fraternal", "optimal_extension", "fraternal.host_ext", (),
     _host_ext_stats),
    ("fraternal", "enumerate_pattern_extensions", "fraternal.frat", (),
     _frat_stats),
    ("hub_decomp", "find_width1_decomposition", "hub_decomp.decomp", (),
     _decomp_stats),
    ("fastdp", "extension_count", "fastdp.dp", (), None),
    # top-level runs of the dict engine only, not its recursion
    ("counting", "bressan_count", "counting.ref_dp", ("counting.ref_dp",),
     None),
    ("pattern_tools", "spasm", "pattern_tools.spasm", (), _spasm_stats),
)

ROOT_LAYER = "count"
LOAD_LAYER = "graph_core.load"

# Counts that depend only on the inputs and must repeat exactly.
EXACT_COUNTS = ("product.n_F", "product.m_F", "degeneracy.calls",
                "degeneracy.peeled_edges", "fraternal.arcs_l1",
                "fraternal.arcs_l2", "fraternal.delta_plus",
                "fraternal.n_frat", "hub_decomp.calls", "hub_decomp.bags",
                "fastdp.calls", "counting.spasm_terms",
                "counting.ref_dp_calls")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.skipped_stats: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._rss_mark: dict[str, float] = {}
        self.rss_rise: Counter = Counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main:
            try:
                parent = self._main[-1]
            except IndexError:
                parent = None
        s = Span(layer, parent, time.perf_counter(), _maxrss_mb(),
                 threading.get_ident())
        cpu0 = time.thread_time()
        stack.append(s)
        try:
            yield s
        finally:
            stack.pop()
            s.cpu = time.thread_time() - cpu0
            s.end = time.perf_counter()
            rss = _maxrss_mb()
            with self._lock:
                mark = max(s.rss0, self._rss_mark.get(layer, 0.0))
                self.rss_rise[layer] += max(0.0, rss - mark)
                self._rss_mark[layer] = rss
                self.spans.append(s)

    def _wrap(self, fn, layer, skip_inside, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_inside and any(s.layer in skip_inside
                                   for s in self._stack()):
                return fn(*args, **kwargs)
            with self.span(layer):
                out = fn(*args, **kwargs)
            if stats is not None:
                with self._lock:
                    try:
                        stats(self.counters, args, out)
                    except (AttributeError, TypeError, IndexError):
                        self.skipped_stats.add(layer)
            return out
        return traced

    def install(self, package: str) -> list[str]:
        """Wrap every function of LAYERS; return the layers not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        missing = []
        for mod_name, fn_name, layer, skip_inside, stats in LAYERS:
            mod = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if not callable(fn):
                missing.append(layer)
                continue
            wrapper = self._wrap(fn, layer, skip_inside, stats)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
        return missing

    def self_times(self) -> dict[str, float]:
        spans = self.spans
        index = {id(s): i for i, s in enumerate(spans)}
        parent = [index.get(id(s.parent)) for s in spans]
        events = sorted([(s.start, 1, i) for i, s in enumerate(spans)]
                        + [(s.end, 0, i) for i, s in enumerate(spans)])
        open_children = [0] * len(spans)
        active: set[int] = set()
        out: dict[str, float] = defaultdict(float)
        prev = 0.0
        for t, starts, i in events:
            if active and t > prev:
                leaves = [j for j in active if not open_children[j]]
                share = (t - prev) / len(leaves)
                for j in leaves:
                    out[spans[j].layer] += share
            prev = t
            p = parent[i]
            if starts:
                active.add(i)
                if p is not None:
                    open_children[p] += 1
            else:
                active.discard(i)
                if p is not None:
                    open_children[p] -= 1
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line, parents before children.

        Times are seconds from the first span's start; ``parent`` is the
        line number (from 0) of the parent span, or null.
        """
        spans = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): i for i, s in enumerate(spans)}
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "layer": s.layer, "parent": index.get(id(s.parent)),
                    "thread": s.thread, "start": s.start - t0,
                    "end": s.end - t0, "wall_s": s.end - s.start,
                    "cpu_s": s.cpu}) + "\n")

    def additive_gap(self) -> float:
        """|sum of self times under the root - root duration|, ~0 by
        construction; a larger value means a span escaped the root."""
        own = self.self_times()
        total = sum(v for k, v in own.items() if k != LOAD_LAYER)
        root = sum(s.end - s.start for s in self.spans if s.layer == ROOT_LAYER)
        return abs(total - root)

    def metrics(self, threads: int) -> dict[str, float]:
        """The per-layer metrics of one traced count."""
        own = self.self_times()
        calls = Counter(s.layer for s in self.spans)
        cpu: dict[str, float] = defaultdict(float)
        for s in self.spans:
            cpu[s.layer] += s.cpu
        root = [s for s in self.spans if s.layer == ROOT_LAYER]
        dp_wall = _union([(s.start, s.end) for s in self.spans
                          if s.layer == "fastdp.dp"])
        c = self.counters
        return {
            "graph_core.load_s": own[LOAD_LAYER],
            "product.build_s": own["product.build"],
            "product.n_F": c["product.n_F"],
            "product.m_F": c["product.m_F"],
            "degeneracy.peel_s": own["degeneracy.peel"],
            "degeneracy.peel_cpu_s": cpu["degeneracy.peel"],
            "degeneracy.calls": calls["degeneracy.peel"],
            "degeneracy.peeled_edges": c["degeneracy.peeled_edges"],
            "fraternal.wedge_s": own["fraternal.wedge"],
            "fraternal.host_ext_s": own["fraternal.host_ext"],
            "fraternal.arcs_l1": c["fraternal.arcs_l1"],
            "fraternal.arcs_l2": c["fraternal.arcs_l2"],
            "fraternal.delta_plus": c["fraternal.delta_plus"],
            "fraternal.frat_s": own["fraternal.frat"],
            "fraternal.n_frat": c["fraternal.n_frat"],
            "hub_decomp.decomp_s": own["hub_decomp.decomp"],
            "hub_decomp.calls": calls["hub_decomp.decomp"],
            "hub_decomp.bags": c["hub_decomp.bags"],
            "fastdp.dp_s": own["fastdp.dp"],
            "fastdp.dp_cpu_s": cpu["fastdp.dp"],
            "fastdp.calls": calls["fastdp.dp"],
            "fastdp.rss_rise_mb": self.rss_rise["fastdp.dp"],
            "counting.ref_dp_s": own["counting.ref_dp"],
            "counting.ref_dp_calls": calls["counting.ref_dp"],
            "counting.dispatch_eff": (cpu["fastdp.dp"] / (threads * dp_wall)
                                      if dp_wall else 0.0),
            "counting.spasm_terms": c["counting.spasm_terms"],
            "pattern_tools.spasm_s": own["pattern_tools.spasm"],
            "counting.other_s": own[ROOT_LAYER],
            "trace.count_s": sum(s.end - s.start for s in root),
        }


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total
