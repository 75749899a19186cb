"""Span tracing of bcpp's public functions, from outside the library.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper in every loaded ``bcpp`` module that holds the original: the
modules import each other's functions by name (``from .matching import
build_union_graph``), so patching only the defining module would miss most
calls.  ``restore`` puts every original back.

A span records its name, start, end, parent span and a per-call id
(``label/algorithm``), plus counts read from the function's return value.
Spans stay in memory until ``write_jsonl``.  A span's self time is its
duration minus the durations of its child spans; self times of all spans
under ``run_suite`` add up to the traced ``run_suite`` time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

# module -> public functions wrapped, one layer per module
TRACED = {
    "matching": ("build_union_graph", "max_weight_matching",
                 "max_cardinality_matching", "merge_matched"),
    "bigpipe": ("form_big_scan", "form_big_matchings", "build_arc_digraph",
                "path_cover"),
    "greedy": ("ga_lo",),
    "blp": ("solve_exact",),
    "unions": ("merge_union",),
    "model": ("evaluate_packing", "lower_bounds", "assemble_placement",
              "compact", "parse_instance"),
    "generators": ("gen_random",),
    "harness": ("run_suite", "load_instances", "run_algorithm"),
}

# layers whose self times, with harness.self.s and harness.load_instances.s,
# add up to the traced run_suite time
LAYERS = ("matching", "bigpipe", "greedy", "blp", "unions", "model", "generators")

RUN_SUITE = "harness.run_suite"
RUN_ALGORITHM = "harness.run_algorithm"
LOAD_INSTANCES = "harness.load_instances"


def _graph_counts(g):
    v = len(g.vertices)
    return {"pairs": v * (v - 1) // 2, "edges": len(g.edges),
            "edges_w2": sum(1 for e in g.edges if e.weight == 2)}


def _digraph_counts(g):
    v = len(g.vertices)
    return {"ordered_pairs": v * (v - 1), "arcs": len(g.arcs)}


COUNTERS = {
    "matching.build_union_graph": _graph_counts,
    "matching.max_weight_matching": lambda m: {"matched": len(m.edges)},
    "matching.max_cardinality_matching": lambda m: {"matched": len(m.edges)},
    "bigpipe.build_arc_digraph": _digraph_counts,
    "bigpipe.path_cover": lambda c: {"cover_arcs": c.arc_count,
                                     "cycles_broken": c.cycles_broken},
    "greedy.ga_lo": lambda r: {"probes": r.probes, "charts": len(r.placement)},
    "blp.solve_exact": lambda r: {"nodes": r.node_count,
                                  "proved": int(r.status == "optimal")},
    "harness.run_suite": lambda r: {"solves": len(r[0]), "failed": len(r[2])},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    call: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _label(args, kwargs) -> str:
    if "label" in kwargs:
        return kwargs["label"]
    for arg in args[:1]:
        label = getattr(arg, "label", None)
        if isinstance(label, str):
            return label
    return ""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag = ""  # call id of spans with no better one (a suite, setup)
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bcpp" or name.startswith("bcpp."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules.get(f"bcpp.{mod_name}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    continue  # renamed or removed upstream: not traced
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        setattr(mod, func, wrapper)
                        self._saved.append((mod, func, original))

    def restore(self) -> None:
        while self._saved:
            mod, func, original = self._saved.pop()
            setattr(mod, func, original)

    def _wrap(self, name: str, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1] if stack else None
            if name == RUN_ALGORITHM:
                algo = args[1] if len(args) > 1 else kwargs.get("name", "-")
                call = f"{_label(args, kwargs)}/{algo}"
            elif top is None or top.name in (RUN_SUITE, LOAD_INSTANCES):
                label = _label(args, kwargs)
                call = f"{label}/harness" if label else self.tag
            else:
                call = top.call
            span = Span(next(ids), top.id if top else None, name, call, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if counter is not None:
                try:
                    span.counts = counter(result)
                except (AttributeError, TypeError):
                    pass  # result shape changed upstream: counts left out
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "call": s.call,
                    "start": s.start - self.origin, "end": s.end - self.origin,
                    **s.counts}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def _root_names(spans: list[Span], by_id: dict[int, Span]) -> dict[int, str]:
    roots = {}
    for s in spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        roots[s.id] = root.name
    return roots


def layer_metrics(spans: list[Span], mw_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced ``run_suite`` calls and set-up.

    Times are self times summed over all spans of a function.  Spans outside
    any ``run_suite`` are set-up, which only draws instances: they give the
    ``generators.gen_random`` metrics.  ``mw_rounds`` comes from the
    ``rounds`` field of the Mw run records.
    """
    by_id = {s.id: s for s in spans}
    roots = _root_names(spans, by_id)
    own = self_times(spans)
    setup_s = 0.0
    setup_calls = 0
    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    formation = {"rounds": 0, "edges": 0, "edges_w2": 0}
    empty_rounds = 0
    exact_split = {"alg": 0.0, "ref": 0.0}

    for s in spans:
        if roots[s.id] != RUN_SUITE:
            setup_s += own[s.id]
            setup_calls += 1
            continue
        secs[s.name] = secs.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            totals[f"{s.name}:{key}"] = totals.get(f"{s.name}:{key}", 0) + value
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s.id]
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent else ""
        if s.name == "matching.build_union_graph" and s.counts:
            in_formation = parent_name == "bigpipe.form_big_matchings"
            useful = s.counts["edges_w2"] if in_formation else s.counts["edges"]
            empty_rounds += useful == 0
            if in_formation:
                formation["rounds"] += 1
                formation["edges"] += s.counts["edges"]
                formation["edges_w2"] += s.counts["edges_w2"]
        if s.name == "blp.solve_exact":
            kind = "alg" if parent_name == RUN_ALGORITHM else "ref"
            exact_split[kind] += own[s.id]

    def t(name: str) -> float:
        return totals.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    exact_s = exact_split["alg"] + exact_split["ref"]
    harness_self = secs.get(RUN_SUITE, 0.0) + secs.get(RUN_ALGORITHM, 0.0)
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, with_calls: bool = False) -> None:
        m[f"{name}.s"] = (secs.get(name, 0.0), "s")
        if with_calls:
            m[f"{name}.calls"] = (calls.get(name, 0), "count")

    timed("matching.build_union_graph", True)
    m["matching.pairs"] = (t("matching.build_union_graph:pairs"), "count")
    m["matching.edges"] = (t("matching.build_union_graph:edges"), "count")
    m["matching.edges_w2"] = (t("matching.build_union_graph:edges_w2"), "count")
    m["matching.edge_ratio"] = (ratio(t("matching.build_union_graph:edges"),
                                      t("matching.build_union_graph:pairs")), "ratio")
    timed("matching.max_weight_matching", True)
    m["matching.matched"] = (t("matching.max_weight_matching:matched"), "count")
    timed("matching.max_cardinality_matching", True)
    timed("matching.merge_matched")
    m["matching.mw_rounds"] = (mw_rounds, "count")
    m["matching.empty_rounds"] = (empty_rounds, "count")

    timed("bigpipe.form_big_scan")
    timed("bigpipe.form_big_matchings")
    m["bigpipe.formation_rounds"] = (formation["rounds"], "count")
    m["bigpipe.discarded_edges"] = (formation["edges"] - formation["edges_w2"], "count")
    m["bigpipe.kept_ratio"] = (ratio(formation["edges_w2"], formation["edges"]), "ratio")
    timed("bigpipe.build_arc_digraph")
    m["bigpipe.arcs"] = (t("bigpipe.build_arc_digraph:arcs"), "count")
    m["bigpipe.arc_ratio"] = (ratio(t("bigpipe.build_arc_digraph:arcs"),
                                    t("bigpipe.build_arc_digraph:ordered_pairs")), "ratio")
    timed("bigpipe.path_cover")
    m["bigpipe.cover_arcs"] = (t("bigpipe.path_cover:cover_arcs"), "count")
    m["bigpipe.cycles_broken"] = (t("bigpipe.path_cover:cycles_broken"), "count")

    timed("greedy.ga_lo", True)
    m["greedy.probes"] = (t("greedy.ga_lo:probes"), "count")
    m["greedy.probes_per_chart"] = (ratio(t("greedy.ga_lo:probes"),
                                          t("greedy.ga_lo:charts")), "ratio")

    m["blp.solve_exact.alg.s"] = (exact_split["alg"], "s")
    m["blp.solve_exact.ref.s"] = (exact_split["ref"], "s")
    m["blp.nodes"] = (t("blp.solve_exact:nodes"), "count")
    m["blp.nodes_per_s"] = (ratio(t("blp.solve_exact:nodes"), exact_s), "1/s")
    m["blp.proved"] = (t("blp.solve_exact:proved"), "count")
    m["blp.budget_hits"] = (calls.get("blp.solve_exact", 0)
                            - t("blp.solve_exact:proved"), "count")

    timed("unions.merge_union", True)
    timed("model.evaluate_packing", True)
    for name in ("lower_bounds", "assemble_placement", "compact", "parse_instance"):
        timed(f"model.{name}")
    m["generators.gen_random.s"] = (setup_s, "s")
    m["generators.gen_random.calls"] = (setup_calls, "count")

    m["harness.self.s"] = (harness_self, "s")
    timed(LOAD_INSTANCES)
    m["harness.solves"] = (t("harness.run_suite:solves"), "count")
    m["harness.failed"] = (t("harness.run_suite:failed"), "count")

    for layer in LAYERS:
        m[f"{layer}.self.s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
