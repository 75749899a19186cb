"""The benchmark's tracer must still find what it wraps and what it counts.

The tracer skips a missing function and drops a count whose attribute has
gone, both silently, so a renamed function or result field would quietly
read 0 in the per-layer metrics instead of failing here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from bcpp import (build_arc_digraph, build_union_graph, chart_rows, form_big_scan,
                  ga_lo, gen_random, max_cardinality_matching,
                  max_weight_matching, parse_config, path_cover, run_suite,
                  solve_exact)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """``perfbench/tracer.py`` loaded from its file, whatever the path."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _tracer().TRACED
    assert traced
    missing = [f"bcpp.{mod}.{func}"
               for mod, funcs in traced.items()
               for func in funcs
               if not callable(getattr(importlib.import_module(f"bcpp.{mod}"),
                                       func, None))]
    assert missing == []


def test_every_counter_reads_a_real_result():
    instance = gen_random(8, 6, "arbitrary", 100)  # EXACT expands 41 nodes
    rows = chart_rows(instance.charts)
    graph = build_union_graph(*rows)
    digraph = build_arc_digraph(form_big_scan(*rows), instance.den)
    results = {
        "matching.build_union_graph": graph,
        "matching.max_weight_matching": max_weight_matching(graph),
        "matching.max_cardinality_matching": max_cardinality_matching(graph),
        "bigpipe.build_arc_digraph": digraph,
        "bigpipe.path_cover": path_cover(digraph),
        "greedy.ga_lo": ga_lo(instance),
        "blp.solve_exact": solve_exact(instance),
        "harness.run_suite": run_suite(parse_config(
            "generate = family=big n=6 seed=1 D=100\n"
            "algorithms = GA_LO, Mw, EXACT\n"
            "exact_nodes = 100000\n")),
    }
    counters = _tracer().COUNTERS
    assert set(counters) == set(results)
    counts = {name: counter(results[name]) for name, counter in counters.items()}
    for name, named in counts.items():
        assert named and all(type(v) is int for v in named.values()), name
    for name, key in (("matching.build_union_graph", "edges"),
                      ("matching.max_weight_matching", "matched"),
                      ("matching.max_cardinality_matching", "matched"),
                      ("bigpipe.build_arc_digraph", "arcs"),
                      ("blp.solve_exact", "nodes"),
                      ("harness.run_suite", "solves")):
        assert counts[name][key] > 0, (name, key)
    assert counts["blp.solve_exact"]["proved"] == 1
    assert counts["harness.run_suite"]["failed"] == 0
