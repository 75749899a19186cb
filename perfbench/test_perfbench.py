"""Tests of the benchmark itself: its checks, tracer, inputs and output.

None of these run during a timed benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bcpp
from bcpp import blp, harness
from perfbench import checks, run as bench_run, tracer as tracing, workloads
from perfbench.workloads import ChartData, Group, Suite, Workload

ROOT = Path(__file__).resolve().parent.parent

_AUTO = ("reference = auto", "exact_nodes = 5000")
TINY = Workload("tiny", (
    Suite("main", (Group("arbitrary", 6, 3, 100), Group("big", 6, 3, 100)),
          workloads.HEURISTICS, _AUTO),
    Suite("cover", (Group("arbitrary", 5, 2, 100), Group("big", 5, 2, 100)),
          ("EXACT",), _AUTO, generated=True),
), pass_seconds=1.0)


def _bcpp_bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): getattr(mod, attr)
            for name, mod in sys.modules.items()
            if name == "bcpp" or name.startswith("bcpp.")
            for attr in dir(mod) if callable(getattr(mod, attr))}


def test_opt_references_match_oracle(tmp_path):
    """Every OPT reference on the first exact-small pass with n <= 10 is the
    oracle optimum, and EXACT reaches it."""
    inputs, charts = workloads.write_inputs(
        workloads.WORKLOADS["exact-small"], seed=1, passes=1, base_dir=str(tmp_path))
    (_suite, cfg), = inputs[0].configs
    cfg = dataclasses.replace(cfg, algorithms=("EXACT",), timing=False)
    records, _summary, errors = harness.run_suite(cfg, str(tmp_path))
    assert not errors
    checked = 0
    for rec in records:
        if rec.ref_kind != "OPT" or rec.n > 10:
            continue
        data = charts[rec.label]
        inst = bcpp.parse_instance(
            f"{rec.n} {data.den}\n" + "".join(f"{a} {b}\n" for a, b in data.bars))
        opt = blp.oracle_opt(inst)
        assert rec.reference == opt, rec.label
        assert rec.length == opt, rec.label
        checked += 1
    assert checked >= 10


def test_placement_check_accepts_valid_and_flags_each_fault():
    data = ChartData(den=10, bars=((6, 4), (4, 6), (3, 3)))
    good = {1: 1, 2: 1, 3: 3}
    assert checks.placement_problem(data, good, 4) is None
    assert "more than" in checks.placement_problem(data, {1: 1, 2: 2, 3: 2}, 3)
    assert "reported length" in checks.placement_problem(data, good, 3)
    assert "exactly once" in checks.placement_problem(data, {1: 1, 2: 1}, 3)
    assert "non-positive" in checks.placement_problem(data, {1: 0, 2: 1, 3: 3}, 4)
    tight = ChartData(den=10, bars=((5, 5), (5, 5)))
    assert checks.own_bound(tight) == 2
    assert checks.placement_problem(tight, {1: 1, 2: 1}, 2) is None


def _record(label, algorithm, length, reference, ref_kind, placement):
    return harness.RunRecord(
        label=label, n=len(placement), family="", algorithm=algorithm,
        length=length, reference=reference, ref_kind=ref_kind,
        r_value=Fraction(length, reference), abs_error=length - reference,
        elapsed_ms=None, rounds=None, placement=placement)


def test_check_records_flags_optimum_above_a_found_length():
    charts = {"x": ChartData(den=10, bars=((6, 4), (4, 6), (3, 3)))}
    ok = _record("x", "GA_LO", 4, 4, "OPT", {1: 1, 2: 1, 3: 3})
    assert checks.check_records([ok], charts) == []
    wrong_opt = _record("x", "GA_LO", 4, 5, "OPT", {1: 1, 2: 1, 3: 3})
    assert any("proved optimum" in p for p in checks.check_records([wrong_opt], charts))
    stranger = _record("y", "GA_LO", 4, 4, "LB", {1: 1, 2: 1, 3: 3})
    assert checks.check_records([stranger], charts) == ["y/GA_LO: unknown instance"]


def test_inputs_follow_the_seed(tmp_path):
    def charts_for(seed, sub):
        _inputs, charts = workloads.write_inputs(TINY, seed, 2, str(tmp_path / sub))
        return charts

    first = charts_for(3, "a")
    assert first == charts_for(3, "b")
    assert set(first).isdisjoint(charts_for(4, "c"))


def test_tracer_restores_bindings_and_accounts_for_all_time(tmp_path):
    inputs, _charts = workloads.write_inputs(TINY, 5, 1, str(tmp_path))
    (_suite, cfg), _cover = inputs[0].configs
    cfg = dataclasses.replace(cfg, algorithms=workloads.ALL_ALGORITHMS)
    before = _bcpp_bindings()
    plain, _, _ = harness.run_suite(cfg, str(tmp_path))
    with tracing.Tracer() as tracer:
        assert harness.run_suite is not before[("bcpp.harness", "run_suite")]
        wrapped = bcpp.matching.build_union_graph
        assert wrapped is not before[("bcpp.matching", "build_union_graph")]
        assert bcpp.bigpipe.build_union_graph is wrapped
        traced, _, _ = harness.run_suite(cfg, str(tmp_path))
    assert _bcpp_bindings() == before
    assert checks.records_csv_untimed(plain) == checks.records_csv_untimed(traced)

    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["harness.run_suite"]
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(roots[0].end - roots[0].start, abs=1e-9)
    exact_calls = {s.call for s in tracer.spans if s.name == "blp.solve_exact"}
    assert any(c.endswith("/EXACT") for c in exact_calls)
    assert any(c.endswith("/harness") for c in exact_calls)

    metrics = tracing.layer_metrics(tracer.spans, mw_rounds=0)
    assert metrics["harness.solves"][0] == len(traced)
    assert metrics["blp.solve_exact.alg.s"][0] > 0
    assert metrics["blp.solve_exact.ref.s"][0] > 0
    assert metrics["matching.edges"][0] >= metrics["matching.edges_w2"][0] > 0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = bench_run.Run(TINY, seed=7, passes=1)
    inputs, base_dir, charts = run.setup(str(tmp_path), None)
    tracer = tracing.Tracer()
    run.run_pass(inputs[0], base_dir, charts, None)
    run.run_pass(inputs[0], base_dir, charts, tracer)
    assert run.problems == [] and run.failed == 0
    assert run.attempted == 2 * (6 * len(workloads.HEURISTICS) + 4)
    e2e, _samples, _unscaled = bench_run.end_to_end(run, charts)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, _unit in e2e.values())
    layers = bench_run.per_layer(run, tracer)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == unit for k, (_v, unit) in {**e2e, **layers}.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
