import csv
import inspect
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import bcpp.bigpipe
import bcpp.blp
import bcpp.greedy
import bcpp.harness
import bcpp.matching
from bcpp import (FormatError, SuiteConfig, format_instance, format_records_csv,
                  format_summary_csv, gen_bpp_fullbins, gen_random, lower_bounds,
                  oracle_opt, parse_config, run_algorithm, run_suite, solve_exact,
                  summarize, transform_bpp)
from bcpp.cli import main
from bcpp.generators import FAMILIES
from bcpp.harness import ALGORITHMS, GenSpec, RunRecord
import cli_cases
from helpers import inst

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_parse_config_full():
    cfg = parse_config("""
# comment
instances = data/*.inst
generate = family=big n=10 count=3 seed=7 D=100
algorithms = GA_LO, Mw
reference = auto
exact_nodes = 500
timing = off
output = out.csv
summary = out.summary.csv
""")
    assert cfg.instances == ["data/*.inst"]
    assert cfg.generate == [GenSpec(family="big", n=10, count=3, seed=7, den=100)]
    assert cfg.algorithms == ("GA_LO", "Mw")
    assert cfg.exact_nodes == 500


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("nonsense")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("colour = blue")
    with pytest.raises(ValueError, match="unknown algorithms"):
        parse_config("algorithms = GA_LO, FANCY")
    with pytest.raises(ValueError, match="family"):
        parse_config("generate = n=5 count=2")
    bad_values = {
        "exact_nodes = abc": "expected an integer exact_nodes",
        "exact_nodes = -3": "exact_nodes must be at least 0",
        "exact_nodes = 1_0": "expected an integer exact_nodes",
        "exact_time = 1": "unknown key 'exact_time'",  # suites budget by nodes only
        "timing = maybe": "timing must be on or off",
        "strict = on": "unknown key 'strict'",  # strictness is bench --strict
        "bpp_reference = witness": "unknown key 'bpp_reference'",
        "instances =": "instances needs a pattern",
        "generate = family=big n=5 junk": "bad generator token 'junk'",
        "generate = family=big n=5 colour=red": r"unknown generator keys \['colour'\]",
        "generate = family=tiny n=5": "unknown family 'tiny'",
        "generate = family=big n=ten": "expected an integer n",
        "generate = family=big n=1_0": "expected an integer n",
        "generate = family=big n=0": "n must be at least 1",
        "generate = family=big n=5 count=0": "count must be at least 1",
        "generate = family=big n=5 seed=x": "expected an integer seed",
        "generate = family=big n=5 D=1": "D must be at least 2",
        "output =": "output needs a file name",
        "output =   # no name before the comment": "output needs a file name",
        "algorithms = GA_LO, GA_LO": "algorithms must name one or more, none twice",
        "algorithms = ,": "algorithms must name one or more, none twice",
        "algorithms = Mw": "algorithms given twice",
        "generate = family=big n=3 n=5": "generator key 'n' given twice",
    }
    for line, message in bad_values.items():
        with pytest.raises(FormatError, match=f"^line 2: {message}"):
            parse_config(f"algorithms = GA_LO\n{line}")
    cfg = parse_config("exact_nodes = 0\n"
                       "generate = family=big n=1 count=1 seed=-4 D=2")
    assert cfg.exact_nodes == 0
    assert cfg.generate == [GenSpec(family="big", n=1, count=1, seed=-4, den=2)]
    assert parse_config("summary =").summary == ""  # no summary file


def test_parse_config_reads_the_readme_example():
    # the README's block has comments after values: '#' starts one anywhere
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Bench config format", 1)[1].split("```\n")[1]
    cfg = parse_config(block)
    assert cfg.instances == ["data/*.inst"]
    assert cfg.generate == [GenSpec("arbitrary", 200, 30, 1000, 10 ** 6)]
    assert cfg.algorithms == ("GA_LO", "M1w", "Mw", "A1", "A2")
    assert cfg.reference == "auto"
    assert cfg.exact_nodes == 0
    assert cfg.timing is False
    assert (cfg.output, cfg.summary) == ("results.csv", "summary.csv")


def test_parse_config_needs_a_node_budget_for_exact():
    # with no budget a suite's EXACT searches without end
    for text, line in (("algorithms = EXACT\n", 1),
                       ("# budget\nalgorithms = GA_LO, EXACT\nexact_nodes = 0\n", 2)):
        with pytest.raises(FormatError,
                           match=f"^line {line}: EXACT needs exact_nodes of at least 1$"):
            parse_config(text)
    cfg = parse_config("exact_nodes = 5\nalgorithms = EXACT\n")  # any key order
    assert (cfg.algorithms, cfg.exact_nodes) == (("EXACT",), 5)
    assert SuiteConfig(algorithms=("EXACT",)).exact_nodes == 0  # in code: no limit


def test_run_suite_generates_and_audits():
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 6, 5, 0, 20)],
                      algorithms=("GA_LO", "M1w", "Mw", "A1", "A2"))
    records, summary, errors = run_suite(cfg)
    assert errors == []
    assert len(records) == 25
    assert all(rec.ref_kind == "LB" for rec in records)
    assert all(rec.r_value >= 1 or rec.ref_kind != "OPT" for rec in records)
    labels = [(rec.label, rec.algorithm) for rec in records]
    assert labels == sorted(labels)
    assert len(summary) == 5  # one row per algorithm at (family, n)


def test_run_suite_exact_reference_for_tiny_instances():
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 4, 4, 3, 20)],
                      algorithms=("GA_LO", "EXACT"), exact_nodes=10 ** 6)
    records, _, errors = run_suite(cfg)
    assert errors == []
    by_algo = {}
    for rec in records:
        by_algo.setdefault(rec.algorithm, []).append(rec)
    assert all(rec.ref_kind == "OPT" for rec in records)
    assert all(rec.length >= rec.reference for rec in records)
    for exact_rec in by_algo["EXACT"]:
        assert exact_rec.length == exact_rec.reference
        assert exact_rec.r_value == 1


def test_exact_status_and_reference_follow_the_bound():
    # 50 nodes stop the search after its incumbent met the bound: that is a
    # proof, so the solve is optimal and the suite's reference is an OPT
    instance = gen_random(12, 133, "big", 100)
    res = solve_exact(instance, node_limit=50)
    assert (res.status, res.length, res.lower_bound, res.node_count) == (
        "optimal", 19, 19, 50)
    cfg = parse_config("generate = family=big n=12 seed=133 D=100\n"
                       "exact_nodes = 50\n")
    records, _, errors = run_suite(cfg)
    assert errors == []
    assert [(r.reference, r.ref_kind) for r in records] == [(19, "OPT")]
    # a node limit of 0 is no limit: the search runs to its end
    res = solve_exact(instance, node_limit=0)
    assert (res.status, res.length, res.lower_bound, res.node_count) == (
        "optimal", 19, 19, 88)


def test_run_suite_with_a_node_budget_stops_cleanly_at_large_n():
    instance = gen_random(1200, 2, "arbitrary", 10**6)
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 1200, 1, 2, 10**6)],
                      algorithms=("EXACT",), exact_nodes=1000)
    records, _, errors = run_suite(cfg)  # run_suite audits the placement
    assert errors == []
    (rec,) = records
    # the search stops at its budget and reports its root bound, combined
    root = lower_bounds(instance)
    assert (rec.reference, rec.ref_kind) == (root, "LB") == (1212, "LB")
    assert rec.length > rec.reference and rec.rounds == 1000


def test_an_lb_reference_is_one_bound_whatever_the_config():
    # a search its budget stops reports the bound that reference = lb reads,
    # so an instance's LB reference does not depend on the suite's config
    generate = [GenSpec(family, 30, 10, 0, 10**6) for family in ("arbitrary", "big")]
    by_bound, _, errors = run_suite(SuiteConfig(generate=generate, reference="lb"))
    assert errors == []
    by_search, _, errors = run_suite(SuiteConfig(generate=generate, exact_nodes=1))
    assert errors == []
    bound = {r.label: r.reference for r in by_bound}
    bounded = {r.label: r.reference for r in by_search if r.ref_kind == "LB"}
    assert len(bounded) == 13  # all 10 arbitrary ones and 3 of the 10 big ones
    assert bounded == {label: bound[label] for label in bounded}


def test_records_csv_quotes_a_label_with_a_comma_or_a_quote(tmp_path):
    for name in ("a,b", 'say "hi"', 'x,"y"'):
        (tmp_path / f"{name}.inst").write_text(format_instance(inst((5, 5))))
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")], algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert errors == []
    rows = list(csv.reader(format_records_csv(records).splitlines()))
    assert all(len(row) == 11 for row in rows)
    assert [row[0] for row in rows[1:]] == ["a,b", 'say "hi"', 'x,"y"']


def test_run_suite_known_opt_reference(tmp_path):
    instance = inst((5, 5), (5, 5), known_opt=2)
    path = tmp_path / "twostack.inst"
    path.write_text(format_instance(instance))
    cfg = SuiteConfig(instances=[str(path)], algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert errors == []
    rec = records[0]
    assert rec.ref_kind == "OPT"
    assert rec.reference == 2
    assert rec.r_value == 1.0
    assert rec.family == ""  # a file's family cell is empty, opt line or not


def test_every_opt_reference_on_tiny_bpp_files_is_the_optimum(tmp_path):
    # the planted full bins are optimal solutions and one bin per item poor
    # ones; the references come from the files' proved opt lines or, where a
    # file has none, from the exact search
    written = {}
    for s in range(40):
        bpp, full = gen_bpp_fullbins(2 + s % 3, 12 + s % 7, s, max_parts=2 + s % 3)
        singles = tuple((i,) for i in range(len(bpp.sizes)))
        for kind, bins in (("full", full), ("single", singles)):
            instance = transform_bpp(bpp, bins, label=f"{kind}-{s}")
            if instance.n <= 7:
                written[instance.label] = instance
                (tmp_path / f"{instance.label}.inst").write_text(
                    format_instance(instance))
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")],
                      algorithms=("GA_LO",), exact_nodes=10 ** 5)
    records, _, errors = run_suite(cfg)
    assert errors == [] and len(records) == len(written)
    opts = [r for r in records if r.ref_kind == "OPT"]
    for rec in opts:
        assert rec.reference == oracle_opt(written[rec.label]), rec.label
    # 40 opt lines and 40 search proofs: every reference here is an optimum
    recorded = sum(written[r.label].known_opt is not None for r in opts)
    assert (recorded, len(opts)) == (40, 80)


def test_run_suite_rejects_an_opt_below_the_bound_and_keeps_the_rest(tmp_path):
    # two (5, 5) charts cannot share their cells, so the bound is 2
    (tmp_path / "low.inst").write_text(format_instance(inst((5, 5), (5, 5),
                                                            known_opt=1)))
    (tmp_path / "ok.inst").write_text(format_instance(inst((5, 5), (5, 5),
                                                           known_opt=2)))
    # combined 10, L2 and the optimum 11: an opt at combined is still too low
    l2_low = replace(gen_random(8, 5, "big", 100), known_opt=10)
    (tmp_path / "l2low.inst").write_text(format_instance(l2_low))
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")], algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert [(r.label, r.reference, r.ref_kind) for r in records] == [("ok", 2, "OPT")]
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        ("l2low", "-", "reference failed: opt 10 is below the bound 11"),
        ("low", "-", "reference failed: opt 1 is below the bound 2")]


def test_run_suite_rejects_a_length_below_its_reference(tmp_path, capsys):
    # a wrong opt line above every packing: each algorithm packs length 2
    (tmp_path / "high.inst").write_text(format_instance(inst((5, 5), (5, 5),
                                                             known_opt=9)))
    (tmp_path / "ok.inst").write_text(format_instance(inst((5, 5), (5, 5),
                                                           known_opt=2)))
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")], algorithms=ALGORITHMS)
    records, _, errors = run_suite(cfg)
    assert {r.label for r in records} == {"ok"} and len(records) == len(ALGORITHMS)
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        ("high", name, "length 2 is below the OPT reference 9")
        for name in sorted(ALGORITHMS)]
    config = tmp_path / "suite.bench"
    config.write_text("instances = high.inst\n")
    assert main(["bench", str(config), "--strict"]) == 1
    assert "error: high [GA_LO]: length 2 is below the OPT reference 9" in \
        capsys.readouterr().err


def test_run_suite_runs_the_first_of_two_generated_instances_with_one_label():
    # seeds 1-2 and 2-3 both draw big-n5-d10-s2
    cfg = parse_config("generate = family=big n=5 count=2 seed=1 D=10\n"
                       "generate = family=big n=5 count=2 seed=2 D=10\n")
    records, summary, errors = run_suite(cfg)
    assert [r.label for r in records] == [f"big-n5-d10-s{k}" for k in (1, 2, 3)]
    assert [row.count for row in summary] == [3]
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        ("big-n5-d10-s2", "-", "label repeats an earlier instance")]


def test_run_suite_runs_the_first_of_two_files_with_one_label(tmp_path):
    for sub, bars in (("a", (5, 5)), ("b", (9, 2))):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.inst").write_text(format_instance(inst(bars)))
    cfg = SuiteConfig(instances=[str(tmp_path / "*" / "x.inst")], algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert [(r.label, r.reference) for r in records] == [("x", 2)]
    assert records[0].placement == {1: 1}
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        ("x", "-", "label repeats an earlier instance")]


def test_run_suite_reports_unreadable_inputs(tmp_path):
    bad = tmp_path / "broken.inst"
    bad.write_text("not an instance\n")
    good = tmp_path / "ok.inst"
    good.write_text(format_instance(inst((5, 5), (5, 5))))
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")],
                      algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert len(records) == 1
    assert len(errors) == 1
    assert errors[0].label == "broken"


def test_run_suite_reports_failing_generator_and_keeps_the_rest():
    bad = GenSpec("big", 0, 1, 0, 100)
    empty = GenSpec("big", 3, 0, 0, 100)
    cfg = SuiteConfig(generate=[bad, empty, GenSpec("arbitrary", 4, 1, 0, 20)],
                      algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert [r.label for r in records] == [gen_random(4, 0, "arbitrary", 20).label]
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        (repr(bad), "-", "need n >= 1"), (repr(empty), "-", "need count >= 1")]


@pytest.mark.parametrize("fault", ["infeasible", "wrong length"])
def test_run_suite_reports_a_failed_audit_and_keeps_the_rest(tmp_path, monkeypatch,
                                                             fault):
    (tmp_path / "a.inst").write_text(format_instance(inst((6, 6), (6, 6))))
    (tmp_path / "b.inst").write_text(format_instance(inst((9, 2), (7, 6))))
    original = bcpp.greedy.ga_lo

    def faulty(instance):
        solved = original(instance)
        if fault == "infeasible":  # both charts in cell 1 overflow it
            return replace(solved, placement={c.id: 1 for c in instance.charts})
        return replace(solved, length=solved.length + 1)

    monkeypatch.setattr(bcpp.greedy, "ga_lo", faulty)
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")],
                      algorithms=("GA_LO", "A1"))
    records, _, errors = run_suite(cfg)
    assert [(r.label, r.algorithm) for r in records] == [("a", "A1"), ("b", "A1")]
    # GA_LO packs a in length 4 and b in length 3
    expected = {"infeasible": ["feasible=False length=2 reported=4",
                               "feasible=False length=2 reported=3"],
                "wrong length": ["feasible=True length=4 reported=5",
                                 "feasible=True length=3 reported=4"]}[fault]
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        (label, "GA_LO", f"audit failed: {message}")
        for label, message in zip("ab", expected)]


def test_run_algorithm_rejects_an_unknown_name(monkeypatch):
    with pytest.raises(ValueError, match="unknown algorithm 'NOPE'"):
        run_algorithm(inst((5, 5)), "NOPE")
    # only Mw goes on from a start; every other name refuses one unsolved
    instance = inst((5, 9), (7, 2), (7, 4))
    start = run_algorithm(instance, "M1w")

    def refuse(*args, **kwargs):
        raise AssertionError("solved")
    for module, name in ((bcpp.greedy, "ga_lo"), (bcpp.matching, "solve_mw"),
                         (bcpp.bigpipe, "solve_big_pipeline"), (bcpp.blp, "solve_exact")):
        monkeypatch.setattr(module, name, refuse)
    for name in ALGORITHMS:
        if name != "Mw":
            with pytest.raises(ValueError, match=f"^only Mw goes on from a start, not '{name}'$"):
                run_algorithm(instance, name, exact_nodes=1, start=start)


def test_run_algorithm_returns_the_solvers_own_result(monkeypatch):
    instance = inst((5, 9), (7, 2), (7, 4))
    solved = bcpp.greedy.ga_lo(instance)
    monkeypatch.setattr(bcpp.greedy, "ga_lo", lambda _instance: solved)
    assert run_algorithm(instance, "GA_LO") is solved
    # greedy packs 5 and the bound is 4, so one node cannot prove 4
    exact = run_algorithm(instance, "EXACT", exact_nodes=1)
    assert (exact.length, exact.lower_bound, exact.node_count) == (5, 4, 1)


def test_run_suite_reports_a_failed_reference_and_keeps_the_rest(monkeypatch):
    spec = GenSpec("arbitrary", 4, 2, 3, 20)
    first, second = spec.instances()
    original = bcpp.blp.solve_exact

    def failing(instance, **limits):
        if instance.label == first.label:
            raise RuntimeError("search broke")
        return original(instance, **limits)

    monkeypatch.setattr(bcpp.blp, "solve_exact", failing)
    cfg = SuiteConfig(generate=[spec], algorithms=("GA_LO",), exact_nodes=1000)
    records, _, errors = run_suite(cfg)
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
        (first.label, "-", "reference failed: search broke")]
    assert [(r.label, r.algorithm) for r in records] == [(second.label, "GA_LO")]


def test_records_csv_matches_pinned_fixture():
    # recorded before the solvers shared one result type: M1w's rounds cell
    # is blank, Mw's holds its rounds and EXACT's its nodes
    cfg = parse_config("generate = family=arbitrary n=7 count=4 seed=21 D=100\n"
                       "generate = family=big n=8 count=3 seed=5 D=100\n"
                       "algorithms = GA_LO, M1w, Mw, A1, A2, EXACT\n"
                       "exact_nodes = 3000\n")
    records, _, errors = run_suite(cfg)
    assert errors == []
    with open(os.path.join(FIXTURES, "records.csv")) as fh:
        assert format_records_csv(records) == fh.read()


def test_solvers_are_looked_up_at_call_time(monkeypatch):
    calls = []
    original = bcpp.greedy.ga_lo

    def counting(instance):
        calls.append(instance.label)
        return original(instance)

    monkeypatch.setattr(bcpp.greedy, "ga_lo", counting)
    instance = gen_random(6, 1, "arbitrary", 20)
    res = run_algorithm(instance, "GA_LO")
    assert calls == [instance.label]
    assert res.length == original(instance).length


def test_csv_shape_and_determinism():
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 5, 4, 2, 20)],
                      algorithms=("GA_LO", "Mw"))
    records, summary, _ = run_suite(cfg)
    text = format_records_csv(records)
    header = text.splitlines()[0]
    assert header == ("label,n,family,algorithm,length,reference,ref_kind,"
                      "R,abs_error,elapsed_ms,rounds")
    assert len(text.splitlines()) == len(records) + 1
    again, _, _ = run_suite(cfg)
    assert format_records_csv(again) == text
    assert format_summary_csv(summary).startswith(
        "family,n,algorithm,count,err_min,err_max,err_av,r_mean,r_sd")


def test_mw_goes_on_from_m1w_with_the_same_answers(monkeypatch):
    # a suite that runs both builds M1w's round-1 graph once per instance,
    # and its records equal those of M1w and Mw run in suites of their own;
    # n=1 leaves round 1 edgeless
    specs = [GenSpec(family, n, 2, 40 + n, 20)
             for family in FAMILIES for n in (1, 2, 5, 12, 60)]
    builds = []
    build = bcpp.matching.build_union_graph
    monkeypatch.setattr(bcpp.matching, "build_union_graph",
                        lambda *args, **kwargs: builds.append(1) or build(*args, **kwargs))

    def suite(*algorithms):
        before = len(builds)
        records, _, errors = run_suite(SuiteConfig(generate=specs, algorithms=algorithms))
        assert errors == []
        return records, len(builds) - before

    (m1w, m1w_builds), (mw, mw_builds) = suite("M1w"), suite("Mw")
    assert len(m1w) == 30 and any(r.rounds == 1 for r in mw)
    alone = sorted(m1w + mw, key=lambda r: (r.label, r.algorithm))
    for algorithms in (("M1w", "Mw"), ("Mw", "M1w")):
        records, both_builds = suite(*algorithms)
        assert format_records_csv(records) == format_records_csv(alone)
        assert records == alone  # placements and rounds too
        assert both_builds == m1w_builds + mw_builds - len(m1w)


_ORDER_SPECS = [GenSpec("arbitrary", 5, 3, 11, 20), GenSpec("big", 6, 3, 4, 20)]


def _logged_suite(monkeypatch, algorithms, timing=False, misreport=None):
    """Run a suite over ``_ORDER_SPECS`` with an exact reference, logging
    each reference as ``("ref", label)`` and each algorithm call as
    ``(name, label, start)``; M1w on the label ``misreport`` reports one
    cell too many."""
    events = []
    resolve, run = bcpp.harness._resolve_reference, bcpp.harness.run_algorithm

    def resolving(instance, cfg):
        events.append(("ref", instance.label))
        return resolve(instance, cfg)

    def running(instance, name, *args, **kwargs):
        events.append((name, instance.label, kwargs.get("start")))
        solved = run(instance, name, *args, **kwargs)
        if name == "M1w" and instance.label == misreport:
            return replace(solved, length=solved.length + 1)
        return solved

    monkeypatch.setattr(bcpp.harness, "_resolve_reference", resolving)
    monkeypatch.setattr(bcpp.harness, "run_algorithm", running)
    cfg = SuiteConfig(generate=_ORDER_SPECS, algorithms=algorithms,
                      exact_nodes=2000, timing=timing)
    records, _, errors = run_suite(cfg)
    return records, errors, events


def test_run_suite_resolves_every_reference_then_runs_each_algorithm_in_turn(
        monkeypatch):
    labels = [i.label for spec in _ORDER_SPECS for i in spec.instances()]
    algorithms = ("Mw", "GA_LO", "EXACT", "M1w")
    records, errors, events = _logged_suite(monkeypatch, algorithms, timing=True)
    assert errors == []
    assert events[:len(labels)] == [("ref", label) for label in labels]
    calls = events[len(labels):]
    order = list(dict.fromkeys(name for name, _, _ in calls))
    assert sorted(order) == sorted(algorithms)
    assert order.index("M1w") < order.index("Mw")
    # each algorithm's calls are contiguous and in instance order
    assert [(name, label) for name, label, _ in calls] == [
        (name, label) for name in order for label in labels]
    assert all((start is not None) == (name == "Mw") for name, _, start in calls)
    by = {(r.label, r.algorithm): r for r in records}
    assert all(by[label, "Mw"].elapsed_ms >= by[label, "M1w"].elapsed_ms
               for label in labels)


def test_mw_solves_alone_where_m1w_failed_its_checks(monkeypatch):
    labels = [i.label for spec in _ORDER_SPECS for i in spec.instances()]
    bad = labels[2]
    records, errors, events = _logged_suite(monkeypatch, ("M1w", "Mw"), misreport=bad)
    assert [(e.label, e.algorithm, e.message[:12]) for e in errors] == [
        (bad, "M1w", "audit failed")]
    starts = {event[1]: event[2] for event in events if event[0] == "Mw"}
    assert [label for label in labels if starts[label] is None] == [bad]
    alone, _, _ = run_suite(SuiteConfig(generate=_ORDER_SPECS, algorithms=("Mw",),
                                        exact_nodes=2000))
    assert [r for r in records if r.algorithm == "Mw"] == alone


def _record(label, algorithm, length, reference, n=5):
    return RunRecord(label=label, n=n, family="arbitrary",
                     algorithm=algorithm, length=length, reference=reference,
                     ref_kind="LB", r_value=length / reference,
                     abs_error=length - reference, elapsed_ms=None,
                     rounds=None, placement={})


def test_summarize_matches_hand_values():
    records = [_record("a", "GA_LO", 10, 10), _record("b", "GA_LO", 15, 10),
               _record("c", "GA_LO", 12, 10)]
    row = summarize(records)[0]
    assert (row.err_min, row.err_max) == (0, 5)
    assert row.err_av == pytest.approx((0 + 5 + 2) / 3)
    assert row.r_mean == pytest.approx((1.0 + 1.5 + 1.2) / 3)
    # population standard deviation
    mean = (1.0 + 1.5 + 1.2) / 3
    var = ((1.0 - mean) ** 2 + (1.5 - mean) ** 2 + (1.2 - mean) ** 2) / 3
    assert row.r_sd == pytest.approx(var ** 0.5)


def test_summarize_single_record():
    row = summarize([_record("a", "GA_LO", 12, 10)])[0]
    assert row.err_min == row.err_max == 2
    assert row.r_sd == 0
    assert row.count == 1


def test_summarize_constant_ratios():
    rows = summarize([_record("a", "GA_LO", 10, 10),
                      _record("b", "GA_LO", 10, 10)])
    assert rows[0].r_mean == pytest.approx(1.0)
    assert rows[0].r_sd == 0


# --- CLI: the rows of tests/cli_cases.py, and what they cannot say -----------


def _check_row(row, root: str, monkeypatch, capsys) -> None:
    """Run ``row`` through ``main`` in ``root``, a new directory."""
    os.mkdir(root)
    argv, before = cli_cases.prepare(row, root)
    monkeypatch.chdir(root)
    with monkeypatch.context() as patched:
        for name in row.never:
            patched.setattr(name, _never(name))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    wrong = cli_cases.mismatches(row, root, before, code, *capsys.readouterr())
    assert wrong == [], row.cmd


def _never(name: str):
    def called(*_args, **_kwargs):
        raise AssertionError(f"{name} was called")
    return called


def _rows_test(group: str):
    def test(tmp_path, monkeypatch, capsys):
        for i, row in enumerate(cli_cases.CASES[group]):
            _check_row(row, os.path.realpath(tmp_path / str(i)), monkeypatch, capsys)
    return test


for _group in cli_cases.CASES:  # one test for each group of rows
    globals()[f"test_cli_{_group}"] = _rows_test(_group)


def test_cli_cases_run_as_subprocesses():
    # the reader CI runs against the console script, here through the module
    rows = [row for row in cli_cases.CASES["bench_and_strictness"]
            if row.cmd.startswith("bench missing.bench")]
    assert [row.code for row in rows] == [0, 1]
    assert cli_cases.run([sys.executable, "-m", "bcpp.cli"], rows) == []


def test_cli_solve_audits_before_it_prints_or_writes(tmp_path, monkeypatch, capsys):
    # a solver that misreports its length leaves no output, dump or dump directory
    for module, name, alg in ((bcpp.greedy, "ga_lo", "GA_LO"),
                              (bcpp.matching, "solve_mw", "Mw")):
        def misreported(*args, solve=getattr(module, name), **kwargs):
            solved = solve(*args, **kwargs)
            return replace(solved, length=solved.length + 1)

        monkeypatch.setattr(module, name, misreported)
        row = cli_cases.refused(f"solve three.inst -a {alg} --lp-export m --dump-graphs d"
                                " --write-placement p",
                                "audit failed: feasible=True length=4 reported=5")
        _check_row(row, os.path.realpath(tmp_path / alg), monkeypatch, capsys)


STDLIB_ONLY = """
import os, sys, sysconfig
src, tmp = sys.argv[1:]
sys.path.insert(0, src)
import bcpp
from bcpp.cli import main
from bcpp.harness import ALGORITHMS, audit, run_algorithm
instance = bcpp.parse_instance("3 10\\n3 4\\n5 5\\n6 8\\n")
for name in ALGORITHMS:
    audit(instance, run_algorithm(instance, name, exact_nodes=1000))
path = os.path.join(tmp, "three.inst")
with open(path, "w") as fh:
    fh.write(bcpp.format_instance(instance))
assert main(["solve", path, "-a", "A2"]) == 0
homes = [os.path.realpath(sysconfig.get_path(key)) for key in ("stdlib", "platstdlib")]
homes.append(os.path.realpath(src))
print(sorted(name for name, m in sys.modules.items()
             if getattr(m, "__file__", None)
             and not os.path.realpath(m.__file__).startswith(tuple(homes))))
"""


def test_bcpp_runs_on_the_standard_library_alone(tmp_path):
    # -S leaves site-packages off sys.path and -E ignores PYTHONPATH, so the
    # child sees the standard library and src alone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", STDLIB_ONLY, src, str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "A2 4\n[]\n"


PUBLIC_NAMES = """
ArcDigraph BarChart BppInstance Evaluation FormatError Instance Matching
PathCover Placement RunRecord SOLVERS Solved SuiteConfig SummaryRow
UnionEdge WeightedGraph assemble_placement bigpipe blossom blp
build_arc_digraph build_union_graph compact dump_digraph dump_graph
evaluate_packing export_lp form_big_matchings form_big_scan
format_instance format_placement format_records_csv format_summary_csv
ga_lo gen_bpp_fullbins gen_random generators greedy harness lex_order
lower_bounds matching max_cardinality_matching max_weight_matching
merge_union model oracle_opt parse_bpp parse_bpp_instance parse_config
parse_instance path_cover run_algorithm run_suite solve_big_pipeline
solve_exact solve_mw summarize transform_bpp unions
""".split()


def test_bcpp_public_names_are_pinned():
    # every name without a leading underscore that ``import bcpp`` binds in a
    # fresh interpreter (importing a submodule later binds it too), so adding
    # or dropping one is a change to this list
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bcpp; "
            "print(*(name for name in vars(bcpp) if not name.startswith('_')))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=120)
    assert sorted(proc.stdout.split()) == PUBLIC_NAMES


# each public class and its public members: fields, properties and methods,
# less what it inherits from a builtin (a NamedTuple's count and index)
PUBLIC_MEMBERS = """
ArcDigraph arcs order reach vertices
BarChart bars den id width
BppInstance capacity sizes
Evaluation feasible length occupancy
FormatError
Instance a b charts den family known_opt label n rows
Matching edges
PathCover arc_count cycles_broken paths
RunRecord abs_error algorithm elapsed_ms family label length n placement r_value ref_kind reference rounds
Solved length lower_bound node_count placement probes rounds rows status unions
SuiteConfig algorithms exact_nodes generate instances output reference summary timing
SummaryRow algorithm count err_av err_max err_min family n r_mean r_sd
UnionEdge left right u v weight
WeightedGraph adj edge edges endpoint heavy vertices wt2
"""


def test_bcpp_public_class_members_are_pinned():
    table = {name: members for name, *members in map(str.split, PUBLIC_MEMBERS.strip().split("\n"))}
    assert sorted(table) == [n for n in PUBLIC_NAMES if type(getattr(bcpp, n)) is type]
    for name, members in table.items():
        cls = getattr(bcpp, name)
        builtin = set().union(*(dir(b) for b in cls.__mro__[1:] if b.__module__ == "builtins"))
        found = {*dir(cls), *getattr(cls, "__dataclass_fields__", ())} - builtin
        assert sorted(m for m in found if not m.startswith("_")) == members, name


# each public function and its parameters with their defaults, in signature
# syntax less annotations, so a new parameter or default is a change here
PUBLIC_PARAMETERS = """
assemble_placement (paths, rows, den)
build_arc_digraph (formed, den)
build_union_graph (rows, den)
compact (instance, placement)
dump_digraph (g)
dump_graph (g)
evaluate_packing (instance, placement)
export_lp (instance, horizon=None)
form_big_matchings (instance)
form_big_scan (instance)
format_instance (instance)
format_placement (placement)
format_records_csv (records)
format_summary_csv (rows)
ga_lo (instance)
gen_bpp_fullbins (num_bins, capacity, seed, max_parts=4)
gen_random (n, seed, family, den=1000000)
lex_order (instance)
lower_bounds (instance)
max_cardinality_matching (g)
max_weight_matching (g)
merge_union (left, right, t)
oracle_opt (instance)
parse_bpp (instance_text, solution_text)
parse_bpp_instance (text)
parse_config (text)
parse_instance (text, label='')
path_cover (g)
run_algorithm (instance, name, exact_nodes=0, exact_time=0.0, dump=None, start=None)
run_suite (cfg, base_dir='.')
solve_big_pipeline (formed, den, dump=None)
solve_exact (instance, time_limit=0.0, node_limit=0)
solve_mw (instance, max_rounds=None, dump=None, start=None)
summarize (records)
transform_bpp (bpp, bins, label='')
"""


def test_bcpp_public_function_parameters_are_pinned():
    table = dict(line.split(" ", 1) for line in PUBLIC_PARAMETERS.strip().split("\n"))
    assert sorted(table) == [n for n in PUBLIC_NAMES if inspect.isfunction(getattr(bcpp, n))]
    for name, pinned in table.items():
        sig = inspect.signature(getattr(bcpp, name))
        bare = sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty)
        assert str(bare) == pinned, name
