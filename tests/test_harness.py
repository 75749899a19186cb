import csv
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import bcpp.blp
import bcpp.cli
import bcpp.greedy
import bcpp.matching
from bcpp import (BppSolution, FormatError, SuiteConfig, format_instance,
                  format_records_csv, format_summary_csv, gen_bpp_fullbins,
                  gen_random, lower_bounds, oracle_opt, parse_config,
                  run_algorithm, run_suite, solve_exact, summarize,
                  transform_bpp)
from bcpp.cli import main
from bcpp.harness import ALGORITHMS, GenSpec, RunRecord
from bcpp.matching import build_union_graph, dump_graph
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
        "optimal", 19, 19, 98)


def test_run_suite_with_a_node_budget_stops_cleanly_at_large_n():
    instance = gen_random(1200, 2, "arbitrary", 10**6)
    cfg = SuiteConfig(generate=[GenSpec("arbitrary", 1200, 1, 2, 10**6)],
                      algorithms=("EXACT",), exact_nodes=1000)
    records, _, errors = run_suite(cfg)  # run_suite audits the placement
    assert errors == []
    (rec,) = records
    assert (rec.reference, rec.ref_kind) == (lower_bounds(instance).combined, "LB")
    assert rec.length > rec.reference and rec.rounds == 1000


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
    assert rec.r_value == Fraction(1)
    assert rec.family == ""  # a file's family cell is empty, opt line or not


def test_every_opt_reference_on_tiny_bpp_files_is_the_optimum(tmp_path):
    # the planted full bins are optimal solutions and one bin per item poor
    # ones; the references come from the files' proved opt lines or, where a
    # file has none, from the exact search
    written = {}
    for s in range(40):
        bpp, full = gen_bpp_fullbins(2 + s % 3, 12 + s % 7, s, max_parts=2 + s % 3)
        singles = BppSolution(tuple((i,) for i in range(len(bpp.sizes))))
        for kind, sol in (("full", full), ("single", singles)):
            instance = transform_bpp(bpp, sol, label=f"{kind}-{s}")
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
    cfg = SuiteConfig(instances=[str(tmp_path / "*.inst")], algorithms=("GA_LO",))
    records, _, errors = run_suite(cfg)
    assert [(r.label, r.reference, r.ref_kind) for r in records] == [("ok", 2, "OPT")]
    assert [(e.label, e.algorithm, e.message) for e in errors] == [
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


def test_run_algorithm_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown algorithm 'NOPE'"):
        run_algorithm(inst((5, 5)), "NOPE")


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


def _record(label, algorithm, length, reference, n=5):
    return RunRecord(label=label, n=n, family="arbitrary",
                     algorithm=algorithm, length=length, reference=reference,
                     ref_kind="LB", r_value=Fraction(length, reference),
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


# --- CLI ---------------------------------------------------------------------


def test_cli_gen_solve_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "data"
    assert main(["gen", "--family", "arbitrary", "--n", "6", "--count", "2",
                 "--seed", "3", "-D", "20", "--out-dir", str(out_dir)]) == 0
    paths = sorted(os.listdir(out_dir))
    assert paths == ["arbitrary-n6-d20-s3.inst", "arbitrary-n6-d20-s4.inst"]

    placement_path = tmp_path / "sol.txt"
    code = main(["solve", str(out_dir / paths[0]), "-a", "GA_LO",
                 "--write-placement", str(placement_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("GA_LO ")
    assert placement_path.read_text().count("\n") == 6


def test_cli_solve_exact_report(tmp_path, capsys):
    path = tmp_path / "two.inst"
    path.write_text(format_instance(inst((5, 5), (5, 5))))
    assert main(["solve", str(path), "-a", "EXACT"]) == 0
    line = capsys.readouterr().out.strip().split()
    assert line[0] == "optimal"
    assert line[1] == line[2] == "2"


def test_cli_solve_exact_rejects_a_negative_or_nan_limit(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((5, 9), (7, 2), (7, 4))))
    for flag, value in (("--node-limit", "-3"), ("--time-limit", "-1"),
                        ("--time-limit", "nan"), ("--time-limit", "inf")):
        assert main(["solve", str(path), "-a", "EXACT", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be at least 0" in captured.err


def test_cli_numbers_take_only_ascii_digits(tmp_path, capsys):
    # the rule of the file readers: no underscore, no non-ASCII digit, no
    # surrounding whitespace
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((5, 9), (7, 2), (7, 4))))
    gen = ["gen", "--n", "3", "--out-dir", str(tmp_path / "gen")]
    solve = ["solve", str(path), "-a", "EXACT"]
    for argv, flag in ([(gen, f) for f in ("--n", "--count", "--seed", "--den")]
                       + [(solve, f) for f in ("--node-limit", "--horizon",
                                               "--time-limit")]):
        for value in ("1_0", "１٠", " 1"):
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, flag, value])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: argument {flag}" in captured.err
            assert f"value: {value!r}" in captured.err
    assert not (tmp_path / "gen").exists()


def test_cli_solve_exact_reads_a_zero_limit_as_none(tmp_path, capsys):
    # greedy packs 5 and the bound is 4, so one node cannot prove 4
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((5, 9), (7, 2), (7, 4))))
    assert main(["solve", str(path), "-a", "EXACT", "--node-limit", "1"]) == 0
    assert capsys.readouterr().out.split()[:4] == ["bounded", "5", "4", "1"]
    for flag in ("--node-limit", "--time-limit"):
        assert main(["solve", str(path), "-a", "EXACT", flag, "0"]) == 0
        assert capsys.readouterr().out.split()[:4] == ["optimal", "4", "4", "5"]


def test_cli_solve_lp_export_and_dumps(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    lp_path = tmp_path / "model.lp"
    dump_dir = tmp_path / "dumps"
    assert main(["solve", str(path), "-a", "Mw", "--lp-export", str(lp_path),
                 "--dump-graphs", str(dump_dir)]) == 0
    assert lp_path.read_text().startswith("Minimize")
    # 3 charts over the greedy horizon of 4 cells: 3 * 3 x's and 4 y's
    assert capsys.readouterr().out == (f"lp model (13 binaries) -> {lp_path}\n"
                                       "Mw 4 rounds=2\n")
    dumped = sorted(os.listdir(dump_dir))
    assert dumped == ["three-round1.txt", "three-round2.txt"]
    assert (dump_dir / "three-round1.txt").read_text() == "1 2 2\n1 3 1\n"


def test_cli_solve_audits_before_it_prints_or_writes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    original = bcpp.greedy.ga_lo
    monkeypatch.setattr(bcpp.greedy, "ga_lo", lambda instance: replace(
        original(instance), length=original(instance).length + 1))
    placement_path = tmp_path / "sol.txt"
    assert main(["solve", str(path), "-a", "GA_LO", "--lp-export",
                 str(tmp_path / "model.lp"),
                 "--write-placement", str(placement_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: audit failed: feasible=True length=4 "
                            "reported=5\n")
    assert not placement_path.exists()
    assert not (tmp_path / "model.lp").exists()
    # the graph dumps wait for the audit too
    solve_mw = bcpp.matching.solve_mw

    def misreported(*args, **kwargs):
        solved = solve_mw(*args, **kwargs)
        return replace(solved, length=solved.length + 1)

    monkeypatch.setattr(bcpp.matching, "solve_mw", misreported)
    dump_dir = tmp_path / "dumps"
    assert main(["solve", str(path), "-a", "Mw", "--dump-graphs", str(dump_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: audit failed: feasible=True length=4 "
                            "reported=5\n")
    assert list(dump_dir.glob("three-round*.txt")) == []


def test_cli_solve_rejects_a_horizon_without_lp_export(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    assert main(["solve", str(path), "--horizon", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --horizon needs --lp-export" in captured.err


def test_cli_solve_rejects_a_limit_its_algorithm_ignores(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    for name, flags in (("GA_LO", ["--node-limit", "100"]),
                        ("Mw", ["--time-limit", "1"]),
                        ("A1", ["--node-limit", "5", "--dump-graphs",
                                str(tmp_path / "d")])):
        placement_path = tmp_path / f"{name}.placement"
        assert main(["solve", str(path), "-a", name, *flags,
                     "--write-placement", str(placement_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --node-limit and --time-limit need "
                                "-a EXACT\n")
        assert not placement_path.exists()
    assert not (tmp_path / "d").exists()
    # 0 means no limit, so a heuristic still takes it
    for flag in ("--node-limit", "--time-limit"):
        assert main(["solve", str(path), "-a", "GA_LO", flag, "0"]) == 0
        assert capsys.readouterr().out == "GA_LO 4\n"


def test_cli_solve_checks_the_horizon_before_the_search(tmp_path, monkeypatch,
                                                         capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))

    def searched(*_args, **_kwargs):
        raise AssertionError("solve_exact ran")

    monkeypatch.setattr(bcpp.blp, "solve_exact", searched)
    lp_path = tmp_path / "m.lp"
    assert main(["solve", str(path), "-a", "EXACT", "--lp-export", str(lp_path),
                 "--horizon", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: horizon 1 below the combined lower bound" in captured.err
    assert not lp_path.exists()


def test_cli_solve_prints_and_dumps_every_heuristic(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    expected = {"GA_LO": ([], "GA_LO 4"),
                "M1w": (["three-round1.txt"], "M1w 4"),
                "Mw": (["three-round1.txt", "three-round2.txt"], "Mw 4 rounds=2"),
                "A1": (["three-digraph.txt"], "A1 4"),
                "A2": (["three-digraph.txt"], "A2 4")}
    for name, (files, line) in expected.items():
        dump_dir = tmp_path / f"dumps-{name}"
        assert main(["solve", str(path), "-a", name,
                     "--dump-graphs", str(dump_dir)]) == 0
        assert capsys.readouterr().out.strip() == line
        assert sorted(os.listdir(dump_dir)) == files
    assert (tmp_path / "dumps-M1w" / "three-round1.txt").read_text() == \
        "1 2 2\n1 3 1\n"


def test_cli_bench_and_strictness(tmp_path, capsys):
    config = tmp_path / "suite.bench"
    config.write_text(
        "generate = family=arbitrary n=5 count=3 seed=1 D=20\n"
        "algorithms = GA_LO, Mw\n"
        "output = results.csv\n"
        "summary = summary.csv\n")
    assert main(["bench", str(config)]) == 0
    body = (tmp_path / "results.csv").read_text()
    assert len(body.splitlines()) == 7
    assert (tmp_path / "summary.csv").exists()
    # a summary written over the records would leave only the summary
    same = tmp_path / "same"
    same.mkdir()
    (same / "suite.bench").write_text("generate = family=arbitrary n=5 seed=1 D=20\n"
                                      "output = r.csv\nsummary = ./r.csv\n")
    assert main(["bench", str(same / "suite.bench")]) == 2
    assert capsys.readouterr().err == "error: summary and output name the same file\n"
    assert os.listdir(same) == ["suite.bench"]

    missing = tmp_path / "missing.bench"
    missing.write_text("instances = nowhere/*.inst\nalgorithms = GA_LO\n")
    assert main(["bench", str(missing)]) == 0
    assert main(["bench", str(missing), "--strict"]) == 1
    # the same exit statuses through the module entry point
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bcpp.__file__))}
    for flags, status in (([], 0), (["--strict"], 1)):
        proc = subprocess.run([sys.executable, "-m", "bcpp.cli", "bench", str(missing),
                               *flags], env=env, capture_output=True, text=True)
        assert proc.returncode == status, proc.stderr


def test_cli_bench_checks_its_output_paths_before_the_suite(tmp_path, monkeypatch,
                                                            capsys):
    def ran(*_args, **_kwargs):
        raise AssertionError("run_suite ran")

    monkeypatch.setattr(bcpp.cli, "run_suite", ran)
    (tmp_path / "taken").mkdir()
    instance = tmp_path / "a.inst"
    text = format_instance(inst((3, 4), (5, 5)))
    instance.write_text(text)
    config = tmp_path / "suite.bench"
    config.write_text("")
    # a hard link is the file it links to, whatever its name
    os.link(config, tmp_path / "c.csv")
    os.link(instance, tmp_path / "s.csv")
    # a suite may not write over its own config, nor over a file it reads
    for line, message in (
            ("output = nodir/r.csv", f"{tmp_path / 'nodir/r.csv'}: no such directory"),
            ("summary = nodir/s.csv", f"{tmp_path / 'nodir/s.csv'}: no such directory"),
            ("output = taken", f"{tmp_path / 'taken'} is a directory"),
            ("output = suite.bench", f"output and {config} name the same file"),
            ("summary = ./suite.bench", f"summary and {config} name the same file"),
            ("instances = *.inst\noutput = a.inst",
             f"output and {instance} name the same file"),
            ("instances = *.inst\nsummary = taken/../a.inst",
             f"summary and {instance} name the same file"),
            ("output = c.csv", f"output and {config} name the same file"),
            ("instances = *.inst\nsummary = s.csv",
             f"summary and {instance} name the same file")):
        body = f"generate = family=arbitrary n=5 seed=1 D=20\n{line}\n"
        config.write_text(body)
        assert main(["bench", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert config.read_text() == body
    assert sorted(os.listdir(tmp_path)) == ["a.inst", "c.csv", "s.csv", "suite.bench",
                                            "taken"]
    assert os.listdir(tmp_path / "taken") == []
    assert instance.read_text() == (tmp_path / "s.csv").read_text() == text


def test_cli_solve_checks_its_output_paths_before_the_search(tmp_path, monkeypatch,
                                                            capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))

    def searched(*_args, **_kwargs):
        raise AssertionError("solve_exact ran")

    monkeypatch.setattr(bcpp.blp, "solve_exact", searched)
    missing = tmp_path / "nodir" / "out.txt"
    for flag in ("--write-placement", "--lp-export"):
        for target, message in ((missing, f"{missing}: no such directory"),
                                (tmp_path, f"{tmp_path} is a directory")):
            assert main(["solve", str(path), "-a", "EXACT", flag, str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["three.inst"]


def test_cli_solve_writes_no_output_over_another_or_its_input(tmp_path, monkeypatch,
                                                              capsys):
    path = tmp_path / "three.inst"
    text = format_instance(inst((3, 4), (5, 5), (6, 8)))
    path.write_text(text)

    def searched(*_args, **_kwargs):
        raise AssertionError("solve_exact ran")

    def read(*_args, **_kwargs):
        raise AssertionError("the instance was read")

    monkeypatch.setattr(bcpp.blp, "solve_exact", searched)
    monkeypatch.setattr(bcpp.cli, "parse_instance", read)
    same = "error: --lp-export and --write-placement name the same file\n"
    (tmp_path / "sub").mkdir()
    linked = tmp_path / "sub" / "linked.txt"
    os.link(path, linked)
    dumps = tmp_path / "dd"
    for flags, message in (
            (["--lp-export", str(tmp_path / "m.txt"),
              "--write-placement", str(tmp_path / "sub" / ".." / "m.txt")], same),
            (["--write-placement", str(path)],
             f"error: --write-placement and {path} name the same file\n"),
            (["--lp-export", str(tmp_path / "sub" / ".." / "three.inst")],
             f"error: --lp-export and {path} name the same file\n"),
            (["--write-placement", str(linked)],
             f"error: --write-placement and {path} name the same file\n"),
            # the dump directory is made before the search, so no output may take it
            (["--dump-graphs", str(dumps),
              "--lp-export", str(tmp_path / "sub" / ".." / "dd")],
             f"error: --lp-export and {dumps} name the same file\n")):
        assert main(["solve", str(path), "-a", "EXACT", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
    assert sorted(os.listdir(tmp_path)) == ["sub", "three.inst"]
    assert path.read_text() == text


def test_cli_solve_writes_no_output_over_a_graph_dump(tmp_path, monkeypatch, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))

    def read(*_args, **_kwargs):
        raise AssertionError("the instance was read")

    dumps = tmp_path / "dd"
    message = f"error: an output path takes a dump's name, three-*, in {dumps}\n"
    with monkeypatch.context() as m:
        m.setattr(bcpp.cli, "parse_instance", read)
        for flag in ("--lp-export", "--write-placement"):
            for target in (dumps / "three-round1.txt", tmp_path / "sub" / ".." / "dd"
                           / "three-x.txt"):
                (tmp_path / "sub").mkdir(exist_ok=True)
                dumps.mkdir(exist_ok=True)
                assert main(["solve", str(path), "-a", "Mw", "--dump-graphs",
                             str(dumps), flag, str(target)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == message
        assert os.listdir(dumps) == []
    # other names in the dump directory, and the label's names elsewhere, are
    # written as before, and every dump survives
    assert main(["solve", str(path), "-a", "Mw", "--dump-graphs", str(dumps),
                 "--lp-export", str(dumps / "three.lp"),
                 "--write-placement", str(tmp_path / "three-round1.txt")]) == 0
    assert sorted(os.listdir(dumps)) == ["three-round1.txt", "three-round2.txt",
                                         "three.lp"]
    charts = inst((3, 4), (5, 5), (6, 8)).charts
    assert (dumps / "three-round1.txt").read_text() == dump_graph(build_union_graph(charts))


def test_cli_gen_and_solve_refuse_a_file_as_their_directory(tmp_path, monkeypatch,
                                                           capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))

    def read(*_args, **_kwargs):
        raise AssertionError("the instance was read")

    monkeypatch.setattr(bcpp.cli, "parse_instance", read)
    plain = tmp_path / "plain"
    plain.write_text("kept\n")
    # a symlink to nowhere is no directory either
    os.symlink(tmp_path / "nowhere", tmp_path / "dangling")
    for target in (plain, tmp_path / "dangling"):
        for argv in (["gen", "--n", "3", "--out-dir", str(target)],
                     ["solve", str(path), "-a", "Mw", "--dump-graphs", str(target),
                      "--lp-export", str(tmp_path / "m.lp")]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {target} is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["dangling", "plain", "three.inst"]
    assert plain.read_text() == "kept\n"


def test_cli_solve_writes_an_output_in_a_dump_directory_it_makes(tmp_path, capsys):
    path = tmp_path / "three.inst"
    path.write_text(format_instance(inst((3, 4), (5, 5), (6, 8))))
    dumps = tmp_path / "new"
    # the dump directory is made only once every check has passed
    for target, message in ((dumps / "three-x.lp",
                             f"an output path takes a dump's name, three-*, in {dumps}"),
                            (dumps / "sub" / "m.lp",
                             f"{dumps / 'sub' / 'm.lp'}: no such directory")):
        assert main(["solve", str(path), "-a", "Mw", "--dump-graphs", str(dumps),
                     "--lp-export", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not dumps.exists()
    # until it is made, an output lies in it only when spelled as the directory is:
    # a ".." may cross a directory that is missing, a symlink may point elsewhere
    (tmp_path / "sub").mkdir()
    os.symlink(dumps, tmp_path / "alias")
    for target in (tmp_path / "sub" / ".." / "new" / "p.txt",
                   tmp_path / "alias" / "p.txt"):
        assert main(["solve", str(path), "-a", "Mw", "--dump-graphs", str(dumps),
                     "--write-placement", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {target}: no such directory\n"
        assert not dumps.exists()
    assert main(["solve", str(path), "-a", "Mw", "--dump-graphs", str(dumps),
                 "--lp-export", str(dumps / "m.lp"),
                 "--write-placement", str(dumps / "p.txt")]) == 0
    assert capsys.readouterr().out == (f"lp model (13 binaries) -> {dumps / 'm.lp'}\n"
                                       "Mw 4 rounds=2\n")
    assert sorted(os.listdir(dumps)) == ["m.lp", "p.txt", "three-round1.txt",
                                         "three-round2.txt"]


def test_cli_gen_makes_its_directory_and_every_missing_parent(tmp_path, monkeypatch,
                                                              capsys):
    label = "arbitrary-n3-d1000000-s0.inst"
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    # a ".." after a missing directory resolves once the directories are made
    for out_dir, made in ((str(tmp_path / "a" / "b"), tmp_path / "a" / "b"),
                          (str(tmp_path / "sub" / ".." / "new"), tmp_path / "new"),
                          (os.path.join("..", "rel", ""), tmp_path / "rel")):
        assert main(["gen", "--n", "3", "--out-dir", out_dir]) == 0
        assert capsys.readouterr().out == f"{os.path.join(out_dir, label)}\n"
        assert os.listdir(made) == [label]


def test_cli_bpp_import(tmp_path, monkeypatch, capsys):
    (tmp_path / "b.bpp").write_text("3\n10\n6\n5\n4\n")
    (tmp_path / "b.sol").write_text("2\n0\n1 2\n")
    out = tmp_path / "b.inst"
    assert main(["bpp-import", str(tmp_path / "b.bpp"), str(tmp_path / "b.sol"),
                 "--out", str(out)]) == 0
    # the pair (6, 5) packs in 2 cells, which its bound proves optimal
    assert out.read_text().endswith("opt 2\n")
    assert capsys.readouterr().out == f"1 charts, opt 2 -> {out}\n"
    # the chained packing takes 3 cells, but (6, 5) and (4, 3) pack in 2
    (tmp_path / "c.bpp").write_text("6\n10\n6\n5\n4\n3\n3\n2\n")
    (tmp_path / "c.sol").write_text("3\n0\n1 2\n3 4 5\n")
    out = tmp_path / "c.inst"
    assert main(["bpp-import", str(tmp_path / "c.bpp"), str(tmp_path / "c.sol"),
                 "--out", str(out)]) == 0
    assert "opt" not in out.read_text()
    assert capsys.readouterr().out == f"2 charts, opt not proven -> {out}\n"
    # capacity 1 would give D = 1, which no instance reader accepts
    (tmp_path / "d.bpp").write_text("4\n1\n1\n1\n1\n1\n")
    (tmp_path / "d.sol").write_text("4\n0\n1\n2\n3\n")
    out = tmp_path / "d.inst"
    assert main(["bpp-import", str(tmp_path / "d.bpp"), str(tmp_path / "d.sol"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: denominator 1 must be at least 2\n"
    assert not out.exists()
    # no --label: --out, or else the instance file's stem, names the output
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["bpp-import", str(tmp_path / "b.bpp"), str(tmp_path / "b.sol"),
              "--label", "x"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --label x" in capsys.readouterr().err
    assert not (tmp_path / "x.inst").exists()

    def read(*_args, **_kwargs):
        raise AssertionError("the inputs were read")

    # --out, or else <stem>.inst, is checked before either input is read, and
    # may not name an input
    monkeypatch.setattr(bcpp.cli, "parse_bpp", read)
    (tmp_path / "e.inst").write_text("3\n10\n6\n5\n4\n")
    (tmp_path / "e.sol").write_text("2\n0\n1 2\n")
    bpp, sol = str(tmp_path / "b.bpp"), str(tmp_path / "b.sol")
    linked = tmp_path / "linked.inst"
    os.link(sol, linked)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    missing = tmp_path / "nodir" / "b.inst"
    for argv, message in (
            ([bpp, sol, "--out", bpp], f"--out and {bpp} name the same file"),
            ([bpp, sol, "--out", str(tmp_path / "." / "b.sol")],
             f"--out and {sol} name the same file"),
            ([bpp, sol, "--out", str(linked)], f"--out and {sol} name the same file"),
            ([bpp, sol, "--out", str(missing)], f"{missing}: no such directory"),
            ([bpp, sol, "--out", str(tmp_path)], f"{tmp_path} is a directory"),
            (["e.inst", "e.sol"], "--out and e.inst name the same file")):
        assert main(["bpp-import", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before


def test_cli_gen_rejects_a_count_below_one(tmp_path, capsys):
    for extra in (["--count", "0"], ["--count", "-2", "--den", "1"]):
        assert main(["gen", "--n", "3", *extra, "--out-dir", str(tmp_path)]) == 2
        assert "error: need count >= 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_gen_writes_no_file_when_a_target_is_a_directory(tmp_path, capsys):
    taken = tmp_path / "arbitrary-n6-d20-s4.inst"
    taken.mkdir()
    assert main(["gen", "--n", "6", "--count", "2", "--seed", "3", "-D", "20",
                 "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {taken} is a directory\n"
    assert os.listdir(tmp_path) == [taken.name]
    assert os.listdir(taken) == []


def test_cli_gen_creates_no_directory_when_a_draw_fails(tmp_path, capsys):
    out_dir = tmp_path / "new"
    for extra in (["--n", "3", "--count", "0"], ["--n", "0"]):
        assert main(["gen", *extra, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out_dir.exists()


def test_cli_reports_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.inst")]) == 2
    assert "error:" in capsys.readouterr().err
