"""The contract of the ``bcpp`` command line: one row per command.

A row holds the argv, the exit status, the exact stdout and stderr, the entries
to add before the run and, for a run that writes, every entry it makes.  Each row
runs in a fresh copy of ``SANDBOX`` as its working directory.  A run that exits
with status 2 leaves the sandbox as it found it: the same names, types, contents
and link targets.  In an expected text
``{tmp}`` is the sandbox's path, ``{ms}`` a time such as ``0.3``, ``{line}`` one
line and ``{...}`` any text, such as argparse's usage, which wraps with the
terminal.  ``tests/test_harness.py`` runs the rows through ``bcpp.cli.main``,
where calling a function a row names in ``never`` fails it.  Run as a script,
this file runs them through a command and ignores ``never``::

    python tests/cli_cases.py bcpp
    PYTHONPATH=src python tests/cli_cases.py python -m bcpp.cli
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

import bcpp
from bcpp import gen_bpp_fullbins
from helpers import format_bpp_instance, format_bpp_solution


class Link(NamedTuple):
    target: str  # a sandbox name
    hard: bool = False


class Row(NamedTuple):
    cmd: str  # split as a shell splits it
    code: int = 0
    out: str = ""
    err: str = ""
    adds: dict = {}  # name: text, a Link, or None for a directory ("name/")
    makes: dict = {}  # every entry the run adds, in the same terms
    never: tuple = ()  # "module.function"s the run may not call


def refused(cmd: str, message: str, **kwargs) -> Row:
    return Row(cmd, 2, err=f"error: {message}\n", **kwargs)


def misused(cmd: str, message: str) -> Row:  # refused by argparse
    return Row(cmd, 2, err=f"{{...}}{message}\n")


SANDBOX = {"three.inst": "3 10\n3 4\n5 5\n6 8\n", "two.inst": "2 10\n5 5\n5 5\n",
           # the pair (6, 5) packs in 2 cells, which its bound proves optimal
           "b.bpp": "3\n10\n6\n5\n4\n", "b.sol": "2\n0\n1 2\n",
           # the chained packing takes 3 cells, but (6, 5) and (4, 3) pack in 2
           "c.bpp": "6\n10\n6\n5\n4\n3\n3\n2\n", "c.sol": "3\n0\n1 2\n3 4 5\n",
           # capacity 1 would give D = 1, which no instance reader accepts
           "d.bpp": "4\n1\n1\n1\n1\n1\n", "d.sol": "4\n0\n1\n2\n3\n",
           "plain": "kept\n", "dangling": Link("nowhere"), "taken/": None, "sub/": None,
           "linked.inst": Link("three.inst", True), "linked.sol": Link("b.sol", True)}
HARD = {"hard.inst": "3 10\n5 9\n7 2\n7 4\n"}  # greedy packs 5, the bound is 4
FULL = {"full.bpp": "4\n10\n6\n4\n5\n5\n", "full.sol": "2\n0 1\n2 3\n",  # full bins
        "spaced.bpp": "4 \n10\n6\n4\n5\n5\n"}
FULL_INST = "2 10\n6 5\n4 5\nopt 2\n"
_bpp, _bins = gen_bpp_fullbins(5, 100, 1)  # its planted full bins prove opt 5
PLANTED = {"g.bpp": format_bpp_instance(_bpp), "g.sol": format_bpp_solution(_bins)}
N6 = "6 20\n6 18\n6 20\n2 13\n12 10\n10 18\n12 8\n"
N6_S4 = "6 20\n5 20\n15 4\n9 9\n5 1\n9 9\n10 10\n"
N3_NAME = "arbitrary-n3-d1000000-s0.inst"
N3 = "3 1000000\n281171 762862\n272958 772110\n209542 784681\n"
CSV = "label,n,family,algorithm,length,reference,ref_kind,R,abs_error,elapsed_ms,rounds\n"
LP, MW, PLACED = "Minimize\n{...}End\n", "Mw 4 rounds=2\n", "1 1\n2 1\n3 3\n"
SAME = "{} and {} name the same file"
DUMP = "an output path takes a dump's name, three-*, in {}"
SEARCH, READ = "bcpp.blp.solve_exact", "bcpp.cli.parse_instance"
NUMBERS = [*(("gen --n 3 --out-dir gen", flag, "read_int")
             for flag in ("--n", "--count", "--seed", "--den/-D")),
           *(("solve three.inst -a EXACT", flag, "read_int")
             for flag in ("--node-limit", "--horizon")),
           ("solve three.inst -a EXACT", "--time-limit", "read_float")]


def bench(config: str, message: str) -> Row:  # refused before the suite runs
    return refused("bench s.bench", message, never=("bcpp.cli.run_suite",),
                   adds={"s.bench": config, "c.csv": Link("s.bench", True)})


def dumps(folder: str, *rounds: str) -> dict:
    return {f"{folder}/": None, **{f"{folder}/three-round{k}.txt": text
                                   for k, text in enumerate(rounds, 1)}}


CASES = {
    "gen_solve_roundtrip": [
        Row("gen --family arbitrary --n 6 --count 2 --seed 3 -D 20 --out-dir data",
            out="data/arbitrary-n6-d20-s3.inst\ndata/arbitrary-n6-d20-s4.inst\n",
            makes={"data/": None, "data/arbitrary-n6-d20-s3.inst": N6,
                   "data/arbitrary-n6-d20-s4.inst": N6_S4}),
        Row("solve n6.inst -a GA_LO --write-placement p.txt", adds={"n6.inst": N6},
            out="GA_LO 8\n", makes={"p.txt": "{line}" * 6})],
    "solve_exact_rejects_a_negative_or_nan_limit": [
        refused(f"solve three.inst -a EXACT {flag} {value}",
                f"{flag} must be at least 0 and finite, got {shown}")
        for flag, value, shown in (("--node-limit", "-3", "-3"),
                                   ("--time-limit", "-1", "-1.0"),
                                   ("--time-limit", "nan", "nan"),
                                   ("--time-limit", "inf", "inf"))],
    # the rule of the file readers: no underscore, no non-ASCII digit, no
    # surrounding whitespace
    "numbers_take_only_ascii_digits": [
        misused(f"{cmd} {flag.split('/')[0]} {shlex.quote(value)}",
                f"bcpp {cmd.split()[0]}: error: argument {flag}: "
                f"invalid {kind} value: {value!r}")
        for cmd, flag, kind in NUMBERS for value in ("1_0", "１٠", " 1")],
    "solve_exact_reads_a_zero_limit_as_none": [
        Row(f"solve hard.inst -a EXACT {limit}", adds=HARD, out=out)
        for limit, out in (("--node-limit 1", "bounded 5 4 1 {ms}\n"),
                           ("--node-limit 0", "optimal 4 4 8 {ms}\n"),
                           ("--time-limit 0", "optimal 4 4 8 {ms}\n"))],
    # 3 charts over the greedy horizon of 4 cells: 3 * 3 x's and 4 y's
    "solve_lp_export_and_dumps": [
        Row("solve three.inst -a Mw --lp-export m.lp --dump-graphs dd",
            out="lp model (13 binaries) -> m.lp\n" + MW,
            makes={"m.lp": LP, **dumps("dd", "1 2 2\n1 3 1\n", "")})],
    "solve_rejects_a_horizon_without_lp_export": [
        refused("solve three.inst --horizon 9", "--horizon needs --lp-export")],
    "solve_rejects_a_limit_its_algorithm_ignores": [
        *(refused(f"solve three.inst -a {alg} --write-placement p.txt",
                  "--node-limit and --time-limit need -a EXACT")
          for alg in ("GA_LO --node-limit 100", "Mw --time-limit 1",
                      "A1 --node-limit 5 --dump-graphs d")),
        # 0 means no limit, so a heuristic still takes it
        Row("solve three.inst -a GA_LO --node-limit 0", out="GA_LO 4\n"),
        Row("solve three.inst -a GA_LO --time-limit 0", out="GA_LO 4\n")],
    "solve_checks_the_horizon_before_the_search": [
        refused(f"solve three.inst -a EXACT --lp-export m.lp --horizon 1{extra}",
                "horizon 1 below the combined lower bound", never=(SEARCH,))
        for extra in ("", " --dump-graphs dd")],
    "solve_prints_and_dumps_every_heuristic": [  # and EXACT, which takes a limit
        Row(f"solve three.inst -a {alg} --dump-graphs dd --write-placement p.txt",
            out=out, makes={"p.txt": placed, **made})
        for alg, out, placed, made in (
            ("GA_LO", "GA_LO 4\n", "1 3\n2 3\n3 1\n", dumps("dd")),
            ("M1w", "M1w 4\n", PLACED, dumps("dd", "1 2 2\n1 3 1\n")),
            ("Mw", MW, PLACED, dumps("dd", "1 2 2\n1 3 1\n", "")),
            ("A1", "A1 4\n", PLACED, {"dd/": None, "dd/three-digraph.txt": ""}),
            ("A2", "A2 4\n", PLACED, {"dd/": None, "dd/three-digraph.txt": ""}),
            ("EXACT --node-limit 100", "optimal 4 4 0 {ms}\n", "1 3\n2 3\n3 1\n",
             dumps("dd")))],
    # A1 sums charts 1 and 2, both small, and chains 3 -> 1 -> 4; A2 pairs
    # first-big chart 1 with second-big chart 2 and chains 3 -> 4
    "solve_a1_and_a2_form_then_chain": [
        Row(f"solve {stem}.inst -a {alg} --dump-graphs dd --write-placement p.txt",
            adds={f"{stem}.inst": text}, out=out,
            makes={"p.txt": placed, "dd/": None, f"dd/{stem}-digraph.txt": arcs})
        for alg, stem, text, out, placed, arcs in (
            ("A1", "smalls", "4 10\n2 3\n4 1\n9 2\n6 7\n", "A1 4\n",
             "1 2\n2 2\n3 1\n4 3\n", "1 4\n3 1\n3 4\n"),
            ("A2", "bigs", "4 10\n7 2\n3 8\n9 3\n2 9\n", "A2 5\n",
             "1 1\n2 1\n3 3\n4 4\n", "3 4\n"))],
    "bench_and_strictness": [
        Row("bench s.bench", adds={"s.bench": (
                "generate = family=arbitrary n=5 count=3 seed=1 D=20\n"
                "algorithms = GA_LO, Mw\noutput = results.csv\nsummary = x.csv\n")},
            out="6 records -> {tmp}/results.csv\n2 summary rows -> {tmp}/x.csv\n",
            makes={"results.csv": CSV + "{line}" * 6, "x.csv": "{line}" * 3}),
        # a summary written over the records would leave only the summary
        bench("output = r.csv\nsummary = ./r.csv\n", SAME.format("summary", "output")),
        *(Row(f"bench missing.bench{flag}", code, "0 records -> {tmp}/results.csv\n",
              "error: nowhere/*.inst [-]: no files match\n", makes={"results.csv": CSV},
              adds={"missing.bench": "instances = nowhere/*.inst\nalgorithms = GA_LO\n"})
          for flag, code in (("", 0), (" --strict", 1))),
        Row("bench all.bench --strict", out="18 records -> {tmp}/results.csv\n", adds={
            "all.bench": "generate = family=arbitrary n=8 count=3 seed=1 D=100\n"
                         "algorithms = GA_LO, M1w, Mw, A1, A2, EXACT\n"
                         "exact_nodes = 100\n"},
            makes={"results.csv": CSV + "{line}" * 18})],
    # a key but instances or generate may not repeat; a suite budgets EXACT by
    # nodes only, and must, or it may search without end
    "bench_refuses_a_bad_config": [
        bench("algorithms = GA_LO\nalgorithms = Mw\n", "line 2: algorithms given twice"),
        bench("exact_time = 1\n", "line 1: unknown key 'exact_time'"),
        bench("algorithms = EXACT\n", "line 1: EXACT needs exact_nodes of at least 1")],
    # a suite may not write over its config (a hard link is the file it links to,
    # whatever its name), nor over a file it reads
    "bench_checks_its_output_paths_before_the_suite": [
        *(bench(f"generate = family=arbitrary n=5 seed=1 D=20\n{config}\n", message)
          for config, message in (
              ("output = nodir/r.csv", "{tmp}/nodir/r.csv: no such directory"),
              ("summary = nodir/s.csv", "{tmp}/nodir/s.csv: no such directory"),
              ("output = taken", "{tmp}/taken is a directory"),
              ("output = s.bench", SAME.format("output", "s.bench")),
              ("summary = ./s.bench", SAME.format("summary", "s.bench")),
              ("output = c.csv", SAME.format("output", "s.bench")),
              ("instances = t*.inst\noutput = two.inst",
               SAME.format("output", "two.inst")),
              ("instances = t*.inst\nsummary = taken/../three.inst",
               SAME.format("summary", "three.inst")),
              ("instances = t*.inst\nsummary = linked.inst",
               SAME.format("summary", "three.inst")))),
        # an instance is named from the config's folder, as the config is given
        refused("bench sub/s.bench", SAME.format("output", "sub/two.inst"),
                never=("bcpp.cli.run_suite",), adds={
                    "sub/s.bench": "instances = t*.inst\noutput = two.inst\n",
                    "sub/two.inst": "2 10\n5 5\n5 5\n"})],
    "solve_checks_its_output_paths_before_the_search": [
        refused(f"solve three.inst -a EXACT {flag} {target}", message, never=(SEARCH,))
        for flag in ("--write-placement", "--lp-export")
        for target, message in (("nodir/o.txt", "nodir/o.txt: no such directory"),
                                ("{tmp}", "{tmp} is a directory"))],
    "solve_writes_no_output_over_another_or_its_input": [
        refused(f"solve three.inst -a EXACT {flags}", SAME.format(*names),
                never=(SEARCH, READ))
        for flags, names in (
            ("--lp-export m --write-placement sub/../m",
             ("--lp-export", "--write-placement")),
            ("--write-placement three.inst", ("--write-placement", "three.inst")),
            ("--lp-export sub/../three.inst", ("--lp-export", "three.inst")),
            ("--write-placement linked.inst", ("--write-placement", "three.inst")),
            # nor the dump directory, made or not
            ("--dump-graphs dd --lp-export sub/../dd", ("--lp-export", "dd")))],
    "solve_writes_no_output_over_a_graph_dump": [
        *(refused(f"solve three.inst -a Mw --dump-graphs dd {flag} {target}",
                  DUMP.format("dd"), adds={"dd/": None}, never=(READ,))
          for flag in ("--lp-export", "--write-placement")
          for target in ("dd/three-round1.txt", "sub/../dd/three-x.txt")),
        # other names in the dump directory, and the label's names elsewhere, are
        # written as before, and every dump survives
        Row("solve three.inst -a Mw --dump-graphs dd --lp-export dd/three.lp "
            "--write-placement three-round1.txt", adds={"dd/": None},
            out="lp model (13 binaries) -> dd/three.lp\n" + MW,
            makes={**dumps("dd", "1 2 2\n1 3 1\n", ""), "dd/three.lp": LP,
                   "three-round1.txt": PLACED})],
    # a symlink to nowhere is no directory either
    "gen_and_solve_refuse_a_file_as_their_directory": [
        refused(cmd + target, f"{target} is not a directory", never=(READ,))
        for target in ("plain", "dangling", "plain/", "dangling/")
        for cmd in ("gen --n 3 --out-dir ",
                    "solve three.inst -a Mw --lp-export m.lp --dump-graphs ")],
    "solve_writes_an_output_in_a_dump_directory_it_makes": [
        refused("solve three.inst -a Mw --dump-graphs new --lp-export new/three-x.lp",
                DUMP.format("new")),
        # until it is made, an output lies in it only when spelled as the directory is:
        # a ".." may cross a directory that is missing, a symlink may point elsewhere
        *(refused(f"solve three.inst -a Mw --dump-graphs new --write-placement {target}",
                  f"{target}: no such directory", adds={"alias": Link("new")})
          for target in ("new/sub/p.txt", "sub/../new/p.txt", "alias/p.txt")),
        Row("solve three.inst -a Mw --dump-graphs new --lp-export new/m.lp "
            "--write-placement new/p.txt",
            out="lp model (13 binaries) -> new/m.lp\n" + MW,
            makes={**dumps("new", "1 2 2\n1 3 1\n", ""), "new/m.lp": LP,
                   "new/p.txt": PLACED})],
    # a ".." after a missing directory resolves once the directories are made
    "gen_makes_its_directory_and_every_missing_parent": [
        Row(f"gen --n 3 --out-dir {out_dir}", out=f"{printed}{N3_NAME}\n",
            makes={**dict.fromkeys(dirs), dirs[-1] + N3_NAME: N3})
        for out_dir, printed, dirs in (("{tmp}/a/b", "{tmp}/a/b/", ("a/", "a/b/")),
                                       ("sub/../rel/", "sub/../rel/", ("rel/",)),
                                       ("nosuch/../new", "nosuch/../new/",
                                        ("nosuch/", "new/")))],
    "bpp_import": [
        Row("bpp-import b.bpp b.sol --out b.inst", out="1 charts, opt 2 -> b.inst\n",
            makes={"b.inst": "1 10\n6 5\nopt 2\n"}),
        Row("bpp-import c.bpp c.sol --out c.inst", makes={"c.inst": "2 10\n6 5\n4 3\n"},
            out="2 charts, opt not proven -> c.inst\n"),
        refused("bpp-import d.bpp d.sol --out d.inst",
                "denominator 1 must be at least 2"),
        # the chained construction pairs the items of one bin with the next
        refused("bpp-import one.bpp one.sol --out one.inst",
                "need at least two bins to pair items",
                adds={"one.bpp": "2\n10\n6\n4\n", "one.sol": "1\n0 1\n"}),
        # no --label: --out, or else the instance file's stem, names the output
        misused("bpp-import b.bpp b.sol --label x",
                "bcpp: error: unrecognized arguments: --label x"),
        # full bins prove their count, with spaces around a number or not
        *(Row(f"bpp-import {stem}.bpp full.sol --out {stem}.inst", adds=FULL,
              out=f"2 charts, opt 2 -> {stem}.inst\n", makes={f"{stem}.inst": FULL_INST})
          for stem in ("full", "spaced")),
        Row("solve full.inst -a Mw", adds={"full.inst": FULL_INST},
            out="Mw 2 rounds=2\n"),
        Row("bpp-import g.bpp g.sol --out g.inst", adds=PLANTED,
            out="{...} charts, opt 5 -> g.inst\n", makes={"g.inst": "{...}opt 5\n"}),
        # --out, or else <stem>.inst, is checked before either input is read, and may
        # not name an input
        *(refused(f"bpp-import {args}", message, never=("bcpp.cli.parse_bpp",),
                  adds={"e.inst": "3\n10\n6\n5\n4\n", "e.sol": "2\n0\n1 2\n"})
          for args, message in (
              ("b.bpp b.sol --out b.bpp", SAME.format("--out", "b.bpp")),
              ("b.bpp b.sol --out ./b.sol", SAME.format("--out", "b.sol")),
              ("b.bpp b.sol --out linked.sol", SAME.format("--out", "b.sol")),
              ("b.bpp b.sol --out nodir/b.inst", "nodir/b.inst: no such directory"),
              ("b.bpp b.sol --out taken", "taken is a directory"),
              ("e.inst e.sol", SAME.format("--out", "e.inst"))))],
    "gen_rejects_a_count_below_one": [
        refused(f"gen --n 3 {extra} --out-dir .", "need count >= 1")
        for extra in ("--count 0", "--count -2 --den 1")],
    "gen_writes_no_file_when_a_target_is_a_directory": [
        refused("gen --n 6 --count 2 --seed 3 -D 20 --out-dir {tmp}",
                "{tmp}/arbitrary-n6-d20-s4.inst is a directory",
                adds={"arbitrary-n6-d20-s4.inst/": None})],
    "gen_creates_no_directory_when_a_draw_fails": [
        refused("gen --n 3 --count 0 --out-dir new", "need count >= 1"),
        refused("gen --n 0 --out-dir new", "need n >= 1")],
    "refuses_an_empty_path": [  # which names no file
        misused(f"{cmd} {flag} ''", f"bcpp {cmd.split()[0]}: error: argument {flag}: "
                "invalid read_path value: ''")
        for cmd, flag in (("gen --n 3", "--out-dir"), ("solve three.inst", "--lp-export"),
                          ("solve three.inst --horizon 3", "--lp-export"),
                          ("solve three.inst", "--dump-graphs"),
                          ("solve three.inst", "--write-placement"),
                          ("bpp-import b.bpp b.sol", "--out"))],
    "reports_errors": [
        refused(f"solve {name} -a Mw --dump-graphs dd", message, adds={"bad.inst": "x\n"})
        for name, message in (
            ("absent.inst", "[Errno 2] No such file or directory: 'absent.inst'"),
            ("bad.inst", "line 1: expected 'n D'"))],
}


def snapshot(root: str) -> dict:
    """Every entry under ``root``, in the terms of ``Row.adds``."""
    entries: dict = {}
    for folder, dirs, files in os.walk(root):
        for path in (os.path.join(folder, name) for name in dirs + files):
            key = os.path.relpath(path, root)
            if os.path.islink(path):
                entries[key] = Link(os.readlink(path))
            elif os.path.isdir(path):
                entries[key + "/"] = None
            else:
                with open(path) as fh:
                    entries[key] = fh.read()
    return entries


def prepare(row: Row, root: str) -> tuple[list[str], dict]:
    """Fill the empty directory ``root``; return the row's argv and the snapshot."""
    for name, entry in {**SANDBOX, **row.adds}.items():
        path = os.path.join(root, name)
        if entry is None:
            os.makedirs(path)
        elif isinstance(entry, Link) and entry.hard:
            os.link(os.path.join(root, entry.target), path)
        elif isinstance(entry, Link):
            os.symlink(entry.target, path)  # as a snapshot reads it back
        else:
            with open(path, "w") as fh:
                fh.write(entry)
    return [arg.replace("{tmp}", root) for arg in shlex.split(row.cmd)], snapshot(root)


def fits(want, got, root: str) -> bool:
    if not (isinstance(want, str) and isinstance(got, str)):
        return want == got
    pattern = re.escape(want)
    for mark, regex in (("{tmp}", re.escape(root)), ("{ms}", r"\d+\.\d"),
                        ("{line}", r"[^\n]*\n"), ("{...}", r"(?s:.*)")):
        pattern = pattern.replace(re.escape(mark), regex)
    return re.fullmatch(pattern, got) is not None


def mismatches(row: Row, root: str, before: dict, code: int, out: str,
               err: str) -> list[str]:
    """How a run of ``row`` in ``root`` broke the row, one line each."""
    want = before if row.code == 2 else {**before, **row.makes}
    got = snapshot(root)
    both = sorted(got.keys() & want.keys())
    return ([f"{what} {have!r}, want {need!r}" for what, have, need in
             (("exit", code, row.code), ("stdout", out, row.out),
              ("stderr", err, row.err), *((name, got[name], want[name]) for name in both))
             if not fits(need, have, root)]
            + [f"{name} made" for name in sorted(got.keys() - want.keys())]
            + [f"{name} missing" for name in sorted(want.keys() - got.keys())])


def run(prefix: list[str], rows: list[Row]) -> list[str]:
    """Run each row as the command ``prefix + argv``; return every mismatch."""
    # the rows run elsewhere, so the children import the bcpp this module did
    paths = [os.path.dirname(os.path.dirname(bcpp.__file__)),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    wrong = []
    for row in rows:
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.realpath(tmp)
            argv, before = prepare(row, root)
            proc = subprocess.run([*prefix, *argv], cwd=root, env=env,
                                  capture_output=True, encoding="utf-8")
            wrong += [f"{row.cmd}: {line}" for line in mismatches(
                row, root, before, proc.returncode, proc.stdout, proc.stderr)]
    return wrong


if __name__ == "__main__":
    every = [row for rows in CASES.values() for row in rows]
    wrong = run(sys.argv[1:], every)
    print(*wrong, f"{len(every)} rows, {len(wrong)} mismatches", sep="\n")
    sys.exit(1 if wrong else 0)
