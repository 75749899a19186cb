"""Command line front-end.

Subcommands: ``gen`` writes random instance files, ``solve`` runs one
algorithm on one instance, ``bench`` executes a config-driven suite and
writes CSV reports, ``bpp-import`` converts a bin-packing instance plus
solution into a packing instance, with its optimum where one is proved.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
import time

from . import __version__
from .blp import export_lp
from .generators import FAMILIES, parse_bpp, transform_bpp
from .harness import (ALGORITHMS, GenSpec, audit, format_records_csv,
                      format_summary_csv, parse_config, run_algorithm, run_suite)
from .model import (format_instance, format_placement, parse_instance, read_float,
                    read_int)


def read_path(text: str) -> str:  # argparse would take "", which names no file
    if not text:
        raise ValueError("empty path")
    return text


def _check_outputs(outputs: dict[str, str], inputs: list[str],
                   directory: str | None = None) -> None:
    """Refuse, before any work, a ``directory`` that is not one, or an output that is a
    directory, lies in a missing one but ``directory``, or is the same file as an
    input, another output or ``directory``."""
    def file_id(path: str) -> tuple[int, int] | str:  # inode and device, or real path
        return os.stat(path)[1:3] if os.path.exists(path) else os.path.realpath(path)
    made = directory and os.path.dirname(os.path.join(directory, ""))  # less a final /
    if made and os.path.lexists(made) and not os.path.isdir(made):
        raise ValueError(f"{directory} is not a directory")
    taken = {file_id(path): path for path in (*inputs, directory) if path}
    for name, path in outputs.items():
        if os.path.isdir(path):
            raise ValueError(f"{path} is a directory")
        folder = os.path.dirname(path)
        if not (os.path.isdir(folder or ".") or folder == made):
            raise ValueError(f"{path}: no such directory")
        if (key := file_id(path)) in taken:
            raise ValueError(f"{name} and {taken[key]} name the same file")
        taken[key] = name


def _write(path: str, text: str, what: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(text)
    if what:
        print(f"{what} -> {path}")


def _cmd_gen(args) -> int:
    instances = GenSpec(args.family, args.n, args.count, args.seed,
                        args.den).instances()
    paths = [os.path.join(args.out_dir, f"{inst.label}.inst") for inst in instances]
    _check_outputs(dict(zip(paths, paths)), [], args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    for inst, path in zip(instances, paths):
        _write(path, format_instance(inst))
        print(path)
    return 0


def _cmd_solve(args) -> int:
    # a negative, NaN or infinite limit fails before the instance is read
    for flag, limit in (("--time-limit", args.time_limit),
                        ("--node-limit", args.node_limit)):
        if not 0 <= limit < math.inf:  # nor is a NaN
            raise ValueError(f"{flag} must be at least 0 and finite, got {limit}")
    if args.horizon is not None and not args.lp_export:
        raise ValueError("--horizon needs --lp-export")
    if (args.time_limit or args.node_limit) and args.algorithm != "EXACT":
        raise ValueError("--node-limit and --time-limit need -a EXACT")
    outputs = {flag: path for flag, path in (("--write-placement", args.write_placement),
                                             ("--lp-export", args.lp_export)) if path}
    label = os.path.splitext(os.path.basename(args.instance))[0]
    dump_dir = args.dump_graphs  # made and filled after the audit
    if dump_dir and any(os.path.dirname(p) == os.path.realpath(dump_dir) and
                        os.path.basename(p).startswith(f"{label}-")
                        for p in map(os.path.realpath, outputs.values())):
        raise ValueError(f"an output path takes a dump's name, {label}-*, in {dump_dir}")
    _check_outputs(outputs, [args.instance], dump_dir)
    with open(args.instance) as fh:
        inst = parse_instance(fh.read(), label=label)
    # a bad --horizon fails before the search; the file waits for the audit
    lp_text = export_lp(inst, horizon=args.horizon) if args.lp_export else None
    dumps: dict[str, str] = {}  # written only once the audit has passed
    t0 = time.perf_counter()
    res = run_algorithm(inst, args.algorithm, args.node_limit, args.time_limit,
                        dump=dumps.__setitem__ if dump_dir else None)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    audit(inst, res)  # before anything is printed or written
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
    for name, text in dumps.items():
        _write(os.path.join(dump_dir, f"{label}-{name}.txt"), text)

    if lp_text is not None:
        binaries = lp_text.split("Binary\n", 1)[1].count("\n") - 1  # less End
        _write(args.lp_export, lp_text, f"lp model ({binaries} binaries)")

    if args.algorithm == "EXACT":
        print(f"{res.status} {res.length} {res.lower_bound} {res.node_count} "
              f"{elapsed_ms:.1f}")
    else:
        rounds = "" if res.rounds is None else f" rounds={res.rounds}"
        print(f"{args.algorithm} {res.length}{rounds}")

    if args.write_placement:
        _write(args.write_placement, format_placement(res.placement))
    return 0


def _cmd_bench(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    base_dir = os.path.dirname(os.path.abspath(args.config))
    # an absolute name stays as given; inputs are named from the config's path as given
    outputs = {key: os.path.join(base_dir, name) for key, name
               in (("output", cfg.output), ("summary", cfg.summary)) if name}
    inputs = [path for pattern in cfg.instances
              for path in glob.glob(os.path.join(os.path.dirname(args.config), pattern))]
    _check_outputs(outputs, [args.config, *inputs])
    records, summary, errors = run_suite(cfg, base_dir=base_dir)
    _write(outputs["output"], format_records_csv(records), f"{len(records)} records")
    if "summary" in outputs:
        _write(outputs["summary"], format_summary_csv(summary),
               f"{len(summary)} summary rows")

    for err in errors:
        print(f"error: {err.label} [{err.algorithm}]: {err.message}",
              file=sys.stderr)
    if errors and args.strict:
        return 1
    return 0


def _cmd_bpp_import(args) -> int:
    label = os.path.splitext(os.path.basename(args.bpp_instance))[0]
    out = args.out or f"{label}.inst"
    _check_outputs({"--out": out}, [args.bpp_instance, args.bpp_solution])
    with open(args.bpp_instance) as fh:
        instance_text = fh.read()
    with open(args.bpp_solution) as fh:
        solution_text = fh.read()
    inst = transform_bpp(*parse_bpp(instance_text, solution_text), label=label)
    opt = "opt not proven" if inst.known_opt is None else f"opt {inst.known_opt}"
    _write(out, format_instance(inst), f"{inst.n} charts, {opt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcpp",
        description="Two-bar chart strip packing: solvers and benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write random instance files")
    gen.add_argument("--family", choices=FAMILIES, default="arbitrary")
    gen.add_argument("--n", type=read_int, required=True)
    gen.add_argument("--count", type=read_int, default=1)
    gen.add_argument("--seed", type=read_int, default=0)
    gen.add_argument("--den", "-D", type=read_int, default=10 ** 6,
                     help="height denominator (default 10^6)")
    gen.add_argument("--out-dir", type=read_path, default=".")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run one algorithm on an instance")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", "-a", choices=ALGORITHMS, default="GA_LO")
    solve.add_argument("--time-limit", type=read_float, default=0.0,
                       help="EXACT time limit in seconds (0: none)")
    solve.add_argument("--node-limit", type=read_int, default=0,
                       help="EXACT node limit (0: none)")
    solve.add_argument("--lp-export", type=read_path, metavar="PATH",
                       help="write the model in LP format")
    solve.add_argument("--horizon", type=read_int, default=None,
                       help="cell horizon for --lp-export")
    solve.add_argument("--dump-graphs", type=read_path, metavar="DIR",
                       help="dump per-round union graphs (M1w, Mw) / the 1-union "
                       "digraph (A1, A2)")
    solve.add_argument("--write-placement", type=read_path, metavar="PATH")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a config-driven suite")
    bench.add_argument("config")
    bench.add_argument("--strict", action="store_true",
                       help="exit nonzero on any per-instance error")
    bench.set_defaults(func=_cmd_bench)

    imp = sub.add_parser("bpp-import",
                         help="derive an instance from a solved BPP instance")
    imp.add_argument("bpp_instance")
    imp.add_argument("bpp_solution")
    imp.add_argument("--out", type=read_path, metavar="PATH")
    imp.set_defaults(func=_cmd_bpp_import)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
