"""Command line front-end.

Subcommands: ``gen`` writes random instance files, ``solve`` runs one
algorithm on one instance, ``bench`` executes a config-driven suite and
writes CSV reports, ``bpp-import`` converts a bin-packing instance plus
solution into a packing instance, with its optimum where one is proved.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .blp import build_blp, export_lp, solve_exact
from .generators import FAMILIES, parse_bpp, transform_bpp
from .harness import (ALGORITHMS, SOLVERS, GenSpec, format_records_csv,
                      format_summary_csv, parse_config, run_suite)
from .model import format_instance, format_placement, parse_instance


def _cmd_gen(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for inst in GenSpec(args.family, args.n, args.count, args.seed,
                        args.den).instances():
        path = os.path.join(args.out_dir, f"{inst.label}.inst")
        with open(path, "w") as fh:
            fh.write(format_instance(inst))
        print(path)
    return 0


def _cmd_solve(args) -> int:
    # read like exact_time and exact_nodes in a bench config
    for flag, limit in (("--time-limit", args.time_limit),
                        ("--node-limit", args.node_limit)):
        if not 0 <= limit < math.inf:  # nor is a NaN
            raise ValueError(f"{flag} must be at least 0 and finite, got {limit}")
    if args.horizon is not None and not args.lp_export:
        raise ValueError("--horizon needs --lp-export")
    label = os.path.splitext(os.path.basename(args.instance))[0]
    with open(args.instance) as fh:
        inst = parse_instance(fh.read(), label=label)

    if args.lp_export:
        model = build_blp(inst, horizon=args.horizon)
        with open(args.lp_export, "w") as fh:
            fh.write(export_lp(model))
        print(f"lp model ({model.x_count + model.y_count} binaries) -> "
              f"{args.lp_export}")

    dump_dir = args.dump_graphs
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)

    def dump(name: str, text: str) -> None:
        with open(os.path.join(dump_dir, f"{label}-{name}.txt"), "w") as fh:
            fh.write(text)

    if args.algorithm == "EXACT":
        res = solve_exact(inst, time_limit=args.time_limit, node_limit=args.node_limit)
        print(res.report_line())
    else:
        res = SOLVERS[args.algorithm](inst, dump=dump if dump_dir else None)
        rounds = "" if res.rounds is None else f" rounds={res.rounds}"
        print(f"{args.algorithm} {res.length}{rounds}")

    if args.write_placement:
        with open(args.write_placement, "w") as fh:
            fh.write(format_placement(res.placement))
    return 0


def _cmd_bench(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    base_dir = os.path.dirname(os.path.abspath(args.config))
    records, summary, errors = run_suite(cfg, base_dir=base_dir)

    def write(name: str, text: str, what: str) -> None:
        path = os.path.join(base_dir, name)  # an absolute name stays as given
        with open(path, "w") as fh:
            fh.write(text)
        print(f"{what} -> {path}")

    write(cfg.output, format_records_csv(records), f"{len(records)} records")
    if cfg.summary:
        write(cfg.summary, format_summary_csv(summary),
              f"{len(summary)} summary rows")

    for err in errors:
        print(f"error: {err.label} [{err.algorithm}]: {err.message}",
              file=sys.stderr)
    if errors and args.strict:
        return 1
    return 0


def _cmd_bpp_import(args) -> int:
    with open(args.bpp_instance) as fh:
        instance_text = fh.read()
    with open(args.bpp_solution) as fh:
        solution_text = fh.read()
    bpp, sol = parse_bpp(instance_text, solution_text)
    label = args.label or os.path.splitext(os.path.basename(args.bpp_instance))[0]
    inst = transform_bpp(bpp, sol, label=label)
    out = args.out or f"{label}.inst"
    with open(out, "w") as fh:
        fh.write(format_instance(inst))
    opt = "opt not proven" if inst.known_opt is None else f"opt {inst.known_opt}"
    print(f"{inst.n} charts, {opt} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcpp",
        description="Two-bar chart strip packing: solvers and benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write random instance files")
    gen.add_argument("--family", choices=FAMILIES, default="arbitrary")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--den", "-D", type=int, default=10 ** 6,
                     help="height denominator (default 10^6)")
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run one algorithm on an instance")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", "-a", choices=ALGORITHMS, default="GA_LO")
    solve.add_argument("--time-limit", type=float, default=0.0,
                       help="EXACT time limit in seconds (0: none)")
    solve.add_argument("--node-limit", type=int, default=0,
                       help="EXACT node limit (0: none)")
    solve.add_argument("--lp-export", metavar="PATH",
                       help="write the model in LP format")
    solve.add_argument("--horizon", type=int, default=None,
                       help="cell horizon for --lp-export")
    solve.add_argument("--dump-graphs", metavar="DIR",
                       help="dump per-round union graphs (M1w, Mw) / the 1-union "
                       "digraph (A1, A2)")
    solve.add_argument("--write-placement", metavar="PATH")
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
    imp.add_argument("--out", metavar="PATH")
    imp.add_argument("--label")
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
