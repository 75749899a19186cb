"""Two-bar chart strip packing: domain model, solvers and benchmark tools."""

__version__ = "0.1.0"

from .model import (BarChart, Bounds, Evaluation, FormatError, Instance,
                    Placement, Solved, assemble_placement, compact,
                    evaluate_packing, format_instance, format_placement,
                    lower_bounds, parse_instance)
from .unions import merge_union
from .greedy import ga_lo, lex_order
from .matching import (Matching, UnionEdge, WeightedGraph, build_union_graph,
                       chart_rows, dump_graph, max_cardinality_matching,
                       max_weight_matching, solve_mw)
from .bigpipe import (ArcDigraph, PathCover, build_arc_digraph,
                      dump_digraph, form_big_matchings, form_big_scan,
                      path_cover, solve_big_pipeline)
from .blp import export_lp, oracle_opt, solve_exact
from .generators import (BppInstance, BppSolution, bpp_witness_placement,
                         format_bpp_instance, format_bpp_solution,
                         gen_bpp_fullbins, gen_random, parse_bpp,
                         parse_bpp_instance, transform_bpp)
from .harness import (SOLVERS, RunRecord, SuiteConfig, SummaryRow,
                      format_records_csv, format_summary_csv, parse_config,
                      run_algorithm, run_suite, summarize)
