"""Benchmark harness: run algorithm suites over instance sets, emit CSV.

A suite is described by a flat key=value config (see ``parse_config``); it
names instance files and/or generator specs, the algorithms to run, and the
reference policy.  Each (instance, algorithm) pair yields one RunRecord with
the packing length, the reference (known optimum when recorded, else an exact
solve when enabled and it finishes, else the lower bound ``combined`` = max(L2,
adjacency)), the ratio R = length/reference and the error length - reference.

A suite first resolves every instance's reference, then runs each algorithm
over all instances in turn, M1w before Mw whatever the config order, so no
algorithm is always timed right after an exact search.  Where M1w's record
on an instance passed its checks, Mw goes on from M1w's round 1, and its
``elapsed_ms`` is M1w's time plus the continuation's: what Mw costs alone.

A suite budgets its exact searches by nodes only, and records are sorted by
(label, algorithm), so a rerun with the same seeds writes byte-identical CSV
as long as timing output stays disabled.
"""

from __future__ import annotations

import csv
import glob
import io
import os
import time
from dataclasses import dataclass, field, replace

from . import bigpipe, blp, greedy, matching
from .generators import FAMILIES, gen_random
from .model import (FormatError, Instance, Placement, Solved, evaluate_packing,
                    lower_bounds, parse_instance, read_int)

# The heuristics by name, each called as solver(instance, dump=None) -> Solved;
# Mw also takes ``start=``, an earlier M1w or Mw ``Solved``, to go on from, and
# A1 and A2 cover the rows their formation makes from the instance.  Every
# entry looks its solver up in its module when called, so a rebound module
# attribute (a tracer's wrapper, a test's double) sees every call.
SOLVERS = {
    "GA_LO": lambda inst, dump=None: greedy.ga_lo(inst),
    # the CSV rounds column holds Mw's rounds; M1w's cell stays blank
    "M1w": lambda inst, dump=None: replace(
        matching.solve_mw(inst, max_rounds=1, dump=dump), rounds=None),
    "Mw": lambda inst, dump=None, start=None: matching.solve_mw(
        inst, dump=dump, start=start),
    "A1": lambda inst, dump=None: bigpipe.solve_big_pipeline(
        bigpipe.form_big_scan(inst), inst.den, dump=dump),
    "A2": lambda inst, dump=None: bigpipe.solve_big_pipeline(
        bigpipe.form_big_matchings(inst), inst.den, dump=dump),
}

ALGORITHMS = (*SOLVERS, "EXACT")

CSV_COLUMNS = ("label", "n", "family", "algorithm", "length", "reference",
               "ref_kind", "R", "abs_error", "elapsed_ms", "rounds")


@dataclass(frozen=True)
class RunRecord:
    label: str
    n: int
    family: str
    algorithm: str
    length: int
    reference: int
    ref_kind: str  # OPT | LB
    r_value: float
    abs_error: int
    elapsed_ms: float | None
    rounds: int | None
    placement: Placement


@dataclass(frozen=True)
class ErrorRecord:
    label: str
    algorithm: str
    message: str


@dataclass(frozen=True)
class SummaryRow:
    family: str
    n: int
    algorithm: str
    count: int
    err_min: int
    err_max: int
    err_av: float
    r_mean: float
    r_sd: float


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    count: int
    seed: int
    den: int

    def instances(self) -> list[Instance]:
        if self.count < 1:
            raise ValueError("need count >= 1")
        return [gen_random(self.n, self.seed + k, self.family, self.den)
                for k in range(self.count)]


@dataclass
class SuiteConfig:
    instances: list[str] = field(default_factory=list)
    generate: list[GenSpec] = field(default_factory=list)
    algorithms: tuple[str, ...] = ("GA_LO",)
    reference: str = "auto"          # auto | lb
    exact_nodes: int = 0             # node budget; 0: none, and no exact reference
    timing: bool = False
    output: str = "results.csv"
    summary: str = ""


# The keys that take one word, and the words each allows ("on"/"off" -> bool).
_CONFIG_WORDS = {"reference": ("auto", "lb"), "timing": ("on", "off")}


def parse_config(text: str) -> SuiteConfig:
    """Read a bench config; ``#`` starts a comment anywhere on a line, only
    ``instances`` and ``generate`` may repeat, ``EXACT`` needs an
    ``exact_nodes`` budget, and every fault is a ``FormatError`` that starts
    ``line N:``."""
    cfg = SuiteConfig()
    seen: set[str] = set()
    algorithms_line = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "instances":
            if not value:
                raise FormatError(f"line {no}: instances needs a pattern")
            cfg.instances.append(value)
        elif key == "generate":
            cfg.generate.append(_parse_genspec(value, no))
        elif key == "algorithms":
            algos = tuple(tok.strip() for tok in value.split(",") if tok.strip())
            unknown = [a for a in algos if a not in ALGORITHMS]
            if unknown:
                raise FormatError(f"line {no}: unknown algorithms {unknown}")
            if not algos or len(set(algos)) < len(algos):
                raise FormatError(f"line {no}: algorithms must name one or more, "
                                  "none twice")
            cfg.algorithms = algos
            algorithms_line = no
        elif key in _CONFIG_WORDS:
            if value not in _CONFIG_WORDS[key]:
                raise FormatError(f"line {no}: {key} must be "
                                  + " or ".join(_CONFIG_WORDS[key]))
            setattr(cfg, key, {"on": True, "off": False}.get(value, value))
        elif key == "exact_nodes":
            cfg.exact_nodes = _int_at_least(value, no, key, least=0)
        elif key in ("output", "summary"):
            if key == "output" and not value:
                raise FormatError(f"line {no}: output needs a file name")
            setattr(cfg, key, value)
        else:
            raise FormatError(f"line {no}: unknown key {key!r}")
        if key in seen:  # checked after the value, whose faults come first
            raise FormatError(f"line {no}: {key} given twice")
        if key not in ("instances", "generate"):
            seen.add(key)
    if "EXACT" in cfg.algorithms and cfg.exact_nodes < 1:  # else it never ends
        raise FormatError(f"line {algorithms_line}: EXACT needs exact_nodes "
                          "of at least 1")
    return cfg


def _int_at_least(token: str, line_no: int, key: str, least: int) -> int:
    number = read_int(token, line_no, f"an integer {key}")
    if number < least:
        raise FormatError(f"line {line_no}: {key} must be at least {least}")
    return number


def _parse_genspec(value: str, line_no: int) -> GenSpec:
    given: dict[str, str] = {}
    for token in value.split():
        if "=" not in token:
            raise FormatError(f"line {line_no}: bad generator token {token!r}")
        k, v = token.split("=", 1)
        if k in given:
            raise FormatError(f"line {line_no}: generator key {k!r} given twice")
        given[k] = v
    fields = {"count": "1", "seed": "0", "D": str(10 ** 6), **given}
    for key in ("family", "n"):
        if key not in fields:
            raise FormatError(f"line {line_no}: generator needs {key!r}")
    spec = GenSpec(family=fields.pop("family"),
                   n=_int_at_least(fields.pop("n"), line_no, "n", least=1),
                   count=_int_at_least(fields.pop("count"), line_no, "count", least=1),
                   seed=read_int(fields.pop("seed"), line_no, "an integer seed"),
                   den=_int_at_least(fields.pop("D"), line_no, "D", least=2))
    if fields:
        raise FormatError(f"line {line_no}: unknown generator keys "
                          f"{sorted(fields)}")
    if spec.family not in FAMILIES:
        raise FormatError(f"line {line_no}: unknown family {spec.family!r}")
    return spec


def load_instances(cfg: SuiteConfig, base_dir: str = ".",
                   ) -> tuple[list[Instance], list[ErrorRecord]]:
    instances: list[Instance] = []
    errors: list[ErrorRecord] = []
    for pattern in cfg.instances:
        paths = sorted(glob.glob(os.path.join(base_dir, pattern)))
        if not paths:
            errors.append(ErrorRecord(label=pattern, algorithm="-",
                                      message="no files match"))
        for path in paths:
            label = os.path.splitext(os.path.basename(path))[0]
            try:
                with open(path) as fh:
                    instances.append(parse_instance(fh.read(), label=label))
            except (OSError, ValueError) as exc:
                errors.append(ErrorRecord(label=label, algorithm="-",
                                          message=str(exc)))
    for spec in cfg.generate:
        try:
            instances.extend(spec.instances())
        except ValueError as exc:
            errors.append(ErrorRecord(label=repr(spec), algorithm="-",
                                      message=str(exc)))
    return instances, errors


def run_algorithm(instance: Instance, name: str, exact_nodes: int = 0,
                  exact_time: float = 0.0, dump=None,
                  start: Solved | None = None) -> Solved:
    """Run one algorithm; returns its solver's own ``Solved``, unchanged.
    ``start`` is an earlier M1w or Mw ``Solved`` for Mw to go on from."""
    if start is not None and name != "Mw":
        raise ValueError(f"only Mw goes on from a start, not {name!r}")
    if name == "EXACT":
        return blp.solve_exact(instance, time_limit=exact_time, node_limit=exact_nodes)
    if name not in SOLVERS:
        raise ValueError(f"unknown algorithm {name!r}")
    if start is not None:
        return SOLVERS[name](instance, dump=dump, start=start)
    return SOLVERS[name](instance, dump=dump)


def audit(instance: Instance, solved: Solved) -> None:
    """Raise ``ValueError`` unless ``solved`` is feasible at its reported length."""
    check = evaluate_packing(instance, solved.placement)
    if not check.feasible or check.length != solved.length:
        raise ValueError(f"audit failed: feasible={check.feasible} "
                         f"length={check.length} reported={solved.length}")


def _resolve_reference(instance: Instance, cfg: SuiteConfig) -> tuple[int, str]:
    if cfg.reference == "auto" and instance.known_opt is not None:
        bound = lower_bounds(instance)
        if instance.known_opt < bound:
            raise ValueError(f"opt {instance.known_opt} is below the bound {bound}")
        return instance.known_opt, "OPT"
    if cfg.reference == "auto" and cfg.exact_nodes:
        res = blp.solve_exact(instance, node_limit=cfg.exact_nodes)
        return res.lower_bound, "OPT" if res.status == "optimal" else "LB"
    return lower_bounds(instance), "LB"


def run_suite(cfg: SuiteConfig, base_dir: str = ".",
              ) -> tuple[list[RunRecord], list[SummaryRow], list[ErrorRecord]]:
    instances, errors = load_instances(cfg, base_dir)
    resolved: list[tuple[Instance, int, str]] = []
    labels: set[str] = set()
    for instance in instances:
        if instance.label in labels:
            errors.append(ErrorRecord(label=instance.label, algorithm="-",
                                      message="label repeats an earlier instance"))
            continue
        labels.add(instance.label)
        try:
            resolved.append((instance, *_resolve_reference(instance, cfg)))
        except Exception as exc:  # noqa: BLE001 - reported per instance
            errors.append(ErrorRecord(label=instance.label, algorithm="-",
                                      message=f"reference failed: {exc}"))
    records: list[RunRecord] = []
    # (label, "Mw"): M1w's checked solve there, for Mw to go on from, and its ms
    starts: dict[tuple[str, str], tuple[Solved, float]] = {}
    for name in sorted(cfg.algorithms, key=lambda a: a == "Mw"):
        for instance, reference, ref_kind in resolved:
            start, before = starts.get((instance.label, name), (None, 0.0))
            try:
                t0 = time.perf_counter()
                solved = run_algorithm(instance, name, cfg.exact_nodes, start=start)
                elapsed = before + (time.perf_counter() - t0) * 1000.0
                audit(instance, solved)
                length = solved.length
                if length < reference:
                    raise ValueError(f"length {length} is below the {ref_kind} "
                                     f"reference {reference}")
                records.append(RunRecord(
                    label=instance.label, n=instance.n, family=instance.family,
                    algorithm=name, length=length, reference=reference,
                    ref_kind=ref_kind, r_value=length / reference,
                    abs_error=length - reference,
                    elapsed_ms=elapsed if cfg.timing else None,
                    rounds=solved.node_count if name == "EXACT" else solved.rounds,
                    placement=solved.placement))
                if name == "M1w":
                    starts[instance.label, "Mw"] = solved, elapsed
            except Exception as exc:  # noqa: BLE001 - reported per instance
                errors.append(ErrorRecord(label=instance.label, algorithm=name,
                                          message=str(exc)))
    records.sort(key=lambda r: (r.label, r.algorithm))
    errors.sort(key=lambda e: (e.label, e.algorithm))
    return records, summarize(records), errors


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Per (family, n, algorithm): min/max/mean absolute error and the mean
    and population standard deviation of R."""
    groups: dict[tuple[str, int, str], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.family, rec.n, rec.algorithm), []).append(rec)
    rows = []
    for (family, n, algorithm) in sorted(groups):
        recs = groups[(family, n, algorithm)]
        errs = [r.abs_error for r in recs]
        ratios = [r.r_value for r in recs]
        mean_r = sum(ratios) / len(ratios)
        var_r = sum((x - mean_r) ** 2 for x in ratios) / len(ratios)
        rows.append(SummaryRow(
            family=family, n=n, algorithm=algorithm, count=len(recs),
            err_min=min(errs), err_max=max(errs),
            err_av=sum(errs) / len(errs),
            r_mean=mean_r, r_sd=var_r ** 0.5))
    return rows


def _csv_text(rows) -> str:
    """CSV with "\n" line ends: a cell holding a comma or a quote is quoted,
    and ``None`` writes an empty cell."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def format_records_csv(records: list[RunRecord]) -> str:
    return _csv_text([CSV_COLUMNS, *((
        r.label, r.n, r.family, r.algorithm, r.length, r.reference, r.ref_kind,
        f"{r.r_value:.6f}", r.abs_error,
        None if r.elapsed_ms is None else f"{r.elapsed_ms:.3f}", r.rounds)
        for r in records)])


def format_summary_csv(rows: list[SummaryRow]) -> str:
    header = "family,n,algorithm,count,err_min,err_max,err_av,r_mean,r_sd"
    return _csv_text([header.split(","), *((
        row.family, row.n, row.algorithm, row.count, row.err_min, row.err_max,
        f"{row.err_av:.6f}", f"{row.r_mean:.6f}", f"{row.r_sd:.6f}")
        for row in rows)])
