"""Benchmark harness: run algorithm suites over instance sets, emit CSV.

A suite is described by a flat key=value config (see ``parse_config``); it
names instance files and/or generator specs, the algorithms to run, and the
reference policy.  Each (instance, algorithm) pair yields one RunRecord with
the packing length, the reference value (known optimum when recorded, else
an exact solve when enabled and it finishes, else the combined lower bound),
the ratio R = length/reference and the absolute error length - reference.

Records are sorted by (label, algorithm), so a rerun with the same seeds
writes byte-identical CSV as long as timing output stays disabled.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import bigpipe, blp, greedy, matching
from .generators import FAMILIES, gen_random
from .model import Instance, Placement, evaluate_packing, lower_bounds, parse_instance

# The heuristics by name, each called as solver(instance, dump=None) -> Solved.
# Every entry looks its solver up in its module when called, so a rebound
# module attribute (a tracer's wrapper, a test's double) sees every call.
SOLVERS = {
    "GA_LO": lambda inst, dump=None: greedy.ga_lo(inst),
    # the CSV rounds column holds Mw's rounds; M1w's cell stays blank
    "M1w": lambda inst, dump=None: replace(
        matching.solve_mw(inst, max_rounds=1, dump=dump), rounds=None),
    "Mw": lambda inst, dump=None: matching.solve_mw(inst, dump=dump),
    "A1": lambda inst, dump=None: bigpipe.solve_big_pipeline(
        bigpipe.form_big_scan(inst.charts), dump=dump),
    "A2": lambda inst, dump=None: bigpipe.solve_big_pipeline(
        bigpipe.form_big_matchings(inst.charts), dump=dump),
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
    ref_kind: str  # OPT | WITNESS | LB
    r_value: Fraction
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
        return [gen_random(self.n, self.seed + k, self.family, self.den)
                for k in range(self.count)]


@dataclass
class SuiteConfig:
    instances: list[str] = field(default_factory=list)
    generate: list[GenSpec] = field(default_factory=list)
    algorithms: tuple[str, ...] = ("GA_LO",)
    reference: str = "auto"          # auto | lb
    bpp_reference: str = "recorded"  # recorded | witness
    exact_nodes: int = 0             # 0 disables exact solves for references
    exact_time: float = 0.0          # seconds; 0 disables the time limit
    timing: bool = False
    output: str = "results.csv"
    summary: str = ""
    strict: bool = False


def parse_config(text: str) -> SuiteConfig:
    cfg = SuiteConfig()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "instances":
            cfg.instances.append(value)
        elif key == "generate":
            cfg.generate.append(_parse_genspec(value, no))
        elif key == "algorithms":
            algos = tuple(tok.strip() for tok in value.split(",") if tok.strip())
            unknown = [a for a in algos if a not in ALGORITHMS]
            if unknown:
                raise ValueError(f"config line {no}: unknown algorithms {unknown}")
            cfg.algorithms = algos
        elif key == "reference":
            if value not in ("auto", "lb"):
                raise ValueError(f"config line {no}: reference must be auto or lb")
            cfg.reference = value
        elif key == "bpp_reference":
            if value not in ("recorded", "witness"):
                raise ValueError(f"config line {no}: bpp_reference must be "
                                 "recorded or witness")
            cfg.bpp_reference = value
        elif key == "exact_nodes":
            cfg.exact_nodes = _number(value, no, key, least=0)
        elif key == "exact_time":
            cfg.exact_time = _number(value, no, key, kind=float, least=0)
        elif key in ("timing", "strict"):
            if value not in ("on", "off"):
                raise ValueError(f"config line {no}: {key} must be on or off")
            setattr(cfg, key, value == "on")
        elif key == "output":
            cfg.output = value
        elif key == "summary":
            cfg.summary = value
        else:
            raise ValueError(f"config line {no}: unknown key {key!r}")
    return cfg


def _number(value: str, line_no: int, key: str, kind=int,
            least: int | None = None):
    try:
        number = kind(value)
    except ValueError:
        raise ValueError(f"config line {line_no}: {key} must be a number, "
                         f"got {value!r}") from None
    if least is not None and not number >= least:
        raise ValueError(f"config line {line_no}: {key} must be at least {least}")
    return number


def _parse_genspec(value: str, line_no: int) -> GenSpec:
    fields = {}
    for token in value.split():
        if "=" not in token:
            raise ValueError(f"config line {line_no}: bad generator token {token!r}")
        k, v = token.split("=", 1)
        fields[k] = v
    try:
        family = fields.pop("family")
        spec = GenSpec(family=family,
                       n=_number(fields.pop("n"), line_no, "n", least=1),
                       count=_number(fields.pop("count", "1"), line_no, "count",
                                     least=1),
                       seed=_number(fields.pop("seed", "0"), line_no, "seed"),
                       den=_number(fields.pop("D", str(10 ** 6)), line_no, "D",
                                   least=2))
    except KeyError as exc:
        raise ValueError(f"config line {line_no}: generator needs {exc}") from None
    if fields:
        raise ValueError(f"config line {line_no}: unknown generator keys "
                         f"{sorted(fields)}")
    if spec.family not in FAMILIES:
        raise ValueError(f"config line {line_no}: unknown family {spec.family!r}")
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
                    inst = parse_instance(fh.read(), label=label)
                if inst.known_opt is not None and not inst.family:
                    # only the bin-packing transform writes opt lines
                    inst = replace(inst, family="bpp")
                instances.append(inst)
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
                  exact_time: float = 0.0) -> tuple[int, Placement, int | None]:
    """Run one algorithm; returns (length, placement, rounds-or-nodes)."""
    if name == "EXACT":
        res = blp.solve_exact(instance,
                              time_limit=exact_time or None,
                              node_limit=exact_nodes or None)
        return res.best_length, res.placement, res.node_count
    if name not in SOLVERS:
        raise ValueError(f"unknown algorithm {name!r}")
    solved = SOLVERS[name](instance)
    return solved.length, solved.placement, solved.rounds


def _resolve_reference(instance: Instance, cfg: SuiteConfig) -> tuple[int, str]:
    if cfg.reference == "auto" and instance.known_opt is not None:
        if instance.family == "bpp" and cfg.bpp_reference == "witness":
            return instance.known_opt + 1, "WITNESS"
        return instance.known_opt, "OPT"
    if cfg.reference == "auto" and (cfg.exact_nodes or cfg.exact_time):
        res = blp.solve_exact(instance,
                              time_limit=cfg.exact_time or None,
                              node_limit=cfg.exact_nodes or None)
        if res.status == "optimal":
            return res.best_length, "OPT"
    return lower_bounds(instance).combined, "LB"


def _run_one_instance(instance: Instance, cfg: SuiteConfig,
                      ) -> list[RunRecord | ErrorRecord]:
    out: list[RunRecord | ErrorRecord] = []
    try:
        reference, ref_kind = _resolve_reference(instance, cfg)
    except Exception as exc:  # noqa: BLE001 - reported per instance
        return [ErrorRecord(label=instance.label, algorithm="-",
                            message=f"reference failed: {exc}")]
    for name in cfg.algorithms:
        try:
            t0 = time.perf_counter()
            length, placement, rounds = run_algorithm(
                instance, name, cfg.exact_nodes, cfg.exact_time)
            elapsed = (time.perf_counter() - t0) * 1000.0
            check = evaluate_packing(instance, placement)
            if not check.feasible or check.length != length:
                raise AssertionError(
                    f"audit failed: feasible={check.feasible} "
                    f"length={check.length} reported={length}")
            out.append(RunRecord(
                label=instance.label, n=instance.n, family=instance.family,
                algorithm=name, length=length, reference=reference,
                ref_kind=ref_kind, r_value=Fraction(length, reference),
                abs_error=length - reference,
                elapsed_ms=elapsed if cfg.timing else None,
                rounds=rounds, placement=placement))
        except Exception as exc:  # noqa: BLE001 - reported per instance
            out.append(ErrorRecord(label=instance.label, algorithm=name,
                                   message=str(exc)))
    return out


def run_suite(cfg: SuiteConfig, base_dir: str = ".",
              ) -> tuple[list[RunRecord], list[SummaryRow], list[ErrorRecord]]:
    instances, errors = load_instances(cfg, base_dir)
    records: list[RunRecord] = []
    for instance in instances:
        for item in _run_one_instance(instance, cfg):
            if isinstance(item, RunRecord):
                records.append(item)
            else:
                errors.append(item)
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
        ratios = [float(r.r_value) for r in recs]
        mean_r = sum(ratios) / len(ratios)
        var_r = sum((x - mean_r) ** 2 for x in ratios) / len(ratios)
        rows.append(SummaryRow(
            family=family, n=n, algorithm=algorithm, count=len(recs),
            err_min=min(errs), err_max=max(errs),
            err_av=sum(errs) / len(errs),
            r_mean=mean_r, r_sd=var_r ** 0.5))
    return rows


def format_records_csv(records: list[RunRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        elapsed = "" if r.elapsed_ms is None else f"{r.elapsed_ms:.3f}"
        rounds = "" if r.rounds is None else str(r.rounds)
        lines.append(",".join((
            r.label, str(r.n), r.family, r.algorithm, str(r.length),
            str(r.reference), r.ref_kind, f"{float(r.r_value):.6f}",
            str(r.abs_error), elapsed, rounds)))
    return "\n".join(lines) + "\n"


def format_summary_csv(rows: list[SummaryRow]) -> str:
    lines = ["family,n,algorithm,count,err_min,err_max,err_av,r_mean,r_sd"]
    for row in rows:
        lines.append(",".join((
            row.family, str(row.n), row.algorithm, str(row.count),
            str(row.err_min), str(row.err_max), f"{row.err_av:.6f}",
            f"{row.r_mean:.6f}", f"{row.r_sd:.6f}")))
    return "\n".join(lines) + "\n"
