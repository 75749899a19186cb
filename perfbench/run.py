"""Benchmark of the bcpp bench path: ``parse_config`` -> ``run_suite``.

Usage, from the repository root:

    python3 perfbench/run.py --workload arbitrary-n200 --seed 1 --seconds 30 --trace 0

Inputs come from ``--seed``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  Every record is
checked independently of ``bcpp.model``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The process exits nonzero when a check fails or when ``src/bcpp`` is not
there to benchmark.  Result files and span traces go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    # benchmark the sources of this checkout, never an installed copy
    if not (SRC / "bcpp" / "__init__.py").is_file():
        sys.exit(f"error: no bcpp sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]

import bcpp  # noqa: E402  (needs the path set above)
from bcpp import harness  # noqa: E402
from perfbench import checks, speed, workloads  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A run starts no further pass after OVERRUN times --seconds (once it has
# MIN_PASSES), so that it ends in bounded time on a much slower machine.
OVERRUN = 1.5


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail_note(values: list[float]) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (0.99, 0.9, 0.75):
        if len(values) * (1 - q) >= 10:
            return f" p{round(q * 100)}={_percentile(values, q):.3f}"
    return ""


def _environment() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for package in ("networkx", "numpy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"git_rev": rev, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def _fresh_import_seconds() -> float:
    """Time ``import bcpp`` in a fresh interpreter, as each CLI call pays it."""
    code = ("import time; t = time.perf_counter(); import bcpp; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120, check=True)
    return float(proc.stdout)


class Run:
    """One benchmark run: set-up, passes, checks and metrics.

    Every timed call sits between two timings of the speed kernel; its
    scaled times are its raw times times ``speed.scale(before, after)``.
    """

    def __init__(self, workload, seed: int, passes: int):
        self.workload = workload
        self.seed = seed
        self.passes = passes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_raw: list[float] = []
        self.setup_scaled: list[float] = []
        self.records = []                 # untraced records, all passes
        self.scaled_ms: list[float] = []  # their scaled elapsed_ms
        self.traced_records = []
        self.csv_texts: list[str] = []    # one per untraced pass
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.traced_walls: list[float] = []
        self._kernel_s: float | None = None

    def _speed_scale(self) -> float:
        """Scale for the call timed since the previous kernel timing."""
        before = self._kernel_s
        self._kernel_s = speed.kernel_seconds()
        return speed.scale(before, self._kernel_s)

    def setup(self, base: str, tracer) -> tuple[list, str, dict]:
        """Set up ``SETUP_REPEATS`` times: import ``bcpp`` in a fresh
        interpreter, then generate, write and configure the inputs.  Return
        the last copy of the inputs."""
        speed.kernel_seconds()  # warm-up: a first call runs slower
        self._kernel_s = speed.kernel_seconds()
        for r in range(SETUP_REPEATS):
            last = r == SETUP_REPEATS - 1
            import_s = _fresh_import_seconds()
            if tracer is not None and last:
                tracer.tag = "setup"
                tracer.install()
            t0 = time.perf_counter()
            inputs, charts = workloads.write_inputs(
                self.workload, self.seed, self.passes, os.path.join(base, f"r{r}"))
            raw = import_s + time.perf_counter() - t0
            if tracer is not None and last:
                tracer.restore()
            self.setup_raw.append(raw)
            self.setup_scaled.append(raw * self._speed_scale())
        return inputs, os.path.join(base, f"r{SETUP_REPEATS - 1}"), charts

    def run_pass(self, pin, base_dir: str, charts: dict, tracer) -> None:
        wall = scaled_wall = 0.0
        csv_texts = []
        for suite, cfg in pin.configs:
            # frozen for the timed call: the records this run keeps would
            # otherwise add to the garbage collector's work inside it
            gc.collect()
            gc.freeze()
            if self._kernel_s is None:
                self._kernel_s = speed.kernel_seconds()
            if tracer is not None:
                tracer.tag = f"p{pin.index}/{suite.name}"
                tracer.install()
            t0 = time.perf_counter()
            records, _summary, errors = harness.run_suite(cfg, base_dir)
            elapsed = time.perf_counter() - t0
            gc.unfreeze()
            if tracer is not None:
                tracer.restore()
            factor = self._speed_scale()
            wall += elapsed
            scaled_wall += elapsed * factor
            problems = checks.check_records(records, charts)
            expected = sum(g.count for g in suite.groups) * len(suite.algorithms)
            self.attempted += expected
            self.failed += expected - len(records) + len(problems)
            self.problems.extend(problems)
            self.problems.extend(f"{e.label}/{e.algorithm}: {e.message}" for e in errors)
            if tracer is None:
                self.records.extend(records)
                self.scaled_ms.extend(r.elapsed_ms * factor for r in records)
                csv_texts.append(checks.records_csv_untimed(records))
            else:
                self.traced_records.extend(records)
        if tracer is None:
            self.walls.append(wall)
            self.scaled_walls.append(scaled_wall)
            self.csv_texts.append("".join(csv_texts))
        else:
            self.traced_walls.append(wall)


def trim_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share, as ``scipy.stats.trim_mean`` computes it."""
    k = int(cut * len(values))
    ordered = sorted(values)
    return statistics.fmean(ordered[k:len(ordered) - k])


def end_to_end(run: Run, charts: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics (scaled times), the timing samples behind each,
    and the same timings unscaled."""
    by_algo: dict[str, list] = {}
    scaled: dict[str, list[float]] = {}
    for rec, ms in zip(run.records, run.scaled_ms):
        by_algo.setdefault(rec.algorithm, []).append(rec)
        scaled.setdefault(rec.algorithm, []).append(ms)
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, list[float]] = {}
    raw: dict[str, float] = {}
    metrics["setup_s"] = (statistics.median(run.setup_scaled), "s")
    raw["setup_s"] = statistics.median(run.setup_raw)
    metrics["wall_s"] = (statistics.median(run.scaled_walls), "s")
    raw["wall_s"] = statistics.median(run.walls)
    for algo in workloads.ALL_ALGORITHMS:
        exact = algo == "EXACT"
        name = f"solve_ms.{algo}.trim_mean" if exact else f"solve_ms.{algo}.p50"
        stat = trim_mean if exact else statistics.median
        times = scaled.get(algo, [])
        metrics[name] = (stat(times) if times else 0.0, "ms")
        samples[name] = times
        raw_times = [r.elapsed_ms for r in by_algo.get(algo, [])]
        raw[name] = stat(raw_times) if raw_times else 0.0
    for algo in workloads.HEURISTICS:
        recs = by_algo.get(algo, [])
        bound = sum(checks.own_bound(charts[r.label]) for r in recs)
        metrics[f"len_over_lb.{algo}"] = (
            sum(r.length for r in recs) / bound if bound else 0.0, "ratio")
    exact = by_algo.get("EXACT", [])
    metrics["exact.proved_frac"] = (
        sum(r.ref_kind == "OPT" for r in exact) / len(exact) if exact else 0.0, "ratio")
    metrics["ok_frac"] = (1.0 - run.failed / run.attempted, "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, samples, raw


def per_layer(run: Run, tracer) -> dict:
    mw_rounds = sum(r.rounds or 0 for r in run.traced_records if r.algorithm == "Mw")
    metrics = tracing.layer_metrics(tracer.spans, mw_rounds)
    traced, untraced = sum(run.traced_walls), sum(run.walls)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def _print_layers(metrics: dict) -> None:
    parts = [f"{layer}.self.s" for layer in tracing.LAYERS]
    parts += ["harness.self.s", "harness.load_instances.s"]
    wall = metrics["trace.wall_s"][0]
    total = sum(metrics[p][0] for p in parts)
    for p in parts:
        share = metrics[p][0] / wall if wall else 0.0
        print(f"layer {p:28s} {metrics[p][0]:10.4f} s {100 * share:6.2f}%")
    print(f"layer self-time sum {total:.6f} s, traced wall {wall:.6f} s, "
          f"unaccounted {wall - total:.6f} s")
    print(f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s "
          f"(traced {wall:.4f} s - untraced {metrics['trace.untraced_wall_s'][0]:.4f} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(bcpp.__file__).resolve().parent != (SRC / "bcpp").resolve():
        print(f"error: bcpp imported from {bcpp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = _environment()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    passes = workload.passes(args.seconds)
    if args.trace:
        passes = workloads.trace_passes(passes)
    run = Run(workload, args.seed, passes)
    tracer = tracing.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="inputs-") as tmp:
        inputs, base_dir, charts = run.setup(tmp, tracer)
        deadline = time.perf_counter() + OVERRUN * args.seconds
        for pin in inputs:
            if pin.index >= workloads.MIN_PASSES and time.perf_counter() > deadline:
                break
            if tracer is None:
                run.run_pass(pin, base_dir, charts, None)
                continue
            # each traced pass also runs untraced, in alternating order
            for t in ((None, tracer) if pin.index % 2 == 0 else (tracer, None)):
                run.run_pass(pin, base_dir, charts, t)

    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    if tracer is None:
        metrics, samples, raw = end_to_end(run, charts)
    else:
        metrics, samples, raw = per_layer(run, tracer), {}, {}
        tracer.write_jsonl(str(OUT_DIR / f"spans-{stem}.jsonl"))

    csv_digest = checks.digest(run.csv_texts[:workloads.MIN_PASSES])
    correct = not run.problems
    print(f"workload {workload.name} seed {args.seed} passes {len(run.walls)} "
          f"attempted {run.attempted} failed {run.failed}")
    print("environment " + json.dumps(env))
    print(f"records sha256 (elapsed_ms blanked, first {workloads.MIN_PASSES} "
          f"passes) {csv_digest}")
    print(f"fail_frac {run.failed / run.attempted:.6f}")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        values = samples.get(name)
        note = f" n={len(values)}{_tail_note(values)}" if values else ""
        note += f" raw={raw[name]:.6g}" if name in raw else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    if tracer is not None:
        _print_layers(metrics)

    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "passes": run.passes,
                   "records_sha256": csv_digest, "environment": env,
                   "unscaled": raw,
                   "samples": {k: len(v) for k, v in samples.items()}}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
