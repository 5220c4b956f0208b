"""Benchmark of the ctxprob command line: one workload per process.

Usage (from the repository root):

    python3 bench/run.py --workload wide-grid --seed 1 --seconds 20 --trace 0

The workload's operations run back to back in this one process (a closed
loop, one client). Operation ``i`` gets the input seed ``seed + i``; its
inputs are written before its timer starts and its outputs are checked after
the timer stops. Operation 0 is a warm-up: it is checked but not timed, and
it is run again at the end to check that equal inputs give equal output
digests. Digests are also kept in ``bench/out/digests.json`` per source
tree, so later runs of the same code compare against earlier ones.

``--trace 0`` reports the end-to-end metrics: the median wall time of an
operation (``op_s``), the set-up time of a fresh interpreter importing the
package (``setup_s``) and the process's peak RSS (``peak_rss_mb``).
``--trace 1`` spends the first 40% of the time on untraced operations and
the rest on traced replays, and reports the per-layer metrics (see
``bench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
are a human-readable summary. Everything measured, with every span of a
traced run, is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters started to measure ``setup_s``, spread evenly over the
#: measured time so that they meet the machine's slow and fast spells alike;
#: the median is reported.
SETUP_SAMPLES = 15

#: Share of a traced run spent on untraced operations, the base of
#: ``trace.overhead_s``.
UNTRACED_SHARE = 0.4

#: Fewest timed operations per phase, even when ``--seconds`` runs out.
MIN_OPS = 3

# One thread per process unless the workload asks for a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# metric -> (span name, whether the span is a probe on the operation's inputs)
SPAN_METRICS = {
    "cli.load_scenario_s": ("cli.load_scenario", False),
    "cli.read_counts_csv_s": ("cli.read_counts_csv", False),
    "cli.analyze_lines_s": ("cli.analyze_lines", False),
    "cli.pattern_rows_s": ("cli.pattern_rows", False),
    "cli.simulation_document_s": ("cli.simulation_document", False),
    "cli.render_json_s": ("cli.render_json", False),
    "cli.emit_s": ("cli.emit", False),
    "twoslit.run_experiment_s": ("twoslit.run_experiment", False),
    "twoslit.validate_scenario_s": ("twoslit.validate_scenario", True),
    "twoslit.labels_s": ("twoslit.labels", True),
    "twoslit.analytic_pattern_s": ("twoslit.analytic_pattern", True),
    "twoslit.run_experiment.serial_s": ("twoslit.run_experiment.serial", True),
    "twoslit.decompose_empirical_s": ("twoslit.decompose_empirical", True),
    "core.empirical_distribution_s": ("core.empirical_distribution", True),
    "core.estimate_splitting_s": ("core.estimate_splitting", True),
    "core.validate_model_s": ("core.validate_model", True),
    "interference.decompose_s": ("interference.decompose", True),
}


class Tracer:
    """Spans held in memory: name, start, end, parent and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self.probe = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "op": self.op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "probe": self.probe,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def source_identity() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import ``ctxprob`` and its CLI.

    The wait has no timeout: with one, ``subprocess`` polls in steps of up
    to 50 ms, which would quantise the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctxprob, ctxprob.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


class DigestStore:
    """Output digests per (workload, input seed), kept per source tree."""

    def __init__(self, path: Path | None, scope: str) -> None:
        self.path = path
        self.scope = scope
        self.known: dict[str, str] = {}
        if path is not None and path.exists():
            self.known = json.loads(path.read_text(encoding="utf-8"))

    def check(self, seed: int, digest: str) -> str | None:
        """Record ``digest``; return the earlier digest if it differs."""
        key = f"{self.scope}:{seed}"
        earlier = self.known.setdefault(key, digest)
        return earlier if earlier != digest else None

    def save(self) -> None:
        if self.path is None:
            return
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


class Runner:
    """Runs, checks and records the operations of one workload."""

    def __init__(self, workload, seed: int, store: DigestStore) -> None:
        self.workload = workload
        self.seed = seed
        self.store = store
        self.records: list[dict] = []

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["error"])

    def execute(self, index: int, tracer: Tracer | None = None, timed: bool = True) -> None:
        seed = self.seed + index
        record = {"index": index, "seed": seed, "traced": tracer is not None,
                  "timed": timed, "error": None}
        self.records.append(record)
        try:
            op = self.workload.prepare(seed)
            gc.collect()
            if tracer is None:
                record["times"] = self.workload.run(op)
            else:
                tracer.op, tracer.probe = index, False
                self.workload.replay(op, tracer)
            facts = self.workload.check(op)
        except SystemExit as exc:
            record["error"] = f"exit {exc.code}"
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            record["error"] = repr(exc)
        else:
            record["facts"] = dataclasses.asdict(facts)
            earlier = self.store.check(seed, facts.digest)
            if earlier is not None:
                record["error"] = f"digest {facts.digest} differs from {earlier}"
        if record["error"]:
            print(f"operation {index} (seed {seed}) failed: {record['error']}", file=sys.stderr)

    def loop(self, first: int, deadline: float, tracer: Tracer | None = None,
             between=None) -> int:
        """Run operations from ``first`` until ``deadline``; call ``between`` before each."""
        index = first
        while index - first < MIN_OPS or time.perf_counter() < deadline:
            if between is not None:
                between()
            self.execute(index, tracer)
            index += 1
        return index


def layer_metrics(tracer: Tracer, workload, untraced: list[float], facts: list[dict]) -> dict:
    spans = tracer.spans
    ops = sorted({s["op"] for s in spans})
    per_op = {op: {} for op in ops}
    for s in spans:
        key = (s["name"], s["probe"])
        bucket = per_op[s["op"]]
        bucket[key] = bucket.get(key, 0.0) + s["end"] - s["start"]

    spec = workload.spec
    runs = getattr(spec, "runs", 0)
    values: dict[str, list[float]] = {name: [] for name in SPAN_METRICS}
    derived: dict[str, list[float]] = {
        name: [] for name in (
            "twoslit.stderr_self_s", "interference.decompose.self_s", "twoslit.pool_speedup",
            "twoslit.sample_task_us", "trace.unexplained_s", "traced_op",
        )
    }
    for op in ops:
        got = per_op[op]
        for name, key in SPAN_METRICS.items():
            values[name].append(got.get(key, 0.0))
        t = {name: values[name][-1] for name in SPAN_METRICS}
        derived["twoslit.stderr_self_s"].append(
            t["twoslit.decompose_empirical_s"] - t["interference.decompose_s"]
            - t["core.empirical_distribution_s"] - t["core.estimate_splitting_s"]
        )
        derived["interference.decompose.self_s"].append(
            t["interference.decompose_s"] - t["core.validate_model_s"]
        )
        serial, pooled = t["twoslit.run_experiment.serial_s"], t["twoslit.run_experiment_s"]
        derived["twoslit.pool_speedup"].append(serial / pooled if pooled > 0 else 0.0)
        if runs:
            other = 2 if runs == 1 else 1
            t_other = got[(f"twoslit.run_experiment.serial.runs{other}", True)]
            derived["twoslit.sample_task_us"].append(
                1e6 * (serial - t_other) / (3 * (runs - other))
            )
        commands = [(i, s) for i, s in enumerate(spans)
                    if s["op"] == op and s["parent"] is None and not s["probe"]]
        total = unexplained = 0.0
        for index, command in commands:
            length = command["end"] - command["start"]
            children = sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
            total += length
            unexplained += length - children
        derived["traced_op"].append(total)
        derived["trace.unexplained_s"].append(unexplained)

    metrics = {name: (median(v), "s") for name, v in values.items()}
    metrics["twoslit.stderr_self_s"] = (median(derived["twoslit.stderr_self_s"]), "s")
    metrics["interference.decompose.self_s"] = (median(derived["interference.decompose.self_s"]), "s")
    metrics["twoslit.pool_speedup"] = (median(derived["twoslit.pool_speedup"]), "x")
    metrics["twoslit.run_experiment.workers"] = (getattr(spec, "workers", 0), "count")
    metrics["twoslit.sample_task_us"] = (median(derived["twoslit.sample_task_us"]), "us")
    metrics["twoslit.sample.tasks"] = (3 * runs, "count")
    metrics["trace.unexplained_s"] = (median(derived["trace.unexplained_s"]), "s")
    metrics["trace.overhead_s"] = (median(derived["traced_op"]) - median(untraced), "s")
    metrics["trace.ops"] = (len(ops), "count")

    metrics["cli.output_bytes"] = (median([f["output_bytes"] for f in facts]), "count")
    for kind in ("trigonometric", "hyperbolic", "boundary", "degenerate"):
        metrics[f"interference.bins.{kind}"] = (median([f["kinds"][kind] for f in facts]), "count")
    shares = [100.0 * f["phase_within"] / f["phase_base"] for f in facts]
    metrics["twoslit.phase_within_3se"] = (median(shares), "%")
    metrics["twoslit.phase_within_3se.base"] = (median([f["phase_base"] for f in facts]), "count")
    return metrics


def run(name: str, spec, seed: int, seconds: float, trace: bool,
        store_path: Path | None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; return the result document."""
    import numpy

    from workloads import make_workload

    info = {
        "workload": name,
        "spec": {"kind": type(spec).__name__, **spec.__dict__},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        **source_identity(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(spec, workdir)
        scope = f"{name}:{hashlib.sha256(repr(spec).encode()).hexdigest()[:16]}:{info['src_sha256']}"
        store = DigestStore(store_path, scope)
        runner = Runner(workload, seed, store)
        runner.execute(0, timed=False)
        start = time.perf_counter()
        setup: list[float] = []

        def sample_setup() -> None:
            due = start + seconds * len(setup) / setup_samples
            if len(setup) < setup_samples and time.perf_counter() >= due:
                setup.extend(measure_setup(1))

        tracer = Tracer() if trace else None
        if trace:
            index = runner.loop(1, start + UNTRACED_SHARE * seconds)
            runner.loop(index, start + seconds, tracer)
        else:
            runner.loop(1, start + seconds, between=sample_setup)
            setup.extend(measure_setup(setup_samples - len(setup)))
        runner.execute(0, timed=False)  # equal inputs must give an equal digest
        store.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [sum(r["times"].values()) for r in runner.records
                if r["timed"] and "times" in r]
    per_command = {
        command: [r["times"][command] for r in runner.records if r["timed"] and "times" in r]
        for command in workload.commands
    }
    facts = [r["facts"] for r in runner.records if "facts" in r]
    if trace:
        metrics = layer_metrics(tracer, workload, untraced, facts)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": (median(untraced), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    attempted = len(runner.records)
    failed = runner.failed
    return {
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "samples": {"op_s": untraced, "setup_s": setup, **{f"{c}_s": v for c, v in per_command.items()}},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": runner.records,
        "spans": tracer.spans if trace else [],
    }


def summary_lines(result: dict) -> list[str]:
    info = result["info"]
    lines = [f"# env {json.dumps(info, sort_keys=True)}"]
    attempted, failed = result["attempted"], result["failed"]
    lines.append(
        f"{info['workload']} seed={info['seed']} trace={info['trace']}: "
        f"{attempted} operations, {failed} failed, error_rate {failed / attempted:.4f}"
    )
    for name, samples in result["samples"].items():
        if not samples:
            continue
        line = f"  {name:<28} median {median(samples):.6f} s  n={len(samples)}"
        if (t := tail(samples)) is not None:
            line += f"  p{t[0]} {t[1]:.6f} s"
        lines.append(line)
    for name, metric in result["metrics"].items():
        if name not in result["samples"]:
            lines.append(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    return lines


def import_program() -> str | None:
    """Import ctxprob from this checkout's ``src``; return a problem, if any."""
    if not (SRC / "ctxprob" / "__init__.py").is_file():
        return f"no ctxprob sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import ctxprob

    if Path(ctxprob.__file__).resolve().parent != SRC / "ctxprob":
        return f"imported ctxprob from {ctxprob.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), OUT_DIR / "digests.json")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, default=str) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
