"""Smoke check of the benchmark itself, at tiny sizes (256 bins).

    python3 bench/smoke.py

Runs every workload for about a second, untraced and traced, and checks that
no operation fails and that every metric named in ``BENCHMARK.json`` is
emitted as a finite number. Then it corrupts the output of each command in
turn and checks that the benchmark counts operations as failed. Prints one
line per check and exits 1 if any check does not hold.
"""

from __future__ import annotations

import json
import math
import sys
from unittest import mock

import run

SEED = 1
SECONDS = 1.0


def tiny_specs(workloads) -> dict:
    return {
        "wide-grid": workloads.SimulateSpec(bins=256, n_emitted=10**6, runs=1, workers=1),
        "many-runs": workloads.SimulateSpec(bins=256, n_emitted=10**5, runs=16, workers=2),
        "tables": workloads.TablesSpec(
            bins=256, n=10**6, shift=0.5, sigma=0.75, wavenumber=5.0, offset=math.pi / 2,
            pattern_bins=256,
        ),
    }


def corruptions(cli) -> dict:
    """Per command, a patch that makes its output wrong in a way the checks see."""
    report_document = cli.report_document
    analyze_lines = cli.analyze_lines
    pattern_rows = cli.pattern_rows

    def extra_count(report):
        doc = report_document(report)
        counts = doc["counts"]["S"]["counts"]
        first = next(iter(counts))
        counts[first] += 1
        return doc

    def lost_summary(report):
        return analyze_lines(report)[:-1]

    def wrong_pattern(scenario):
        rows = pattern_rows(scenario)
        rows[0][5] = cli.fmt15(float(rows[0][5]) + 1e-6)
        return rows

    return {
        "simulate": mock.patch.object(cli, "report_document", extra_count),
        "analyze": mock.patch.object(cli, "analyze_lines", lost_summary),
        "pattern": mock.patch.object(cli, "pattern_rows", wrong_pattern),
    }


def main() -> int:
    problem = run.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import ctxprob.cli as cli
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    specs = tiny_specs(workloads)
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    def bench_run(name: str, trace: int) -> dict:
        return run.run(name, specs[name], SEED, SECONDS, bool(trace), None, setup_samples=2)

    for name in specs:
        for trace in (0, 1):
            result = bench_run(name, trace)
            metrics = result["metrics"]
            report(result["failed"] == 0,
                   f"{name} trace={trace}: {result['failed']}/{result['attempted']} failed")
            missing = names[trace] - set(metrics)
            extra = set(metrics) - names[trace]
            report(not missing and not extra,
                   f"{name} trace={trace}: metrics match BENCHMARK.json "
                   f"(missing {sorted(missing)}, extra {sorted(extra)})")
            finite = all(math.isfinite(m["value"]) for m in metrics.values())
            positive = trace or all(m["value"] > 0 for m in metrics.values())
            report(finite and positive, f"{name} trace={trace}: values finite, end-to-end positive")

    patches = corruptions(cli)
    for name, command in (("wide-grid", "simulate"), ("many-runs", "simulate"),
                          ("tables", "analyze"), ("tables", "pattern")):
        with patches[command]:
            result = bench_run(name, 1)
        report(result["failed"] > 0,
               f"{name} with corrupted {command} output: "
               f"{result['failed']}/{result['attempted']} failed")

    print("smoke check passed" if not failures else f"{failures} smoke checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
