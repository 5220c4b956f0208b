"""Workloads of the ctxprob benchmark: inputs, operations, replays and checks.

A workload turns an operation seed into input files (outside any timed
region), runs one operation on them, and checks the outputs the operation
wrote. Each operation exists in two forms:

* ``run`` drives the public CLI in-process through ``ctxprob.cli.main`` and
  returns the wall time of each command. The end-to-end metrics come from it.
* ``replay`` makes the same sequence of public calls that the CLI makes,
  each inside a span of the given tracer, and then calls the inner layers
  (``decompose``, ``validate_model``, ``empirical_distribution``, the serial
  ``run_experiment``) on the same inputs as probe spans. The per-layer
  metrics come from it.

Both forms write byte-identical outputs, which ``check`` validates
independently of the program (expected values are recomputed here with
numpy) and summarises as a sha256 digest plus a few exact counts.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ctxprob.cli as cli
from ctxprob import core, interference, twoslit

#: Classification tolerance, the CLI's default ``--tol``.
TOL = 1e-9

#: A bin takes part in the phase test when all three of its expected counts
#: reach this value (criterion 5 of the acceptance gate).
WELL_POPULATED = 100

#: Lowest share of well-populated bins whose recovered phase lies within 3
#: standard errors of the true phase before an operation counts as failed.
#: Measured per operation: wide-grid 99.0-99.5% of ~6770 bins (228 ops),
#: many-runs 98.9-99.8% of ~2000 (324 ops), tables 97.6-100% of ~170 (300
#: ops, bins outside ~ Poisson(0.65)). At 95% a tables operation fails by
#: chance with probability ~3e-8; at 97% it would be ~6e-5.
PHASE_SHARE_FLOOR = 0.95

#: Free-wave momenta of the two-slit scenarios; ``theta(x) = 5 x``.
MOMENTUM = 2.5


class CheckFailed(Exception):
    """An operation's output does not satisfy the benchmark's checks."""


@dataclass(frozen=True)
class SimulateSpec:
    """``simulate`` on a free-wave scenario with Gaussian envelopes."""

    bins: int
    n_emitted: int
    runs: int
    workers: int


@dataclass(frozen=True)
class TablesSpec:
    """``analyze`` on generated count files, then ``pattern``.

    The counts come from two Gaussians of width ``sigma`` centred at
    ``-shift`` and ``+shift`` with a ``cos(wavenumber * x + offset)`` cross
    term, ``n`` systems per context. The offset keeps the well-populated
    centre away from the fold points ``|lambda| = 1``, where the phase's
    standard error is not a usable approximation at these counts.
    ``pattern_bins`` sizes the free-wave scenario given to ``pattern``.
    """

    bins: int
    n: int
    shift: float
    sigma: float
    wavenumber: float
    offset: float
    pattern_bins: int


WORKLOADS = {
    "wide-grid": SimulateSpec(bins=16384, n_emitted=10**7, runs=1, workers=1),
    "many-runs": SimulateSpec(bins=2048, n_emitted=10**6, runs=512, workers=2),
    "tables": TablesSpec(
        bins=16384, n=10**6, shift=0.5, sigma=0.75, wavenumber=5.0, offset=math.pi / 2,
        pattern_bins=16384,
    ),
}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

@dataclass
class Facts:
    """What the checks learned from one operation's outputs."""

    digest: str
    output_bytes: int
    kinds: dict[str, int]
    phase_within: int
    phase_base: int


def midpoints(bins: int, x_min: float = -4.0, x_max: float = 4.0) -> np.ndarray:
    return x_min + (np.arange(bins) + 0.5) * ((x_max - x_min) / bins)


def gaussian(x: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    v = np.exp(-0.5 * ((x - mean) / sigma) ** 2)
    return v / v.sum()


def scenario_document(bins: int, n_emitted: int, runs: int, momentum: float) -> dict:
    envelope = {"kind": "gaussian", "mean": 0.0, "sigma": 1.0}
    return {
        "grid": {"bins": bins, "x_min": -4.0, "x_max": 4.0},
        "envelopes": {"slit1": envelope, "slit2": envelope},
        "phase": {"kind": "freewave", "p1": momentum, "p2": -momentum, "h": 1.0},
        "sampling": {"n_emitted": n_emitted, "runs": runs, "seed": 0},
    }


@dataclass(frozen=True)
class TrueModel:
    """The distributions an operation's counts are drawn from."""

    p_s: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @classmethod
    def mixture(cls, p1: np.ndarray, p2: np.ndarray, theta: np.ndarray) -> "TrueModel":
        raw = 0.5 * (p1 + p2 + 2.0 * np.sqrt(p1 * p2) * np.cos(theta))
        return cls(raw / raw.sum(), p1, p2)

    def lam(self) -> np.ndarray:
        """Exact lambda with splitting (1/2, 1/2); NaN where undefined."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.p_s - 0.5 * (self.p1 + self.p2)) / np.sqrt(self.p1 * self.p2)

    def populated(self, totals: tuple[int, int, int]) -> np.ndarray:
        """Bins whose three expected counts all reach :data:`WELL_POPULATED`."""
        n_s, n_1, n_2 = totals
        low = np.minimum(np.minimum(self.p_s * n_s, self.p1 * n_1), self.p2 * n_2)
        return low >= WELL_POPULATED


def phase_test(rows, model: TrueModel, totals: tuple[int, int, int]) -> tuple[int, int]:
    """Criterion 5's test: (bins within 3 SE of the true phase, bins tested).

    ``rows`` yields ``(lam, kind, theta, se_lambda, se_theta)`` per bin.
    Trigonometric bins compare the phase; elsewhere (fold points, hyperbolic
    noise) the equivalent statement is a test on lambda itself. Bins are
    selected by expected, not observed, counts so that the selection does
    not depend on the noise being tested.
    """
    within = base = 0
    for (lam, kind, theta, se_lam, se_theta), true, populated in zip(
        rows, model.lam(), model.populated(totals)
    ):
        if not populated:
            continue
        if kind == "trigonometric" and se_theta:
            ratio = abs(theta - math.acos(min(1.0, max(-1.0, true)))) / (3.0 * se_theta)
        elif se_lam:
            ratio = abs(lam - true) / (3.0 * se_lam)
        else:
            continue
        base += 1
        within += bool(ratio <= 1.0)
    return within, base


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_phase_share(within: int, base: int) -> None:
    require(base > 0, "no well-populated bin to test the phase on")
    require(
        within / base >= PHASE_SHARE_FLOOR,
        f"phase within 3 SE on {within}/{base} bins, below {PHASE_SHARE_FLOOR:.0%}",
    )


def run_cli(argv: list[str]) -> float:
    """Run one CLI command in-process; return its wall time in seconds."""
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != cli.EXIT_OK:
        raise CheckFailed(f"ctxprob {' '.join(argv)} exited with {code}")
    return elapsed


def emit(path: Path, text: str) -> None:
    """The file branch of ``cli._emit``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def probe_scenario(scenario: twoslit.TwoSlitScenario, tracer) -> None:
    """Scenario-level layer calls, timed on the operation's scenario."""
    with tracer.span("twoslit.validate_scenario"):
        twoslit.validate_scenario(scenario)
    with tracer.span("twoslit.labels"):
        scenario.grid.labels()
    with tracer.span("twoslit.analytic_pattern"):
        twoslit.analytic_pattern(scenario)


def probe_decomposition(space, counts, positions, tracer) -> None:
    """``decompose_empirical`` and the calls it makes, on the same inputs."""
    counts_s, counts_s1, counts_s2 = counts
    with tracer.span("twoslit.decompose_empirical"):
        twoslit.decompose_empirical(space, *counts, tol=TOL, positions=positions)
    with tracer.span("core.estimate_splitting"):
        coeffs, _ = core.estimate_splitting(counts_s1, counts_s2, counts_s)
    dists = []
    for c in counts:
        with tracer.span("core.empirical_distribution"):
            dists.append(core.empirical_distribution(c))
    model = core.ContextualModel(space, *dists, coeffs)
    with tracer.span("core.validate_model"):
        core.validate_model(model)
    with tracer.span("interference.decompose"):
        interference.decompose(model, TOL)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateOp:
    seed: int
    out: Path


class SimulateWorkload:
    """One ``simulate --out`` per operation, with ``--seed`` = the op seed."""

    commands = ("simulate",)

    def __init__(self, spec: SimulateSpec, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        self.scenario_path = workdir / "scenario.json"
        doc = scenario_document(spec.bins, spec.n_emitted, spec.runs, MOMENTUM)
        self.scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        x = midpoints(spec.bins)
        envelope = gaussian(x, 0.0, 1.0)
        self.model = TrueModel.mixture(envelope, envelope, 2.0 * MOMENTUM * x)

    def prepare(self, seed: int) -> SimulateOp:
        return SimulateOp(seed, self.workdir / "report.json")

    def run(self, op: SimulateOp) -> dict[str, float]:
        argv = [
            "--seed", str(op.seed), "simulate", str(self.scenario_path),
            "--out", str(op.out), "--workers", str(self.spec.workers),
        ]
        return {"simulate": run_cli(argv)}

    def replay(self, op: SimulateOp, tracer) -> None:
        with tracer.span("cli.simulate"):
            with tracer.span("cli.load_scenario"):
                scenario = cli.load_scenario(str(self.scenario_path))
            scenario = dataclasses.replace(scenario, seed=op.seed)
            with tracer.span("twoslit.run_experiment"):
                report = twoslit.run_experiment(scenario, tol=TOL, workers=self.spec.workers)
            with tracer.span("cli.simulation_document"):
                doc = cli.simulation_document(scenario, report)
            with tracer.span("cli.render_json"):
                text = cli.render_json(doc)
            with tracer.span("cli.emit"):
                emit(op.out, text)

        tracer.probe = True
        probe_scenario(scenario, tracer)
        grid = scenario.grid
        labels = grid.labels()
        positions = dict(zip(labels, (float(x) for x in grid.midpoints())))
        counts = (report.counts_s, report.counts_s1, report.counts_s2)
        probe_decomposition(core.OutcomeSpace(labels), counts, positions, tracer)
        # The serial runs start from the heap the operation's own run started
        # from. Sampling cost per (context, run) task is the growth of the
        # serial run with the run count; a one-run workload is compared with two.
        del report, doc, text, counts, positions, labels
        gc.collect()
        with tracer.span("twoslit.run_experiment.serial"):
            twoslit.run_experiment(scenario, tol=TOL, workers=1)
        other = 2 if scenario.runs == 1 else 1
        with tracer.span(f"twoslit.run_experiment.serial.runs{other}"):
            twoslit.run_experiment(dataclasses.replace(scenario, runs=other), tol=TOL, workers=1)
        tracer.probe = False

    def check(self, op: SimulateOp) -> Facts:
        data = op.out.read_bytes()
        try:
            doc = json.loads(data)
            report = doc["report"]
            counts = report["counts"]
            n_s = counts["S"]["total_detected"]
            n_1 = counts["S1"]["total_detected"]
            n_2 = counts["S2"]["total_detected"]
            bins = report["bins"]
            emitted = self.spec.n_emitted * self.spec.runs
            require(len(bins) == self.spec.bins, f"{len(bins)} bins, expected {self.spec.bins}")
            s_sum = sum(counts["S"]["counts"].values())
            require(
                n_s == emitted == s_sum,
                f"S detected {n_s} with counts summing to {s_sum}, expected n_emitted*runs = {emitted}",
            )
            require(
                abs(n_1 + n_2 - n_s) <= 5.0 * math.sqrt(n_s),
                f"sharing check fails: N1 + N2 - N = {n_1 + n_2 - n_s}",
            )
            stat = report["violation_statistic"]
            require(stat > 5.0, f"violation statistic {stat} is not above 5")
            bound = 5.0 / (2.0 * math.sqrt(n_s))
            split = report["splitting"]
            require(
                abs(split["c1"] - 0.5) <= bound and abs(split["c2"] - 0.5) <= bound,
                f"splitting ({split['c1']}, {split['c2']}) not within {bound:.2e} of 1/2",
            )
            rows = (
                (b["lambda"], b["kind"], b["theta"], b["stderr_lambda"], b["stderr_theta"])
                for b in bins
            )
            within, base = phase_test(rows, self.model, (n_s, n_1, n_2))
            kinds = count_kinds(b["kind"] for b in bins)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed report: {exc!r}") from exc
        require_phase_share(within, base)
        return Facts(hashlib.sha256(data).hexdigest(), len(data), kinds, within, base)


def count_kinds(kinds) -> dict[str, int]:
    out = dict.fromkeys(("trigonometric", "hyperbolic", "boundary", "degenerate"), 0)
    for kind in kinds:
        kind = kind.rstrip("+-")
        if kind not in out:
            raise CheckFailed(f"unknown bin kind {kind!r}")
        out[kind] += 1
    return out


# ---------------------------------------------------------------------------
# tables: analyze + pattern
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TablesOp:
    seed: int
    counts_paths: tuple[Path, Path, Path]
    totals: tuple[int, int, int]
    scenario_path: Path
    analyze_out: Path
    pattern_out: Path


class TablesWorkload:
    """``analyze`` on three generated ``bin,count`` files, then ``pattern``.

    The counts are drawn with the benchmark's own RNG, not ctxprob's
    simulator, over opaque labels. The envelopes are narrow enough that
    about half the bins are empty in a branch (degenerate) and the sparse
    flanks produce hyperbolic noise. ``pattern`` runs on the wide-grid
    scenario shape with momenta jittered per operation, so no two operations
    see the same input.
    """

    commands = ("analyze", "pattern")

    def __init__(self, spec: TablesSpec, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        x = midpoints(spec.bins)
        self.model = TrueModel.mixture(
            gaussian(x, -spec.shift, spec.sigma),
            gaussian(x, spec.shift, spec.sigma),
            spec.wavenumber * x + spec.offset,
        )
        self.labels = [f"b{i:05d}" for i in range(spec.bins)]

    def prepare(self, seed: int) -> TablesOp:
        rng = np.random.default_rng(seed)
        n = self.spec.n
        m = self.model
        draws = (
            rng.multinomial(n, m.p_s),
            rng.multinomial(rng.binomial(n, 0.5), m.p1),
            rng.multinomial(rng.binomial(n, 0.5), m.p2),
        )
        paths = tuple(self.workdir / f"counts_{name}.csv" for name in ("s", "s1", "s2"))
        for path, counts in zip(paths, draws):
            body = "".join(f"{label},{c}\n" for label, c in zip(self.labels, counts.tolist()))
            path.write_text("bin,count\n" + body, encoding="utf-8")
        momentum = MOMENTUM + float(rng.uniform(0.0, 0.01))
        scenario_path = self.workdir / "pattern.json"
        doc = scenario_document(self.spec.pattern_bins, 10**7, 1, momentum)
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        return TablesOp(
            seed,
            paths,
            tuple(int(c.sum()) for c in draws),
            scenario_path,
            self.workdir / "analyze.csv",
            self.workdir / "pattern.csv",
        )

    def run(self, op: TablesOp) -> dict[str, float]:
        analyze = ["analyze", *map(str, op.counts_paths), "--out", str(op.analyze_out)]
        pattern = ["--seed", str(op.seed), "pattern", str(op.scenario_path), "--out", str(op.pattern_out)]
        return {"analyze": run_cli(analyze), "pattern": run_cli(pattern)}

    def replay(self, op: TablesOp, tracer) -> None:
        with tracer.span("cli.analyze"):
            counts = []
            for path, context in zip(op.counts_paths, twoslit.CONTEXT_IDS):
                with tracer.span("cli.read_counts_csv"):
                    counts.append(cli.read_counts_csv(str(path), context))
            bins = list(counts[0].counts)
            for other in counts[1:]:
                if set(other.counts) != set(bins):
                    raise CheckFailed("bin labels differ between the count files")
            space = core.OutcomeSpace(tuple(bins))
            with tracer.span("twoslit.decompose_empirical"):
                report = twoslit.decompose_empirical(space, *counts, tol=TOL)
            with tracer.span("cli.analyze_lines"):
                lines = cli.analyze_lines(report)
            with tracer.span("cli.emit"):
                emit(op.analyze_out, "\n".join(lines) + "\n")
        with tracer.span("cli.pattern"):
            with tracer.span("cli.load_scenario"):
                scenario = cli.load_scenario(str(op.scenario_path))
            scenario = dataclasses.replace(scenario, seed=op.seed)
            with tracer.span("cli.pattern_rows"):
                rows = cli.pattern_rows(scenario)
            with tracer.span("cli.emit"):
                lines = [",".join(cli.PATTERN_HEADER)]
                lines.extend(",".join(row) for row in rows)
                emit(op.pattern_out, "\n".join(lines) + "\n")

        tracer.probe = True
        probe_scenario(scenario, tracer)
        probe_decomposition(space, counts, None, tracer)
        tracer.probe = False

    def check(self, op: TablesOp) -> Facts:
        analyze = op.analyze_out.read_bytes()
        pattern = op.pattern_out.read_bytes()
        try:
            within, base, kinds = self._check_analyze(op, analyze.decode("utf-8"))
            self._check_pattern(pattern.decode("utf-8"))
        except (IndexError, ValueError) as exc:
            raise CheckFailed(f"malformed table: {exc!r}") from exc
        require_phase_share(within, base)
        digest = hashlib.sha256(analyze)
        digest.update(pattern)
        return Facts(digest.hexdigest(), len(analyze) + len(pattern), kinds, within, base)

    def _check_analyze(self, op: TablesOp, text: str):
        lines = text.splitlines()
        bins = self.spec.bins
        require(len(lines) == bins + 5, f"analyze wrote {len(lines)} lines, expected {bins + 5}")
        require(lines[0] == ",".join(cli.ANALYZE_HEADER), "analyze header differs")
        summary = {}
        for line in lines[-4:]:
            require(line.startswith("# "), f"summary line expected, got {line[:40]!r}")
            key, _, value = line[2:].partition(" = ")
            summary[key] = float(value)
            require(math.isfinite(summary[key]), f"summary {key} = {value} is not finite")
        stat = summary.get("violation_statistic", 0.0)
        require(stat > 5.0, f"violation statistic {stat} is not above 5")

        table = [line.split(",") for line in lines[1:-4]]
        require([row[0] for row in table] == self.labels, "analyze bins differ from the input bins")
        kinds = count_kinds(row[6] for row in table)
        rows = (_analyze_row(row) for row in table)
        within, base = phase_test(rows, self.model, op.totals)
        return within, base, kinds

    def _check_pattern(self, text: str) -> None:
        lines = text.splitlines()
        bins = self.spec.pattern_bins
        require(len(lines) == bins + 1, f"pattern wrote {len(lines)} lines, expected {bins + 1}")
        require(lines[0] == ",".join(cli.PATTERN_HEADER), "pattern header differs")
        sum1 = sum2 = 0.0
        for line in lines[1:]:
            _, p1, p2, theta, _, full = map(float, line.split(","))
            expected = 0.5 * (p1 + p2 + 2.0 * math.sqrt(p1 * p2) * math.cos(theta))
            require(abs(full - expected) <= 1e-12, f"p_interference {full} != {expected} at {line}")
            sum1 += p1
            sum2 += p2
        require(abs(sum1 - 1.0) <= 1e-9 and abs(sum2 - 1.0) <= 1e-9, "envelopes do not sum to 1")


def _opt(cell: str) -> float | None:
    return float(cell) if cell else None


def _analyze_row(row: list[str]):
    lam = _opt(row[5])
    se_lam = _opt(row[8])
    se_theta = None
    if row[6] == "trigonometric" and se_lam and lam * lam < 1.0:
        se_theta = se_lam / math.sqrt(1.0 - lam * lam)
    return lam, row[6], _opt(row[7]), se_lam, se_theta


def make_workload(spec, workdir: Path):
    if isinstance(spec, SimulateSpec):
        return SimulateWorkload(spec, workdir)
    return TablesWorkload(spec, workdir)
