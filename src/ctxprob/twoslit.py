"""Monte Carlo simulator for the two-slit contextual experiment.

The experiment is modeled generatively, with no particle dynamics, detector
model or geometry beyond a one-dimensional detection line: a uniform bin
grid, two envelope densities ``p1(x)`` and ``p2(x)`` (the patterns observed
with only one opening active), a phase model ``theta(x)``, and sampling
sizes. The source is symmetric with respect to the two openings, which fixes
the splitting coefficients to ``(1/2, 1/2)``.

One simulated *run* is one collection period: under the pooled context every
emitted particle is detected and lands in a bin drawn from the interference
pattern; under a branch context each emitted particle first survives an
acceptance draw with probability 1/2 (only one opening is active, so on
average half the systems come through) and the survivors land in bins drawn
from that branch's envelope. Contexts are sampled independently.

Each (context, run) pair gets its own counter-derived random stream keyed by
``(seed, context index, run index)``, so runs may be executed concurrently in
any order and the aggregate result is identical to sequential execution.

The analysis half estimates every contextual quantity from the simulated (or
externally supplied) histograms: splitting coefficients with their sharing
deviation, per-bin perturbation and normalized coefficient with binomial
standard errors, and a violation statistic measuring, in standard-error
units, how far the pooled distribution departs from the mixture of the
branch distributions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ContextualDistribution,
    EnsembleCounts,
    OutcomeSpace,
    SplittingCoefficients,
    Violation,
    estimate_splitting,
)
from .errors import ScenarioError, ZeroEnsemble
from .interference import DecompositionTable, decompose_arrays

CONTEXT_IDS = ("S", "S1", "S2")

#: Acceptance probability of a branch context; half the emitted systems
#: reach the screen when only one opening is active.
BRANCH_ACCEPTANCE = 0.5

ENVELOPE_SUM_TOL = 1e-9

#: Largest grid accepted: the envelopes and the report hold several values per bin.
MAX_BINS = 2**24
#: Most runs accepted: the sampling pool holds one pending task per (context, run).
MAX_RUNS = 2**16


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Uniform one-dimensional bin grid on the detection line."""

    bins: int
    x_min: float
    x_max: float

    @property
    def width(self) -> float:
        return (self.x_max - self.x_min) / self.bins

    def midpoints(self) -> np.ndarray:
        i = np.arange(self.bins)
        return self.x_min + (i + 0.5) * self.width

    def labels(self) -> tuple[str, ...]:
        return tuple(repr(float(x)) for x in self.midpoints())

    def outcome_space(self) -> OutcomeSpace:
        return OutcomeSpace(self.labels())


@dataclass(frozen=True, slots=True)
class ExplicitPhase:
    """Phase given directly as a per-bin table."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True, slots=True)
class FreeWavePhase:
    """Linear phases, one per branch: ``xi_j(x) = momentum_j * x / scaling``.

    The resulting phase difference is
    ``theta(x) = (momentum1 - momentum2) * x / scaling``.
    """

    momentum1: float
    momentum2: float
    scaling: float = 1.0


PhaseModel = ExplicitPhase | FreeWavePhase


@dataclass(frozen=True)
class TwoSlitScenario:
    """Geometry-free generative description of the two-slit experiment.

    ``envelope1``/``envelope2`` are per-bin densities aligned with the grid,
    each summing to 1 over the grid. ``n_emitted`` is the number of particles
    the source emits per context per run. The splitting coefficients are
    fixed at ``(1/2, 1/2)`` by the symmetric-source assumption.
    """

    grid: GridSpec
    envelope1: tuple[float, ...]
    envelope2: tuple[float, ...]
    phase: PhaseModel
    n_emitted: int
    runs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "envelope1", tuple(float(v) for v in self.envelope1))
        object.__setattr__(self, "envelope2", tuple(float(v) for v in self.envelope2))

    @property
    def coeffs(self) -> SplittingCoefficients:
        return SplittingCoefficients(0.5, 0.5)

    def phase_table(self) -> np.ndarray:
        """Per-bin phase difference ``theta(x)``."""
        if isinstance(self.phase, ExplicitPhase):
            return np.asarray(self.phase.values, dtype=float)
        x = self.grid.midpoints()
        return (self.phase.momentum1 - self.phase.momentum2) * x / self.phase.scaling


def gaussian_envelope(grid: GridSpec, mean: float, sigma: float) -> tuple[float, ...]:
    """Gaussian density evaluated at bin midpoints, normalized over the grid."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    x = grid.midpoints()
    with np.errstate(over="ignore"):  # a tiny sigma overflows to exp(-inf) = 0, caught below
        v = np.exp(-0.5 * ((x - mean) / sigma) ** 2)
    total = float(v.sum())
    if total <= 0.0:
        raise ValueError("gaussian envelope underflows to zero on this grid")
    return tuple(float(p) for p in v / total)


def uniform_envelope(grid: GridSpec) -> tuple[float, ...]:
    """Flat density over the grid."""
    return (1.0 / grid.bins,) * grid.bins


def table_envelope(values) -> tuple[float, ...]:
    """Arbitrary nonnegative per-bin weights, normalized by their sum."""
    v = [float(p) for p in values]
    if any(p < 0.0 for p in v):
        raise ValueError("table envelope has negative entries")
    total = sum(v)
    if total <= 0.0:
        raise ValueError("table envelope sums to zero")
    return tuple(p / total for p in v)


def validate_grid(grid: GridSpec) -> list[Violation]:
    out: list[Violation] = []
    if not 1 <= grid.bins <= MAX_BINS:
        out.append(Violation("grid.bins", f"need 1 to {MAX_BINS} bins, got {grid.bins!r}"))
    if not (math.isfinite(grid.x_min) and math.isfinite(grid.x_max)):
        out.append(
            Violation("grid.range", f"x_min {grid.x_min!r} and x_max {grid.x_max!r} must be finite")
        )
    elif not grid.x_max > grid.x_min:
        out.append(
            Violation("grid.range", f"x_max {grid.x_max!r} must exceed x_min {grid.x_min!r}")
        )
    elif not math.isfinite(grid.x_max - grid.x_min):
        out.append(
            Violation("grid.range", f"x_max - x_min must be finite, got {grid.x_max - grid.x_min!r}")
        )
    return out


def validate_scenario(scenario: TwoSlitScenario) -> list[Violation]:
    grid = scenario.grid
    out = validate_grid(grid)
    for name, env in (("envelope1", scenario.envelope1), ("envelope2", scenario.envelope2)):
        if len(env) != grid.bins:
            out.append(
                Violation(f"{name}.length", f"{len(env)} values for {grid.bins} bins")
            )
            continue
        if not all(map(math.isfinite, env)):
            out.append(Violation(f"{name}.finite", "envelope has non-finite entries"))
            continue
        if any(p < 0.0 for p in env):
            out.append(Violation(f"{name}.nonnegative", "envelope has negative entries"))
        total = sum(env)
        if abs(total - 1.0) > ENVELOPE_SUM_TOL:
            out.append(
                Violation(
                    f"{name}.normalized",
                    f"envelope sums to {total!r}, not 1 within {ENVELOPE_SUM_TOL}",
                    value=total,
                )
            )
    phase = scenario.phase
    if isinstance(phase, ExplicitPhase) and len(phase.values) != grid.bins:
        out.append(Violation("phase.length", f"{len(phase.values)} phases for {grid.bins} bins"))
    elif isinstance(phase, FreeWavePhase) and not 0.0 < phase.scaling < math.inf:
        out.append(
            Violation("phase.scaling", f"scaling must be finite and positive, got {phase.scaling!r}")
        )
    elif not out:
        # Evaluated only once the grid and the envelopes are valid. Free-wave
        # phases overflow where momenta, positions and scaling multiply out of range.
        with np.errstate(over="ignore", invalid="ignore"):
            finite = bool(np.isfinite(scenario.phase_table()).all())
        if not finite:
            out.append(Violation("phase.finite", "theta(x) has non-finite entries"))
    if scenario.n_emitted < 0:
        out.append(Violation("sampling.n_emitted", f"must be >= 0, got {scenario.n_emitted!r}"))
    elif scenario.n_emitted * scenario.runs >= 2**63:
        # The per-context totals are int64 counts.
        out.append(
            Violation(
                "sampling.n_emitted",
                f"n_emitted * runs must be below 2**63, got {scenario.n_emitted * scenario.runs!r}",
            )
        )
    if not 1 <= scenario.runs <= MAX_RUNS:
        out.append(Violation("sampling.runs", f"need 1 to {MAX_RUNS} runs, got {scenario.runs!r}"))
    if not (0 <= scenario.seed < 2**64):
        out.append(Violation("sampling.seed", f"must fit in 64 bits, got {scenario.seed!r}"))
    return out


def _require_valid(scenario: TwoSlitScenario) -> None:
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError([(v.invariant, v.message) for v in violations])


def interference_pattern(p1: np.ndarray, p2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Raw per-bin pattern ``(1/2) * (p1 + p2 + 2*sqrt(p1*p2)*cos(theta))``.

    The values are a squared modulus up to float dust; they are neither
    clipped at 0 nor renormalized over the grid.
    """
    return 0.5 * (p1 + p2 + 2.0 * np.sqrt(p1 * p2) * np.cos(theta))


def _distributions(scenario: TwoSlitScenario) -> tuple[tuple[np.ndarray, ...], float]:
    """The pattern and both envelopes renormalized over the grid (each context's
    sampling distribution, in ``CONTEXT_IDS`` order), and the pattern's raw grid sum."""
    p1, p2 = (np.asarray(env, dtype=float) for env in (scenario.envelope1, scenario.envelope2))
    raw = interference_pattern(p1, p2, scenario.phase_table())
    low = float(raw.min())
    if low < -1e-12:
        raise ScenarioError([("pattern", f"negative probability {low!r} in the pattern")])
    raw = np.maximum(raw, 0.0)  # clip float dust; the expression is a squared modulus
    total = float(raw.sum())
    if total <= 0.0:
        raise ScenarioError([("pattern", "interference pattern sums to zero")])
    return (raw / total, p1 / p1.sum(), p2 / p2.sum()), total


def pattern_normalization(scenario: TwoSlitScenario) -> float:
    """Grid sum of the raw interference pattern before renormalization.

    With the gauge used here the interference term need not cancel exactly on
    a finite grid; the deviation of this constant from 1 diagnoses grid
    truncation.
    """
    _require_valid(scenario)
    return _distributions(scenario)[1]


def analytic_pattern(scenario: TwoSlitScenario) -> ContextualDistribution:
    """Exact pooled-context distribution implied by the scenario.

    Evaluates ``(1/2) * (p1 + p2 + 2*sqrt(p1*p2)*cos(theta))`` on every bin
    and renormalizes the grid sum to 1 (see :func:`pattern_normalization`).
    """
    _require_valid(scenario)
    pattern = _distributions(scenario)[0][0]
    labels = scenario.grid.labels()
    return ContextualDistribution("S", dict(zip(labels, (float(p) for p in pattern))))


def _run_rng(scenario: TwoSlitScenario, context_index: int, run: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(context_index, run))
    return np.random.Generator(np.random.Philox(seed=seq))


def _sample(
    scenario: TwoSlitScenario, distributions: tuple[np.ndarray, ...], context: int, run: int
) -> np.ndarray:
    """One collection period's histogram for the context at index ``context``."""
    rng = _run_rng(scenario, context, run)
    detected = scenario.n_emitted
    if context:  # a branch context passes each system with probability 1/2
        detected = int(rng.binomial(detected, BRANCH_ACCEPTANCE))
    return rng.multinomial(detected, distributions[context])


def simulate_context(scenario: TwoSlitScenario, which: str, run: int = 0) -> EnsembleCounts:
    """Simulate one collection period for one context.

    Deterministic given ``(scenario.seed, which, run)``; the stream for each
    (context, run) pair is independent of all others.
    """
    if which not in CONTEXT_IDS:
        raise ValueError(f"context must be one of {CONTEXT_IDS}, got {which!r}")
    _require_valid(scenario)
    distributions, _ = _distributions(scenario)
    counts = _sample(scenario, distributions, CONTEXT_IDS.index(which), run)
    return EnsembleCounts(
        which,
        dict(zip(scenario.grid.labels(), (int(c) for c in counts))),
        scenario.n_emitted,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Everything estimated from the three ensembles of one experiment.

    The per-bin estimates are the columns of ``table``, in the order of
    ``labels``; ``x`` holds the bin positions on the detection line, if known.
    """

    counts_s: EnsembleCounts
    counts_s1: EnsembleCounts
    counts_s2: EnsembleCounts
    coeffs: SplittingCoefficients
    coeff_deviation: float
    labels: tuple[str, ...]
    x: tuple[float | None, ...] | None
    table: DecompositionTable
    violation_statistic: float
    classification_tol: float
    pattern_normalization: float | None = None


def _estimate(
    labels: tuple[str, ...],
    counts: tuple[EnsembleCounts, EnsembleCounts, EnsembleCounts],
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    tol: float,
    x: tuple[float | None, ...] | None,
    pattern_normalization: float | None = None,
) -> ExperimentReport:
    """The report on three histograms whose counts are ``columns``, by bin position."""
    counts_s, counts_s1, counts_s2 = counts
    coeffs, deviation = estimate_splitting(counts_s1, counts_s2, counts_s)
    totals = tuple(int(c.sum()) for c in columns)
    for ensemble, total in zip(counts, totals):
        if total == 0:
            raise ZeroEnsemble(f"context {ensemble.context_id!r} has zero detected systems")
    probs = (c / total for c, total in zip(columns, totals))
    table = decompose_arrays(coeffs, *probs, tol, totals)
    violation = float(np.max(table.z, initial=0.0, where=~np.isnan(table.z)))
    return ExperimentReport(
        *counts, coeffs, deviation, labels, x, table, violation, tol, pattern_normalization
    )


def _positional(counts: EnsembleCounts, labels: tuple[str, ...]) -> np.ndarray:
    """A histogram's counts in the order of ``labels``, which it must cover exactly."""
    values = counts.counts
    if len(values) != len(labels) or values.keys() != set(labels):
        differences = sorted(set(labels) ^ values.keys())
        raise ValueError(
            f"context {counts.context_id!r} counts do not cover the outcome space "
            f"exactly (first differences: {differences[:5]})"
        )
    if counts.total_detected >= 2**63:  # the totals are int64
        raise ValueError(f"context {counts.context_id!r} counts total 2**63 or more")
    return np.fromiter(map(values.__getitem__, labels), dtype=np.int64, count=len(labels))


def decompose_empirical(
    space: OutcomeSpace,
    counts_s: EnsembleCounts,
    counts_s1: EnsembleCounts,
    counts_s2: EnsembleCounts,
    tol: float = 1e-9,
    positions: dict[str, float] | None = None,
) -> ExperimentReport:
    """Estimate the full interference decomposition from three histograms.

    Splitting coefficients come from the detection totals and are left
    unrenormalized. Standard errors are first-order binomial propagation:
    per-bin probabilities are treated as binomial proportions of their
    context's detected total, and the coefficient estimates as constants
    (their relative fluctuation is second order here). The histograms may
    list the bins in any order; the report follows ``space``.

    Raises:
        ZeroEnsemble: if any context detected nothing.
        ValueError: if a histogram's bins differ from ``space``, a count is
            negative, or a histogram totals 2**63 or more.
    """
    counts = (counts_s, counts_s1, counts_s2)
    columns = tuple(_positional(c, space.bins) for c in counts)
    x = tuple(positions.get(label) for label in space.bins) if positions else None
    return _estimate(space.bins, counts, columns, tol, x)


def run_experiment(
    scenario: TwoSlitScenario, tol: float = 1e-9, workers: int = 1
) -> ExperimentReport:
    """Simulate all three contexts and estimate the decomposition.

    The (context, run) pairs are sampled on a pool of ``workers`` threads and
    each histogram is added to its context's total as it arrives. Because
    every pair has its own random stream and the reduction is an integer sum,
    the report is identical for any worker count and any scheduling.

    Raises:
        ZeroEnsemble: if a context ends up with no detected systems
            (for example ``n_emitted = 0``, which draws nothing).
    """
    _require_valid(scenario)
    distributions, raw_total = _distributions(scenario)
    if scenario.n_emitted == 0:
        raise ZeroEnsemble("pooled context has zero detected systems")

    totals = np.zeros((len(CONTEXT_IDS), scenario.grid.bins), dtype=np.int64)
    tasks = [(context, run) for context in range(len(CONTEXT_IDS)) for run in range(scenario.runs)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        histograms = pool.map(lambda task: _sample(scenario, distributions, *task), tasks)
        for (context, _), counts in zip(tasks, histograms):
            totals[context] += counts

    labels = scenario.grid.labels()
    emitted = scenario.n_emitted * scenario.runs
    ensembles = tuple(
        EnsembleCounts(which, dict(zip(labels, column.tolist())), emitted)
        for which, column in zip(CONTEXT_IDS, totals)
    )
    x = tuple(scenario.grid.midpoints().tolist())
    return _estimate(labels, ensembles, tuple(totals), tol, x, raw_total)


def alternative_condition_check(report: ExperimentReport, n_sigma: float) -> tuple[bool, float]:
    """Check the sharing of detections between the branch contexts.

    Passes when ``|N1 + N2 - N| <= n_sigma * sqrt(N)`` where ``N`` is the
    pooled context's detected total. Returns ``(passed, deviation)`` with the
    deviation already normalized by ``sqrt(N)``.

    Raises:
        ZeroEnsemble: if the pooled context detected nothing.
    """
    n = report.counts_s.total_detected
    if n == 0:
        raise ZeroEnsemble("pooled context has zero detected systems")
    n1 = report.counts_s1.total_detected
    n2 = report.counts_s2.total_detected
    deviation = abs(n1 + n2 - n) / math.sqrt(n)
    return deviation <= n_sigma, deviation
