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

Multinomials (and binomials) with one ``p`` sum to one of the summed systems, so R runs of n
systems have the law of one run of nR: each context is drawn once, nR systems from Philox keyed
by ``SeedSequence(entropy=seed, spawn_key=(context index, 0))``. :func:`run_experiment` draws all
three, :func:`simulate_context` one, the same histogram.

The analysis half estimates every contextual quantity from the simulated (or
externally supplied) histograms: splitting coefficients with their sharing
deviation, per-bin perturbation and normalized coefficient with binomial
standard errors, and a violation statistic measuring, in standard-error
units, how far the pooled distribution departs from the mixture of the
branch distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DISTRIBUTION_SUM_TOL,
    ContextualDistribution,
    EnsembleCounts,
    OutcomeSpace,
    SplittingCoefficients,
    Violation,
    is_finite,
    is_int,
    is_number,
    is_real,
    label_order,
    ordered_sum,
    read_only,
    same_fields,
    splitting_from_totals,
)
from .errors import ScenarioError, ZeroEnsemble
from .interference import DEFAULT_CLASSIFY_TOL, DecompositionTable, check_tolerance, decompose_arrays

CONTEXT_IDS = ("S", "S1", "S2")

#: Acceptance probability of a branch context; half the emitted systems
#: reach the screen when only one opening is active.
BRANCH_ACCEPTANCE = 0.5

#: Largest grid accepted: a 2**20-bin ``simulate`` peaks at 546 MiB of memory.
MAX_BINS = 2**21
#: Most runs accepted; runs cost no sampling time.
MAX_RUNS = 2**16


def repr_texts(values: np.ndarray) -> list[str]:
    """The ``repr`` of each value of a contiguous 1-D float64 or int64 array. One orjson call
    writes them all; a float outside ``1e-4 <= |x| < 1e16`` other than 0, where orjson's text
    can differ (the exponent forms, subnormals, NaN and inf), is written again by ``repr``."""
    import orjson  # on first use, so importing ctxprob does not pay for it
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    other = np.flatnonzero(~((1e-4 <= size) & (size < 1e16) | (values == 0)))
    for i, value in zip(other.tolist(), values[other].tolist()):
        texts[i] = repr(value)
    return texts if len(values) else []


def position_labels(x: np.ndarray) -> tuple[str, ...]:
    """The labels of bins at the places ``x``: each is the ``repr`` of its place, the
    shortest text that reads back as the same float. A grid's bins are labelled so."""
    return tuple(repr_texts(np.ascontiguousarray(x, float)))


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Uniform one-dimensional bin grid on the detection line, checked by :func:`validate_grid` when made."""

    bins: int
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        _refuse(validate_grid(self))

    @property
    def width(self) -> float:
        return (self.x_max - self.x_min) / self.bins

    def midpoints(self) -> np.ndarray:
        i = np.arange(self.bins)
        return self.x_min + (i + 0.5) * self.width

    def labels(self) -> tuple[str, ...]:
        return position_labels(self.midpoints())


@dataclass(frozen=True, slots=True, eq=False)
class ExplicitPhase:
    """Phase given directly as a per-bin table, held as a read-only array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", read_only(self.values))


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


@dataclass(frozen=True, eq=False)
class TwoSlitScenario:
    """Geometry-free generative description of the two-slit experiment.

    ``envelope1``/``envelope2`` are per-bin densities aligned with the grid,
    each summing to 1 over the grid, held as read-only float64 arrays.
    ``n_emitted`` is the number of particles the source emits per context
    per run. The splitting coefficients are fixed at ``(1/2, 1/2)`` by the
    symmetric-source assumption. A scenario is checked by :func:`validate_scenario`
    when made, so nothing that takes one checks it again.
    """

    grid: GridSpec
    envelope1: np.ndarray
    envelope2: np.ndarray
    phase: PhaseModel
    n_emitted: int
    runs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "envelope1", read_only(self.envelope1))
        object.__setattr__(self, "envelope2", read_only(self.envelope2))
        _refuse(validate_scenario(self))

    @property
    def coeffs(self) -> SplittingCoefficients:
        return SplittingCoefficients(0.5, 0.5)

    def phase_table(self) -> np.ndarray:
        """Per-bin phase difference ``theta(x)``."""
        if isinstance(self.phase, ExplicitPhase):
            return self.phase.values
        x = self.grid.midpoints()
        return (self.phase.momentum1 - self.phase.momentum2) * x / self.phase.scaling


def _check_gaussian(mean: float, sigma: float) -> None:
    """Raise ``ValueError`` unless ``sigma`` is positive and finite and ``mean`` finite."""
    if not (is_finite(sigma) and sigma > 0.0 and is_finite(mean)):
        raise ValueError(f"sigma must be positive and finite and mean finite, got sigma {sigma!r}, mean {mean!r}")


def gaussian_envelope(grid: GridSpec, mean: float, sigma: float) -> np.ndarray:
    """Gaussian density evaluated at bin midpoints, normalized over the grid."""
    _check_gaussian(mean, sigma)
    x = grid.midpoints()
    with np.errstate(over="ignore"):  # a tiny sigma overflows to exp(-inf) = 0, caught below
        v = np.exp(-0.5 * ((x - mean) / sigma) ** 2)
    total = float(v.sum())
    if total <= 0.0:
        raise ValueError("gaussian envelope underflows to zero on this grid")
    return read_only(v / total)


def uniform_envelope(grid: GridSpec) -> np.ndarray:
    """Flat density over the grid."""
    return read_only(np.full(grid.bins, 1.0 / grid.bins))


def table_envelope(values) -> np.ndarray:
    """Arbitrary nonnegative per-bin weights, normalized by their sum."""
    v = read_only(values)
    if (v < 0.0).any():
        raise ValueError("table envelope has negative entries")
    total = ordered_sum(v)
    if total <= 0.0:
        raise ValueError("table envelope sums to zero")
    if total == math.inf:  # NaN weights are left to validate_scenario's finiteness check
        raise ValueError("table envelope weights sum to infinity")
    return read_only(v / total)


def validate_grid(grid: GridSpec) -> list[Violation]:
    """The grid's problems; a :class:`GridSpec` raises :class:`ScenarioError` of them when made."""
    out = _int_problem("grid.bins", grid.bins, 1, MAX_BINS, f"need 1 to {MAX_BINS} bins")
    ends = {"x_min": grid.x_min, "x_max": grid.x_max}
    wrong = [
        Violation(f"grid.{name}", f"must be an int or a float, got {value!r}")
        for name, value in ends.items() if not is_number(value)
    ]
    if wrong:  # the range of a non-number is not checked
        out.extend(wrong)
    elif not all(map(is_finite, ends.values())):
        out.append(Violation("grid.range", f"x_min {grid.x_min!r} and x_max {grid.x_max!r} must be finite"))
    elif not grid.x_max > grid.x_min:
        out.append(Violation("grid.range", f"x_max {grid.x_max!r} must exceed x_min {grid.x_min!r}"))
    elif not is_finite(grid.x_max - grid.x_min):
        out.append(Violation("grid.range", f"x_max - x_min must be finite, got {grid.x_max - grid.x_min!r}"))
    elif not out and not (np.diff(grid.midpoints()) > 0.0).all():  # equal labels
        out.append(Violation("grid.range", f"{grid.bins} bins have equal midpoints on this range"))
    return out


def _int_problem(name: str, value, lo: int, hi: float, out_of_range: str) -> list[Violation]:
    """No violation if ``value`` is a plain int in ``[lo, hi]``; else "must be an int" or ``out_of_range``."""
    if is_int(value, lo, hi):
        return []
    return [Violation(name, f"{out_of_range if is_int(value) else 'must be an int'}, got {value!r}")]


def _length_problem(values: np.ndarray, noun: str, bins: int) -> str | None:
    """Why ``values`` is not one 1-D entry per bin, or None."""
    if values.ndim != 1:
        return f"{noun} must be 1-D, got shape {values.shape}"
    return f"{len(values)} {noun} for {bins} bins" if len(values) != bins else None


def _free_wave_problems(phase: FreeWavePhase) -> list[Violation]:
    """Each field an int or a float, as a grid end is; the momenta within the float range (a NaN
    or infinite one makes theta non-finite), the scaling finite and positive."""
    out = []
    for name in ("momentum1", "momentum2", "scaling"):
        value = getattr(phase, name)
        if not is_number(value):
            out.append(Violation(f"phase.{name}", f"must be an int or a float, got {value!r}"))
        elif name == "scaling" and not (is_finite(value) and value > 0.0):
            out.append(Violation("phase.scaling", f"scaling must be finite and positive, got {value!r}"))
        elif not is_real(value):
            out.append(Violation(f"phase.{name}", f"must be finite, got {value!r}"))
    return out


def validate_scenario(scenario: TwoSlitScenario) -> list[Violation]:
    """The problems of every field but the grid, which checks itself; a :class:`TwoSlitScenario`
    raises :class:`ScenarioError` of them when made. Counts and the seed are plain ``int``s."""
    grid, out = scenario.grid, []
    for name, env in (("envelope1", scenario.envelope1), ("envelope2", scenario.envelope2)):
        if problem := _length_problem(env, "values", grid.bins):
            out.append(Violation(f"{name}.length", problem))
            continue
        if not np.isfinite(env).all():
            out.append(Violation(f"{name}.finite", "envelope has non-finite entries"))
            continue
        if (env < 0.0).any():
            out.append(Violation(f"{name}.nonnegative", "envelope has negative entries"))
        total = ordered_sum(env)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            message = f"envelope sums to {total!r}, not 1 within {DISTRIBUTION_SUM_TOL}"
            out.append(Violation(f"{name}.normalized", message, value=total))
    phase = scenario.phase
    if not isinstance(phase, (ExplicitPhase, FreeWavePhase)):
        out.append(Violation("phase.kind", f"must be an ExplicitPhase or a FreeWavePhase, got {phase!r}"))
    elif isinstance(phase, ExplicitPhase) and (problem := _length_problem(phase.values, "phases", grid.bins)):
        out.append(Violation("phase.length", problem))
    elif isinstance(phase, FreeWavePhase) and (wrong := _free_wave_problems(phase)):
        out.extend(wrong)
    elif not out:
        # Evaluated only once the envelopes are valid. Free-wave
        # phases overflow where momenta, positions and scaling multiply out of range.
        with np.errstate(over="ignore", invalid="ignore"):
            finite = bool(np.isfinite(scenario.phase_table()).all())
        if not finite:
            out.append(Violation("phase.finite", "theta(x) has non-finite entries"))
    n, runs, seed = scenario.n_emitted, scenario.runs, scenario.seed
    out += _int_problem("sampling.n_emitted", n, 0, math.inf, "must be >= 0")
    if is_int(n, 0) and is_int(runs) and n * runs >= 2**63:  # the per-context totals are int64 counts
        out.append(Violation("sampling.n_emitted", f"n_emitted * runs must be below 2**63, got {n * runs!r}"))
    out += _int_problem("sampling.runs", runs, 1, MAX_RUNS, f"need 1 to {MAX_RUNS} runs")
    return out + _int_problem("sampling.seed", seed, 0, 2**64 - 1, "must fit in 64 bits")


def _refuse(violations: list[Violation]) -> None:
    if violations:
        raise ScenarioError([(v.invariant, v.message) for v in violations])


def interference_pattern(p1: np.ndarray, p2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Raw per-bin pattern ``(1/2) * (p1 + p2 + 2*sqrt(p1*p2)*cos(theta))``.

    The values are a squared modulus up to float dust: above -1e-15 for a valid scenario, as a
    property test holds. They are clipped at 0 only for sampling, and not renormalized here.
    """
    return 0.5 * (p1 + p2 + 2.0 * np.sqrt(p1 * p2) * np.cos(theta))


def _distributions(scenario: TwoSlitScenario) -> tuple[tuple[np.ndarray, ...], float]:
    """The pattern clipped at 0 and both envelopes, renormalized over the grid (each context's
    sampling distribution, in ``CONTEXT_IDS`` order), and the clipped pattern's grid sum."""
    p1, p2 = scenario.envelope1, scenario.envelope2
    raw = interference_pattern(p1, p2, scenario.phase_table())
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
    return _distributions(scenario)[1]


def analytic_pattern(scenario: TwoSlitScenario) -> ContextualDistribution:
    """Exact pooled-context distribution implied by the scenario.

    Evaluates ``(1/2) * (p1 + p2 + 2*sqrt(p1*p2)*cos(theta))`` on every bin
    and renormalizes the grid sum to 1 (see :func:`pattern_normalization`).
    """
    pattern = _distributions(scenario)[0][0]
    return ContextualDistribution("S", dict(zip(scenario.grid.labels(), pattern.tolist())))


def _draw(scenario: TwoSlitScenario, distribution: np.ndarray, context: int) -> np.ndarray:
    """The histogram of the scenario's ``n_emitted * runs`` systems under ``CONTEXT_IDS[context]``,
    drawn from ``Philox(SeedSequence(entropy=seed, spawn_key=(context, 0)))``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(scenario.seed, spawn_key=(context, 0))))
    systems = scenario.n_emitted * scenario.runs
    if context:  # a branch context passes each system with probability 1/2
        systems = int(rng.binomial(systems, BRANCH_ACCEPTANCE))
    return rng.multinomial(systems, distribution)


def simulate_context(scenario: TwoSlitScenario, which: str) -> EnsembleCounts:
    """The histogram of context ``which`` that :func:`run_experiment` reports, at any ``runs``."""
    if which not in CONTEXT_IDS:
        raise ValueError(f"context must be one of {CONTEXT_IDS}, got {which!r}")
    context, emitted = CONTEXT_IDS.index(which), scenario.n_emitted * scenario.runs
    counts = _draw(scenario, _distributions(scenario)[0][context], context)
    return EnsembleCounts(which, dict(zip(scenario.grid.labels(), counts.tolist())), emitted)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Everything estimated from the three ensembles of one experiment.

    ``counts`` holds the three histograms as int64 rows in the order of
    :data:`CONTEXT_IDS`, and ``emitted`` the systems each context's source
    emitted. The per-bin estimates are the columns of ``table``. All follow
    the bins by position: ``x`` holds their places on the detection line
    (NaN where unknown), if known, and ``bin_labels`` their labels; None
    labels them by :func:`position_labels` of ``x``, as on a grid.
    """

    counts: np.ndarray
    emitted: tuple[int, int, int]
    coeffs: SplittingCoefficients
    x: np.ndarray | None
    table: DecompositionTable
    violation_statistic: float
    classification_tol: float
    pattern_normalization: float | None = None
    bin_labels: tuple[str, ...] | None = None

    __eq__ = same_fields

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self.bin_labels or position_labels(self.x)

    def _ensemble(self, context: int) -> EnsembleCounts:
        counts = dict(zip(self.labels, self.counts[context].tolist()))
        return EnsembleCounts(CONTEXT_IDS[context], counts, self.emitted[context])

    counts_s = property(lambda self: self._ensemble(0))
    counts_s1 = property(lambda self: self._ensemble(1))
    counts_s2 = property(lambda self: self._ensemble(2))


def _estimate(
    counts: np.ndarray, emitted: tuple[int, int, int], tol: float, x: np.ndarray | None,
    labels: tuple[str, ...] | None = None, pattern_normalization: float | None = None,
) -> ExperimentReport:
    """The report on the three histograms whose counts are the rows of ``counts``."""
    totals = counts.sum(axis=1).tolist()
    coeffs = splitting_from_totals(*totals)  # raises if the pooled context detected nothing
    for which, total in zip(CONTEXT_IDS[1:], totals[1:]):
        if total == 0:
            raise ZeroEnsemble(f"context {which!r} has zero detected systems")
    probs = (c / total for c, total in zip(counts, totals))
    table = decompose_arrays(coeffs, *probs, tol, tuple(totals))
    violation = float(np.max(table.z, initial=0.0, where=~np.isnan(table.z)))
    return ExperimentReport(
        counts, emitted, coeffs, x, table, violation, tol, pattern_normalization, labels
    )


def decompose_empirical(
    space: OutcomeSpace,
    counts_s: EnsembleCounts,
    counts_s1: EnsembleCounts,
    counts_s2: EnsembleCounts,
    tol: float = DEFAULT_CLASSIFY_TOL,
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
        ValueError: if a histogram's bins differ from ``space`` (its counts were checked when made).
    """
    ensembles, bins = (counts_s, counts_s1, counts_s2), set(space.bins)
    for c in ensembles:
        if len(c.counts) != len(space.bins) or c.counts.keys() != bins:
            raise ValueError(
                f"context {c.context_id!r} counts do not cover the outcome space exactly "
                f"(first differences: {sorted(bins ^ c.counts.keys(), key=label_order)[:5]})"
            )
    n = len(space.bins)
    counts = np.stack([np.fromiter(map(c.counts.__getitem__, space.bins), np.int64, n) for c in ensembles])
    x = np.array([positions.get(b, math.nan) for b in space.bins], float) if positions else None
    return _estimate(counts, tuple(c.total_emitted for c in ensembles), tol, x, space.bins)


def run_experiment(
    scenario: TwoSlitScenario, tol: float = DEFAULT_CLASSIFY_TOL, workers: int = 1
) -> ExperimentReport:
    """Simulate all three contexts and estimate the decomposition.

    Each context is one draw of ``n_emitted * runs`` systems keyed ``(context, 0)``, the law of
    the sum of ``runs`` runs; its counts are ``simulate_context(scenario, which)``'s.
    ``workers`` changes neither the report nor its speed; it and ``tol`` are checked first.

    Raises:
        ValueError: if ``workers`` is not an ``int >= 1`` (a bool is not) or ``tol`` not finite and positive.
        ZeroEnsemble: if a context ends up with no detected systems
            (for example ``n_emitted = 0``, which draws nothing).
    """
    if not is_int(workers, 1):
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    check_tolerance(tol)
    distributions, raw_total = _distributions(scenario)
    emitted = scenario.n_emitted * scenario.runs
    counts = np.stack([_draw(scenario, p, i) for i, p in enumerate(distributions)])
    x = scenario.grid.midpoints()
    return _estimate(counts, (emitted,) * 3, tol, x, pattern_normalization=raw_total)


def alternative_condition_check(report: ExperimentReport, n_sigma: float) -> tuple[bool, float]:
    """Check the sharing of detections between the branch contexts.

    Passes when ``|N1 + N2 - N| <= n_sigma * sqrt(N)`` where ``N`` is the
    pooled context's detected total. Returns ``(passed, deviation)`` with the
    deviation already normalized by ``sqrt(N)``.

    Raises:
        ZeroEnsemble: if the pooled context detected nothing.
    """
    n, n1, n2 = report.counts.sum(axis=1).tolist()
    splitting_from_totals(n, n1, n2)  # raises if the pooled context detected nothing
    deviation = abs(n1 + n2 - n) / math.sqrt(n)
    return deviation <= n_sigma, deviation
