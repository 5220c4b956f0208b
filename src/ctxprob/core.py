"""Domain types and validation for contextual statistical models.

A *context* is a complete arrangement of experimental conditions under which
an ensemble of systems is prepared and measured. The central record here is
the :class:`ContextualModel`: one outcome space, the outcome distribution
measured under a pooled context ``S``, the distributions measured under two
restricted contexts ``S1`` and ``S2``, and the splitting coefficients that
describe how detected systems are shared between the two restricted
arrangements.

Probabilities are stored per bin over a finite, declared outcome space; an
"event" always means a single bin. Splitting coefficients for an exact model
must sum to 1; coefficients estimated from counts are flagged empirical and
carry their deviation from 1 instead of being renormalized, so a violation of
the sharing assumption stays observable.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from concurrent execution
streams.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ZeroEnsemble

#: Absolute tolerance on the sum of an exact distribution: a context's
#: probabilities, a two-slit envelope or a wave's squared moduli. Chosen to
#: absorb double-precision accumulation error over up to ~1e6 bins.
DISTRIBUTION_SUM_TOL = 1e-9

#: Absolute tolerance on ``c1 + c2 - 1`` for exact splitting coefficients.
EXACT_COEFF_TOL = 1e-12


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float (a numpy float64 is one), and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def is_finite(value) -> bool:
    """Whether ``value`` is a number and neither inf, NaN nor an int beyond the float range."""
    return is_number(value) and abs(value) <= sys.float_info.max


def is_real(value) -> bool:
    """Whether ``float`` takes the number ``value`` without ``OverflowError``; inf and NaN pass."""
    return is_finite(value) or isinstance(value, float)


def finite_cosh(theta) -> float:
    """``cosh(theta)``; ``ValueError`` unless ``theta`` is a finite number (not a bool) whose cosh is finite,
    ``|theta|`` at most ``acosh`` of the largest float, about 710.48."""
    if is_finite(theta) and abs(theta) <= math.acosh(sys.float_info.max):
        return math.cosh(theta)
    raise ValueError(f"hyperbolic phase {theta!r} is not a finite number with a finite cosh")


def is_int(value, lo=-math.inf, hi=math.inf) -> bool:
    """Whether ``value`` is a plain ``int`` in ``[lo, hi]``; a bool, int subclass or numpy integer is not."""
    return type(value) is int and lo <= value <= hi


def read_only(values, dtype=float) -> np.ndarray:
    """A new read-only ``dtype`` array of ``values``. Each entry of a float one, unless given as a numeric
    array, is a number :func:`is_real` takes, or ``ValueError`` names the first that is not."""
    if not isinstance(values, np.ndarray) or dtype is float and values.dtype.kind not in "fiu":
        values = list(values)
        if dtype is float and not set(map(type, values)) <= {float}:  # one pass for a list of floats
            if wrong := [value for value in values if not is_real(value)]:
                raise ValueError(f"expected a number, got {wrong[0]!r}")
    array = np.array(values, dtype)
    array.setflags(write=False)
    return array


def same_fields(a, b) -> bool:
    """Field-by-field equality of two dataclasses of one type; arrays by value, NaN equal to NaN."""
    if type(b) is not type(a):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(
        np.array_equal(u, v, equal_nan=True) if np.ndarray in (type(u), type(v)) else u is v or u == v
        for u, v in pairs
    )


def ordered_sum(values) -> float:
    """The floats ``values`` added left to right, quietly to inf or NaN, as the builtin ``sum``
    adds them before Python 3.12; from 3.12 on ``sum`` compensates rounding, so its totals
    and the texts printed from them would depend on the interpreter."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.cumsum(values, dtype=float)[-1]) if len(values) else 0.0


def label_order(label) -> tuple[str, str]:
    """A sort key for labels of mixed types, ``str`` then ``repr``: ``1`` and ``"1"`` print alike but
    sort apart, so a sorted set of labels does not follow the set's hash order."""
    return str(label), repr(label)


class FrozenDict(dict):
    """A dict that refuses every write once made, so a record's checked copy stays as checked.
    It pickles and copies as a new one."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation, reported as data rather than an exception."""

    invariant: str
    message: str
    value: object = None
    bin: str | None = None

    def __str__(self) -> str:
        where = f" [bin {self.bin}]" if self.bin is not None else ""
        return f"{self.invariant}{where}: {self.message}"


@dataclass(frozen=True, slots=True)
class OutcomeSpace:
    """Ordered, finite collection of outcome bin labels.

    For position measurements the labels are the rendered midpoints of a
    uniform grid; for abstract setups they are opaque identifiers.
    """

    bins: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bins", tuple(str(b) for b in self.bins))

    def __len__(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class ContextualDistribution:
    """Outcome distribution measured under one specific context; ``probs`` is a read-only copy."""

    context_id: str
    probs: dict[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", FrozenDict(self.probs))


@dataclass(frozen=True, slots=True)
class SplittingCoefficients:
    """Sharing ratios for the transition from a pooled context to two branches.

    These are proportions of detected systems, not conditional probabilities:
    the branch contexts are generally not events within the pooled context's
    probability space. ``empirical`` marks coefficients estimated from counts;
    such estimates are deliberately not renormalized. ``c1`` and ``c2`` are
    finite numbers >= 0, or ``ValueError`` names the first that is not.
    """

    c1: float
    c2: float
    empirical: bool = False

    def __post_init__(self) -> None:
        for name, c in (("c1", self.c1), ("c2", self.c2)):
            if not (is_finite(c) and c >= 0.0):
                raise ValueError(f"{name} = {c!r} is not a finite number >= 0")

    @property
    def deviation(self) -> float:
        """Absolute deviation of ``c1 + c2`` from the exact-sharing value 1."""
        return abs(self.c1 + self.c2 - 1.0)


@dataclass(frozen=True)
class ContextualModel:
    """The full context-transition triple ``S -> S1`` and ``S -> S2``."""

    space: OutcomeSpace
    dist_s: ContextualDistribution
    dist_s1: ContextualDistribution
    dist_s2: ContextualDistribution
    coeffs: SplittingCoefficients


@dataclass(frozen=True)
class EnsembleCounts:
    """Detection histogram for one context over one or more collection periods.

    ``total_emitted`` is the number of systems the source produced while the
    histogram was collected; systems lost in transit appear in the difference
    ``total_emitted - total_detected``. ``total_emitted`` and each count are an ``int >= 0`` (not a
    bool, float, str or numpy integer) and the counts sum below 2**63, or ``ValueError`` names the context.
    ``counts`` is a read-only copy, so the total stays theirs.
    """

    context_id: str
    counts: dict[str, int]
    total_emitted: int
    total_detected: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_int(total := self.total_emitted, 0):
            raise ValueError(f"context {self.context_id!r}: total_emitted {total!r} is not an int >= 0")
        object.__setattr__(self, "counts", FrozenDict(self.counts))
        values = self.counts.values()
        if not set(map(type, values)) <= {int} or min(values, default=0) < 0:
            label, n = next((b, n) for b, n in self.counts.items() if not is_int(n, 0))
            raise ValueError(f"context {self.context_id!r} bin {label!r}: count {n!r} is not an int >= 0")
        object.__setattr__(self, "total_detected", sum(values))
        if self.total_detected >= 2**63:  # the totals are int64
            raise ValueError(f"context {self.context_id!r} counts total 2**63 or more")


def validate_space(space: OutcomeSpace) -> list[Violation]:
    out: list[Violation] = []
    if len(space.bins) < 1:
        out.append(Violation("space.nonempty", "outcome space has no bins", value=space.bins))
    seen: set[str] = set()
    for label in space.bins:
        if label in seen:
            out.append(
                Violation("space.unique_labels", f"duplicate bin label {label!r}", value=label, bin=label)
            )
        seen.add(label)
    return out


def validate_distribution(dist: ContextualDistribution, space: OutcomeSpace) -> list[Violation]:
    """Check that a distribution assigns a number in [0, 1] to exactly the declared bins, and that
    the finite numbers sum to 1. Never raises: a value of any type is reported, not refused."""
    out: list[Violation] = []
    declared = set(space.bins)
    keys = set(dist.probs)
    for missing in sorted(declared - keys, key=label_order):
        message = f"context {dist.context_id!r} has no probability for bin {missing!r}"
        out.append(Violation("distribution.covers_space", message, bin=missing))
    for extra in sorted(keys - declared, key=label_order):  # the keys may mix types
        message = f"context {dist.context_id!r} assigns probability to undeclared bin {extra!r}"
        out.append(Violation("distribution.covers_space", message, bin=extra))
    for label, p in dist.probs.items():
        if not (is_number(p) and 0.0 <= p <= 1.0):
            what = "is outside [0, 1]" if is_number(p) else "is not a number"
            message = f"context {dist.context_id!r} probability {p!r} {what}"
            out.append(Violation("distribution.range", message, value=p, bin=label))
    values = (dist.probs[label] for label in space.bins if label in dist.probs)
    total = ordered_sum([p for p in values if is_finite(p)])
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        out.append(
            Violation(
                "distribution.normalized",
                f"context {dist.context_id!r} probabilities sum to {total!r}, "
                f"not 1 within {DISTRIBUTION_SUM_TOL}",
                value=total,
            )
        )
    return out


def validate_model(model: ContextualModel) -> list[Violation]:
    """Check every invariant of a contextual model.

    Returns an empty list iff the model is valid, and never raises. Violations are data: an
    invalid model, a str or None probability too, can be constructed and inspected; it just
    cannot be fed to the decomposition operations.
    """
    out = validate_space(model.space)
    for dist in (model.dist_s, model.dist_s1, model.dist_s2):
        out.extend(validate_distribution(dist, model.space))
    c = model.coeffs  # finite and >= 0, as checked when made
    if not c.empirical and c.deviation > EXACT_COEFF_TOL:
        message = (f"c1 + c2 = {c.c1 + c.c2!r} violates the statistical alternative condition "
                   f"(must be 1 within {EXACT_COEFF_TOL} for exact models)")
        out.append(Violation("coefficients.alternative_condition", message, value=c.c1 + c.c2))
    return out


def estimate_splitting(
    counts_s1: EnsembleCounts,
    counts_s2: EnsembleCounts,
    counts_s: EnsembleCounts,
) -> tuple[SplittingCoefficients, float]:
    """Estimate splitting coefficients from detection totals.

    The estimate is ``(N1 / N, N2 / N)`` where ``N`` and ``Nj`` are the
    detected totals under the pooled and branch contexts. The returned
    deviation is ``|N1/N + N2/N - 1|``; it is surfaced instead of being
    normalized away so callers can check the sharing assumption statistically.

    Raises:
        ZeroEnsemble: if the pooled context detected nothing.
    """
    totals = (c.total_detected for c in (counts_s, counts_s1, counts_s2))
    coeffs = splitting_from_totals(*totals)
    return coeffs, coeffs.deviation


def splitting_from_totals(n: int, n1: int, n2: int) -> SplittingCoefficients:
    """:func:`estimate_splitting`'s coefficients from the detected totals ``N``, ``N1``, ``N2``."""
    if n == 0:
        raise ZeroEnsemble("pooled context has zero detected systems")
    return SplittingCoefficients(n1 / n, n2 / n, empirical=True)


def empirical_distribution(counts: EnsembleCounts) -> ContextualDistribution:
    """Frequency estimate of a context's outcome distribution.

    Raises:
        ZeroEnsemble: if all counts are zero.
    """
    total = counts.total_detected
    if total == 0:
        raise ZeroEnsemble(f"context {counts.context_id!r} has zero detected systems")
    probs = {label: n / total for label, n in counts.counts.items()}
    return ContextualDistribution(counts.context_id, probs)
