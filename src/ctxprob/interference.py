"""The contextual probability calculus.

When data from three contexts are combined, the pooled distribution need not
equal the coefficient-weighted mixture of the branch distributions. The gap
is quantified per outcome bin by two numbers:

* the perturbation ``delta = c1*(pS - p1) + c2*(pS - p2)``, the weighted
  deviation of the pooled distribution from the two branch distributions, and
* the normalized coefficient ``lambda = delta / (2*sqrt(c1*p1*c2*p2))``,
  which rescales the perturbation by twice the geometric mean of the
  weighted branch probabilities.

Because ``c1 + c2 = 1``, the pooled probability always decomposes as

    pS = c1*p1 + c2*p2 + 2*sqrt(c1*p1*c2*p2) * lambda

and the magnitude of ``lambda`` classifies the context transition:
``|lambda| < 1`` is trigonometric interference (``lambda = cos(theta)``),
``|lambda| > 1`` is hyperbolic interference (``lambda = +-cosh(theta)``),
and ``|lambda| = 1`` sits on the boundary between the two regimes. The
forward transforms invert this: given branch probabilities and a phase they
produce the pooled probability.

In the denominator of ``lambda`` both factors are weighted by the transition
coefficient of their own branch, ``c1*p1`` and ``c2*p2``; this is the reading
consistent with the decomposition identity above.

The scalar functions define the calculus for one bin; whole models run on
one vectorized kernel, :func:`decompose_arrays`, over arrays indexed by bin
position. Bin labels are mapped to positions by its callers, which check
each input where it enters, so the kernel does not check distributions again.

Everything here is a pure function over immutable inputs and may be called
concurrently without restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContextualModel, SplittingCoefficients, is_finite, is_int, is_number, is_real, same_fields
from .core import validate_model
from .errors import ConsistencyError, DegenerateBranch, OutOfRange

#: Default half-width of the band around ``|lambda| = 1`` classified Boundary.
DEFAULT_CLASSIFY_TOL = 1e-9

#: Absolute tolerance for the per-bin reconstruction identity on exact models.
RECONSTRUCTION_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Trigonometric:
    """Ordinary cos-type interference with phase in [0, pi]."""

    theta: float

    def __post_init__(self) -> None:
        if not (is_number(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError(f"trigonometric phase {self.theta!r} outside [0, pi]")


@dataclass(frozen=True, slots=True)
class Hyperbolic:
    """cosh-type interference with phase in [0, inf) and a sign.

    Transitions this large have no counterpart in standard cos-type
    interference; the sign is taken from the sign of lambda.
    """

    theta: float
    sign: int

    def __post_init__(self) -> None:
        if not (is_real(self.theta) and self.theta >= 0.0):  # NaN reads as negative
            what = "is negative" if is_real(self.theta) else "is not a float or an int within the float range"
            raise ValueError(f"hyperbolic phase {self.theta!r} {what}")
        _check_sign(self.sign)


@dataclass(frozen=True, slots=True)
class Boundary:
    """``|lambda| = 1`` within tolerance: both regimes meet, no phase assigned."""


InterferenceKind = Trigonometric | Hyperbolic | Boundary

#: Codes of :attr:`DecompositionTable.kind`, indexing :data:`KIND_LABELS`.
#: A bin is degenerate where lambda is undefined (some ``c_j * p_j`` is zero).
DEGENERATE, TRIGONOMETRIC, HYPERBOLIC, BOUNDARY = range(4)
KIND_LABELS = ("degenerate", "trigonometric", "hyperbolic", "boundary")


@dataclass(frozen=True, eq=False)
class DecompositionTable:
    """Per-bin decomposition as columns indexed by bin position.

    ``kind`` holds codes into :data:`KIND_LABELS`; ``sign`` is the sign of
    hyperbolic bins, 0 elsewhere. NaN marks an undefined value. The last
    three columns need detection totals.
    """

    p_s: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    classical: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    kind: np.ndarray
    sign: np.ndarray
    theta: np.ndarray
    stderr_lambda: np.ndarray | None = None
    stderr_theta: np.ndarray | None = None
    z: np.ndarray | None = None

    __eq__ = same_fields


def total_probability(coeffs: SplittingCoefficients, p1: float, p2: float) -> float:
    """Mixture of the branch probabilities: ``c1*p1 + c2*p2``.

    This is the value the pooled probability would take if combining the
    branch data introduced no perturbation.
    """
    _check_reals(coeffs, p1=p1, p2=p2)
    return coeffs.c1 * p1 + coeffs.c2 * p2


def perturbation_delta(coeffs: SplittingCoefficients, p_s: float, p1: float, p2: float) -> float:
    """Weighted deviation of the pooled probability from the branch ones.

    Computed from the explicit definition
    ``c1*(pS - p1) + c2*(pS - p2)``, never as ``pS - total_probability``;
    when the coefficients sum to 1 the two forms agree, and downstream code
    asserts that agreement as a runtime consistency check.
    """
    _check_reals(coeffs, p_s=p_s, p1=p1, p2=p2)
    return coeffs.c1 * (p_s - p1) + coeffs.c2 * (p_s - p2)


def lambda_coefficient(coeffs: SplittingCoefficients, p_s: float, p1: float, p2: float) -> float:
    """Normalized coefficient of the context transition at one bin.

    ``delta`` divided by twice the geometric mean of the weighted branch
    probabilities. Values of magnitude up to 1 are realizable as ``cos`` of a
    phase, larger magnitudes only as ``+-cosh``.

    Raises:
        ValueError: on an input :func:`forward_trig` refuses.
        DegenerateBranch: if ``c1*p1`` or ``c2*p2`` is zero, in which case
            the normalization is undefined and the bin must be reported as
            degenerate rather than classified.
    """
    delta = perturbation_delta(coeffs, p_s, p1, p2)  # checks the inputs
    w1 = coeffs.c1 * p1
    w2 = coeffs.c2 * p2
    if w1 <= 0.0 or w2 <= 0.0:
        raise DegenerateBranch(
            f"weighted branch probabilities c1*p1 = {w1!r}, c2*p2 = {w2!r}; "
            "lambda is undefined when either is zero"
        )
    return delta / (2.0 * math.sqrt(w1 * w2))


def _check_sign(sign: int) -> None:
    """``ValueError`` unless ``sign`` is the plain int -1 or +1: a bool or a float is no sign."""
    if not (is_int(sign, -1, 1) and sign):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")


def _check_reals(coeffs: SplittingCoefficients, **values) -> None:
    """``ValueError`` on the first of ``c1``, ``c2`` and ``values`` that ``float`` refuses; arrays pass."""
    for name, value in (("c1", coeffs.c1), ("c2", coeffs.c2), *values.items()):
        if not (is_real(value) or isinstance(value, np.ndarray)):
            raise ValueError(f"{name} = {value!r} is not a float or an int within the float range")


def _forward_terms(coeffs: SplittingCoefficients, p1: float, p2: float, theta: float) -> tuple[float, float]:
    """``c1*p1 + c2*p2`` and ``2*sqrt(c1*p1*c2*p2)``; ``ValueError`` on an input ``float`` refuses
    or an array, since the forward transforms take one bin's numbers."""
    _check_reals(coeffs, p1=p1, p2=p2, theta=theta)
    if wrong := [name for name, v in (("p1", p1), ("p2", p2), ("theta", theta)) if isinstance(v, np.ndarray)]:
        raise ValueError(f"{wrong[0]} is an array; the forward transforms take one bin's numbers")
    return total_probability(coeffs, p1, p2), 2.0 * math.sqrt(coeffs.c1 * p1 * coeffs.c2 * p2)


def check_tolerance(tol: float) -> float:
    """``tol`` if it is a finite, positive tolerance, an int or a float; ``ValueError`` if not."""
    if not (is_finite(tol) and tol > 0.0):
        raise ValueError(f"classification tolerance must be finite and positive, got {tol!r}")
    return tol


def classify(lam: float, tol: float = DEFAULT_CLASSIFY_TOL) -> InterferenceKind:
    """Classify a normalized transition coefficient and recover its phase.

    ``|lam| < 1 - tol`` is trigonometric with phase ``acos(lam)``;
    ``|lam| > 1 + tol`` is hyperbolic with phase ``acosh(|lam|)`` and the
    sign of ``lam``; anything within the band is Boundary. The band exists
    because magnitude exactly 1 belongs to both regimes, so no arbitrary
    branch is picked.
    """
    check_tolerance(tol)
    if not is_real(lam):
        raise ValueError(f"cannot classify {lam!r}, which is not a {'float' if is_number(lam) else 'number'}")
    if math.isnan(lam):
        raise ValueError("cannot classify a NaN coefficient")
    mag = abs(lam)
    if mag < 1.0 - tol:
        return Trigonometric(math.acos(lam))
    if mag > 1.0 + tol:
        return Hyperbolic(math.acosh(mag), 1 if lam > 0 else -1)
    return Boundary()


def forward_trig(coeffs: SplittingCoefficients, p1: float, p2: float, theta: float) -> float:
    """Pooled probability for a trigonometric transition with phase ``theta``.

    Returns ``c1*p1 + c2*p2 + 2*sqrt(c1*p1*c2*p2)*cos(theta)``. The result
    is a valid probability whenever ``sqrt(c1*p1) + sqrt(c2*p2) <= 1`` (for
    example whenever ``p1 + p2 <= 1``); outside that region the formula can
    exceed 1 and the caller is responsible for the interpretation. No
    clamping is applied. An input that is not a float or an int within the
    float range raises ``ValueError``.
    """
    mixture, cross = _forward_terms(coeffs, p1, p2, theta)
    return mixture + cross * math.cos(theta)


def forward_hyp(
    coeffs: SplittingCoefficients, p1: float, p2: float, theta: float, sign: int
) -> float:
    """Pooled probability for a hyperbolic transition with phase ``theta``.

    Returns ``c1*p1 + c2*p2 + sign * 2*sqrt(c1*p1*c2*p2)*cosh(theta)``.
    Hyperbolic transforms are probabilistically valid only for restricted
    inputs, so the result is checked.

    Raises:
        ValueError: on an input :func:`forward_trig` refuses, or a sign other than the int -1 or +1.
        OutOfRange: if the value falls outside [0, 1], meaning the requested
            hyperbolic transition is not realizable as a probability.
    """
    mixture, cross = _forward_terms(coeffs, p1, p2, theta)
    _check_sign(sign)
    value = mixture + sign * cross * math.cosh(theta)
    if not (0.0 <= value <= 1.0):
        raise OutOfRange(value, f"hyperbolic transform gives {value!r}, outside [0, 1]")
    return value


def decompose_arrays(
    coeffs: SplittingCoefficients,
    p_s: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    tol: float = DEFAULT_CLASSIFY_TOL,
    totals: tuple[int, int, int] | None = None,
) -> DecompositionTable:
    """Decompose every bin of the arrays at once.

    Per bin, the results equal those of :func:`total_probability`,
    :func:`perturbation_delta`, :func:`lambda_coefficient` and
    :func:`classify` bit for bit: the float operations are the same, and the
    phases come from ``math.acos``/``math.acosh``, which numpy's SIMD
    versions do not always match in the last bit. Bins where ``c1*p1`` or
    ``c2*p2`` vanishes get the code :data:`DEGENERATE`. Exact and empirical
    coefficients are both accepted; the caller validates them and the three
    distributions (in [0, 1], summing to 1), which are not checked here again.

    Given the detected totals ``(N, N1, N2)`` behind the probabilities, it
    also computes first-order binomial standard errors of lambda and theta
    (the coefficients taken as constants) and ``z``, the departure from the
    mixture ``|pS - (c1*p1 + c2*p2)|`` in standard-error units.

    Raises:
        ValueError: if ``tol`` is not finite and positive.
        ConsistencyError: if delta differs from ``pS - (c1*p1 + c2*p2)`` by
            more than ``1e-12 + |c1 + c2 - 1| * pS`` on some bin.
    """
    check_tolerance(tol)
    classical = total_probability(coeffs, p1, p2)
    delta = perturbation_delta(coeffs, p_s, p1, p2)
    residual = p_s - classical
    # The two forms of delta agree up to the deviation of c1 + c2 from 1; a
    # failure here means the inputs bypassed validation.
    disagree = np.abs(delta - residual) > RECONSTRUCTION_TOL + coeffs.deviation * np.abs(p_s)
    if disagree.any():
        i = int(np.argmax(disagree))
        raise ConsistencyError(
            f"perturbation forms disagree at pS={float(p_s[i])!r}, p1={float(p1[i])!r}, "
            f"p2={float(p2[i])!r}: definition gives {float(delta[i])!r}, "
            f"residual form gives {float(residual[i])!r}"
        )

    c1, c2 = coeffs.c1, coeffs.c2
    w1 = c1 * p1
    w2 = c2 * p2
    live = (w1 > 0.0) & (w2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(live, delta / (2.0 * np.sqrt(w1 * w2)), np.nan)
    mag = np.abs(lam)
    trig = mag < 1.0 - tol
    hyp = mag > 1.0 + tol
    kind = np.where(live, BOUNDARY, DEGENERATE).astype(np.int8)
    kind[trig] = TRIGONOMETRIC
    kind[hyp] = HYPERBOLIC
    sign = np.where(hyp, np.where(lam > 0.0, 1, -1), 0).astype(np.int8)
    theta = np.full(len(lam), np.nan)
    theta[trig] = list(map(math.acos, lam[trig].tolist()))
    theta[hyp] = list(map(math.acosh, mag[hyp].tolist()))
    columns = (p_s, p1, p2, classical, delta, lam, kind, sign, theta)
    if totals is None:
        return DecompositionTable(*columns)

    n_s, n_1, n_2 = totals
    var_s = p_s * (1.0 - p_s) / n_s
    var_1 = p1 * (1.0 - p1) / n_1
    var_2 = p2 * (1.0 - p2) / n_2
    var_diff = var_s + c1 * c1 * var_1 + c2 * c2 * var_2
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var_diff > 0.0, np.abs(residual) / np.sqrt(var_diff), np.nan)
        g = np.sqrt(c1 * p1 * c2 * p2)
        d_ps = 1.0 / (2.0 * g)
        d_p1 = -(c1 / (2.0 * g) + lam / (2.0 * p1))
        d_p2 = -(c2 / (2.0 * g) + lam / (2.0 * p2))
        var_lam = d_ps * d_ps * var_s + d_p1 * d_p1 * var_1 + d_p2 * d_p2 * var_2
        stderr_lambda = np.where(var_lam > 0.0, np.sqrt(var_lam), np.nan)
        # d(theta)/d(lambda) is 1/sqrt(1 - lam^2) for cos, 1/sqrt(lam^2 - 1) for cosh
        slope = np.abs(1.0 - lam * lam)
        phased = (trig | hyp) & (slope > 0.0)
        stderr_theta = np.where(phased, stderr_lambda / np.sqrt(slope), np.nan)
    return DecompositionTable(*columns, stderr_lambda, stderr_theta, z)


def decompose(model: ContextualModel, tol: float = DEFAULT_CLASSIFY_TOL) -> DecompositionTable:
    """Per-bin interference decomposition of a contextual model, validated first.

    The table's columns follow ``model.space.bins``. Each bin yields the
    classical mixture part, the perturbation, the normalized coefficient and
    its classification. Bins where a weighted branch probability vanishes
    are marked :data:`DEGENERATE` instead of aborting the whole
    decomposition; real envelopes vanish in their tails and whole-screen
    analysis must survive that.

    For models with exact coefficients the reconstruction identity
    ``classical_part + 2*sqrt(c1*p1*c2*p2)*lambda = pS`` holds within 1e-12
    on every non-degenerate bin; empirical coefficients widen the tolerance
    by ``|c1 + c2 - 1| * pS``.

    Raises:
        ValueError: listing the violations that ``validate_model`` finds.
    """
    if violations := validate_model(model):
        raise ValueError("cannot decompose an invalid model: " + "; ".join(map(str, violations)))
    space = model.space
    dists = (model.dist_s, model.dist_s1, model.dist_s2)
    columns = [np.fromiter((d.probs[b] for b in space.bins), float, len(space)) for d in dists]
    return decompose_arrays(model.coeffs, *columns, tol)
