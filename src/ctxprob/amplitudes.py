"""Linear representations of contextual probabilities.

Trigonometric interference is linearized by ordinary complex amplitudes: the
identity ``a^2 + b^2 + 2ab*cos(theta) = |a + b*e^{i*theta}|^2`` lets the
pooled probability be written as the squared modulus of a superposed
amplitude. Hyperbolic interference is linearized the same way by
split-complex numbers ``x + j*y`` with ``j^2 = +1``: their indefinite
modulus ``x^2 - y^2`` turns the cos in the identity into a cosh.

Amplitudes carry no physics of their own here; they are bookkeeping for
ensembles. Only phase differences are observable, so synthesized waves fix
the gauge ``theta2 = 0`` by default and record the chosen per-branch phases.

Scalar helpers return ``complex`` values, a wave read-only complex128 and
float64 arrays. All functions are pure and all records immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DISTRIBUTION_SUM_TOL, OutcomeSpace, SplittingCoefficients
from .errors import NormalizationError
from .interference import forward_hyp, read_only, same_fields


@dataclass(frozen=True, slots=True)
class SplitComplex:
    """Hyperbolic number ``x + j*y`` with ``j^2 = +1``.

    The modulus form ``x^2 - y^2`` is indefinite; whether a negative value is
    acceptable is checked at use sites, not here.
    """

    x: float
    y: float

    def __add__(self, other: SplitComplex) -> SplitComplex:
        return SplitComplex(self.x + other.x, self.y + other.y)

    def __sub__(self, other: SplitComplex) -> SplitComplex:
        return SplitComplex(self.x - other.x, self.y - other.y)

    def __neg__(self) -> SplitComplex:
        return SplitComplex(-self.x, -self.y)

    def __mul__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, SplitComplex):
            return SplitComplex(
                self.x * other.x + self.y * other.y,
                self.x * other.y + self.y * other.x,
            )
        return SplitComplex(self.x * other, self.y * other)

    __rmul__ = __mul__

    def conjugate(self) -> SplitComplex:
        return SplitComplex(self.x, -self.y)

    @classmethod
    def hyperbolic_exp(cls, theta: float) -> SplitComplex:
        """Unit-modulus element ``cosh(theta) + j*sinh(theta)``."""
        return cls(math.cosh(theta), math.sinh(theta))


def split_modulus(z: SplitComplex) -> float:
    """Indefinite squared modulus ``x^2 - y^2`` of a split-complex number."""
    # Factored form: avoids the cancellation of two large squares when
    # x and y are both of order cosh(theta).
    return (z.x - z.y) * (z.x + z.y)


def cos_identity(a: float, b: float, theta: float) -> tuple[float, float]:
    """Both sides of ``a^2 + b^2 + 2ab*cos(theta) = |a + b*e^{i*theta}|^2``.

    Returns ``(lhs, rhs)`` where the left side is evaluated directly and the
    right side through complex arithmetic; they agree within
    ``1e-12 * max(1, lhs)``. The left side is also the parallelogram law for
    the diagonal of a parallelogram with sides ``a``, ``b`` and angle
    ``theta``.
    """
    lhs = a * a + b * b + 2.0 * a * b * math.cos(theta)
    z = a + b * cmath.exp(1j * theta)
    rhs = z.real * z.real + z.imag * z.imag
    return lhs, rhs


def synthesize_wave(
    coeffs: SplittingCoefficients,
    p1: float,
    p2: float,
    theta: float,
    theta2: float = 0.0,
) -> complex:
    """Complex amplitude whose squared modulus is the trigonometric transform.

    Returns ``sqrt(c1*p1)*e^{i*theta1} + sqrt(c2*p2)*e^{i*theta2}`` with
    ``theta1 = theta2 + theta``. Only the difference ``theta`` is observable;
    ``theta2`` fixes the gauge (default 0, the simplest representative).

    The squared modulus equals ``forward_trig(coeffs, p1, p2, theta)``
    within 1e-12.
    """
    theta1 = theta2 + theta
    a = math.sqrt(coeffs.c1 * p1)
    b = math.sqrt(coeffs.c2 * p2)
    return a * cmath.exp(1j * theta1) + b * cmath.exp(1j * theta2)


@dataclass(frozen=True, eq=False)
class ProbabilityWave:
    """Complex amplitudes over an outcome space, as read-only arrays aligned with ``space.bins``.

    Contract: every ``|amp|^2`` lies in [0, 1] and the squared moduli sum to
    1 within 1e-9. ``theta1``/``theta2`` record the per-bin phase gauge used
    at synthesis; ``scaling`` is the positive factor ``h`` relating phases to
    the reduced phases ``xi = theta / h`` (physical-unit readings of ``h``
    are metadata only and never enter the arithmetic).
    """

    space: OutcomeSpace
    amplitudes: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    scaling: float = 1.0

    def __post_init__(self) -> None:
        for name, dtype in (("amplitudes", complex), ("theta1", float), ("theta2", float)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))

    __eq__ = same_fields

    def born_probabilities(self) -> np.ndarray:
        """Squared modulus of every amplitude."""
        return np.abs(self.amplitudes) ** 2

    def normalization_defect(self) -> float:
        """Absolute deviation of the total squared modulus from 1."""
        return abs(float(self.born_probabilities().sum()) - 1.0)

    def xi1(self) -> np.ndarray:
        """Reduced first-branch phases ``theta1 / scaling``."""
        return self.theta1 / self.scaling

    def xi2(self) -> np.ndarray:
        """Reduced second-branch phases ``theta2 / scaling``."""
        return self.theta2 / self.scaling

    def with_global_phase(self, alpha: float) -> ProbabilityWave:
        """Multiply every amplitude by ``e^{i*alpha}``; observables unchanged."""
        return ProbabilityWave(
            self.space,
            self.amplitudes * cmath.exp(1j * alpha),
            self.theta1 + alpha,
            self.theta2 + alpha,
            self.scaling,
        )


def synthesize_two_slit_wave(
    space: OutcomeSpace,
    p1,
    p2,
    theta,
    h: float = 1.0,
) -> ProbabilityWave:
    """Superposed wave for a symmetric two-branch arrangement.

    ``p1``, ``p2`` and ``theta`` are per-bin sequences aligned with
    ``space.bins``; the branch weights are the symmetric ``(1/2, 1/2)``
    of a source placed symmetrically with respect to the two openings.
    The amplitude at each bin is

        (1/sqrt(2)) * (e^{i*theta(x)} * sqrt(p1(x)) + sqrt(p2(x)))

    in the gauge ``theta2 = 0``, ``theta1 = theta``. Its squared modulus is
    ``(1/2) * (p1 + p2 + 2*sqrt(p1*p2)*cos(theta))`` within 1e-12 per bin.

    Raises:
        NormalizationError: if the squared moduli do not sum to 1 within
            1e-9, i.e. the supplied envelopes and phases do not form a
            normalizable pattern on this grid.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"scaling factor must be positive and finite, got {h!r}")
    p1, p2, theta = (np.asarray(v, float) for v in (p1, p2, theta))
    n = len(space.bins)
    if not p1.shape == p2.shape == theta.shape == (n,):
        raise ValueError(
            f"per-bin inputs must match the {n} bins: got {p1.shape}, {p2.shape}, {theta.shape}"
        )
    if not (np.isfinite(theta).all() and all(((0.0 <= p) & (p < math.inf)).all() for p in (p1, p2))):
        raise ValueError("per-bin probabilities must be finite and nonnegative, and phases finite")
    amplitudes = (np.sqrt(p1) * np.exp(1j * theta) + np.sqrt(p2)) / math.sqrt(2.0)
    wave = ProbabilityWave(space, amplitudes, theta, np.zeros(n), h)
    defect = wave.normalization_defect()
    if not defect <= DISTRIBUTION_SUM_TOL:  # a NaN defect fails too
        raise NormalizationError(
            f"total squared modulus deviates from 1 by {defect!r} "
            f"(tolerance {DISTRIBUTION_SUM_TOL})"
        )
    return wave


def synthesize_hyperbolic(
    coeffs: SplittingCoefficients,
    p1: float,
    p2: float,
    theta: float,
    sign: int = 1,
) -> SplitComplex:
    """Split-complex amplitude whose modulus is the hyperbolic transform.

    For ``sign = +1`` the amplitude is ``sqrt(c1*p1) + sqrt(c2*p2)*e^{j*theta}``;
    for ``sign = -1`` the second term is negated, which flips the cross term
    (split-complex conjugation leaves it unchanged because cosh is even).
    ``split_modulus`` of the result equals
    ``forward_hyp(coeffs, p1, p2, theta, sign)`` within 1e-12 at unit scale.

    Raises:
        OutOfRange: if the corresponding transform is not realizable as a
            probability (propagated from the range check).
    """
    forward_hyp(coeffs, p1, p2, theta, sign)
    a = math.sqrt(coeffs.c1 * p1)
    b = math.sqrt(coeffs.c2 * p2)
    second = b * SplitComplex.hyperbolic_exp(theta)
    if sign == -1:
        second = -second
    return SplitComplex(a, 0.0) + second
