"""Linear representations of contextual probabilities.

Trigonometric interference is linearized by ordinary complex amplitudes: the
identity ``a^2 + b^2 + 2ab*cos(theta) = |a + b*e^{i*theta}|^2`` lets the
pooled probability be written as the squared modulus of a superposed
amplitude. Hyperbolic interference is linearized the same way by
split-complex numbers ``x + j*y`` with ``j^2 = +1``: their indefinite
modulus ``x^2 - y^2`` turns the cos in the identity into a cosh.

Amplitudes carry no physics of their own here; they are bookkeeping for
ensembles. Only phase differences are observable, so synthesized waves fix
the gauge ``theta2 = 0`` by default.

Scalar helpers return ``complex`` values, a wave holds a read-only
complex128 array and its Born probabilities are float64. All functions are
pure and all records immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DISTRIBUTION_SUM_TOL, SplittingCoefficients, finite_cosh, is_finite, is_real, read_only
from .core import same_fields
from .errors import NormalizationError


@dataclass(frozen=True, slots=True)
class SplitComplex:
    """Hyperbolic number ``x + j*y`` with ``j^2 = +1``.

    The modulus form ``x^2 - y^2`` is indefinite; whether a negative value is
    acceptable is checked at use sites. ``x`` and ``y`` must be numbers within the float range.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (is_real(self.x) and is_real(self.y)):
            raise ValueError(f"x {self.x!r} and y {self.y!r} must be floats or ints within the float range")

    def __add__(self, other: SplitComplex) -> SplitComplex:
        return SplitComplex(self.x + other.x, self.y + other.y)

    def __mul__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, SplitComplex):
            return SplitComplex(
                self.x * other.x + self.y * other.y,
                self.x * other.y + self.y * other.x,
            )
        return SplitComplex(self.x * other, self.y * other)

    __rmul__ = __mul__

    @classmethod
    def hyperbolic_exp(cls, theta: float) -> SplitComplex:
        """Unit-modulus element ``cosh(theta) + j*sinh(theta)``; ``ValueError`` as ``core.finite_cosh``."""
        return cls(finite_cosh(theta), math.sinh(theta))


def split_modulus(z: SplitComplex) -> float:
    """Indefinite squared modulus ``x^2 - y^2`` of a split-complex number."""
    # Factored form: avoids the cancellation of two large squares when
    # x and y are both of order cosh(theta).
    return (z.x - z.y) * (z.x + z.y)


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
    within 1e-12. ``ValueError`` unless ``p1``, ``p2`` and the phases are finite
    numbers (not bools) and ``p1``, ``p2`` are at least 0.
    """
    if not all(map(is_finite, (p1, p2, theta, theta2))) or min(p1, p2) < 0.0:
        got = f"p1 {p1!r}, p2 {p2!r}, theta {theta!r}, theta2 {theta2!r}"
        raise ValueError(f"p1 and p2 must be finite and >= 0 and the phases finite, got {got}")
    theta1 = theta2 + theta
    a = math.sqrt(coeffs.c1 * p1)
    b = math.sqrt(coeffs.c2 * p2)
    return a * cmath.exp(1j * theta1) + b * cmath.exp(1j * theta2)


@dataclass(frozen=True, eq=False)
class ProbabilityWave:
    """Complex amplitudes over the bins of an outcome space, as a read-only 1-D array.

    Contract: every ``|amp|^2`` lies in [0, 1] and the squared moduli sum to
    1 within 1e-9.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", read_only(self.amplitudes, complex))
        if self.amplitudes.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D: got shape {self.amplitudes.shape}")

    __eq__ = same_fields

    def born_probabilities(self) -> np.ndarray:
        """Squared modulus of every amplitude."""
        return np.abs(self.amplitudes) ** 2


def synthesize_two_slit_wave(p1, p2, theta) -> ProbabilityWave:
    """Superposed wave for a symmetric two-branch arrangement.

    ``p1``, ``p2`` and ``theta`` are per-bin sequences of one length, one
    entry per bin; the branch weights are the symmetric ``(1/2, 1/2)``
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
    shapes = [np.shape(v) for v in (p1, p2, theta)]
    if not (shapes[0] == shapes[1] == shapes[2] and len(shapes[2]) == 1):
        raise ValueError("per-bin inputs must be 1-D and of one length: got {}, {}, {}".format(*shapes))
    p1, p2, theta = map(read_only, (p1, p2, theta))  # each entry a number, by the per-bin rule
    if not (np.isfinite(theta).all() and all(((0.0 <= p) & (p < math.inf)).all() for p in (p1, p2))):
        raise ValueError("per-bin probabilities must be finite and nonnegative, and phases finite")
    amplitudes = (np.sqrt(p1) * np.exp(1j * theta) + np.sqrt(p2)) / math.sqrt(2.0)
    wave = ProbabilityWave(amplitudes)
    defect = abs(float(wave.born_probabilities().sum()) - 1.0)
    if not defect <= DISTRIBUTION_SUM_TOL:  # a NaN defect fails too
        raise NormalizationError(
            f"total squared modulus deviates from 1 by {defect!r} "
            f"(tolerance {DISTRIBUTION_SUM_TOL})"
        )
    return wave
