"""Exception hierarchy shared across the package.

The checks ``core.validate_model`` and ``twoslit.validate_scenario`` report violations as values.
A grid or scenario made with bad fields raises :class:`ScenarioError`, and bad counts ``ValueError``.
Other exceptions are reserved for operations that cannot produce a meaningful result at all.
"""

from __future__ import annotations


class ContextualError(Exception):
    """Base class for all errors raised by this package."""


class ZeroEnsemble(ContextualError):
    """An empirical estimate was requested from an ensemble with no detections."""


class DegenerateBranch(ContextualError):
    """The normalized context-transition coefficient is undefined.

    Raised when one of the weighted branch probabilities ``c_j * p_j`` is
    zero, so the normalizing geometric mean vanishes.
    """


class OutOfRange(ContextualError):
    """A probabilistic transform produced a value outside [0, 1].

    Carries the offending value so callers can report how far the requested
    transition is from being realizable as a probability.
    """

    def __init__(self, value: float, message: str | None = None):
        self.value = float(value)
        super().__init__(message or f"result {self.value!r} is outside [0, 1]")


class NormalizationError(ContextualError):
    """A probability wave's total squared modulus is not 1 within tolerance."""


class ConsistencyError(ContextualError):
    """An internal cross-check between two equivalent formulas failed.

    This indicates corrupted inputs that bypassed validation, or a bug; it is
    never raised for inputs that pass ``core.validate_model``.
    """


class ScenarioError(ContextualError):
    """A scenario document or record is invalid.

    ``problems`` is a list of ``(field_path, message)`` pairs so callers can
    address every offending field at once.
    """

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(lines or "invalid scenario")
