"""One failure contract for the scalar calculus, held by one test.

Each callable has a valid call, written as a function of its numbers. Each number in turn is
replaced by each hostile value. The call may return, or refuse with ``ValueError`` or with a
``ContextualError`` that its docstring names; never with ``TypeError`` or ``OverflowError``, and
never in the ``math`` module's words. A NaN passing through ``total_probability``,
``perturbation_delta``, ``lambda_coefficient`` and ``split_modulus`` gives NaN, as the README's
input rule says ("inf and NaN pass"); a returned value is not checked here.
"""

import enum
import math

import numpy as np
import pytest

from ctxprob import (
    DegenerateBranch,
    Hyperbolic,
    OutOfRange,
    SplitComplex,
    SplittingCoefficients,
    Trigonometric,
    classify,
    forward_hyp,
    forward_trig,
    lambda_coefficient,
    perturbation_delta,
    split_modulus,
    synthesize_wave,
    total_probability,
)

HOSTILE = [
    True, enum.IntEnum("Plain", {"ONE": 1}).ONE, np.int64(1), np.float32(0.5), 10**400, math.nan,
    math.inf, -math.inf, -0.1, 1000.0, "0.5", None, np.array(0.5), np.array([0.5]),
]

#: Messages that are some other layer's words, not the callable's.
FOREIGN = ("math domain error", "math range error", "truth value of an array")

C = SplittingCoefficients

#: Per callable: its valid call as a function of its numbers, those numbers, and the
#: ``ContextualError``s it documents.
CALLS = {
    "SplittingCoefficients": (C, (0.5, 0.5), ()),
    "SplitComplex": (SplitComplex, (0.5, 0.25), ()),
    "SplitComplex.hyperbolic_exp": (SplitComplex.hyperbolic_exp, (0.5,), ()),
    "split_modulus": (lambda x, y: split_modulus(SplitComplex(x, y)), (0.5, 0.25), ()),
    "total_probability": (lambda c1, c2, *p: total_probability(C(c1, c2), *p), (0.5, 0.5, 0.2, 0.3), ()),
    "perturbation_delta": (
        lambda c1, c2, *p: perturbation_delta(C(c1, c2), *p), (0.5, 0.5, 0.25, 0.2, 0.3), ()
    ),
    "lambda_coefficient": (
        lambda c1, c2, *p: lambda_coefficient(C(c1, c2), *p), (0.5, 0.5, 0.25, 0.2, 0.3), (DegenerateBranch,)
    ),
    "classify": (classify, (0.5, 1e-9), ()),
    "forward_trig": (lambda c1, c2, *a: forward_trig(C(c1, c2), *a), (0.5, 0.5, 0.2, 0.3, 1.0), ()),
    "forward_hyp": (lambda c1, c2, *a: forward_hyp(C(c1, c2), *a), (0.5, 0.5, 0.1, 0.1, 0.5, 1), (OutOfRange,)),
    "synthesize_wave": (lambda c1, c2, *a: synthesize_wave(C(c1, c2), *a), (0.5, 0.5, 0.2, 0.3, 1.0, 0.0), ()),
    "Trigonometric": (Trigonometric, (1.0,), ()),
    "Hyperbolic": (Hyperbolic, (1.0, 1), ()),
}


def contract_breaks(call, numbers, documented) -> list[str]:
    """Each call with one number replaced by a hostile value that breaks the contract, and how."""
    out = []
    for i in range(len(numbers)):
        for value in HOSTILE:
            args = [*numbers[:i], value, *numbers[i + 1:]]
            try:
                call(*args)
            except (ValueError, *documented) as error:
                if any(words in str(error) for words in FOREIGN):
                    out.append(f"number {i} = {value!r}: {type(error).__name__}: {error}")
            except Exception as error:
                out.append(f"number {i} = {value!r}: {type(error).__name__}: {error}")
    return out


@pytest.mark.parametrize("name", CALLS)
def test_a_bad_number_is_refused_in_the_callables_own_words(name):
    call, numbers, documented = CALLS[name]
    call(*numbers)
    assert contract_breaks(call, numbers, documented) == []
