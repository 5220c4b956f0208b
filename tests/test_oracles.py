"""Regenerate the frozen expected values with 50-digit arithmetic.

The other test modules assert against frozen double-precision constants;
this module documents where those constants come from and fails loudly if
one was transcribed wrong.
"""

import math

from mpmath import mp, mpf

import test_amplitudes
import test_interference

mp.dps = 50


def closest_double(value) -> float:
    return float(value)


def test_acos_constant():
    assert test_interference.ACOS_08 == closest_double(mp.acos(mpf(0.8)))


def test_acosh_constant():
    assert test_interference.ACOSH_89 == closest_double(mp.acosh(mpf(8.9)))


def test_forward_hyp_out_of_range_constant():
    c1 = c2 = mpf(0.5)
    p1 = p2 = mpf(0.5)
    value = c1 * p1 + c2 * p2 + 2 * mp.sqrt(c1 * p1 * c2 * p2) * mp.cosh(mpf(1.0))
    assert test_interference.FWD_HYP_OOR_VALUE == closest_double(value)


def test_split_modulus_constant():
    a, b, theta = mpf(0.5), mpf(0.2), mpf(1.0)
    value = a * a + b * b + 2 * a * b * mp.cosh(theta)
    assert test_amplitudes.SPLIT_MODULUS_AT_05_02_1 == closest_double(value)


def test_machine_pi_degeneracies():
    # The destructive-node constructions rely on these double identities.
    assert math.cos(math.pi) == -1.0
    assert closest_double(mp.cos(mpf(math.pi))) == -1.0
    assert math.acos(0.0) == math.pi / 2
