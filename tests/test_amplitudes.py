import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxprob import (
    FreeWavePhase,
    GridSpec,
    NormalizationError,
    ProbabilityWave,
    SplitComplex,
    SplittingCoefficients,
    TwoSlitScenario,
    forward_trig,
    gaussian_envelope,
    pattern_normalization,
    split_modulus,
    synthesize_two_slit_wave,
    synthesize_wave,
    uniform_envelope,
)
from ctxprob.twoslit import _distributions

# Frozen from 50-digit arithmetic on the exact double inputs.
SPLIT_MODULUS_AT_05_02_1 = 0.5986161269630488

HALF = SplittingCoefficients(0.5, 0.5)


class TestSynthesizeWave:
    def test_constructive_limit(self):
        amp = synthesize_wave(HALF, 0.5, 0.5, 0.0)
        assert amp == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_destructive_limit(self):
        amp = synthesize_wave(HALF, 0.5, 0.5, math.pi)
        assert abs(amp) ** 2 == pytest.approx(0.0, abs=1e-30)

    def test_born_value_matches_forward_transform(self):
        amp = synthesize_wave(HALF, 0.5, 0.5, math.acos(0.8))
        assert abs(amp) ** 2 == pytest.approx(0.9, abs=1e-12)

    @given(
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        c1=st.floats(0.05, 0.95),
        theta=st.floats(0.0, math.pi),
    )
    def test_born_rule_equivalence(self, p1, p2, c1, theta):
        c = SplittingCoefficients(c1, 1.0 - c1)
        amp = synthesize_wave(c, p1, p2, theta)
        assert abs(amp) ** 2 == pytest.approx(forward_trig(c, p1, p2, theta), abs=1e-12)

    @given(theta=st.floats(0.0, math.pi), theta2=st.floats(-10.0, 10.0))
    def test_gauge_choice_changes_only_global_phase(self, theta, theta2):
        base = synthesize_wave(HALF, 0.3, 0.6, theta)
        shifted = synthesize_wave(HALF, 0.3, 0.6, theta, theta2=theta2)
        assert abs(shifted) ** 2 == pytest.approx(abs(base) ** 2, abs=1e-12)
        assert shifted == pytest.approx(base * cmath.exp(1j * theta2), abs=1e-12)

    @pytest.mark.parametrize("args, shown", [
        ((10**400, 0.5, 1.0, 0.0), "p1 10{400}, p2 0.5, theta 1.0, theta2 0.0"),
        ((-0.2, 0.5, 1.0, 0.0), "p1 -0.2, p2 0.5, theta 1.0, theta2 0.0"),
        ((0.5, None, 1.0, 0.0), "p1 0.5, p2 None, theta 1.0, theta2 0.0"),
        ((0.5, 0.5, math.inf, 0.0), "p1 0.5, p2 0.5, theta inf, theta2 0.0"),
        ((0.5, 0.5, True, 0.0), "p1 0.5, p2 0.5, theta True, theta2 0.0"),
        ((0.5, 0.5, 1.0, math.nan), "p1 0.5, p2 0.5, theta 1.0, theta2 nan"),
    ], ids=["10**400", "negative", "None", "inf", "bool", "nan-gauge"])
    def test_scalars_outside_the_rules_are_a_value_error(self, args, shown):
        message = f"^p1 and p2 must be finite and >= 0 and the phases finite, got {shown}$"
        with pytest.raises(ValueError, match=message):
            synthesize_wave(HALF, *args)


class TestSplitComplex:
    def test_real_unit(self):
        assert split_modulus(SplitComplex(1.0, 0.0)) == 1.0

    def test_null_cone(self):
        assert split_modulus(SplitComplex(1.0, 1.0)) == 0.0

    def test_generic_value(self):
        z = SplitComplex(0.5, 0.0) + 0.2 * SplitComplex.hyperbolic_exp(1.0)
        assert split_modulus(z) == pytest.approx(SPLIT_MODULUS_AT_05_02_1, abs=1e-13)

    @pytest.mark.parametrize("theta", [10**400, True, math.nan, math.inf, 711.0, -711.0, "1"],
                             ids=["10**400", "True", "nan", "inf", "711", "-711", "str"])
    def test_phases_outside_the_rules_are_a_value_error(self, theta):
        message = f"hyperbolic phase {theta!r} is not a finite number with a finite cosh"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitComplex.hyperbolic_exp(theta)
        assert SplitComplex.hyperbolic_exp(710.0).x < math.inf  # the largest cosh is about 710.48

    def test_multiplication_is_hyperbolic(self):
        # j * j = +1
        j = SplitComplex(0.0, 1.0)
        assert j * j == SplitComplex(1.0, 0.0)
        # unit elements multiply by adding phases
        a = SplitComplex.hyperbolic_exp(0.3)
        b = SplitComplex.hyperbolic_exp(0.9)
        ab = a * b
        expected = SplitComplex.hyperbolic_exp(1.2)
        assert ab.x == pytest.approx(expected.x, rel=1e-12)
        assert ab.y == pytest.approx(expected.y, rel=1e-12)

    def test_additive_group_operations(self):
        z = SplitComplex(2.0, 1.0)
        w = SplitComplex(0.5, -0.25)
        assert z + w == SplitComplex(2.5, 0.75)
        assert 2.0 * w == SplitComplex(1.0, -0.5)

    @given(a=st.floats(0, 1), b=st.floats(0, 1), theta=st.floats(0, 5))
    def test_cosh_identity(self, a, b, theta):
        z = SplitComplex(a, 0.0) + b * SplitComplex.hyperbolic_exp(theta)
        expected = a * a + b * b + 2 * a * b * math.cosh(theta)
        # Error scale: the components reach a + b*cosh(theta) even when the
        # modulus itself is ~1, and their rounding enters squared.
        scale = max(1.0, expected, (a + b * math.cosh(theta)) ** 2)
        assert abs(split_modulus(z) - expected) <= 1e-12 * scale


class TestTwoSlitWave:
    def test_quarter_phase_gives_envelope_back(self):
        grid = GridSpec(32, -1.0, 1.0)
        env = uniform_envelope(grid)
        wave = synthesize_two_slit_wave(env, env, [math.pi / 2] * 32)
        born = wave.born_probabilities()
        for i, p in enumerate(env):
            assert born[i] == pytest.approx(p, abs=1e-15)

    def test_fringe_minima_sit_at_odd_multiples_of_pi(self):
        grid = GridSpec(512, -7.0, 7.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        x = grid.midpoints()
        k = 9.7
        theta = k * x
        wave = synthesize_two_slit_wave(env, env, theta)
        born = wave.born_probabilities()
        # Normalized fringe factor, 0 at phase pi (mod 2 pi), 2 at phase 0.
        fringe = born / env
        for m in (-3, -1, 1, 3):
            node_x = m * math.pi / k
            i = int(np.argmin(np.abs(x - node_x)))
            assert fringe[i] < 0.02
            assert fringe[i] <= fringe[i - 1] and fringe[i] <= fringe[i + 1]

    def test_free_wave_phases_match_two_plane_waves(self):
        grid = GridSpec(256, -7.0, 7.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        x = grid.midpoints()
        mom1, mom2, h = 6.2, -3.5, 1.0
        theta = (mom1 - mom2) * x / h
        wave = synthesize_two_slit_wave(env, env, theta)
        # Same superposition built from per-branch plane-wave phases.
        inv = 1.0 / math.sqrt(2.0)
        for i in range(grid.bins):
            plane = inv * (
                math.sqrt(env[i]) * cmath.exp(1j * mom1 * x[i] / h)
                + math.sqrt(env[i]) * cmath.exp(1j * mom2 * x[i] / h)
            )
            assert abs(plane) ** 2 == pytest.approx(abs(wave.amplitudes[i]) ** 2, abs=1e-12)

    def test_normalization_error_when_interference_does_not_cancel(self):
        grid = GridSpec(64, -4.0, 4.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        theta = 0.5 * grid.midpoints()  # slow phase: cosine term keeps a large sum
        with pytest.raises(NormalizationError):
            synthesize_two_slit_wave(env, env, theta)

    def test_born_modulus_is_the_simulated_pattern(self):
        # The classical ensemble's pooled pattern is the Born modulus of the
        # synthesized wave, once the envelopes carry the grid's truncation.
        grid = GridSpec(256, -4.0, 4.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        scenario = TwoSlitScenario(grid, env, env, FreeWavePhase(2.5, -2.5, 1.0), n_emitted=10**6)
        theta = scenario.phase_table()
        with pytest.raises(NormalizationError):  # the raw pattern sums to 1 + 2.2e-5
            synthesize_two_slit_wave(env, env, theta)
        n = pattern_normalization(scenario)
        wave = synthesize_two_slit_wave(env / n, env / n, theta)
        pattern = _distributions(scenario)[0][0]
        assert np.abs(wave.born_probabilities() - pattern).max() <= 1e-12

    def test_amplitudes_are_in_the_gauge_theta2_zero(self):
        # The amplitudes themselves, not only their moduli: theta1 = theta, theta2 = 0.
        grid = GridSpec(32, -1.0, 1.0)
        p1 = uniform_envelope(grid)
        p2 = gaussian_envelope(grid, 0.3, 0.5)
        theta = np.resize([math.pi / 2, -math.pi / 2], 32)  # cos(theta) = 0: normalized for any envelopes
        wave = synthesize_two_slit_wave(p1, p2, theta)
        for i in range(grid.bins):
            assert wave.amplitudes[i] == pytest.approx(synthesize_wave(HALF, p1[i], p2[i], theta[i]), abs=1e-15)

    def test_wave_built_directly_holds_a_read_only_copy(self):
        values = np.array([0.6, 0.8j])
        wave = ProbabilityWave(values)
        values[0] = 1.0
        assert wave.amplitudes.dtype == np.complex128 and not wave.amplitudes.flags.writeable
        assert wave.amplitudes.tolist() == [0.6, 0.8j]
        assert wave.born_probabilities() == pytest.approx([0.36, 0.64], abs=1e-15)

    def test_fields_are_read_only_arrays(self):
        grid = GridSpec(8, 0.0, 1.0)
        env = uniform_envelope(grid)
        wave = synthesize_two_slit_wave(env, env, [math.pi / 2] * 8)
        assert wave.amplitudes.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            wave.amplitudes[0] = 1.0

    def test_equal_inputs_give_equal_waves(self):
        grid = GridSpec(8, 0.0, 1.0)
        env = uniform_envelope(grid)
        theta = np.full(8, math.pi / 2)
        wave = synthesize_two_slit_wave(env, env, theta)
        assert wave == synthesize_two_slit_wave(list(env), list(env), list(theta))
        assert wave != synthesize_two_slit_wave(env, env, -theta)

    def test_length_mismatch_rejected(self):
        grid = GridSpec(8, 0.0, 1.0)
        env = uniform_envelope(grid)
        with pytest.raises(ValueError, match="per-bin"):
            synthesize_two_slit_wave(env, env, [0.0] * 7)
        with pytest.raises(ValueError, match="per-bin"):  # one length, but not 1-D
            synthesize_two_slit_wave([env], [env], [[0.0] * 8])

    @pytest.mark.parametrize("amplitudes", [np.ones((2, 2)), np.ones(())], ids=["2-D", "0-D"])
    def test_wave_built_directly_checks_its_shapes(self, amplitudes):
        with pytest.raises(ValueError, match=re.escape(f"amplitudes must be 1-D: got shape {amplitudes.shape}")):
            ProbabilityWave(amplitudes)
        assert ProbabilityWave([1, 0]).amplitudes.shape == (2,)

    @pytest.mark.parametrize("field, value", [
        ("p1", math.nan), ("p2", math.inf), ("p1", -0.125), ("theta", math.nan), ("theta", -math.inf),
    ])
    def test_non_finite_and_negative_inputs_rejected(self, field, value):
        # Unchecked, a NaN gives an all-NaN wave, and a NaN defect passes `defect > 1e-9`.
        args = {"p1": [0.125] * 8, "p2": [0.125] * 8, "theta": [math.pi / 2] * 8}
        args[field] = [value] + args[field][1:]
        with pytest.raises(ValueError, match="finite"):
            synthesize_two_slit_wave(**args)

    @pytest.mark.parametrize("field, entry", [("p1", "0.5"), ("p2", True), ("theta", None), ("theta", "0")])
    def test_per_bin_entries_are_numbers(self, field, entry):
        # Unchecked, "0.5" and True were converted, and None read as NaN.
        args = {"p1": [0.125] * 8, "p2": [0.125] * 8, "theta": [math.pi / 2] * 8}
        args[field] = [entry] + args[field][1:]
        with pytest.raises(ValueError, match=f"^expected a number, got {re.escape(repr(entry))}$"):
            synthesize_two_slit_wave(**args)

    def test_wave_invariants(self):
        grid = GridSpec(256, -7.0, 7.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        theta = 9.7 * grid.midpoints()
        wave = synthesize_two_slit_wave(env, env, theta)
        born = wave.born_probabilities()
        assert ((0.0 <= born) & (born <= 1.0)).all()
        assert abs(born.sum() - 1.0) <= 1e-9
