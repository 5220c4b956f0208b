import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ctxprob import (
    Boundary,
    ConsistencyError,
    ContextualDistribution,
    ContextualModel,
    DegenerateBranch,
    GridSpec,
    Hyperbolic,
    OutOfRange,
    OutcomeSpace,
    SplittingCoefficients,
    Trigonometric,
    classify,
    decompose,
    forward_hyp,
    forward_trig,
    gaussian_envelope,
    lambda_coefficient,
    perturbation_delta,
    total_probability,
)
from ctxprob.interference import (
    BOUNDARY,
    DEGENERATE,
    HYPERBOLIC,
    TRIGONOMETRIC,
    check_tolerance,
    decompose_arrays,
)

# Frozen from 50-digit arithmetic on the exact double inputs.
ACOS_08 = 0.6435011087932843
ACOSH_89 = 2.8760272423851934
FWD_HYP_OOR_VALUE = 1.2715403174076219

HALF = SplittingCoefficients(0.5, 0.5)

probs = st.floats(0.01, 0.99)
coeff = st.floats(0.05, 0.95)


class TestTotalProbability:
    def test_identical_conditionals(self):
        assert total_probability(HALF, 0.3, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_symmetric_mixture(self):
        assert total_probability(HALF, 0.2, 0.4) == pytest.approx(0.3, abs=1e-15)

    def test_weighted_mixture(self):
        c = SplittingCoefficients(0.3, 0.7)
        assert total_probability(c, 0.2, 0.6) == pytest.approx(0.48, abs=1e-15)


class TestPerturbationDelta:
    def test_no_deformation(self):
        c = SplittingCoefficients(0.3, 0.7)
        assert perturbation_delta(c, 0.3, 0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_deformation(self):
        assert perturbation_delta(HALF, 0.9, 0.5, 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_weighted_deformation(self):
        c = SplittingCoefficients(0.3, 0.7)
        assert perturbation_delta(c, 0.5, 0.2, 0.6) == pytest.approx(0.02, abs=1e-15)

    @given(p=probs, q1=probs, q2=probs, c1=coeff)
    def test_agrees_with_residual_form(self, p, q1, q2, c1):
        c = SplittingCoefficients(c1, 1.0 - c1)
        delta = perturbation_delta(c, p, q1, q2)
        assert delta == pytest.approx(p - total_probability(c, q1, q2), abs=1e-12)


class TestLambdaCoefficient:
    def test_zero_when_mixture_holds(self):
        p_s = total_probability(HALF, 0.3, 0.3)
        assert lambda_coefficient(HALF, p_s, 0.3, 0.3) == 0.0

    def test_trigonometric_magnitude(self):
        assert lambda_coefficient(HALF, 0.9, 0.5, 0.5) == pytest.approx(0.8, abs=1e-12)

    def test_hyperbolic_magnitude(self):
        assert lambda_coefficient(HALF, 0.99, 0.1, 0.1) == pytest.approx(8.9, abs=1e-12)

    def test_degenerate_branch(self):
        with pytest.raises(DegenerateBranch):
            lambda_coefficient(HALF, 0.5, 0.0, 0.5)
        with pytest.raises(DegenerateBranch):
            lambda_coefficient(SplittingCoefficients(0.0, 1.0, empirical=True), 0.5, 0.5, 0.5)


class TestClassify:
    def test_trigonometric(self):
        kind = classify(0.8, tol=1e-9)
        assert isinstance(kind, Trigonometric)
        assert kind.theta == pytest.approx(ACOS_08, abs=1e-12)

    def test_hyperbolic(self):
        kind = classify(8.9, tol=1e-9)
        assert isinstance(kind, Hyperbolic)
        assert kind.theta == pytest.approx(ACOSH_89, abs=1e-12)
        assert kind.sign == 1

    def test_hyperbolic_negative_sign(self):
        kind = classify(-8.9, tol=1e-9)
        assert isinstance(kind, Hyperbolic)
        assert kind.theta == pytest.approx(ACOSH_89, abs=1e-12)
        assert kind.sign == -1

    def test_boundary(self):
        assert classify(1.0, tol=1e-9) == Boundary()
        assert classify(-1.0, tol=1e-9) == Boundary()
        assert classify(1.0 + 5e-10, tol=1e-9) == Boundary()
        assert classify(1.0 - 5e-10, tol=1e-9) == Boundary()

    def test_band_edges(self):
        assert isinstance(classify(1.0 - 2e-9, tol=1e-9), Trigonometric)
        assert isinstance(classify(1.0 + 2e-9, tol=1e-9), Hyperbolic)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            classify(0.5, tol=0.0)

    @pytest.mark.parametrize("tol", [
        0.0, -1e-9, math.nan, math.inf, "x", None, True, pytest.param(10**400, id="10**400"),
    ])
    def test_one_tolerance_rule_for_classify_and_the_kernel(self, tol):
        p = np.array([0.5, 0.5])
        for check in (check_tolerance, lambda t: classify(0.5, t), lambda t: decompose_arrays(HALF, p, p, p, t)):
            with pytest.raises(ValueError, match="classification tolerance must be finite and positive"):
                check(tol)

    @pytest.mark.parametrize("make", [
        lambda: classify(0.5, tol=math.nan),
        lambda: classify(math.nan),
        lambda: Hyperbolic(math.nan, 1),
        lambda: Trigonometric(math.nan),
        lambda: classify("x"),
        lambda: classify(None),
        lambda: classify(True),
        lambda: Hyperbolic(True, 1),
        lambda: Hyperbolic("x", 1),
        lambda: Trigonometric(True),
        lambda: Trigonometric(None),
    ], ids=["classify-tol", "classify-lambda", "hyperbolic", "trigonometric", "classify-str", "classify-none",
            "classify-bool", "hyperbolic-bool", "hyperbolic-str", "trigonometric-bool", "trigonometric-none"])
    def test_nan_is_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_nan_and_non_numbers_keep_their_messages(self):
        with pytest.raises(ValueError, match="^cannot classify a NaN coefficient$"):
            classify(math.nan)
        with pytest.raises(ValueError, match="^cannot classify 'x', which is not a number$"):
            classify("x")

    def test_hyperbolic_sign_is_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="^sign must be -1 or \\+1, got 0$"):
            Hyperbolic(1.0, 0)
        with pytest.raises(ValueError, match="^sign must be -1 or \\+1, got True$"):
            Hyperbolic(1.0, True)
        for sign in (True, False):  # a bool is not a sign, though True == 1
            with pytest.raises(ValueError, match=f"^sign must be -1 or \\+1, got {sign}$"):
                forward_hyp(HALF, 0.1, 0.1, 0.5, sign)

    @pytest.mark.parametrize("make, message", [
        (lambda: classify(10**400), "^cannot classify 10{400}, which is not a float$"),
        (lambda: forward_trig(HALF, 0.1, 0.1, 10**400), "^theta = 10{400} is not a float or an int within"),
        (lambda: forward_trig(HALF, 10**400, 0.1, 0.5), "^p1 = 10{400} is not a float or an int within"),
        (lambda: forward_hyp(HALF, 0.1, 0.1, 10**400, 1), "^theta = 10{400} is not a float or an int within"),
        (lambda: Hyperbolic(10**400, 1), "^hyperbolic phase 10{400} is not a float or an int within"),
        (lambda: Hyperbolic("x", 1), "^hyperbolic phase 'x' is not a float or an int within"),
        (lambda: Hyperbolic(1.0, 1.0), "^sign must be -1 or \\+1, got 1.0$"),
        (lambda: forward_hyp(HALF, 0.1, 0.1, 0.5, 1.0), "^sign must be -1 or \\+1, got 1.0$"),
        (lambda: lambda_coefficient(HALF, 0.5, 10**400, 0.1), "^p1 = 10{400} is not a float or an int within"),
        (lambda: total_probability(HALF, 0.1, 10**400), "^p2 = 10{400} is not a float or an int within"),
        (lambda: perturbation_delta(HALF, 10**400, 0.1, 0.1), "^p_s = 10{400} is not a float or an int within"),
        (lambda: forward_trig(HALF, np.array([0.1]), 0.1, 0.5), "^p1 is an array; the forward transforms take one"),
        (lambda: forward_hyp(HALF, 0.1, 0.1, np.array(0.5), 1), "^theta is an array; the forward transforms take one"),
    ], ids=["classify", "forward-trig-theta", "forward-trig-p1", "forward-hyp-theta", "hyperbolic-theta",
            "hyperbolic-str", "hyperbolic-float-sign", "forward-hyp-float-sign", "lambda-coefficient-p1",
            "total-probability-p2", "perturbation-delta-p-s", "forward-trig-array", "forward-hyp-array"])
    def test_ints_beyond_the_float_range_and_float_signs_are_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @given(lam=st.floats(-0.999999, 0.999999))
    def test_trig_round_trip(self, lam):
        kind = classify(lam, tol=1e-9)
        if isinstance(kind, Trigonometric):
            assert math.cos(kind.theta) == pytest.approx(lam, abs=1e-12)

    @given(lam=st.floats(1.0 + 1e-6, 1e6))
    def test_hyperbolic_round_trip(self, lam):
        for signed in (lam, -lam):
            kind = classify(signed, tol=1e-9)
            assert isinstance(kind, Hyperbolic)
            assert kind.sign * math.cosh(kind.theta) == pytest.approx(signed, rel=1e-12)


class TestForwardTrig:
    def test_full_destructive(self):
        assert forward_trig(HALF, 0.5, 0.5, math.pi) == 0.0

    def test_quarter_phase_reduces_to_mixture(self):
        assert forward_trig(HALF, 0.5, 0.5, math.pi / 2) == pytest.approx(0.5, abs=1e-15)

    def test_inverse_of_lambda_example(self):
        assert forward_trig(HALF, 0.5, 0.5, math.acos(0.8)) == pytest.approx(0.9, abs=1e-15)

    @given(p1=probs, p2=probs, c1=coeff, theta=st.floats(0.0, math.pi))
    def test_within_unit_interval_on_subnormalized_branches(self, p1, p2, c1, theta):
        # The [0, 1] guarantee needs sqrt(c1*p1) + sqrt(c2*p2) <= 1; scaling
        # the branch probabilities to sum below 1 is one way to ensure it.
        scale = 1.0 / (p1 + p2)
        p1, p2 = p1 * scale * 0.999, p2 * scale * 0.999
        c = SplittingCoefficients(c1, 1.0 - c1)
        value = forward_trig(c, p1, p2, theta)
        assert -1e-12 <= value <= 1.0 + 1e-12


class TestForwardHyp:
    def test_inverse_of_hyperbolic_lambda_example(self):
        value = forward_hyp(HALF, 0.1, 0.1, math.acosh(8.9), 1)
        assert value == pytest.approx(0.99, abs=1e-12)

    def test_zero_phase_matches_trig(self):
        assert forward_hyp(HALF, 0.2, 0.3, 0.0, 1) == forward_trig(HALF, 0.2, 0.3, 0.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange) as exc_info:
            forward_hyp(HALF, 0.5, 0.5, 1.0, 1)
        assert exc_info.value.value == pytest.approx(FWD_HYP_OOR_VALUE, abs=1e-12)

    def test_negative_sign_can_stay_in_range(self):
        # Asymmetric branches keep the mixture above the cosh cross term.
        value = forward_hyp(HALF, 0.8, 0.2, 0.1, -1)
        assert 0.0 <= value <= 1.0

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            forward_hyp(HALF, 0.1, 0.1, 1.0, 0)


class TestRoundTrips:
    @given(p1=probs, p2=probs, c1=coeff, theta=st.floats(1e-3, math.pi - 1e-3))
    def test_trig_phase_recovery(self, p1, p2, c1, theta):
        c = SplittingCoefficients(c1, 1.0 - c1)
        p_s = forward_trig(c, p1, p2, theta)
        lam = lambda_coefficient(c, p_s, p1, p2)
        assert lam == pytest.approx(math.cos(theta), abs=1e-12)
        kind = classify(lam, tol=1e-9)
        assert isinstance(kind, Trigonometric)
        assert kind.theta == pytest.approx(theta, abs=1e-9)

    @given(
        p1=st.floats(0.01, 0.2),
        p2=st.floats(0.01, 0.2),
        c1=st.floats(0.3, 0.7),
        theta=st.floats(1e-3, 3.0),
        sign=st.sampled_from([-1, 1]),
    )
    def test_hyperbolic_phase_recovery(self, p1, p2, c1, theta, sign):
        c = SplittingCoefficients(c1, 1.0 - c1)
        try:
            p_s = forward_hyp(c, p1, p2, theta, sign)
        except OutOfRange:
            return  # transition not realizable; round trip only over the valid domain
        lam = lambda_coefficient(c, p_s, p1, p2)
        assert lam == pytest.approx(sign * math.cosh(theta), rel=1e-11, abs=1e-11)
        kind = classify(lam, tol=1e-9)
        if isinstance(kind, Hyperbolic):
            assert kind.sign == sign
            assert kind.theta == pytest.approx(theta, abs=1e-9)

    def test_correspondence_to_plain_mixture(self):
        # As both branch distributions approach the pooled one the
        # perturbation vanishes linearly.
        c = SplittingCoefficients(0.35, 0.65)
        p_s, d1, d2 = 0.4, 0.7, 0.3
        eps = np.logspace(-1, -6, 6)
        deltas = [abs(perturbation_delta(c, p_s, p_s + e * d1, p_s + e * d2)) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(deltas), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    @given(
        p=probs,
        d1=st.floats(0.1, 1.0),
        d2=st.floats(0.1, 1.0),
        c1=coeff,
        eps=st.floats(1e-9, 1e-2),
    )
    def test_lipschitz_bound(self, p, d1, d2, c1, eps):
        c = SplittingCoefficients(c1, 1.0 - c1)
        delta = perturbation_delta(c, p, p + eps * d1, p + eps * d2)
        bound = 2.0 * max(c.c1, c.c2) * eps * max(d1, d2)
        assert abs(delta) <= bound + 1e-15


def two_bin_model(a, b, theta_a):
    """Exactly normalized model: the second bin's phase balances the first."""
    c = SplittingCoefficients(0.5, 0.5)
    p_s_a = forward_trig(c, a, b, theta_a)
    delta_a = p_s_a - total_probability(c, a, b)
    g_b = math.sqrt(c.c1 * (1 - a) * c.c2 * (1 - b))
    cos_b = -delta_a / (2.0 * g_b)
    assert abs(cos_b) < 1.0
    theta_b = math.acos(cos_b)
    p_s_b = forward_trig(c, 1 - a, 1 - b, theta_b)
    space = OutcomeSpace(("u", "v"))
    model = ContextualModel(
        space,
        ContextualDistribution("S", {"u": p_s_a, "v": p_s_b}),
        ContextualDistribution("S1", {"u": a, "v": 1 - a}),
        ContextualDistribution("S2", {"u": b, "v": 1 - b}),
        c,
    )
    return model, theta_a, theta_b


class TestDecompose:
    def test_mixture_model_has_quarter_phase_everywhere(self):
        space = OutcomeSpace(("u", "v"))
        p1 = ContextualDistribution("S1", {"u": 0.25, "v": 0.75})
        p2 = ContextualDistribution("S2", {"u": 0.75, "v": 0.25})
        p_s = ContextualDistribution(
            "S", {b: total_probability(HALF, p1.probs[b], p2.probs[b]) for b in space.bins}
        )
        t = decompose(ContextualModel(space, p_s, p1, p2, HALF))
        for lam, kind, theta in zip(t.lam, t.kind, t.theta):
            assert lam == pytest.approx(0.0, abs=1e-12)
            assert kind == TRIGONOMETRIC
            assert theta == pytest.approx(math.pi / 2, abs=1e-12)

    @given(
        a=st.floats(0.3, 0.7),
        b=st.floats(0.3, 0.7),
        theta_a=st.floats(1.3, 1.8),
    )
    def test_two_bin_round_trip(self, a, b, theta_a):
        model, theta_u, theta_v = two_bin_model(a, b, theta_a)
        t = decompose(model)
        assert model.space.bins == ("u", "v")
        assert t.kind.tolist() == [TRIGONOMETRIC, TRIGONOMETRIC]
        assert t.theta[0] == pytest.approx(theta_u, abs=1e-9)
        assert t.theta[1] == pytest.approx(theta_v, abs=1e-9)
        # reconstruction reproduces the pooled distribution bin by bin
        for i, label in enumerate(model.space.bins):
            p1 = model.dist_s1.probs[label]
            p2 = model.dist_s2.probs[label]
            g2 = 2.0 * math.sqrt(0.25 * p1 * p2)
            assert t.classical[i] + g2 * t.lam[i] == pytest.approx(
                model.dist_s.probs[label], abs=1e-12
            )
            assert t.classical[i] + t.delta[i] == pytest.approx(
                model.dist_s.probs[label], abs=1e-12
            )

    def test_two_slit_grid_round_trip(self):
        # Gaussian envelopes with a linear phase; the grid is wide enough
        # that the cosine term cancels and the pooled column normalizes.
        grid = GridSpec(256, -7.0, 7.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        x = grid.midpoints()
        theta = 9.7 * x
        c = SplittingCoefficients(0.5, 0.5)
        p_s = [forward_trig(c, e, e, t) for e, t in zip(env, theta)]
        labels = grid.labels()
        model = ContextualModel(
            OutcomeSpace(labels),
            ContextualDistribution("S", dict(zip(labels, p_s))),
            ContextualDistribution("S1", dict(zip(labels, env))),
            ContextualDistribution("S2", dict(zip(labels, env))),
            c,
        )
        t = decompose(model)
        folded = np.arccos(np.cos(theta))
        assert len(t.kind) == len(folded)
        for kind, recovered, expected in zip(t.kind, t.theta, folded):
            assert kind == TRIGONOMETRIC
            assert recovered == pytest.approx(expected, abs=1e-9)

    def test_degenerate_bin_is_marked_not_fatal(self):
        space = OutcomeSpace(("u", "v", "w"))
        p1 = ContextualDistribution("S1", {"u": 0.0, "v": 0.5, "w": 0.5})
        p2 = ContextualDistribution("S2", {"u": 0.2, "v": 0.4, "w": 0.4})
        p_s = ContextualDistribution("S", {"u": 0.1, "v": 0.45, "w": 0.45})
        t = decompose(ContextualModel(space, p_s, p1, p2, HALF))
        assert t.kind.tolist() == [DEGENERATE, TRIGONOMETRIC, TRIGONOMETRIC]
        assert math.isnan(t.lam[0])

    def test_invalid_model_rejected(self):
        space = OutcomeSpace(("u", "v"))
        bad = ContextualDistribution("S", {"u": 0.9, "v": 0.9})
        ok = ContextualDistribution("S1", {"u": 0.5, "v": 0.5})
        with pytest.raises(ValueError, match="invalid model"):
            decompose(ContextualModel(space, bad, ok, ok, HALF))

    def test_rejects_a_distribution_that_is_not_normalized(self):
        space = OutcomeSpace(("u", "v"))
        ok = ContextualDistribution("S1", {"u": 0.5, "v": 0.5})
        bad = ContextualDistribution("S", {"u": 0.5, "v": 0.6})
        with pytest.raises(ValueError) as exc:
            decompose(ContextualModel(space, bad, ok, ok, HALF))
        message = str(exc.value)
        assert message.startswith("cannot decompose an invalid model: distribution.normalized: ")
        assert "context 'S' probabilities sum to 1.1" in message

    def test_lists_every_out_of_range_probability(self):
        space = OutcomeSpace(("u", "v"))
        ok = ContextualDistribution("S", {"u": 0.5, "v": 0.5})
        bad = ContextualDistribution("S2", {"u": -0.25, "v": 1.25})  # sums to 1
        with pytest.raises(ValueError) as exc:
            decompose(ContextualModel(space, ok, ok, bad, HALF))
        assert str(exc.value) == (
            "cannot decompose an invalid model: "
            "distribution.range [bin u]: context 'S2' probability -0.25 is outside [0, 1]; "
            "distribution.range [bin v]: context 'S2' probability 1.25 is outside [0, 1]"
        )

    def test_kind_magnitude_invariant(self):
        for lam in (-1.2, -0.99, -0.5, 0.0, 0.5, 0.99, 1.2):
            kind = classify(lam, tol=1e-9)
            if isinstance(kind, (Trigonometric, Boundary)):
                assert abs(lam) <= 1.0 + 1e-9
            else:
                assert abs(lam) > 1.0


# Per-bin counts: empty bins (degenerate), a handful of counts (sparse bins,
# where noise makes |lambda| > 1) and well-populated bins.
bin_counts = st.one_of(st.just(0), st.integers(1, 5), st.integers(0, 10**6))


class TestDecomposeArrays:
    @given(
        counts=st.lists(st.tuples(bin_counts, bin_counts, bin_counts), min_size=1, max_size=40),
        tol=st.one_of(st.sampled_from([1e-12, 1e-9, 0.5]), st.floats(1e-12, 0.9)),
    )
    def test_matches_scalar_references_exactly(self, counts, tol):
        columns = [np.array(c, dtype=np.int64) for c in zip(*counts)]
        totals = [int(c.sum()) for c in columns]
        assume(all(totals))
        coeffs = SplittingCoefficients(totals[1] / totals[0], totals[2] / totals[0], empirical=True)
        # Beyond a sharing deviation of ~1e4 the delta cross-check's 1e-12 slack
        # is below the rounding of its operands; no experiment gets near that.
        assume(coeffs.deviation < 100.0)
        table = decompose_arrays(
            coeffs, *(c / n for c, n in zip(columns, totals)), tol, tuple(totals)
        )
        for i, (n_s, n_1, n_2) in enumerate(counts):
            p_s, p1, p2 = n_s / totals[0], n_1 / totals[1], n_2 / totals[2]
            assert (table.p_s[i], table.p1[i], table.p2[i]) == (p_s, p1, p2)
            assert table.classical[i] == total_probability(coeffs, p1, p2)
            assert table.delta[i] == perturbation_delta(coeffs, p_s, p1, p2)
            try:
                lam = lambda_coefficient(coeffs, p_s, p1, p2)
            except DegenerateBranch:
                assert table.kind[i] == DEGENERATE and math.isnan(table.lam[i])
                assert math.isnan(table.theta[i]) and table.sign[i] == 0
                continue
            assert table.lam[i] == lam
            kind = classify(lam, tol)
            if isinstance(kind, Trigonometric):
                assert (table.kind[i], table.theta[i], table.sign[i]) == (TRIGONOMETRIC, kind.theta, 0)
            elif isinstance(kind, Hyperbolic):
                expected = (HYPERBOLIC, kind.theta, kind.sign)
                assert (table.kind[i], table.theta[i], table.sign[i]) == expected
            else:
                assert table.kind[i] == BOUNDARY and math.isnan(table.theta[i])
                assert table.sign[i] == 0

    def test_perturbation_forms_that_disagree_are_refused(self):
        # At pS = 1e5 the rounding of the two delta forms is beyond their 1e-12 slack;
        # validated inputs never get there.
        with pytest.raises(ConsistencyError, match=r"^perturbation forms disagree at pS=100000\.0, p1=0\.1, p2=0\.3"):
            decompose_arrays(HALF, np.array([1e5]), np.array([0.1]), np.array([0.3]))

    def test_tolerance_must_be_positive(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            decompose_arrays(HALF, p, p, p, tol=float("nan"))
