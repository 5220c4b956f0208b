import math

import pytest
from hypothesis import given, strategies as st

from ctxprob import (
    ContextualDistribution,
    ContextualModel,
    EnsembleCounts,
    OutcomeSpace,
    SplittingCoefficients,
    ZeroEnsemble,
    empirical_distribution,
    estimate_splitting,
    validate_model,
)
from ctxprob.core import validate_space


def three_bin_model(c1=0.5, c2=0.5, p_s1_a=0.2):
    space = OutcomeSpace(("a", "b", "c"))
    d_s = ContextualDistribution("S", {"a": 0.3, "b": 0.3, "c": 0.4})
    d_1 = ContextualDistribution("S1", {"a": p_s1_a, "b": 0.5, "c": 1.0 - p_s1_a - 0.5})
    d_2 = ContextualDistribution("S2", {"a": 0.4, "b": 0.1, "c": 0.5})
    return ContextualModel(space, d_s, d_1, d_2, SplittingCoefficients(c1, c2))


def counts(context_id, total_emitted=None, **kv):
    detected = sum(kv.values())
    return EnsembleCounts(context_id, kv, detected if total_emitted is None else total_emitted)


class TestValidateModel:
    def test_valid_model_has_no_violations(self):
        assert validate_model(three_bin_model()) == []

    def test_coefficients_violating_alternative_condition(self):
        violations = validate_model(three_bin_model(c1=0.6, c2=0.6))
        assert len(violations) == 1
        assert violations[0].invariant == "coefficients.alternative_condition"
        assert violations[0].value == pytest.approx(1.2)

    def test_probability_out_of_range(self):
        violations = validate_model(three_bin_model(p_s1_a=1.3))
        names = {v.invariant for v in violations}
        assert "distribution.range" in names
        bad = [v for v in violations if v.invariant == "distribution.range"]
        assert bad[0].bin == "a"
        assert bad[0].value == 1.3

    def test_empirical_coefficients_skip_sum_constraint(self):
        model = three_bin_model()
        model = ContextualModel(
            model.space, model.dist_s, model.dist_s1, model.dist_s2,
            SplittingCoefficients(0.48, 0.49, empirical=True),
        )
        assert validate_model(model) == []

    def test_negative_coefficient_rejected_even_if_empirical(self):
        bad = SplittingCoefficients(-0.1, 1.1, empirical=True)
        model = three_bin_model()
        model = ContextualModel(model.space, model.dist_s, model.dist_s1, model.dist_s2, bad)
        assert any(v.invariant == "coefficients.nonnegative" for v in validate_model(model))

    @pytest.mark.parametrize("c1, empirical", [
        (math.nan, False), (math.inf, True), (math.nan, True),
    ], ids=["nan-exact", "inf-empirical", "nan-empirical"])
    def test_non_finite_coefficient_rejected(self, c1, empirical):
        model = three_bin_model()
        coeffs = SplittingCoefficients(c1, 0.5, empirical=empirical)
        model = ContextualModel(model.space, model.dist_s, model.dist_s1, model.dist_s2, coeffs)
        finite = [v for v in validate_model(model) if v.invariant == "coefficients.finite"]
        assert [v.message for v in finite] == [f"c1 = {c1!r} is not finite"]

    def test_missing_bin_reported(self):
        space = OutcomeSpace(("a", "b"))
        full = ContextualDistribution("S", {"a": 0.5, "b": 0.5})
        short = ContextualDistribution("S1", {"a": 1.0})
        model = ContextualModel(space, full, short, full, SplittingCoefficients(0.5, 0.5))
        assert any(
            v.invariant == "distribution.covers_space" and v.bin == "b"
            for v in validate_model(model)
        )

    def test_undeclared_bin_reported(self):
        space = OutcomeSpace(("a", "b"))
        full = ContextualDistribution("S", {"a": 0.5, "b": 0.5})
        extra = ContextualDistribution("S1", {"a": 0.5, "b": 0.5, "c": 0.0})
        model = ContextualModel(space, full, extra, full, SplittingCoefficients(0.5, 0.5))
        assert any(
            v.invariant == "distribution.covers_space" and v.bin == "c"
            for v in validate_model(model)
        )


class TestSpaceAndCounts:
    def test_empty_space(self):
        assert any(v.invariant == "space.nonempty" for v in validate_space(OutcomeSpace(())))

    def test_duplicate_labels(self):
        violations = validate_space(OutcomeSpace(("a", "a")))
        assert any(v.invariant == "space.unique_labels" for v in violations)


class TestEstimateSplitting:
    def test_symmetric_counts(self):
        coeffs, dev = estimate_splitting(
            counts("S1", a=500), counts("S2", a=500), counts("S", a=1000)
        )
        assert (coeffs.c1, coeffs.c2) == (0.5, 0.5)
        assert dev == 0.0
        assert coeffs.empirical

    def test_asymmetric_counts(self):
        coeffs, dev = estimate_splitting(
            counts("S1", a=480), counts("S2", a=520), counts("S", a=1000)
        )
        assert (coeffs.c1, coeffs.c2) == (0.48, 0.52)
        assert dev == 0.0

    def test_imperfect_sharing_is_flagged(self):
        coeffs, dev = estimate_splitting(
            counts("S1", a=480), counts("S2", a=490), counts("S", a=1000)
        )
        assert (coeffs.c1, coeffs.c2) == (0.48, 0.49)
        assert dev == pytest.approx(0.03, abs=1e-15)

    def test_zero_ensemble(self):
        with pytest.raises(ZeroEnsemble):
            estimate_splitting(counts("S1", a=1), counts("S2", a=1), counts("S", a=0))

    @given(
        n1=st.integers(1, 10**6),
        n2=st.integers(1, 10**6),
        n=st.integers(1, 10**6),
        k=st.integers(1, 1000),
    )
    def test_scale_invariance_is_exact(self, n1, n2, n, k):
        base = estimate_splitting(counts("S1", a=n1), counts("S2", a=n2), counts("S", a=n))
        scaled = estimate_splitting(
            counts("S1", a=n1 * k), counts("S2", a=n2 * k), counts("S", a=n * k)
        )
        assert base == scaled


class TestEmpiricalDistribution:
    def test_single_occupied_bin(self):
        dist = empirical_distribution(counts("S", A=10, B=0))
        assert dist.probs == {"A": 1.0, "B": 0.0}

    def test_quarters(self):
        dist = empirical_distribution(counts("S", A=25, B=75))
        assert dist.probs == {"A": 0.25, "B": 0.75}

    def test_three_bins(self):
        dist = empirical_distribution(counts("S", A=1, B=1, C=2))
        assert dist.probs == {"A": 0.25, "B": 0.25, "C": 0.5}

    def test_zero_ensemble(self):
        with pytest.raises(ZeroEnsemble):
            empirical_distribution(counts("S", A=0, B=0))

    @given(
        st.dictionaries(
            st.sampled_from("abcdefgh"), st.integers(0, 10**9), min_size=1, max_size=8
        ).filter(lambda d: sum(d.values()) > 0)
    )
    def test_sums_to_one(self, raw):
        dist = empirical_distribution(counts("S", **raw))
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)
