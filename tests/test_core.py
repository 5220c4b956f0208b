import copy
import dataclasses
import functools
import math
import operator
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxprob import (
    ContextualDistribution,
    ContextualModel,
    EnsembleCounts,
    OutcomeSpace,
    SplittingCoefficients,
    ZeroEnsemble,
    decompose,
    empirical_distribution,
    estimate_splitting,
    validate_model,
)
from ctxprob.core import ordered_sum, validate_space


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
        with pytest.raises(ValueError, match="^c1 = -0.1 is not a finite number >= 0$"):
            SplittingCoefficients(-0.1, 1.1, empirical=True)

    @pytest.mark.parametrize("c1, empirical", [
        (math.nan, False), (math.inf, True), (math.nan, True),
        ("0.5", False), (None, True), (True, False), (False, True), (10**400, False),
    ], ids=["nan-exact", "inf-empirical", "nan-empirical", "str-exact", "none-empirical", "true-exact",
            "false-empirical", "int-beyond-float-exact"])
    def test_non_finite_coefficient_rejected(self, c1, empirical):
        # refused when made, so no model or kernel ever holds one
        message = f"c1 = {c1!r} is not a finite number >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplittingCoefficients(c1, 0.5, empirical=empirical)
        with pytest.raises(ValueError, match=f"^c2 = {re.escape(repr(c1))} is not"):
            SplittingCoefficients(0.5, c1, empirical=empirical)

    @pytest.mark.parametrize("p", ["0.2", None, True, False], ids=repr)
    def test_a_probability_that_is_not_a_number_is_a_violation(self, p):
        model = three_bin_model()
        dist = ContextualDistribution("S1", {"a": p, "b": 0.5, "c": 0.3})
        model = ContextualModel(model.space, model.dist_s, dist, model.dist_s2, model.coeffs)
        assert [str(v) for v in validate_model(model)] == [
            f"distribution.range [bin a]: context 'S1' probability {p!r} is not a number",
            "distribution.normalized: context 'S1' probabilities sum to 0.8, not 1 within 1e-09",
        ]
        with pytest.raises(ValueError, match="^cannot decompose an invalid model: distribution.range "):
            decompose(model)

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

    @pytest.mark.parametrize("space, probs, bins", [
        (("a",), {"a": 0.5, "x": 0.25, 3: 0.25}, [3, "x"]),  # mixed key types
        (("a", "c", "b"), {"a": 0.5, "z": 0.25, "y": 0.25}, ["b", "c", "y", "z"]),
    ], ids=["mixed", "str"])
    def test_uncovered_bins_are_reported_in_label_order(self, space, probs, bins):
        full = ContextualDistribution("S", dict.fromkeys(space, 1.0 / len(space)))
        model = ContextualModel(OutcomeSpace(space), full, ContextualDistribution("S1", probs), full,
                                SplittingCoefficients(0.5, 0.5))
        violations = [v for v in validate_model(model) if v.invariant == "distribution.covers_space"]
        assert [v.bin for v in violations] == bins
        assert violations[-1].message.endswith(f"bin {bins[-1]!r}")


class TestSpaceAndCounts:
    def test_empty_space(self):
        assert any(v.invariant == "space.nonempty" for v in validate_space(OutcomeSpace(())))

    def test_duplicate_labels(self):
        violations = validate_space(OutcomeSpace(("a", "a")))
        assert any(v.invariant == "space.unique_labels" for v in violations)


class TestEnsembleCounts:
    @pytest.mark.parametrize("count", [1.5, True, "3", -1, math.nan, np.int64(1)],
                             ids=["float", "bool", "str", "negative", "nan", "numpy int"])
    def test_each_count_is_an_int_of_at_least_zero(self, count):
        message = f"context 'S1' bin 'b': count {count!r} is not an int >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnsembleCounts("S1", {"a": 2, "b": count, "c": 1.5}, 10)

    @pytest.mark.parametrize("total", ["x", -5, True, 2.0, np.int64(3), None],
                             ids=["str", "negative", "bool", "float", "numpy int", "none"])
    def test_total_emitted_is_an_int_of_at_least_zero(self, total):
        message = f"context 'S': total_emitted {total!r} is not an int >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnsembleCounts("S", {"a": 1}, total)
        assert EnsembleCounts("S", {"a": 1}, 0).total_emitted == 0  # below the detected total stays allowed

    @pytest.mark.parametrize("counts", [{"a": 2**63}, {"a": 2**62, "b": 2**62}])
    def test_total_is_below_2_63(self, counts):
        with pytest.raises(ValueError, match="^context 'S' counts total 2\\*\\*63 or more$"):
            EnsembleCounts("S", counts, 0)
        assert EnsembleCounts("S", {"a": 2**63 - 1}, 0).total_detected == 2**63 - 1

    def test_bad_counts_never_become_probabilities(self):
        # Unchecked, these made the probabilities 0.75, 0.5 and -0.25 and the coefficient 2.0.
        with pytest.raises(ValueError, match="bin 'a': count 1.5 is not"):
            empirical_distribution(EnsembleCounts("S", {"a": 1.5, "b": True, "c": -0.5}, 0))
        with pytest.raises(ValueError, match="bin 'a': count 1.5 is not"):
            estimate_splitting(counts("S1", a=1), counts("S2", a=1), EnsembleCounts("S", {"a": 1.5}, 0))

    def test_total_detected_is_the_sum_of_the_counts(self):
        assert counts("S", a=3, b=0, c=4).total_detected == 7
        assert counts("S", a=3, b=0, c=4) == counts("S", c=4, a=3, b=0)
        assert EnsembleCounts("S", {}, 0).total_detected == 0


RECORDS = {
    "counts": lambda: EnsembleCounts("S", {"a": 6, "b": 4}, 10),
    "probs": lambda: ContextualDistribution("S", {"a": 0.6, "b": 0.4}),
}


@pytest.mark.parametrize("field", RECORDS)
class TestRecordsKeepWhatTheyChecked:
    def test_a_write_after_construction_is_refused(self, field):
        record = RECORDS[field]()
        mapping = getattr(record, field)
        writes = [
            lambda m: m.__setitem__("a", 1.9), lambda m: m.__delitem__("a"), lambda m: m.update(a=1),
            lambda m: m.pop("a"), lambda m: m.popitem(), lambda m: m.clear(),
            lambda m: m.setdefault("c", 1), lambda m: m.__ior__({"a": 1}),
        ]
        for write in writes:
            with pytest.raises(TypeError, match="is read-only$"):
                write(mapping)
        assert record == RECORDS[field]()
        if field == "counts":  # the total the record checked is still the counts' sum
            assert record.total_detected == sum(record.counts.values()) == 10

    def test_equality_replace_pickle_and_copies_still_work(self, field):
        record = RECORDS[field]()
        mapping = getattr(record, field)
        assert mapping == dict(mapping) and dict(mapping) == mapping and type(dict(mapping)) is dict
        assert pickle.loads(pickle.dumps(mapping)) == mapping
        copies = [pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record), dataclasses.replace(record)]
        for other in copies:
            assert other == record and type(getattr(other, field)) is type(mapping)
            with pytest.raises(TypeError, match="is read-only$"):
                getattr(other, field)["a"] = 1
        changed = dataclasses.replace(record, **{field: {"a": 1}})
        assert getattr(changed, field) == {"a": 1} != mapping


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


class TestOrderedSum:
    def test_pinned_sum_of_ten_tenths(self):
        # The builtin sum gives 1.0 here from Python 3.12 on.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum(np.full(10, 0.1)) == 0.9999999999999999

    def test_empty_sum_is_zero(self):
        assert ordered_sum([]) == 0.0

    @given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=200))
    def test_adds_left_to_right(self, values):
        expected = functools.reduce(operator.add, values)
        total = ordered_sum(values)
        assert total == expected or (math.isnan(total) and math.isnan(expected))
        assert ordered_sum(np.array(values)) == total or math.isnan(total)
