import dataclasses
import enum
import functools
import math
import operator
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxprob import (
    EnsembleCounts,
    ExplicitPhase,
    FreeWavePhase,
    GridSpec,
    Hyperbolic,
    OutcomeSpace,
    ScenarioError,
    SplittingCoefficients,
    TwoSlitScenario,
    ZeroEnsemble,
    alternative_condition_check,
    analytic_pattern,
    decompose_empirical,
    empirical_distribution,
    forward_hyp,
    gaussian_envelope,
    pattern_normalization,
    run_experiment,
    simulate_context,
    table_envelope,
    uniform_envelope,
    validate_scenario,
)
from ctxprob import twoslit
from ctxprob.interference import DEGENERATE, TRIGONOMETRIC
from ctxprob.twoslit import MAX_BINS, MAX_RUNS, repr_texts, validate_grid


def gaussian_scenario(bins=128, span=4.0, phase=None, n_emitted=10**5, runs=1, seed=1012):
    grid = GridSpec(bins, -span, span)
    env = gaussian_envelope(grid, 0.0, 1.0)
    if phase is None:
        phase = ExplicitPhase((math.pi / 2,) * bins)
    return TwoSlitScenario(grid, env, env, phase, n_emitted, runs, seed)


@st.composite
def valid_scenarios(draw):
    """A valid scenario of up to 4096 bins: gaussian, uniform or table envelopes, an explicit or a
    free-wave phase. Equal and near-equal envelopes and phases at odd multiples of pi, where the
    pattern's two terms cancel, are drawn often; the bulk arrays come from a drawn seed."""
    bins, x_min = draw(st.integers(1, 4096)), draw(st.floats(-100.0, 100.0))
    grid = GridSpec(bins, x_min, x_min + draw(st.floats(0.01, 100.0)))
    span, rng = grid.x_max - grid.x_min, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def envelope():
        kind = draw(st.sampled_from(["gaussian", "uniform", "table"]))
        if kind == "gaussian":
            mean, sigma = x_min + span * draw(st.floats(0.0, 1.0)), span * draw(st.floats(0.02, 10.0))
            return gaussian_envelope(grid, mean, sigma)
        if kind == "uniform":
            return uniform_envelope(grid)
        weights = rng.exponential(size=bins) * (rng.random(bins) < draw(st.floats(0.05, 1.0)))
        weights[rng.integers(bins)] = 1.0
        return table_envelope(weights)

    env1 = envelope()
    pairing = draw(st.sampled_from(["equal", "near", "other"]))
    if pairing == "equal":
        env2 = env1
    elif pairing == "near":
        env2 = table_envelope(env1 * (1.0 + 10.0 ** draw(st.integers(-16, -3)) * rng.standard_normal(bins)))
    else:
        env2 = envelope()
    if draw(st.booleans()):
        momenta = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
        phase = FreeWavePhase(*momenta, draw(st.floats(1e-3, 1e3)))
    else:
        odd = draw(st.sampled_from([1, -1, 3, 10**8 + 1])) * math.pi
        share = draw(st.sampled_from([0.0, 0.5, 1.0]))  # of the bins at a uniform random phase
        phase = ExplicitPhase(np.where(rng.random(bins) < share, rng.uniform(-1e3, 1e3, bins), odd))
    return TwoSlitScenario(grid, env1, env2, phase, 0)


def problems(make, *args, **fields):
    """The (invariant, message) pairs of the ScenarioError that ``make(*args, **fields)`` raises."""
    with pytest.raises(ScenarioError) as exc:
        make(*args, **fields)
    return exc.value.problems


def invariants(make, *args, **fields):
    return [name for name, _ in problems(make, *args, **fields)]


class TestScenarioValidation:
    """A grid and a scenario refuse bad fields when made, one (invariant, message) pair per problem."""

    def test_valid_scenario(self):
        assert validate_scenario(gaussian_scenario()) == []

    def test_bad_grid(self):
        names = set(invariants(GridSpec, 0, 1.0, -1.0))
        assert "grid.bins" in names and "grid.range" in names

    def test_envelope_length_mismatch(self):
        sc = gaussian_scenario()
        assert "envelope1.length" in invariants(dataclasses.replace, sc, envelope1=sc.envelope1[:-1])

    def test_unnormalized_envelope(self):
        sc = gaussian_scenario()
        doubled = tuple(2 * p for p in sc.envelope2)
        assert "envelope2.normalized" in invariants(dataclasses.replace, sc, envelope2=doubled)

    def test_negative_envelope_entry_that_still_sums_to_one(self):
        sc = gaussian_scenario(bins=4)
        assert problems(dataclasses.replace, sc, envelope1=(-0.25, 0.5, 0.5, 0.25)) == [
            ("envelope1.nonnegative", "envelope has negative entries"),
        ]

    def test_negative_counts_and_seed(self):
        names = set(invariants(gaussian_scenario, n_emitted=-1, seed=-5, runs=0))
        assert {"sampling.n_emitted", "sampling.runs", "sampling.seed"} <= names

    def test_runs_are_bounded(self):
        assert invariants(gaussian_scenario, n_emitted=0, runs=MAX_RUNS + 1) == ["sampling.runs"]
        assert validate_scenario(gaussian_scenario(n_emitted=0, runs=MAX_RUNS)) == []

    def test_sampling_total_must_fit_int64(self):
        assert invariants(gaussian_scenario, n_emitted=2**62, runs=2) == ["sampling.n_emitted"]

    def test_non_finite_grid_and_envelopes(self):
        assert invariants(GridSpec, 128, -math.inf, 4.0) == ["grid.range"]
        sc = gaussian_scenario()
        names = set(invariants(
            dataclasses.replace, sc,
            envelope1=(math.nan, *sc.envelope1[1:]),
            envelope2=(math.inf, *sc.envelope2[1:]),
        ))
        assert names == {"envelope1.finite", "envelope2.finite"}

    def test_freewave_scaling_must_be_positive(self):
        assert "phase.scaling" in invariants(gaussian_scenario, phase=FreeWavePhase(1.0, -1.0, 0.0))

    @pytest.mark.parametrize("phase, invariant", [
        (FreeWavePhase(1.0, -1.0, math.nan), "phase.scaling"),
        (FreeWavePhase(1.0, -1.0, math.inf), "phase.scaling"),
        (FreeWavePhase(1e308, -1e308), "phase.finite"),
        (FreeWavePhase(2.5, -2.5, 1e-320), "phase.finite"),
        (FreeWavePhase(math.nan, 0.0), "phase.finite"),
        (ExplicitPhase((math.nan,) * 128), "phase.finite"),
    ])
    def test_phase_must_be_finite(self, phase, invariant):
        assert invariants(gaussian_scenario, phase=phase) == [invariant]

    def test_grid_width_and_size_are_bounded(self):
        assert invariants(GridSpec, 16, -1e308, 1e308) == ["grid.range"]
        assert invariants(GridSpec, MAX_BINS + 1, -4.0, 4.0) == ["grid.bins"]
        assert validate_grid(GridSpec(MAX_BINS, -4.0, 4.0)) == []
        # 2**24 bins would peak near 12 GB in simulate
        assert invariants(GridSpec, 2**24, -4.0, 4.0) == ["grid.bins"]

    def test_grid_labels_are_unique_midpoints(self):
        grid = GridSpec(64, -4.0, 4.0)
        labels = grid.labels()
        assert len(set(labels)) == 64
        assert labels[0] == repr(float(grid.midpoints()[0]))
        # On a range a few ulps wide, midpoints (and so labels) coincide, and the grid is refused.
        width = (1.0000000000000004 - 1.0) / 8
        assert len(set(twoslit.position_labels(1.0 + (np.arange(8) + 0.5) * width))) < 8
        assert problems(GridSpec, 8, 1.0, 1.0000000000000004) == [
            ("grid.range", "8 bins have equal midpoints on this range")
        ]
        assert validate_grid(GridSpec(2, 1.0, 1.0000000000000004)) == []

    @pytest.mark.parametrize("fields", [
        {"runs": 2.0}, {"runs": True}, {"seed": 1.5}, {"seed": True}, {"n_emitted": 1.5},
        {"n_emitted": True}, {"n_emitted": np.int64(2**62), "runs": 4},
    ], ids=repr)
    def test_counts_and_seed_are_plain_ints(self, fields):
        name, value = next(iter(fields.items()))
        assert problems(gaussian_scenario, **fields) == [(f"sampling.{name}", f"must be an int, got {value!r}")]

    @pytest.mark.parametrize("bins", [64.0, True, np.int64(64)], ids=repr)
    def test_grid_bins_are_a_plain_int(self, bins):
        assert problems(GridSpec, bins, -4, 4) == [("grid.bins", f"must be an int, got {bins!r}")]

    @pytest.mark.parametrize("bins, x_min, x_max", [
        (4, "a", 1.0), (4, 0.0, None), (4, True, 1.0), (0, np.float32(0.5), [1.0]),
    ], ids=repr)
    def test_grid_ends_are_numbers(self, bins, x_min, x_max):
        expected = [("grid.bins", "need 1 to 2097152 bins, got 0")] if bins == 0 else []
        expected += [
            (f"grid.{name}", f"must be an int or a float, got {value!r}")
            for name, value in (("x_min", x_min), ("x_max", x_max)) if type(value) not in (int, float)
        ]
        assert problems(GridSpec, bins, x_min, x_max) == expected

    @pytest.mark.parametrize("fields, expected", [
        ({"momentum1": "a"}, [("phase.momentum1", "must be an int or a float, got 'a'")]),
        ({"momentum1": None}, [("phase.momentum1", "must be an int or a float, got None")]),
        ({"momentum2": True}, [("phase.momentum2", "must be an int or a float, got True")]),
        ({"scaling": "a"}, [("phase.scaling", "must be an int or a float, got 'a'")]),
        ({"momentum2": "b", "scaling": None}, [
            ("phase.momentum2", "must be an int or a float, got 'b'"),
            ("phase.scaling", "must be an int or a float, got None"),
        ]),
        ({"momentum1": 10**400}, [("phase.momentum1", f"must be finite, got {10**400!r}")]),
        ({"scaling": 10**400}, [("phase.scaling", f"scaling must be finite and positive, got {10**400!r}")]),
    ], ids=[
        "momentum1 str", "momentum1 None", "momentum2 bool", "scaling str", "two fields", "momentum1 10**400",
        "scaling 10**400",
    ])
    def test_free_wave_fields_are_numbers(self, monkeypatch, fields, expected):
        def unreachable(self):
            raise AssertionError("theta evaluated before the phase's fields were checked")

        monkeypatch.setattr(TwoSlitScenario, "phase_table", unreachable)
        phase = FreeWavePhase(**{"momentum1": 1.0, "momentum2": -1.0, **fields})
        assert problems(gaussian_scenario, phase=phase) == expected

    def test_grid_ends_beyond_the_float_range(self):
        assert problems(GridSpec, 4, 0, 10**400) == [
            ("grid.range", f"x_min 0 and x_max {10**400!r} must be finite")
        ]
        assert invariants(GridSpec, 4, -(10**308), 10**308) == ["grid.range"]  # x_max - x_min
        assert GridSpec(4, -4, 4).labels() == ("-3.0", "-1.0", "1.0", "3.0")

    @pytest.mark.parametrize("phase", [None, "freewave", (0.5,) * 128], ids=["none", "str", "tuple"])
    def test_phase_is_a_phase_model(self, phase):
        assert problems(dataclasses.replace, gaussian_scenario(), phase=phase) == [
            ("phase.kind", f"must be an ExplicitPhase or a FreeWavePhase, got {phase!r}")
        ]

    def test_per_bin_values_are_1d(self):
        sc = gaussian_scenario()
        assert problems(dataclasses.replace, sc, envelope1=sc.envelope1.reshape(-1, 1)) == [
            ("envelope1.length", "values must be 1-D, got shape (128, 1)")
        ]
        assert problems(dataclasses.replace, sc, envelope2=np.array(1.0)) == [
            ("envelope2.length", "values must be 1-D, got shape ()")
        ]
        assert problems(dataclasses.replace, sc, phase=ExplicitPhase(np.zeros((128, 1)))) == [
            ("phase.length", "phases must be 1-D, got shape (128, 1)")
        ]

    def test_a_scenario_is_checked_once_when_made(self, validation_calls):
        sc = gaussian_scenario(bins=64)
        assert validation_calls == {"validate_scenario": 1, "validate_grid": 1}
        run_experiment(sc)
        analytic_pattern(sc)
        pattern_normalization(sc)
        for which in twoslit.CONTEXT_IDS:
            simulate_context(sc, which)
        assert validation_calls == {"validate_scenario": 1, "validate_grid": 1}

    @pytest.mark.parametrize("mean, sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf),
        pytest.param(10**400, 1.0, id="10**400-1.0"), ("a", 1.0), (0.0, True),
        pytest.param(0.0, 10**400, id="0.0-10**400"),
    ])
    def test_gaussian_envelope_rejects_non_finite_parameters(self, mean, sigma):
        # Unchecked, a NaN gives an all-NaN envelope and sigma = inf the uniform one.
        with pytest.raises(ValueError, match="finite"):
            gaussian_envelope(GridSpec(8, -1.0, 1.0), mean, sigma)

    def test_table_envelope_sums_left_to_right(self):
        # The builtin sum gives 1.0 here from Python 3.12 on, 0.9999999999999999 before.
        assert table_envelope([0.1] * 10).tolist() == [0.1 / 0.9999999999999999] * 10
        assert table_envelope([0.1] * 10)[0] == 0.10000000000000002

    def test_table_envelope_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="negative"):
            table_envelope([0.5, -0.1, 0.6])
        with pytest.raises(ValueError, match="zero"):
            table_envelope([0.0, 0.0])
        assert table_envelope([2.0, 6.0]).tolist() == [0.25, 0.75]

    def test_envelope_builders_match_the_tuple_arithmetic_bit_for_bit(self):
        grid = GridSpec(1000, -3.7, 5.1)
        x = grid.midpoints()
        v = np.exp(-0.5 * ((x - 0.3) / 1.3) ** 2)
        weights = np.random.default_rng(7).random(1000).tolist() + [3]
        expected = {  # each builder's values as tuples of Python floats
            "gaussian": tuple(float(p) for p in v / float(v.sum())),
            "uniform": (1.0 / grid.bins,) * grid.bins,
            "table": tuple(p / functools.reduce(operator.add, weights) for p in weights),
        }
        built = {
            "gaussian": gaussian_envelope(grid, 0.3, 1.3),
            "uniform": uniform_envelope(grid),
            "table": table_envelope(weights),
        }
        for name, envelope in built.items():
            assert envelope.dtype == np.float64, name
            assert envelope.tobytes() == np.array(expected[name]).tobytes(), name

    def test_envelopes_and_explicit_phases_are_read_only(self):
        grid = GridSpec(8, 0.0, 1.0)
        given = np.full(8, 1 / 8)
        sc = TwoSlitScenario(grid, given, [1 / 8] * 8, ExplicitPhase([0.5] * 8), 100)
        given[0] = 9.0  # the scenario holds its own copy
        assert sc.envelope1[0] == 1 / 8
        arrays = (
            sc.envelope1, sc.envelope2, sc.phase.values, gaussian_envelope(grid, 0.5, 1.0),
            uniform_envelope(grid), table_envelope([1.0] * 8),
        )
        for values in arrays:
            assert values.dtype == np.float64
            assert values.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0


small_scenario = functools.partial(gaussian_scenario, bins=4)

#: Each plain-int field: where it enters, its name in the error, a call that takes it, an int it
#: takes, and its range (None: no upper end).
INT_FIELDS = [
    ("GridSpec", "grid.bins", lambda v: GridSpec(v, -1.0, 1.0), 4, 1, MAX_BINS),
    ("TwoSlitScenario", "sampling.n_emitted", lambda v: small_scenario(n_emitted=v), 2, 0, 2**63 - 1),
    ("TwoSlitScenario", "sampling.runs", lambda v: small_scenario(runs=v), 2, 1, MAX_RUNS),
    ("TwoSlitScenario", "sampling.seed", lambda v: small_scenario(seed=v), 2, 0, 2**64 - 1),
    ("run_experiment", "workers", lambda v: run_experiment(small_scenario(), workers=v), 2, 1, None),
    ("Hyperbolic", "sign", lambda v: Hyperbolic(1.0, v), 1, -1, 1),
    ("forward_hyp", "sign", lambda v: forward_hyp(SplittingCoefficients(0.5, 0.5), 0.1, 0.1, 0.5, v), 1, -1, 1),
]


def int_rule_cases():
    """Per field: a bool, a float, an IntEnum and a numpy integer of a taken value, and each end's outside."""
    for where, field, make, ok, lo, hi in INT_FIELDS:
        plain = enum.IntEnum("Plain", {"N": ok}).N
        for value in [True, float(ok), plain, np.int64(ok), lo - 1] + ([] if hi is None else [hi + 1]):
            yield pytest.param(field, make, ok, value, id=f"{where}-{field}-{value!r}")


@pytest.mark.parametrize("field, make, ok, value", int_rule_cases())
def test_each_int_field_takes_only_a_plain_int_in_its_range(field, make, ok, value):
    make(ok)
    with pytest.raises((ScenarioError, ValueError)) as info:
        make(value)
    error = info.value
    if isinstance(error, ScenarioError):
        assert [path for path, _ in error.problems] == [field]
    else:
        assert str(error).startswith(f"{field} must be")
    assert str(error).endswith(f", got {value!r}")


#: Each maker of a per-bin list.
PER_BIN = {
    "table_envelope": table_envelope,
    "ExplicitPhase": ExplicitPhase,
    "list-envelope": lambda values: TwoSlitScenario(
        GridSpec(2, -1.0, 1.0), values, [0.5, 0.5], ExplicitPhase([0.0, 0.0]), 10
    ),
}


@pytest.mark.parametrize("entry", ["1", None, True, 10**400], ids=["str", "None", "bool", "10**400"])
@pytest.mark.parametrize("make", PER_BIN.values(), ids=PER_BIN)
def test_each_per_bin_list_takes_only_numbers(make, entry):
    make([0.5, 0.5])
    with pytest.raises(ValueError, match=f"^expected a number, got {re.escape(repr(entry))}$"):
        make([0.5, entry])
    with pytest.raises(ValueError, match="^expected a number, got "):  # an array of str, bool or objects
        make(np.array([entry, entry]))


def bit_pattern(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


#: Each side of orjson's window 1e-4 <= |x| < 1e16, the ends of the float64 range and 2**53.
EDGES = [
    0.0, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
    np.nextafter(1e16, math.inf), 5e-324, sys.float_info.min, np.nextafter(sys.float_info.min, 0),
    sys.float_info.max, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.1, 1 / 3, math.inf, math.nan,
]


class TestReprTexts:
    """One orjson call writes the text of every value; each must be ``repr``'s, bit pattern by bit pattern."""

    @given(st.lists(st.integers(0, 2**64 - 1) | st.floats().map(bit_pattern), max_size=64))
    def test_any_float64_bit_pattern(self, bits):
        values = np.array(bits, np.uint64).view(np.float64)
        assert repr_texts(values) == list(map(repr, values.tolist()))

    def test_a_million_seeded_doubles(self):
        # Half are any bit pattern; half have an exponent from 2**-14 to 2**54, around orjson's window.
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, 10**6, np.uint64, endpoint=False)
        exponents = rng.integers(1023 - 14, 1023 + 54, 5 * 10**5, np.uint64, endpoint=True)
        bits[::2] = bits[::2] & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponents << np.uint64(52)
        values = bits.view(np.float64)
        size = np.abs(values)
        assert ((1e-4 <= size) & (size < 1e16)).sum() > 4 * 10**5  # written by orjson
        assert repr_texts(values) == list(map(repr, values.tolist()))

    def test_edges(self):
        values = np.array([sign * v for v in EDGES for sign in (1.0, -1.0)])
        assert repr_texts(values) == list(map(repr, values.tolist()))
        assert twoslit.position_labels(values[::3]) == tuple(map(repr, values[::3].tolist()))  # not contiguous
        assert repr_texts(np.array([])) == [] == list(twoslit.position_labels(np.array([])))

    def test_int64_counts(self):
        info = np.iinfo(np.int64)
        values = np.array([info.min, -(10**16), -1, 0, 1, 10**15, 10**16, 10**17 + 1, info.max], np.int64)
        assert repr_texts(values) == list(map(repr, values.tolist()))


class TestAnalyticPattern:
    def test_quarter_phase_returns_envelope(self):
        sc = gaussian_scenario()
        pattern = analytic_pattern(sc)
        for label, p in zip(sc.grid.labels(), sc.envelope1):
            assert pattern.probs[label] == pytest.approx(p, abs=1e-15)

    def test_destructive_node_is_exactly_zero(self):
        bins = 64
        phases = [math.pi / 2] * bins
        phases[30] = math.pi
        phases[40] = math.pi
        sc = gaussian_scenario(bins=bins, phase=ExplicitPhase(tuple(phases)))
        pattern = analytic_pattern(sc)
        labels = sc.grid.labels()
        assert pattern.probs[labels[30]] == 0.0
        assert pattern.probs[labels[40]] == 0.0

    @given(valid_scenarios())
    def test_raw_pattern_of_a_valid_scenario_is_above_minus_1e_15(self, scenario):
        # The pattern is a squared modulus, at least (1/2)(sqrt(p1) - sqrt(p2))**2, so only float
        # dust takes it below 0; sampling clips that dust at 0 and checks nothing else.
        raw = twoslit.interference_pattern(scenario.envelope1, scenario.envelope2, scenario.phase_table())
        assert raw.min() > -1e-15

    def test_freewave_fringe_period(self):
        # Phase 4x gives fringe minima spaced pi/2 apart.
        sc = gaussian_scenario(bins=512, span=4.0, phase=FreeWavePhase(2.0, -2.0, 1.0))
        pattern = analytic_pattern(sc)
        values = np.array([pattern.probs[b] for b in sc.grid.labels()])
        x = sc.grid.midpoints()
        envelope = np.asarray(sc.envelope1)
        fringe = values / (envelope / sum(values * 0 + 1))  # envelope-normalized shape
        fringe = values / envelope
        interior = (np.abs(x) < 3.0)
        minima = [
            i
            for i in range(1, 511)
            if interior[i] and fringe[i] < fringe[i - 1] and fringe[i] < fringe[i + 1]
            and fringe[i] < 0.05
        ]
        node_positions = x[minima]
        spacings = np.diff(node_positions)
        assert np.allclose(spacings, math.pi / 2, atol=sc.grid.width)
        # nodes sit at odd multiples of pi/4
        for pos in node_positions:
            nearest = round(pos / (math.pi / 4))
            assert nearest % 2 == 1
            assert abs(pos - nearest * math.pi / 4) <= sc.grid.width

    def test_pattern_sums_to_one(self):
        sc = gaussian_scenario(phase=FreeWavePhase(2.5, -2.5, 1.0))
        pattern = analytic_pattern(sc)
        assert sum(pattern.probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_constant_reported(self):
        sc = gaussian_scenario(bins=64, span=4.0, phase=FreeWavePhase(0.25, -0.25, 1.0))
        constant = pattern_normalization(sc)
        # slow phase: the cosine term adds a visible fraction of the mass
        assert abs(constant - 1.0) > 1e-3
        pattern = analytic_pattern(sc)
        assert sum(pattern.probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestSimulateContext:
    def test_single_bin_envelope(self):
        grid = GridSpec(4, 0.0, 4.0)
        env1 = table_envelope([1.0, 0.0, 0.0, 0.0])
        env2 = uniform_envelope(grid)
        sc = TwoSlitScenario(grid, env1, env2, ExplicitPhase((math.pi / 2,) * 4), 5000, seed=3)
        counts = simulate_context(sc, "S1")
        values = list(counts.counts.values())
        assert values[0] == counts.total_detected > 0
        assert values[1:] == [0, 0, 0]

    def test_zero_emissions_gives_empty_counts(self):
        sc = dataclasses.replace(gaussian_scenario(), n_emitted=0)
        counts = simulate_context(sc, "S")
        assert counts.total_detected == 0
        with pytest.raises(ZeroEnsemble):
            empirical_distribution(counts)

    def test_branch_contexts_are_thinned(self):
        sc = gaussian_scenario(n_emitted=10**6, seed=11)
        for which in ("S1", "S2"):
            counts = simulate_context(sc, which)
            assert counts.total_emitted == 10**6
            # acceptance 1/2 within 5 sigma
            assert abs(counts.total_detected - 500000) < 5 * math.sqrt(10**6 * 0.25)
        assert simulate_context(sc, "S").total_detected == 10**6

    def test_deterministic_per_context(self):
        sc = gaussian_scenario(seed=123)
        a = simulate_context(sc, "S1")
        b = simulate_context(sc, "S1")
        assert a == b
        d = simulate_context(sc, "S2")
        assert d.counts != a.counts

    def test_counts_match_multinomial_expectation(self):
        # Statistical oracle from exact binomial moments: at n = 1e6 at least
        # 99% of bins land within 4 standard deviations of their expectation.
        sc = gaussian_scenario(bins=128, span=4.0, n_emitted=10**6, seed=2026)
        pattern = np.array(
            [analytic_pattern(sc).probs[b] for b in sc.grid.labels()]
        )
        for which, pv, trials in (
            ("S", pattern, 10**6),
            ("S1", np.asarray(sc.envelope1) * 0.5, 10**6),
            ("S2", np.asarray(sc.envelope2) * 0.5, 10**6),
        ):
            counts = np.array(list(simulate_context(sc, which).counts.values()))
            mean = trials * pv
            sd = np.sqrt(trials * pv * (1.0 - pv))
            ok = np.abs(counts - mean) <= 4.0 * np.maximum(sd, 1e-300)
            assert ok.mean() >= 0.99, which

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match="context"):
            simulate_context(gaussian_scenario(), "S3")


class TestStreamKeys:
    def test_keys_give_philox_seeded_streams(self):
        sc = gaussian_scenario(n_emitted=1000, runs=3, seed=2**64 - 1)
        seq = np.random.SeedSequence(entropy=sc.seed, spawn_key=(1, 0))
        rng = np.random.Generator(np.random.Philox(seq))
        expected = rng.multinomial(rng.binomial(3000, 0.5), sc.envelope1 / sc.envelope1.sum())
        assert list(simulate_context(sc, "S1").counts.values()) == expected.tolist()


class TestRunExperiment:
    def test_classical_scenario_obeys_mixture_rule(self):
        report = run_experiment(gaussian_scenario(n_emitted=10**5, seed=5))
        assert report.violation_statistic <= 5.0
        # lambda consistent with 0 on bins with adequate statistics; the
        # plug-in standard error is unreliable below ~100 counts per context.
        n_s = report.counts_s.total_detected
        n_1 = report.counts_s1.total_detected
        n_2 = report.counts_s2.total_detected
        checked = 0
        t = report.table
        columns = (t.lam, t.stderr_lambda, t.p_s, t.p1, t.p2)
        for lam, se_lam, p_s, p_1, p_2 in zip(*(c.tolist() for c in columns)):
            if math.isnan(lam) or not se_lam > 0:  # NaN where undefined
                continue
            if min(p_s * n_s, p_1 * n_1, p_2 * n_2) < 100:
                continue
            assert abs(lam) <= 5 * se_lam
            checked += 1
        assert checked > 50

    def test_freewave_scenario_violates_mixture_rule(self):
        sc = gaussian_scenario(n_emitted=10**5, seed=5, phase=FreeWavePhase(2.5, -2.5, 1.0))
        report = run_experiment(sc)
        assert report.violation_statistic > 5.0
        assert report.pattern_normalization == pytest.approx(1.0, abs=1e-3)

    def test_determinism_and_worker_independence(self):
        sc = gaussian_scenario(n_emitted=10**4, runs=10, seed=77)
        first = run_experiment(sc)
        second = run_experiment(sc)
        parallel = run_experiment(sc, workers=4)
        assert first == second == parallel
        assert (first == object()) is False and first != object()  # same_fields gives NotImplemented
        assert (first.table == object()) is False

    def test_runs_aggregate_emissions(self):
        sc = gaussian_scenario(n_emitted=1000, runs=3, seed=9)
        report = run_experiment(sc)
        assert report.counts_s.total_emitted == 3000
        assert report.counts_s.total_detected == 3000

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None, True, False, np.int64(2)])
    def test_workers_must_be_an_int_of_at_least_one(self, workers):
        sc = dataclasses.replace(gaussian_scenario(), runs=MAX_RUNS)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^workers must be an int >= 1, got {re.escape(repr(workers))}$"):
            run_experiment(sc, workers=workers)
        assert time.perf_counter() - start < 0.5  # checked before any pair is drawn

    def test_infinite_tolerance_is_rejected(self):
        # Unchecked, every bin with a lambda is classified boundary.
        with pytest.raises(ValueError, match="finite and positive"):
            run_experiment(gaussian_scenario(bins=16, n_emitted=1000), tol=math.inf)

    @pytest.mark.parametrize("tol", [
        math.inf, math.nan, 0.0, -0.1, "x", None, True, pytest.param(10**400, id="10**400"),
    ])
    def test_tolerance_is_checked_before_sampling(self, monkeypatch, tol):
        def unreachable(*args):
            raise AssertionError("sampled before the tolerance was checked")

        monkeypatch.setattr(twoslit, "_distributions", unreachable)
        monkeypatch.setattr(twoslit, "_draw", unreachable)
        message = f"classification tolerance must be finite and positive, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(gaussian_scenario(runs=MAX_RUNS), tol=tol)

    def test_zero_emissions_raises(self):
        sc = dataclasses.replace(gaussian_scenario(), n_emitted=0, runs=MAX_RUNS)
        start = time.perf_counter()
        with pytest.raises(ZeroEnsemble, match="pooled context has zero detected systems"):
            run_experiment(sc)
        assert time.perf_counter() - start < 0.5  # three empty draws, not one per run

    @pytest.mark.parametrize("runs", [1, 3])
    def test_counts_are_simulate_context_at_any_runs(self, runs):
        sc = gaussian_scenario(bins=64, n_emitted=5000, runs=runs, seed=31)
        report = run_experiment(sc)
        counts = (report.counts_s, report.counts_s1, report.counts_s2)
        for which, ensemble in zip(("S", "S1", "S2"), counts):
            assert ensemble == simulate_context(sc, which)
            assert ensemble.total_emitted == 5000 * runs

    def test_runs_sum_to_one_multinomial_of_all_systems(self):
        # R runs of n systems sum to one multinomial of n * R: a cell's count
        # is Binomial(n * R, p) with p its pooled probability, or half its
        # branch probability. Its mean and spread over seeds follow from p.
        n, runs, seeds = 50, 20, 200
        sc = gaussian_scenario(bins=8, span=2.0, n_emitted=n, runs=runs, phase=FreeWavePhase(1.5, -1.5, 1.0))
        counts = np.array([run_experiment(dataclasses.replace(sc, seed=seed)).counts for seed in range(seeds)])
        p = np.array(twoslit._distributions(sc)[0]) * [[1.0], [0.5], [0.5]]
        mean, std = n * runs * p, np.sqrt(n * runs * p * (1.0 - p))
        assert (np.abs(counts.mean(axis=0) - mean) <= 4.0 * std / math.sqrt(seeds)).all()
        ratio = counts.std(axis=0, ddof=1) / std
        assert ((0.6 <= ratio) & (ratio <= 1.5)).all()

    def test_max_runs_draws_in_milliseconds(self):
        sc = dataclasses.replace(gaussian_scenario(), runs=MAX_RUNS)
        start = time.perf_counter()
        report = run_experiment(sc)
        assert time.perf_counter() - start < 0.5  # one draw per context, not one per run
        assert report.counts_s.total_detected == 10**5 * MAX_RUNS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_runs(self, workers):
        # 3 * 256 histograms of 1024 int64 counts would hold 6.3 MB at once;
        # one draw per context holds three.
        for bins, runs in ((1024, 256), (16, 2048)):
            sc = gaussian_scenario(bins=bins, n_emitted=10**5, runs=runs, seed=3)
            tracemalloc.start()
            try:
                run_experiment(sc, workers=workers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3.5e6, (bins, runs)

    def test_counts_are_one_int64_array(self):
        sc = gaussian_scenario(bins=64, n_emitted=1000, runs=2, seed=9)
        report = run_experiment(sc)
        assert report.counts.dtype == np.int64 and report.counts.shape == (3, 64)
        assert report.labels == sc.grid.labels()
        ensembles = (report.counts_s, report.counts_s1, report.counts_s2)
        for which, row, ensemble in zip(("S", "S1", "S2"), report.counts.tolist(), ensembles):
            assert ensemble.context_id == which and ensemble.total_emitted == 2000
            assert ensemble.counts == dict(zip(sc.grid.labels(), row))

    def test_empty_branch_bins_marked_degenerate(self):
        sc = gaussian_scenario(bins=64, span=8.0, n_emitted=2000, seed=4)
        report = run_experiment(sc)
        kinds = set(report.table.kind.tolist())
        assert DEGENERATE in kinds  # far tails get no branch counts at this size
        assert TRIGONOMETRIC in kinds

    def test_sqrt_n_convergence(self):
        # 100x the sample size shrinks the worst-bin error by about 10x.
        ratios = []
        for seed in (1, 2, 3):
            devs = []
            for n in (10**4, 10**6):
                sc = gaussian_scenario(bins=64, n_emitted=n, seed=seed)
                pattern = analytic_pattern(sc)
                counts = simulate_context(sc, "S")
                emp = empirical_distribution(counts)
                devs.append(
                    max(abs(emp.probs[b] - pattern.probs[b]) for b in sc.grid.labels())
                )
            ratios.append(devs[0] / devs[1])
        assert 4.0 <= sorted(ratios)[1] <= 25.0

    def test_estimated_coefficients_converge(self):
        n = 10**6
        report = run_experiment(gaussian_scenario(n_emitted=n, seed=31))
        bound = 5.0 / (2.0 * math.sqrt(n))
        assert abs(report.coeffs.c1 - 0.5) <= bound
        assert abs(report.coeffs.c2 - 0.5) <= bound
        assert report.coeffs.deviation == pytest.approx(
            abs(report.coeffs.c1 + report.coeffs.c2 - 1.0), abs=1e-15
        )


class TestAlternativeCondition:
    def test_exact_mean_counts_pass_with_zero_deviation(self):
        report = run_experiment(gaussian_scenario(n_emitted=1000, seed=8))
        half = np.zeros_like(report.counts[0])
        half[0] = 500
        forced = dataclasses.replace(report, counts=np.stack([report.counts[0], half, half]))
        passed, deviation = alternative_condition_check(forced, 5.0)
        assert passed and deviation == 0.0

    def test_simulated_symmetric_run_passes(self):
        report = run_experiment(gaussian_scenario(n_emitted=10**5, seed=21))
        passed, deviation = alternative_condition_check(report, 5.0)
        assert passed
        assert deviation == pytest.approx(
            abs(
                report.counts_s1.total_detected
                + report.counts_s2.total_detected
                - report.counts_s.total_detected
            )
            / math.sqrt(report.counts_s.total_detected),
            abs=1e-12,
        )

    def test_misspecified_acceptance_fails_for_large_ensembles(self):
        # Branch acceptance of 0.6 each instead of 1/2: the sharing deviation
        # grows like 0.2 * sqrt(N) and the check must flag it.
        n = 10**4
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(99)))
        report = run_experiment(gaussian_scenario(n_emitted=n, seed=13))
        bins = report.counts.shape[1]
        bad = []
        for _ in ("S1", "S2"):
            detected = int(rng.binomial(n, 0.6))
            bad.append(rng.multinomial(detected, np.full(bins, 1.0 / bins)))
        forced = dataclasses.replace(report, counts=np.stack([report.counts[0], *bad]))
        passed, deviation = alternative_condition_check(forced, 5.0)
        assert not passed
        assert deviation > 15.0  # expectation is 0.2 * sqrt(10^4) = 20

    def test_zero_ensemble_rejected(self):
        report = run_experiment(gaussian_scenario(n_emitted=100, seed=1))
        counts = report.counts.copy()
        counts[0] = 0
        empty = dataclasses.replace(report, counts=counts, emitted=(0, *report.emitted[1:]))
        with pytest.raises(ZeroEnsemble):
            alternative_condition_check(empty, 5.0)


class TestReportShape:
    def test_bins_carry_positions_and_errors(self):
        sc = gaussian_scenario(n_emitted=10**5, seed=55, phase=FreeWavePhase(2.5, -2.5, 1.0))
        report = run_experiment(sc)
        assert list(report.x) == [pytest.approx(v) for v in sc.grid.midpoints()]
        t = report.table
        rich = np.flatnonzero(t.kind == TRIGONOMETRIC)
        assert rich.size, "expected classified bins"
        for i in rich:
            assert 0.0 <= t.theta[i] <= math.pi  # False for NaN
            assert math.isnan(t.stderr_lambda[i]) or t.stderr_lambda[i] > 0.0
            assert math.isnan(t.z[i]) or t.z[i] >= 0.0

    def test_histograms_are_aligned_by_label(self):
        report = run_experiment(gaussian_scenario(n_emitted=2000, seed=8))
        counts = (report.counts_s, report.counts_s1, report.counts_s2)
        shuffled = dataclasses.replace(
            report.counts_s1, counts=dict(reversed(report.counts_s1.counts.items()))
        )
        space = OutcomeSpace(report.labels)
        aligned = decompose_empirical(space, *counts)
        assert decompose_empirical(space, counts[0], shuffled, counts[2]) == aligned
        with pytest.raises(ValueError, match="do not cover"):
            decompose_empirical(OutcomeSpace(report.labels[1:]), *counts)

    @pytest.mark.parametrize("labels, counts, differences", [
        ([1, 2], {1: 5, 2: 5}, r"\['1', 1, '2', 2\]"),  # the space holds "1" and "2"
        (["a", "b"], {"a": 5, 3: 5}, r"\[3, 'b'\]"),
        (["a", "b"], {"a": 5, "c": 5}, r"\['b', 'c'\]"),
    ], ids=["int-keys", "mixed-keys", "str-keys"])
    def test_uncovered_bins_are_a_value_error(self, labels, counts, differences):
        counts = [EnsembleCounts(which, counts, 10) for which in ("S", "S1", "S2")]
        with pytest.raises(ValueError, match=f"context 'S' .* \\(first differences: {differences}\\)$"):
            decompose_empirical(OutcomeSpace(labels), *counts)

    def test_uncovered_bins_are_listed_in_one_order_at_any_hash_seed(self):
        # Labels that print alike, 1 and "1", sort by repr, not by the set's hash order.
        code = (
            "from ctxprob import ContextualDistribution, EnsembleCounts, OutcomeSpace, decompose_empirical\n"
            "from ctxprob.core import validate_distribution\n"
            "counts = [EnsembleCounts(w, {1: 5, 2: 5}, 10) for w in ('S', 'S1', 'S2')]\n"
            "try:\n"
            "    decompose_empirical(OutcomeSpace([1, 2]), *counts)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "dist = ContextualDistribution('S', {1: 0.5, '1': 0.5, 2: 0.0, '2': 0.0})\n"
            "print(*validate_distribution(dist, OutcomeSpace(['a'])), sep='\\n')\n"
        )
        outs = []
        for seed in ("4", "5"):  # seeds at which the set {1, "1", 2, "2"} iterates in different orders
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(twoslit.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, "")
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert "(first differences: ['1', 1, '2', 2])" in outs[0]

    @pytest.mark.parametrize("counts", [
        {"a": 10**20, "b": 5},  # beyond int64 in one bin
        {"a": 2**62, "b": 2**62},  # each bin fits; the total would wrap to -2**63
    ])
    def test_totals_beyond_int64_raise_value_error(self, counts):
        with pytest.raises(ValueError, match="context 'S' counts total 2\\*\\*63 or more"):
            EnsembleCounts("S", counts, 0)  # refused when made, before decompose_empirical

    @pytest.mark.parametrize("context", [0, 1, 2])
    @pytest.mark.parametrize("counts, label, count", [
        ({"a": 1.5, "b": 3}, "a", 1.5),
        ({"a": 3, "b": True}, "b", True),
        ({"a": "3", "b": 3}, "a", "'3'"),
        ({"a": -1, "b": 1}, "a", -1),  # a total of 0
        ({"a": 5, "b": -1}, "b", -1),  # a positive total
        ({"a": 3, "b": math.nan}, "b", "nan"),
    ])
    def test_counts_must_be_ints_of_at_least_zero(self, context, counts, label, count):
        which = ("S", "S1", "S2")[context]
        message = f"context '{which}' bin '{label}': count {count} is not an int >= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnsembleCounts(which, counts, 10)  # refused when made, before decompose_empirical

    def test_invalid_scenario_raises_scenario_error(self):
        with pytest.raises(ScenarioError):
            dataclasses.replace(gaussian_scenario(), runs=0)

    def test_reported_stderr_matches_seed_to_seed_spread(self):
        # Independent oracle for the error model: the reported per-bin
        # stderr_lambda should match the spread of lambda-hat across seeds.
        grid = GridSpec(64, -4.0, 4.0)
        env = gaussian_envelope(grid, 0.0, 1.0)
        phase = FreeWavePhase(1.5, -1.5, 1.0)
        x = grid.midpoints()
        # away from the fold points |cos| = 1 where the estimate is clipped
        picked = [i for i in range(20, 44) if abs(math.cos(3.0 * x[i])) < 0.7][:3]
        assert len(picked) == 3
        samples = {i: ([], []) for i in picked}
        for seed in range(40):
            sc = TwoSlitScenario(grid, env, env, phase, 20000, 1, seed)
            report = run_experiment(sc)
            for i in picked:
                lam, se_lam = report.table.lam[i], report.table.stderr_lambda[i]
                if not math.isnan(lam) and se_lam > 0:
                    samples[i][0].append(lam)
                    samples[i][1].append(se_lam)
        for i in picked:
            lams, errs = samples[i]
            assert len(lams) == 40
            spread = float(np.std(lams, ddof=1))
            reported = float(np.mean(errs))
            assert 0.6 <= spread / reported <= 1.5

    def test_single_bin_grid_degenerates_gracefully(self):
        grid = GridSpec(1, -1.0, 1.0)
        env = uniform_envelope(grid)
        sc = TwoSlitScenario(grid, env, env, ExplicitPhase((math.pi / 2,)), 1000, 1, 5)
        report = run_experiment(sc)
        t = report.table
        assert t.p_s.tolist() == t.p1.tolist() == t.p2.tolist() == [1.0]
        assert t.lam[0] == 0.0
        assert math.isnan(t.z[0])  # zero binomial variance at p = 1
        assert report.violation_statistic == 0.0
