"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Every tolerance is pinned here; the statistical criteria use
fixed seeds so the whole gate is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from ctxprob import (
    ExplicitPhase,
    FreeWavePhase,
    GridSpec,
    Hyperbolic,
    OutOfRange,
    SplitComplex,
    SplittingCoefficients,
    Trigonometric,
    TwoSlitScenario,
    alternative_condition_check,
    analytic_pattern,
    classify,
    cli,
    forward_trig,
    gaussian_envelope,
    lambda_coefficient,
    perturbation_delta,
    run_experiment,
    simulate_context,
    split_modulus,
    synthesize_wave,
)
from ctxprob import forward_hyp
from ctxprob.interference import TRIGONOMETRIC

N_RANDOM = 10_000
ACCEPTANCE_SEED = 15


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def random_suite(rng):
    c1 = rng.uniform(0.05, 0.95, N_RANDOM)
    p1 = rng.uniform(0.01, 0.99, N_RANDOM)
    p2 = rng.uniform(0.01, 0.99, N_RANDOM)
    theta = rng.uniform(1e-3, math.pi - 1e-3, N_RANDOM)
    return c1, p1, p2, theta


def freewave_scenario(n_emitted=10**6, runs=1, seed=ACCEPTANCE_SEED):
    # 256 bins over [-4, 4], unit Gaussian envelopes, phase 5x: about 6.4
    # fringes across the grid.
    grid = GridSpec(256, -4.0, 4.0)
    env = gaussian_envelope(grid, 0.0, 1.0)
    phase = FreeWavePhase(2.5, -2.5, 1.0)
    return TwoSlitScenario(grid, env, env, phase, n_emitted, runs, seed)


def test_criterion_1_quantum_rule_reproduction():
    rng = np.random.default_rng(20260801)
    c1s, p1s, p2s, thetas = random_suite(rng)
    start = time.perf_counter()
    worst = 0.0
    for c1, p1, p2, theta in zip(c1s, p1s, p2s, thetas):
        coeffs = SplittingCoefficients(c1, 1.0 - c1)
        direct = forward_trig(coeffs, p1, p2, theta)
        born = abs(synthesize_wave(coeffs, p1, p2, theta)) ** 2
        worst = max(worst, abs(direct - born))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"Born modulus matches the cos transform on {N_RANDOM} draws "
                  f"(max |diff| = {worst:.3e}, {elapsed:.2f}s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_round_trip_decomposition():
    rng = np.random.default_rng(20260802)
    c1s, p1s, p2s, thetas = random_suite(rng)
    start = time.perf_counter()
    worst_trig = 0.0
    for c1, p1, p2, theta in zip(c1s, p1s, p2s, thetas):
        coeffs = SplittingCoefficients(c1, 1.0 - c1)
        p_s = forward_trig(coeffs, p1, p2, theta)
        kind = classify(lambda_coefficient(coeffs, p_s, p1, p2), tol=1e-9)
        assert isinstance(kind, Trigonometric)
        worst_trig = max(worst_trig, abs(kind.theta - theta))

    # hyperbolic analog over the restricted domain where the transform is
    # realizable as a probability
    hyp_theta = rng.uniform(1e-3, 3.0, N_RANDOM)
    hyp_p1 = rng.uniform(0.01, 0.2, N_RANDOM)
    hyp_p2 = rng.uniform(0.01, 0.2, N_RANDOM)
    signs = rng.choice([-1, 1], N_RANDOM)
    worst_hyp = 0.0
    successes = 0
    for c1, p1, p2, theta, sign in zip(c1s, hyp_p1, hyp_p2, hyp_theta, signs):
        coeffs = SplittingCoefficients(c1, 1.0 - c1)
        try:
            p_s = forward_hyp(coeffs, p1, p2, theta, int(sign))
        except OutOfRange:
            continue
        successes += 1
        kind = classify(lambda_coefficient(coeffs, p_s, p1, p2), tol=1e-9)
        if isinstance(kind, Hyperbolic):
            assert kind.sign == sign
            worst_hyp = max(worst_hyp, abs(kind.theta - theta))
    elapsed = time.perf_counter() - start
    ok = worst_trig <= 1e-9 and worst_hyp <= 1e-9 and successes > 1000 and elapsed < 1.0
    report(2, ok, f"phase recovery within 1e-9 (trig max {worst_trig:.3e}, "
                  f"hyperbolic max {worst_hyp:.3e} over {successes} valid draws, {elapsed:.2f}s)")
    assert worst_trig <= 1e-9
    assert worst_hyp <= 1e-9
    assert successes > 1000
    assert elapsed < 1.0


def test_criterion_3_correspondence_principle():
    coeffs = SplittingCoefficients(0.35, 0.65)
    p_s, d1, d2 = 0.4, 0.7, 0.3
    eps = 10.0 ** -np.arange(1, 7)
    deltas = np.array(
        [abs(perturbation_delta(coeffs, p_s, p_s + e * d1, p_s + e * d2)) for e in eps]
    )
    slope = float(np.polyfit(np.log(eps), np.log(deltas), 1)[0])
    ok = abs(slope - 1.0) <= 0.05
    report(3, ok, f"perturbation decays linearly as branches converge "
                  f"(log-log slope {slope:.6f}, target 1.0 +- 0.05)")
    assert slope == pytest.approx(1.0, abs=0.05)


def test_criterion_4_split_complex_cosh_identity():
    rng = np.random.default_rng(20260804)
    a = rng.uniform(0.0, 1.0, N_RANDOM)
    b = rng.uniform(0.0, 1.0, N_RANDOM)
    theta = rng.uniform(0.0, 5.0, N_RANDOM)
    worst = 0.0
    for ai, bi, ti in zip(a, b, theta):
        z = SplitComplex(ai, 0.0) + bi * SplitComplex.hyperbolic_exp(ti)
        expected = ai * ai + bi * bi + 2.0 * ai * bi * math.cosh(ti)
        # tolerance is scale-aware: values reach ~150 at theta = 5, where an
        # absolute 1e-12 would be below double-precision resolution
        worst = max(worst, abs(split_modulus(z) - expected) / max(1.0, expected))
    ok = worst <= 1e-12
    report(4, ok, f"split modulus reproduces the cosh law on {N_RANDOM} draws "
                  f"(max scaled |diff| = {worst:.3e})")
    assert worst <= 1e-12


def test_criterion_5_two_slit_monte_carlo():
    start = time.perf_counter()
    scenario = freewave_scenario()
    rep = run_experiment(scenario)

    ok_violation = rep.violation_statistic > 5.0

    n_s = rep.counts_s.total_detected
    n_1 = rep.counts_s1.total_detected
    n_2 = rep.counts_s2.total_detected
    k = 5.0
    checked = 0
    theta_ok = True
    worst = 0.0
    t = rep.table
    columns = (t.p_s, t.p1, t.p2, t.kind, t.theta, t.stderr_theta, t.lam, t.stderr_lambda)
    for x, p_s, p_1, p_2, kind, theta, se_theta, lam, se_lam in zip(
        rep.x, *(c.tolist() for c in columns)
    ):
        if min(p_s * n_s, p_1 * n_1, p_2 * n_2) < 100:
            continue
        true_cos = math.cos(k * x)
        true_theta = math.acos(true_cos)
        # an undefined standard error is NaN, and NaN > 0 is False
        if kind == TRIGONOMETRIC and se_theta > 0:
            ratio = abs(theta - true_theta) / (3.0 * se_theta)
        elif se_lam > 0:
            # at the fold points the theta parametrization is singular;
            # the equivalent statement is a 3-sigma check on lambda itself
            ratio = abs(lam - true_cos) / (3.0 * se_lam)
        else:
            continue
        checked += 1
        worst = max(worst, ratio)
        theta_ok = theta_ok and ratio <= 1.0

    bound = 5.0 / (2.0 * math.sqrt(n_s))
    ok_coeffs = abs(rep.coeffs.c1 - 0.5) <= bound and abs(rep.coeffs.c2 - 0.5) <= bound
    ok_alt, alt_dev = alternative_condition_check(rep, 5.0)
    elapsed = time.perf_counter() - start

    ok = ok_violation and theta_ok and ok_coeffs and ok_alt and elapsed < 30.0
    report(5, ok, f"free-wave run at n=1e6: violation={rep.violation_statistic:.1f} (>5), "
                  f"theta within 3SE on {checked} bins (worst ratio {worst:.2f}), "
                  f"coeffs=({rep.coeffs.c1:.4f},{rep.coeffs.c2:.4f}) within {bound:.1e}, "
                  f"sharing dev {alt_dev:.2f} sigma, {elapsed:.1f}s")
    assert ok_violation, rep.violation_statistic
    assert checked > 100
    assert theta_ok, f"worst 3-sigma ratio {worst}"
    assert ok_coeffs
    assert ok_alt
    assert elapsed < 30.0


def test_criterion_6_classical_control():
    grid = GridSpec(256, -4.0, 4.0)
    env = gaussian_envelope(grid, 0.0, 1.0)
    scenario = TwoSlitScenario(
        grid, env, env, ExplicitPhase((math.pi / 2,) * 256), 10**6, 1, ACCEPTANCE_SEED
    )
    rep = run_experiment(scenario)
    ok = rep.violation_statistic <= 5.0
    report(6, ok, f"quarter-phase control at n=1e6: violation statistic "
                  f"{rep.violation_statistic:.2f} (<= 5, mixture rule holds)")
    assert rep.violation_statistic <= 5.0


def test_criterion_7_destructive_nodes():
    bins = 256
    grid = GridSpec(bins, -4.0, 4.0)
    env = gaussian_envelope(grid, 0.0, 1.0)
    node_bins = (64, 128, 192)
    phases = [math.pi / 2] * bins
    for i in node_bins:
        phases[i] = math.pi
    scenario = TwoSlitScenario(
        grid, env, env, ExplicitPhase(tuple(phases)), 10**6, 1, seed=7
    )
    pattern = analytic_pattern(scenario)
    labels = grid.labels()
    node_values = [pattern.probs[labels[i]] for i in node_bins]
    counts = simulate_context(scenario, "S")
    node_counts = [counts.counts[labels[i]] for i in node_bins]
    # expectation at the nodes is exactly 0 < 1 count, so zero draws out of
    # 1e6 is the certain outcome, against ~1700..12500 without interference
    suppressed = [10**6 * env[i] for i in node_bins]
    ok = all(v <= 1e-15 for v in node_values) and node_counts == [0, 0, 0]
    report(7, ok, f"node pattern values {node_values}, node counts {node_counts} "
                  f"out of 1e6 (envelope alone would give ~{[int(s) for s in suppressed]})")
    assert all(v <= 1e-15 for v in node_values)
    assert node_counts == [0, 0, 0]
    assert all(s > 100 for s in suppressed)


def test_criterion_8_determinism(tmp_path, capsys):
    doc = {
        "grid": {"bins": 256, "x_min": -4.0, "x_max": 4.0},
        "envelopes": {
            "slit1": {"kind": "gaussian", "mean": 0.0, "sigma": 1.0},
            "slit2": {"kind": "gaussian", "mean": 0.0, "sigma": 1.0},
        },
        "phase": {"kind": "freewave", "p1": 2.5, "p2": -2.5, "h": 1.0},
        "sampling": {"n_emitted": 10**6, "runs": 3, "seed": ACCEPTANCE_SEED},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    outputs = []
    for name, workers in (("one.json", "1"), ("two.json", "1"), ("many.json", "8")):
        out = tmp_path / name
        code = cli.main(
            ["simulate", str(scenario_path), "--out", str(out), "--workers", workers]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(8, ok, f"fixed-seed reports byte-identical across repeated runs and "
                  f"1 vs 8 worker threads ({len(outputs[0])} bytes)")
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
