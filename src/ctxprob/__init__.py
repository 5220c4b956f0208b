"""Contextual probability toolkit.

Decomposes how outcome probabilities transform between experimental
contexts, classifies the interference as trigonometric or hyperbolic,
synthesizes the equivalent probability waves, and reproduces quantum-style
two-slit interference statistics with a purely classical Monte Carlo
ensemble simulator.
"""

__version__ = "0.1.0"

from .core import (
    ContextualDistribution,
    ContextualModel,
    EnsembleCounts,
    OutcomeSpace,
    SplittingCoefficients,
    Violation,
    empirical_distribution,
    estimate_splitting,
    validate_model,
)
from .errors import (
    ConsistencyError,
    ContextualError,
    DegenerateBranch,
    NormalizationError,
    OutOfRange,
    ScenarioError,
    ZeroEnsemble,
)
from .interference import (
    Boundary,
    Hyperbolic,
    InterferenceDecomposition,
    InterferenceKind,
    Trigonometric,
    classify,
    decompose,
    forward_hyp,
    forward_trig,
    lambda_coefficient,
    perturbation_delta,
    total_probability,
)
from .amplitudes import (
    ProbabilityWave,
    SplitComplex,
    cos_identity,
    split_modulus,
    synthesize_hyperbolic,
    synthesize_two_slit_wave,
    synthesize_wave,
)
from .twoslit import (
    ExperimentReport,
    ExplicitPhase,
    FreeWavePhase,
    GridSpec,
    TwoSlitScenario,
    alternative_condition_check,
    analytic_pattern,
    decompose_empirical,
    gaussian_envelope,
    pattern_normalization,
    run_experiment,
    simulate_context,
    table_envelope,
    uniform_envelope,
    validate_scenario,
)

__all__ = [
    "__version__",
    # core
    "OutcomeSpace", "ContextualDistribution", "SplittingCoefficients",
    "ContextualModel", "EnsembleCounts", "Violation",
    "validate_model", "estimate_splitting", "empirical_distribution",
    # errors
    "ContextualError", "ZeroEnsemble", "DegenerateBranch", "OutOfRange",
    "NormalizationError", "ConsistencyError", "ScenarioError",
    # interference
    "Trigonometric", "Hyperbolic", "Boundary", "InterferenceKind",
    "InterferenceDecomposition",
    "total_probability", "perturbation_delta", "lambda_coefficient",
    "classify", "decompose", "forward_trig", "forward_hyp",
    # amplitudes
    "SplitComplex", "ProbabilityWave", "cos_identity", "split_modulus",
    "synthesize_wave", "synthesize_two_slit_wave", "synthesize_hyperbolic",
    # two-slit simulator
    "GridSpec", "ExplicitPhase", "FreeWavePhase", "TwoSlitScenario",
    "ExperimentReport",
    "gaussian_envelope", "uniform_envelope", "table_envelope",
    "validate_scenario", "analytic_pattern", "pattern_normalization",
    "simulate_context", "run_experiment", "decompose_empirical",
    "alternative_condition_check",
]
