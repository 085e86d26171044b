"""Ziv-Zakai style MSE lower bounds under model mismatch.

The package evaluates Bayesian lower bounds on the mean squared error of
estimators built from a possibly wrong Gaussian model while observations
follow a different law. It provides the binary-decision error-probability
kernel the bounds integrate, closed forms for linear-Gaussian scenarios,
scalar and vector bound evaluators, reference estimators, a deterministic
Monte Carlo harness, four worked mismatch scenarios, and a CLI.
"""

from __future__ import annotations

from .estimators import (
    EstimatorSpec,
    LinearClosedForm,
    QuasiMLE,
    SampleMedian,
    SearchPolicy,
    estimate,
    log_likelihood,
    sample_median,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    default_grid,
    example3_matched_bound,
    example4_bounds,
    matched_mixture_pe,
    run_sweep,
)
from .models import (
    AmplitudePulseMap,
    AssumedModel,
    DenseCov,
    DiagonalCov,
    EmpiricalNoise,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    LinearVectorMap,
    MixtureNoise,
    ParametricMap,
    Prior,
    ScaledIdentityCov,
    TrueModel,
    as_covariance,
    discrete_uniform,
    eval_signal,
    pulse_energy,
    sample_observation,
    triangular_pulse,
    uniform_box,
    uniform_interval,
)
from .montecarlo import (
    MseReport,
    PeEstimate,
    TrialPlan,
    derive_seed,
    empirical_pe,
    run_mse,
    trial_generator,
)
from .pe_kernel import (
    EqualLinearScalarPe,
    PeKernel,
    compute_S,
    equal_linear_scalar_profile,
    pe_equal_linear,
    pe_gaussian,
    pe_mixture,
)
from .special_math import inc_gamma_reg, q_function
from .zzb import (
    BoundResult,
    DeltaSearch,
    QuadratureRule,
    ScalarBoundSpec,
    VectorBoundSpec,
    gamma_from_scenario,
    lattice_staircase_sum,
    prior_overlap,
    zzb_closed_form_q_linear,
    zzb_scalar_general,
    zzb_scalar_independent,
    zzb_scalar_symmetric,
    zzb_vector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "AmplitudePulseMap",
    "AssumedModel",
    "DenseCov",
    "DiagonalCov",
    "EmpiricalNoise",
    "GaussianNoise",
    "IntervalAxis",
    "LatticeAxis",
    "LinearMatrixMap",
    "LinearVectorMap",
    "MixtureNoise",
    "ParametricMap",
    "Prior",
    "ScaledIdentityCov",
    "TrueModel",
    "as_covariance",
    "discrete_uniform",
    "eval_signal",
    "pulse_energy",
    "sample_observation",
    "triangular_pulse",
    "uniform_box",
    "uniform_interval",
    # special math
    "inc_gamma_reg",
    "q_function",
    # error-probability kernel
    "EqualLinearScalarPe",
    "PeKernel",
    "compute_S",
    "equal_linear_scalar_profile",
    "pe_equal_linear",
    "pe_gaussian",
    "pe_mixture",
    # bounds
    "BoundResult",
    "DeltaSearch",
    "QuadratureRule",
    "ScalarBoundSpec",
    "VectorBoundSpec",
    "gamma_from_scenario",
    "lattice_staircase_sum",
    "prior_overlap",
    "zzb_closed_form_q_linear",
    "zzb_scalar_general",
    "zzb_scalar_independent",
    "zzb_scalar_symmetric",
    "zzb_vector",
    # estimators
    "EstimatorSpec",
    "LinearClosedForm",
    "QuasiMLE",
    "SampleMedian",
    "SearchPolicy",
    "estimate",
    "log_likelihood",
    "sample_median",
    # Monte Carlo
    "MseReport",
    "PeEstimate",
    "TrialPlan",
    "derive_seed",
    "empirical_pe",
    "run_mse",
    "trial_generator",
    # experiments
    "SweepConfig",
    "SweepRow",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_example4",
    "default_grid",
    "example3_matched_bound",
    "example4_bounds",
    "matched_mixture_pe",
    "run_sweep",
]
