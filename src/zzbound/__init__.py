"""Ziv-Zakai style MSE lower bounds under model mismatch.

The package evaluates Bayesian lower bounds on the mean squared error of
estimators built from a possibly wrong Gaussian model while observations
follow a different law. It provides the binary-decision error-probability
kernel the bounds integrate, closed forms for linear-Gaussian scenarios,
scalar and vector bound evaluators, reference estimators, a deterministic
Monte Carlo harness, four worked mismatch scenarios, and a CLI.

The package root re-exports what the README uses; everything else is
imported from its submodule (models, special_math, pe_kernel, zzb,
estimators, montecarlo, experiments, cli).
"""

from __future__ import annotations

from .estimators import LinearClosedForm
from .models import (
    AssumedModel,
    DiagonalCov,
    GaussianNoise,
    LinearVectorMap,
    ScaledIdentityCov,
    TrueModel,
    uniform_interval,
)
from .montecarlo import TrialPlan, empirical_pe, run_mse
from .zzb import (
    bound,
    zzb_closed_form_q_linear,
    zzb_scalar_general,
    zzb_scalar_independent,
    zzb_scalar_symmetric,
    zzb_vector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AssumedModel",
    "DiagonalCov",
    "GaussianNoise",
    "LinearClosedForm",
    "LinearVectorMap",
    "ScaledIdentityCov",
    "TrialPlan",
    "TrueModel",
    "bound",
    "empirical_pe",
    "run_mse",
    "uniform_interval",
    "zzb_closed_form_q_linear",
    "zzb_scalar_general",
    "zzb_scalar_independent",
    "zzb_scalar_symmetric",
    "zzb_vector",
]
