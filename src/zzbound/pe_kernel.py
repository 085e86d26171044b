"""Binary-test error probabilities driving the bound integrals.

The bound machinery repeatedly asks: given two candidate parameter values
theta_o and theta_o + delta, how often does the decision rule derived from
the assumed model pick the wrong one when data come from the true model?
This module answers that question along every analytic route (Gaussian
truth, Gaussian-mixture truth, the theta-independent equal-linear-map
shortcut). When no analytic route exists, montecarlo.empirical_pe estimates
the error probability by simulating the test.

All routes share one scalar statistic: the decision rule compares the
assumed-model log-likelihoods of the two candidates, which reduces to a
deterministic offset ``S`` plus the true noise projected onto the signal
difference ``d = h(theta_o) - h(theta_o + delta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    AssumedModel,
    GaussianNoise,
    LinearMatrixMap,
    LinearVectorMap,
    MixtureNoise,
    TrueModel,
    eval_signal,
)
from .special_math import q_function

__all__ = [
    "PeKernel",
    "ProjectedNoise",
    "compute_S",
    "projected_noise_stats",
    "pe_gaussian",
    "pe_mixture",
    "pe_equal_linear",
    "EqualLinearScalarPe",
    "equal_linear_scalar_profile",
]

@dataclass(frozen=True, eq=False)
class PeKernel:
    """Immutable pairing of an assumed model and the true data law."""

    assumed: AssumedModel
    truth: TrueModel

    def __post_init__(self) -> None:
        if self.assumed.k != self.truth.k:
            raise ValueError(
                f"assumed model has K={self.assumed.k}, truth has K={self.truth.k}"
            )
        if self.assumed.signal.n_theta != self.truth.signal.n_theta:
            raise ValueError(
                "assumed and true signal maps disagree on parameter dimension: "
                f"{self.assumed.signal.n_theta} vs {self.truth.signal.n_theta}"
            )

    @property
    def n_theta(self) -> int:
        return self.assumed.signal.n_theta

    def signal_diff(self, theta_o, delta) -> np.ndarray:
        """d = h(theta_o) - h(theta_o + delta) under the assumed map."""
        th = np.atleast_1d(np.asarray(theta_o, dtype=float))
        de = np.atleast_1d(np.asarray(delta, dtype=float))
        return eval_signal(self.assumed.signal, th) - eval_signal(self.assumed.signal, th + de)


@dataclass(frozen=True, eq=False)
class ProjectedNoise:
    """First two moments of the true noise projected onto Sigma^-1 d.

    For mixture truth the per-component moments and weights are kept as well;
    ``mean`` and ``stddev`` then describe the overall (pooled) mixture.
    """

    mean: float
    stddev: float
    comp_means: np.ndarray | None = None
    comp_stddevs: np.ndarray | None = None
    weights: np.ndarray | None = None


def compute_S(kernel: PeKernel, theta_eval, theta_o, delta) -> float:
    """Deterministic part of the decision statistic at evaluation point theta_eval.

    S collects every term of the assumed-model log-likelihood difference that
    does not involve the true noise: the quadratic terms of the two candidate
    signals and the cross term between the true signal at theta_eval and the
    candidate difference d.
    """
    th = np.atleast_1d(np.asarray(theta_o, dtype=float))
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    te = np.atleast_1d(np.asarray(theta_eval, dtype=float))
    mu = kernel.assumed.noise_mean
    cov = kernel.assumed.noise_cov
    h0 = eval_signal(kernel.assumed.signal, th)
    h1 = eval_signal(kernel.assumed.signal, th + de)
    quad = 0.5 * (cov.qf_inv(h1 + mu) - cov.qf_inv(h0 + mu))
    cross = cov.qf_inv(eval_signal(kernel.truth.signal, te), h0 - h1)
    return quad + cross


def projected_noise_stats(kernel: PeKernel, theta_o, delta) -> ProjectedNoise:
    """Moments of n*^T Sigma^-1 d for Gaussian or mixture truth.

    Raises ValueError for empirical noise, which has no analytic projection;
    montecarlo.empirical_pe covers that case by sampling.
    """
    d = kernel.signal_diff(theta_o, delta)
    cov = kernel.assumed.noise_cov
    noise = kernel.truth.noise
    w = cov.solve(d)
    if isinstance(noise, GaussianNoise):
        mean = float(noise.mean @ w)
        var = noise.cov.qf(w)
        return ProjectedNoise(mean=mean, stddev=math.sqrt(max(var, 0.0)))
    if isinstance(noise, MixtureNoise):
        means = np.array([float(c.mean @ w) for c in noise.components])
        stds = np.array([math.sqrt(max(c.cov.qf(w), 0.0)) for c in noise.components])
        weights = noise.weights
        mean = float(weights @ means)
        var = float(weights @ (stds**2 + means**2)) - mean**2
        return ProjectedNoise(
            mean=mean,
            stddev=math.sqrt(max(var, 0.0)),
            comp_means=means,
            comp_stddevs=stds,
            weights=weights,
        )
    raise ValueError(
        "projected noise moments need Gaussian or mixture truth; "
        "empirical noise is only supported through montecarlo.empirical_pe"
    )


def _q_or_limit(z: float, sigma: float) -> float:
    """Q(z / sigma), continued to sigma = 0 as the indicator limit.

    The sigma -> 0+ limit of Q(z/sigma) is 1 for z < 0, 0 for z > 0, and 1/2
    at the tie z = 0.
    """
    if sigma > 0.0:
        return float(q_function(z / sigma))
    if z < 0.0:
        return 1.0
    if z > 0.0:
        return 0.0
    return 0.5


def pe_gaussian(kernel: PeKernel, theta_o, delta) -> float:
    """Error probability of the assumed-model rule under Gaussian truth."""
    if not isinstance(kernel.truth.noise, GaussianNoise):
        raise ValueError("pe_gaussian requires Gaussian truth")
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.all(de == 0.0):
        return 0.5
    th = np.atleast_1d(np.asarray(theta_o, dtype=float))
    s0 = compute_S(kernel, th, th, de)
    s1 = compute_S(kernel, th + de, th, de)
    stats = projected_noise_stats(kernel, th, de)
    z0 = s0 + stats.mean
    z1 = s1 + stats.mean
    return 0.5 * _q_or_limit(z0, stats.stddev) + 0.5 * _q_or_limit(-z1, stats.stddev)


def pe_mixture(kernel: PeKernel, theta_o, delta) -> float:
    """Error probability under Gaussian-mixture truth.

    Each mixture component contributes its own projected-noise moments, so the
    component standard deviation appears inside each Q term rather than one
    pooled value outside the sum.
    """
    if not isinstance(kernel.truth.noise, MixtureNoise):
        raise ValueError("pe_mixture requires mixture truth")
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.all(de == 0.0):
        return 0.5
    th = np.atleast_1d(np.asarray(theta_o, dtype=float))
    s0 = compute_S(kernel, th, th, de)
    s1 = compute_S(kernel, th + de, th, de)
    stats = projected_noise_stats(kernel, th, de)
    total = 0.0
    for w, m, s in zip(stats.weights, stats.comp_means, stats.comp_stddevs):
        total += w * 0.5 * (_q_or_limit(s0 + m, s) + _q_or_limit(-s1 - m, s))
    return float(total)


def _equal_linear_matrix(kernel: PeKernel) -> np.ndarray:
    """Shared linear map as a (K, n_theta) matrix, or raise."""
    a, t = kernel.assumed.signal, kernel.truth.signal
    if isinstance(a, LinearVectorMap) and isinstance(t, LinearVectorMap):
        if np.array_equal(a.hvec, t.hvec):
            return a.hvec[:, None]
    elif isinstance(a, LinearMatrixMap) and isinstance(t, LinearMatrixMap):
        if np.array_equal(a.h_matrix, t.h_matrix):
            return a.h_matrix
    raise ValueError("pe_equal_linear requires identical linear signal maps")


def pe_equal_linear(kernel: PeKernel, delta) -> float:
    """Error probability when both models share one linear map (Gaussian truth).

    The dependence on theta_o cancels, leaving
    Z(delta) = 1/2 delta^T H^T Sigma^-1 H delta + delta^T H^T Sigma^-1 (mu - mu*)
    and Pe = 1/2 [Q(Z(delta)/sigma_n) + Q(Z(-delta)/sigma_n)].
    """
    h_mat = _equal_linear_matrix(kernel)
    noise = kernel.truth.noise
    if not isinstance(noise, GaussianNoise):
        raise ValueError("pe_equal_linear requires Gaussian truth")
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    b = h_mat @ de
    cov = kernel.assumed.noise_cov
    quad = 0.5 * cov.qf_inv(b)
    lin = cov.qf_inv(b, kernel.assumed.noise_mean - noise.mean)
    sigma_n = math.sqrt(max(noise.cov.qf(cov.solve(b)), 0.0))
    return 0.5 * (_q_or_limit(quad + lin, sigma_n) + _q_or_limit(quad - lin, sigma_n))


@dataclass(frozen=True)
class EqualLinearScalarPe:
    """Vectorized scalar-offset error-probability profile.

    Valid for identical scalar linear maps with Gaussian truth, where the
    statistic threshold is quad * h^2 + lin * h and the projected noise spread
    is noise_scale * |h|. The signed single-Q branch is exposed separately
    because the bias-aware bound integrates it over signed offsets.
    """

    quad: float
    lin: float
    noise_scale: float

    def single_q(self, h_off) -> np.ndarray:
        """Q(Z(h)/sigma_n(h)) elementwise, with the h = 0 tie equal to 0.5."""
        h = np.asarray(h_off, dtype=float)
        z = self.quad * h * h + self.lin * h
        if self.noise_scale > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                arg = z / (self.noise_scale * np.abs(h))
            out = q_function(np.where(h == 0.0, 0.0, arg))
            return np.where(h == 0.0, 0.5, out)
        return np.where(z < 0.0, 1.0, np.where(z == 0.0, 0.5, 0.0))

    def pe(self, h_off) -> np.ndarray:
        """Full two-sided error probability at scalar offsets h_off."""
        h = np.asarray(h_off, dtype=float)
        return 0.5 * (self.single_q(h) + self.single_q(-h))


def equal_linear_scalar_profile(kernel: PeKernel) -> EqualLinearScalarPe:
    """Build the scalar equal-linear profile from a kernel, or raise."""
    if kernel.n_theta != 1:
        raise ValueError("scalar profile requires a one-dimensional parameter")
    h_mat = _equal_linear_matrix(kernel)
    noise = kernel.truth.noise
    if not isinstance(noise, GaussianNoise):
        raise ValueError("scalar profile requires Gaussian truth")
    b = h_mat[:, 0]
    cov = kernel.assumed.noise_cov
    return EqualLinearScalarPe(
        quad=0.5 * cov.qf_inv(b),
        lin=cov.qf_inv(b, kernel.assumed.noise_mean - noise.mean),
        noise_scale=math.sqrt(max(noise.cov.qf(cov.solve(b)), 0.0)),
    )
