"""Binary-test error probabilities driving the bound integrals.

The bound machinery repeatedly asks: given two candidate parameter values
theta_o and theta_o + delta, how often does the decision rule derived from
the assumed model pick the wrong one when data come from the true model?
This module answers that question analytically for Gaussian and
Gaussian-mixture truth, pointwise for any signal map (pe_gaussian,
pe_mixture) and vectorized over offsets for scalar linear maps
(EqualLinearScalarPe). When no analytic route exists,
montecarlo.empirical_pe estimates the error probability by simulating the
test.

All routes share one scalar statistic: the decision rule compares the
assumed-model log-likelihoods of the two candidates, which reduces to the
data's residual from the candidates' midpoint projected onto the signal
difference ``d = h(theta_o) - h(theta_o + delta)``: a deterministic mean
(decision_means) plus the true noise projected the same way.
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
from .special_math import q_ratio

__all__ = [
    "PeKernel",
    "decision_means",
    "pe_gaussian",
    "pe_mixture",
    "linear_column",
    "EqualLinearScalarPe",
    "linear_scalar_profile",
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


def decision_means(kernel: PeKernel, theta_eval, theta_o, delta) -> np.ndarray:
    """Mean of the decision statistic under each truth component.

    The assumed-model rule keeps theta_o over theta_o + delta when
    S = (x - mu - (h0 + h1) / 2)^T Sigma^-1 d is positive, with
    h0 = h(theta_o), h1 = h(theta_o + delta) and d = h0 - h1. With data from
    theta_eval and truth component c, S has mean r_c^T Sigma^-1 d for the
    residual r_c = (s*(theta_eval) - (h0 + h1) / 2) + (m_c - mu). The residual
    is formed before the one quadratic form, so terms that cancel (the
    candidates' energies, equal noise means) never pass through Sigma^-1,
    where a tiny variance would blow them up past the result. The signal
    and the mean parts are each differenced first, so neither is absorbed
    into the other before it cancels.
    """
    th = np.atleast_1d(np.asarray(theta_o, dtype=float))
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    te = np.atleast_1d(np.asarray(theta_eval, dtype=float))
    h0 = eval_signal(kernel.assumed.signal, th)
    h1 = eval_signal(kernel.assumed.signal, th + de)
    signal_part = eval_signal(kernel.truth.signal, te) - 0.5 * (h0 + h1)
    mu = kernel.assumed.noise_mean
    cov = kernel.assumed.noise_cov
    _, comps = _components(kernel.truth.noise)
    return np.array([cov.qf_inv(signal_part + (c.mean - mu), h0 - h1) for c in comps])


def _components(noise) -> tuple[np.ndarray, tuple[GaussianNoise, ...]]:
    """Weights and Gaussian components of the truth; Gaussian is one component."""
    if isinstance(noise, GaussianNoise):
        return np.ones(1), (noise,)
    if isinstance(noise, MixtureNoise):
        return noise.weights, noise.components
    raise ValueError(
        "projected noise moments need Gaussian or mixture truth; "
        "empirical noise is only supported through montecarlo.empirical_pe"
    )


def _pe_components(kernel: PeKernel, theta_o, delta) -> float:
    """Weighted sum over truth components of the two-sided error probability."""
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.all(de == 0.0):
        return 0.5
    th = np.atleast_1d(np.asarray(theta_o, dtype=float))
    z0 = decision_means(kernel, th, th, de)
    z1 = decision_means(kernel, th + de, th, de)
    # Each component's noise projected onto Sigma^-1 d has standard deviation
    # sqrt(b^T Sigma_c b) for b = Sigma^-1 d.
    sig = kernel.assumed.signal
    b = kernel.assumed.noise_cov.solve(eval_signal(sig, th) - eval_signal(sig, th + de))
    weights, comps = _components(kernel.truth.noise)
    total = 0.0
    for w, m0, m1, c in zip(weights, z0, z1, comps):
        s = math.sqrt(max(c.cov.qf(b), 0.0))
        total += w * 0.5 * (q_ratio(m0, s) + q_ratio(-m1, s))
    return float(total)


def pe_gaussian(kernel: PeKernel, theta_o, delta) -> float:
    """Error probability of the assumed-model rule under Gaussian truth."""
    if not isinstance(kernel.truth.noise, GaussianNoise):
        raise ValueError("pe_gaussian requires Gaussian truth")
    return _pe_components(kernel, theta_o, delta)


def pe_mixture(kernel: PeKernel, theta_o, delta) -> float:
    """Error probability under Gaussian-mixture truth.

    Each mixture component contributes its own projected-noise moments, so the
    component standard deviation appears inside each Q term rather than one
    pooled value outside the sum.
    """
    if not isinstance(kernel.truth.noise, MixtureNoise):
        raise ValueError("pe_mixture requires mixture truth")
    return _pe_components(kernel, theta_o, delta)


def linear_column(signal) -> np.ndarray:
    """The vector a of a scalar linear map theta -> a theta, or raise."""
    if isinstance(signal, LinearVectorMap):
        return signal.hvec
    if isinstance(signal, LinearMatrixMap) and signal.n_theta == 1:
        return np.ascontiguousarray(signal.h_matrix[:, 0])
    raise ValueError(
        "the scalar linear profile needs a linear_vector map or a one-column linear_matrix map"
    )


@dataclass(frozen=True, eq=False)
class EqualLinearScalarPe:
    """Error-probability profile of a scalar linear scenario, vectorized.

    The assumed model is a theta + N(mu, Sigma); the truth is h* theta plus
    Gaussian components N(m_c, Sigma_c) of weight w_c (Gaussian truth is one
    component of weight 1). The one-sided decision branch is

        g(theta_o, h) = sum_c w_c Q((quad h^2 + cross theta_o h + lin_c h) / (s_c |h|))

    with quad = A / 2, cross = A - C, A = a^T Sigma^-1 a, C = h*^T Sigma^-1 a,
    lin_c = (mu - m_c)^T Sigma^-1 a and s_c^2 = var_c = b^T Sigma_c b for
    b = Sigma^-1 a. cross is exactly 0 when the two maps are equal, and the
    profile is then free of theta_o. The two-sided error probability is
    pe(theta_o, h) = [g(theta_o, h) + g(theta_o + h, -h)] / 2.
    """

    quad: float
    cross: float
    lin: np.ndarray
    var: np.ndarray
    weights: np.ndarray

    @property
    def q_linear(self) -> bool:
        """No location term, no mean offset and a nonzero signal: each
        component then errs with Q(quad |h| / s_c), and the closed forms in
        the pooled slope gamma apply."""
        return self.cross == 0.0 and not np.any(self.lin) and self.quad > 0.0

    @property
    def gamma(self) -> float:
        """Slope quad / sqrt(sum_c w_c var_c) of the pooled Q(gamma |h|)."""
        return self.quad / math.sqrt(float(np.sum(self.weights * self.var)))

    def single_q(self, h_off, theta_o=0.0) -> np.ndarray:
        """g(theta_o, h_off) elementwise, with the h = 0 tie equal to 0.5."""
        h = np.asarray(h_off, dtype=float)
        z = self.quad * h * h
        if self.cross != 0.0:
            z = z + self.cross * np.asarray(theta_o, dtype=float) * h
        total = 0.0
        for w, lin, var in zip(self.weights, self.lin, self.var):
            total = total + w * q_ratio(z + lin * h, math.sqrt(var) * np.abs(h))
        return np.where(h == 0.0, 0.5, total)

    def pe(self, theta_o, h_off) -> np.ndarray:
        """Two-sided error probability between theta_o and theta_o + h_off."""
        h = np.asarray(h_off, dtype=float)
        th = np.asarray(theta_o, dtype=float)
        return 0.5 * (self.single_q(h, th) + self.single_q(-h, th + h))


def linear_scalar_profile(kernel: PeKernel) -> EqualLinearScalarPe:
    """Build the profile of a scalar linear kernel with Gaussian or mixture truth.

    Both maps must be scalar linear maps (see linear_column). They are
    compared by value, so equal maps give cross = 0 exactly.
    """
    a = linear_column(kernel.assumed.signal)
    h_star = linear_column(kernel.truth.signal)
    weights, comps = _components(kernel.truth.noise)
    cov = kernel.assumed.noise_cov
    a_val = cov.qf_inv(a)
    b = cov.solve(a)
    return EqualLinearScalarPe(
        quad=0.5 * a_val,
        cross=0.0 if np.array_equal(a, h_star) else a_val - cov.qf_inv(h_star, a),
        lin=np.array([cov.qf_inv(a, kernel.assumed.noise_mean - c.mean) for c in comps]),
        var=np.array([max(c.cov.qf(b), 0.0) for c in comps]),
        weights=weights,
    )
