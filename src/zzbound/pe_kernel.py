"""Binary-test error probabilities driving the bound integrals.

The bound machinery repeatedly asks: given two candidate parameter values
theta_o and theta_o + delta, how often does the decision rule derived from
the assumed model pick the wrong one when data come from the true model?
This module answers that question analytically for Gaussian and
Gaussian-mixture truth (a per-sample mixture by its central-limit Gaussian),
pointwise for any signal map (pe_gaussian, pe_mixture), vectorized over
offsets for scalar linear maps (EqualLinearScalarPe), and position-averaged
for the triangular pulse (pulse_profile). When no analytic route exists,
montecarlo.empirical_pe estimates the error probability by simulating it.

All routes share one scalar statistic: the decision rule compares the
assumed-model log-likelihoods of the two candidates, which reduces to the
data's residual from the candidates' midpoint projected onto the signal
difference ``d = h(theta_o) - h(theta_o + delta)``: a deterministic mean
(_means) plus the true noise projected the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import (
    AmplitudePulseMap,
    AssumedModel,
    Covariance,
    DiagonalCov,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    MixtureNoise,
    PerSampleMixtureNoise,
    Prior,
    TrueModel,
    eval_signal,
    pulse_template,
)
from .special_math import q_function, q_ratio

__all__ = [
    "PeKernel",
    "pe_gaussian",
    "pe_mixture",
    "linear_column",
    "EqualLinearScalarPe",
    "linear_scalar_profile",
    "pulse_profile",
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


def _means(kernel: PeKernel, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mean of the decision statistic under each truth component, for the
    true signal s and the candidates' signals h = [h0, h1].

    The assumed-model rule keeps theta_o over theta_o + delta when
    S = (x - mu - (h0 + h1) / 2)^T Sigma^-1 d is positive, with
    h0 = h(theta_o), h1 = h(theta_o + delta) and d = h0 - h1. With data of
    true signal s and truth component c, S has mean r_c^T Sigma^-1 d for the
    residual r_c = (s - (h0 + h1) / 2) + (m_c - mu). The residual is formed
    before the one quadratic form, so terms that cancel (the candidates'
    energies, equal noise means) never pass through Sigma^-1, where a tiny
    variance would blow them up past the result. The signal and the mean
    parts are each differenced first, so neither is absorbed into the other
    before it cancels.
    """
    signal_part = s - 0.5 * (h[0] + h[1])
    mu = kernel.assumed.noise_mean
    cov = kernel.assumed.noise_cov
    _, comps = _components(kernel.truth.noise)
    return np.array([cov.qf_inv(signal_part + (c.mean - mu), h[0] - h[1]) for c in comps])


def _components(noise) -> tuple[np.ndarray, tuple[GaussianNoise, ...]]:
    """Weights and Gaussian components of the truth. Gaussian truth is one
    component, and so is a per-sample mixture: its central-limit Gaussian."""
    if isinstance(noise, GaussianNoise):
        return np.ones(1), (noise,)
    if isinstance(noise, PerSampleMixtureNoise):
        return np.ones(1), (noise.gaussian,)
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
    # Each map once, at the rows [theta_o, theta_o + delta].
    rows = np.stack([th, th + de])
    h = eval_signal(kernel.assumed.signal, rows)
    s = eval_signal(kernel.truth.signal, rows)
    z0 = _means(kernel, s[0], h)
    z1 = _means(kernel, s[1], h)
    # Each component's noise projected onto Sigma^-1 d has standard deviation
    # sqrt(b^T Sigma_c b) for b = Sigma^-1 d.
    b = kernel.assumed.noise_cov.solve(h[0] - h[1])
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
    """Error probability under Gaussian-mixture truth, per vector or per sample.

    Each component of a per-vector mixture contributes its own projected-noise
    moments, so its standard deviation appears inside its own Q term. A
    per-sample mixture is its central-limit Gaussian (one pooled term).
    """
    if not isinstance(kernel.truth.noise, (MixtureNoise, PerSampleMixtureNoise)):
        raise ValueError("pe_mixture requires mixture truth")
    return _pe_components(kernel, theta_o, delta)


def _same_covariance(a: Covariance, b: Covariance) -> bool:
    """Whether a and b are equal as matrices. Two diagonals compare as
    vectors; K x K matrices are built only when a DenseCov is involved."""
    if isinstance(a, DiagonalCov) and isinstance(b, DiagonalCov):
        return np.array_equal(a.diag, b.diag)
    return np.array_equal(a.dense(), b.dense())


def linear_column(signal) -> np.ndarray:
    """The vector a of a scalar linear map theta -> a theta, or raise."""
    if isinstance(signal, LinearMatrixMap) and signal.n_theta == 1:
        return np.ascontiguousarray(signal.h_matrix[:, 0])
    raise ValueError(
        "the scalar linear profile needs a linear_vector map or a one-column linear_matrix map"
    )


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_loss(u: np.ndarray) -> np.ndarray:
    """L(u) = int_u^inf Q = phi(u) - u Q(u) elementwise, for u >= 0.

    Below 4 the difference is taken as written; it loses about u^2 ulps.
    From 4 on, where that loss grows, L = phi(u) t / (u + t) for the tail
    t = 1 / (u + 2 / (u + 3 / (u + ...))) of Laplace's continued fraction
    Q(u) / phi(u) = 1 / (u + t), cut after 40 terms, which is then exact
    to rounding.
    """
    phi = np.exp(-0.5 * u * u) / _SQRT_2PI
    far = np.maximum(u, 4.0)
    t = np.zeros_like(far)
    for k in range(40, 0, -1):
        t = k / (far + t)
    return np.where(u < 4.0, phi - u * q_function(u), phi * t / (far + t))


def _q_integral(m: np.ndarray, beta: float, width: np.ndarray) -> np.ndarray:
    """int_a^b Q(alpha + beta t) dt elementwise, for width = b - a >= 0 and
    the midpoint argument m = alpha + beta (a + b) / 2.

    With d = beta (b - a) / 2 it is [F(m + d) - F(m - d)] / beta for
    F(u) = min(u, 0) + |u| Q(|u|) - phi(|u|) = min(u, 0) - L(|u|), an
    antiderivative of Q (L is _normal_loss). Where m < 0 the reflection
    Q(u) = 1 - Q(-u) takes it as 2 d - F(|m| + d) + F(|m| - d), so a
    segment deep in the lower tail, where Q is near 1, is not a difference
    of two large F. The difference still cancels when the segment is short
    against the scale 1 / max(1, |m|) on which Q changes: there, where
    |d| max(1, |m|) < 0.05, the midpoint series
    (b - a) [Q(m) + phi(m) (d^2 He1(m) / 3! + d^4 He3(m) / 5! + d^6 He5(m) / 7!)]
    of Q about m (He_k the Hermite polynomials, Q^(k+1) = (-1)^(k+1) He_k phi)
    is taken instead, so the difference loses at most a factor 10 and the
    series' first dropped term is below 1e-14 of Q(m). At beta = 0 the
    series is (b - a) Q(alpha) exactly.
    """
    d = 0.5 * beta * width
    d2, m2 = d * d, m * m
    phi = np.exp(-0.5 * m2) / _SQRT_2PI
    terms = (1.0 / 6.0 + d2 * ((m2 - 3.0) / 120.0 + d2 * ((m2 - 10.0) * m2 + 15.0) / 5040.0)) * d2 * m
    series = width * (q_function(m) + terms * phi)
    if beta == 0.0:
        return series
    a = np.abs(m)
    ramp = np.minimum(a + d, 0.0) - np.minimum(a - d, 0.0)
    upper = ramp - _normal_loss(np.abs(a + d)) + _normal_loss(np.abs(a - d))
    span = np.where(m < 0.0, 2.0 * d - upper, upper)
    return np.where(np.abs(d) * np.maximum(1.0, a) < 0.05, series, span / beta)


@dataclass(frozen=True, eq=False)
class EqualLinearScalarPe:
    """Error-probability profile of a scalar linear scenario, vectorized.

    The assumed model is a theta + N(mu, Sigma); the truth is h* theta plus
    Gaussian components N(m_c, Sigma_c) of weight w_c (Gaussian truth and a
    per-sample mixture are one component of weight 1). The one-sided decision
    branch is

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
        """No location term, no mean offset, a nonzero signal and one
        projected variance for every component: the error probability is then
        exactly Q(gamma |h|), and the closed forms in the slope gamma apply."""
        one_var = bool(np.all(self.var == self.var[0]))
        return self.cross == 0.0 and not np.any(self.lin) and self.quad > 0.0 and one_var

    @property
    def gamma(self) -> float:
        """Slope quad / sqrt(sum_c w_c var_c) of Q(gamma |h|); a ValueError
        unless the profile is q_linear."""
        if not self.q_linear:
            raise ValueError(
                "the q-linear slope requires identical scalar maps, equal noise means "
                "and equal component variances"
            )
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

    def location_integral(self, h_off, lo: float, hi: float) -> np.ndarray:
        """P(h) = int_lo^{hi-h} pe(t, h) dt elementwise, for offsets
        0 <= h_off <= hi - lo, with P = (hi - lo) / 2 at the h = 0 tie.

        For h > 0 every Q argument is affine in the location t. Component c
        of g(t, h) has the argument alpha_c + beta_c t with
        alpha_c = (quad h + lin_c) / s_c and beta_c = cross / s_c, and of
        g(t + h, -h) the argument alpha'_c + beta'_c t with
        alpha'_c = (quad h - cross h - lin_c) / s_c and beta'_c = -beta_c.
        So each term integrates over t in closed form (_q_integral), from its
        argument at the midpoint (lo + hi - h) / 2 of the location range.

        This needs every spread s_c = sqrt(var_c) to be positive. It is
        wherever cross != 0, the only route that asks for P: cross != 0
        needs a nonzero assumed signal a, so var_c = b^T Sigma_c b > 0 for
        b = Sigma^-1 a and a positive definite Sigma_c, as every covariance
        is validated to be.
        """
        h = np.asarray(h_off, dtype=float)
        width = (hi - lo) - h
        mid = 0.5 * (lo + hi - h)
        total = 0.0
        for w, lin, var in zip(self.weights, self.lin, self.var):
            s = math.sqrt(var)
            beta = self.cross / s
            near = (self.quad * h + lin + self.cross * mid) / s
            far = (self.quad * h - lin - self.cross * (mid + h)) / s
            total = total + w * (_q_integral(near, beta, width) + _q_integral(far, -beta, width))
        return np.where(h == 0.0, 0.5 * (hi - lo), 0.5 * total)


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


def _xcorr_at_lags(a: np.ndarray, b: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """r[j] = sum_i a(i) b(i + j) for centered templates a and b.

    np.correlate(b, a, "full") holds r at lags -(ra + rb)..ra + rb, each as
    one dot product over the overlap; lags outside that reach are 0.
    """
    ra, rb = (a.size - 1) // 2, (b.size - 1) // 2
    full = np.correlate(b, a, "full")
    idx = np.asarray(lags) + ra + rb
    inside = (idx >= 0) & (idx < full.size)
    out = np.zeros(idx.size)
    out[inside] = full[idx[inside]]
    return out


_PULSE_NODES = 129  # amplitude quadrature nodes of pulse_profile
_PULSE_BLOCK = 2**14  # elements per _pulse_pe call: amplitude nodes x keys


def _pulse_pe(a_o, d_alpha, r_ss, r_ts, rho0, e_s, sigma2):
    """Vectorized error probability at interior positions via correlations.

    a_o is the amplitude a at the first candidate, a + d at the second
    (d = d_alpha); r_ss and r_ts are the template auto- and
    cross-correlations at the candidates' lattice separation. The decision
    means s0 and -s1 and the variance d_norm2 / sigma2 are quadratics in a,
    evaluated by Horner's rule from coefficients that depend only on the
    (lag, d) key:

        s0     = [(rho0 - r_ts) a^2 + d (e_s - r_ts) a + d^2 e_s / 2] / sigma2
        -s1    = [(rho0 - r_ts) a^2 - d (e_s + r_ts - 2 rho0) a - d^2 (e_s / 2 - rho0)] / sigma2
        d_norm2 / sigma2 = [2 (e_s - r_ss) a (a + d) + d^2 e_s] / sigma2

    Every coefficient is linear or quadratic in d, so no term of order one
    cancels at a small amplitude offset; at lag 0 (r_ts = rho0, r_ss = e_s)
    the a^2 terms vanish exactly. Each element depends on its own key and
    node only, so any blocking of the same keys gives the same bits. The
    variance and each decision mean are formed in one buffer of a_o's
    shape, operation by operation in the order written above, and Q is
    written over each mean.

    s0 and -s1 share the a^2 coefficient. Where their per-key linear and
    constant coefficient rows are equal, -s1 is s0 bit for bit and the
    result is the one Q, since 0.5 (q + q) == q exactly. That is the matched
    model (the same template on both sides, so rho0 = e_s): its linear
    coefficients are d (e_s - r_ts) and -d (r_ts - e_s), and its constant
    ones d^2 e_s / 2 and -d^2 (e_s / 2 - e_s), each pair equal in floating
    point. Otherwise both Q are computed.
    """
    d = d_alpha
    c2 = (rho0 - r_ts) / sigma2
    # e_s + r_ts - 2 rho0 as two differences, each exact near lag 0.
    m_lin = (e_s - rho0) + (r_ts - rho0)
    lin0, const0 = d * (e_s - r_ts) / sigma2, 0.5 * d * d * e_s / sigma2
    lin1, const1 = -(d * m_lin / sigma2), -(d * d * (0.5 * e_s - rho0) / sigma2)
    v2 = 2.0 * (e_s - r_ss) / sigma2
    sig_n = v2 * a_o
    sig_n += v2 * d
    sig_n *= a_o
    sig_n += d * d * e_s / sigma2
    np.maximum(sig_n, 0.0, out=sig_n)
    np.sqrt(sig_n, out=sig_n)
    s0 = _horner(c2, lin0, const0, a_o)
    q0 = q_ratio(s0, sig_n, out=s0)
    if np.array_equal(lin0, lin1) and np.array_equal(const0, const1):
        return q0
    neg_s1 = _horner(c2, lin1, const1, a_o)
    q0 += q_ratio(neg_s1, sig_n, out=neg_s1)
    q0 *= 0.5
    return q0


def _horner(c2, lin, const, a_o):
    """(c2 a + lin) a + const in one buffer of a_o's shape."""
    z = c2 * a_o
    z += lin
    z *= a_o
    z += const
    return z


def pulse_profile(kernel: PeKernel, prior: Prior) -> Callable[[np.ndarray], np.ndarray]:
    """Location-averaged integrand G(delta) of a pulse kernel on its prior.

    G maps (M, 2) offsets in theta = (tau, alpha) to the overlap-weighted
    error probability averaged over the prior's locations. It is exact for
    pulse maps on both sides, Gaussian truth noise with the assumed mean and
    white covariance, and a prior of every position 0..k-1 times an amplitude
    interval; anything else raises ValueError naming what is missing.

    Clipped boundary positions are dropped (their error probabilities are
    nonnegative, so the result stays a lower bound); interior positions,
    counted with the true width, are shift invariant, which collapses the
    position average to a counting factor times a fixed-grid quadrature over
    the amplitude overlap.

    The amplitude quadrature depends on a row only through its lag (via the
    two correlation tables) and its amplitude offset. Past the template
    correlation span both tables are exactly zero, so every lag beyond it
    shares one quadrature value; only the factor tau_share differs. Each
    call therefore runs the quadrature once per distinct
    (min(lag, span), d_alpha) key and scatters the sums back to the rows.
    The collapse is exact: a key's sum is computed elementwise from the
    same operands as each of its rows, and the scatter keeps the per-row
    product order tau_share * (length / a_width) * sum, so every returned
    value is bit-identical to evaluating the quadrature row by row.
    Past the span, then, G(L, alpha) = tau_share(L) (length(alpha) / a_width)
    S(span, alpha) for the key sum S, a nonnegative multiple of G(span,
    alpha) fixed by L: g carries that first lag as g.span, and the lattice
    route of zzb_vector searches the free amplitude offset at lags up to it
    only (see VectorBoundSpec).

    G reads the lag only through |rint(d_tau)|, so G(-tau, alpha) equals
    G(tau, alpha) bit for bit; with the candidates' symmetry this makes G
    even, G(-delta) = G(delta), as VectorBoundSpec requires. G holds no
    state, and each call evaluates each distinct key once. The keys are
    evaluated at all amplitude nodes in one (nodes, keys) block per call of
    _pulse_pe, whose decision means and variance are Horner quadratics in
    the node with coefficients computed once per key, each formed in one
    buffer, and summed over the nodes in the same sequential order: by
    np.add.reduce along the node axis, which adds in order when the block
    holds two or more keys, a lone key being summed beside a copy of
    itself. For the matched model the two decision means coincide bit for
    bit, and _pulse_pe then evaluates one Q per node instead of two.
    """
    assumed, truth, k = kernel.assumed, kernel.truth, kernel.assumed.k
    cov, noise = assumed.noise_cov, truth.noise
    if not (isinstance(assumed.signal, AmplitudePulseMap) and isinstance(truth.signal, AmplitudePulseMap)):
        raise ValueError("the pulse profile needs a pulse map for the assumed model and the truth")
    gaussian = isinstance(noise, GaussianNoise) and np.array_equal(noise.mean, assumed.noise_mean)
    white = isinstance(cov, DiagonalCov) and cov.white
    if not (gaussian and white and _same_covariance(cov, noise.cov)):
        raise ValueError(
            "the pulse profile needs Gaussian truth noise with the assumed mean and the "
            "assumed white covariance (scaled_identity or a diagonal with one value)"
        )
    if len(prior.axes) != 2 or prior.axes[0] != LatticeAxis(k) or not isinstance(prior.axes[1], IntervalAxis):
        raise ValueError(
            f"the pulse profile needs a prior of every position (a lattice of count {k}, "
            "start 0 and step 1) times an amplitude interval"
        )
    wide = float(truth.signal.width)
    s_true = pulse_template(truth.signal.width)
    s_assumed = pulse_template(assumed.signal.width)
    table_ss = _xcorr_at_lags(s_assumed, s_assumed, np.arange(k))
    table_ts = _xcorr_at_lags(s_true, s_assumed, np.arange(k))
    # First lag from which both tables are zero to the end; it equals k when
    # the correlations reach the last lag, and then no lag is collapsed.
    span = int(np.flatnonzero((table_ss != 0.0) | (table_ts != 0.0))[-1]) + 1
    rho0 = table_ts[0]
    # The energy is the lag-0 autocorrelation itself, so at lag 0 the
    # kernel's a^2 variance term is exactly zero (a separate dot product can
    # differ in the last bit, which at a tiny d_alpha outweighs d_alpha^2).
    e_s = float(table_ss[0])
    sigma2 = float(cov.diag[0])
    alpha_axis = prior.axes[1]
    a_lo, a_hi = alpha_axis.lo, alpha_axis.hi
    a_width = alpha_axis.width

    n = _PULSE_NODES
    t_nodes = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    t_weights = w / (3.0 * (n - 1))
    block = max(1, _PULSE_BLOCK // n)  # keys per _pulse_pe call

    def quadrature(key_lag: np.ndarray, da: np.ndarray) -> np.ndarray:
        """Amplitude-quadrature sum for each (lag, d_alpha) key."""
        sums = np.empty(da.size)
        for start in range(0, da.size, block):
            sl = slice(start, start + block)
            lo_u = np.maximum(a_lo, a_lo - da[sl])
            a_o = t_nodes[:, None] * (np.minimum(a_hi, a_hi - da[sl]) - lo_u)
            a_o += lo_u
            pe = _pulse_pe(
                a_o, da[sl], table_ss[key_lag[sl]], table_ts[key_lag[sl]], rho0, e_s, sigma2
            )
            pe *= t_weights[:, None]
            # np.add.reduce along axis 0 adds the weighted nodes strictly in
            # order, as a running sum would, when the block holds two or more
            # keys: the reduced axis is then not the fast one. A lone key's
            # (nodes, 1) column would be summed pairwise, so it is summed
            # beside a copy of itself, and every key follows the one rule.
            keys = pe.shape[1]
            sums[sl] = np.add.reduce(pe if keys > 1 else np.repeat(pe, 2, axis=1), axis=0)[:keys]
        return sums

    def g(deltas: np.ndarray) -> np.ndarray:
        d = np.asarray(deltas, dtype=float)
        if d.ndim != 2 or d.shape[1] != 2:
            raise ValueError("deltas must have shape (M, 2)")
        out = np.zeros(d.shape[0])
        # A row with a NaN offset has no lag and yields NaN. Lags are capped
        # at k before the integer cast; every lag from k on (infinite ones
        # too) gives 0.
        nan_row = np.isnan(d).any(axis=1)
        out[nan_row] = np.nan
        d_tau = np.minimum(np.abs(np.rint(np.where(nan_row, 0.0, d[:, 0]))), k).astype(int)
        d_alpha = d[:, 1]
        tau_share = np.maximum(0.0, k - wide - d_tau) / k
        lo = np.maximum(a_lo, a_lo - d_alpha)
        hi = np.minimum(a_hi, a_hi - d_alpha)
        length = hi - lo
        live = (tau_share > 0.0) & (length > 0.0) & (d_tau < k) & ~nan_row
        idx = np.nonzero(live)[0]
        if idx.size == 0:
            return out
        # Two 1-D uniques build the (lag, d_alpha) key; a row-wise unique
        # over a 2-column array sorts far more slowly.
        u_alpha, alpha_code = np.unique(d_alpha[idx], return_inverse=True)
        code = np.minimum(d_tau[idx], span).astype(np.int64) * u_alpha.size + alpha_code
        u_code, inv = np.unique(code, return_inverse=True)
        acc = quadrature(u_code // u_alpha.size, u_alpha[u_code % u_alpha.size])
        out[idx] = tau_share[idx] * (length[idx] / a_width) * acc[inv]
        return out

    g.span = span
    return g
