"""Four reference mismatch scenarios and the sweep driver behind the CLI.

Each builder assembles one point of a parameter sweep at desk scale: a DC
level in colored noise estimated under two wrong covariance models, the same
level with a wrong noise mean, an outlier-contaminated record compared
against the sample median, and joint arrival-time plus amplitude estimation
with a too-narrow pulse template. Builders are deterministic; all randomness
lives in the Monte Carlo plans they feed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .estimators import LinearClosedForm, QuasiMLE, SampleMedian
from .models import (
    AmplitudePulseMap,
    AssumedModel,
    DiagonalCov,
    EmpiricalNoise,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearVectorMap,
    MixtureNoise,
    Prior,
    ScaledIdentityCov,
    TrueModel,
    pulse_template,
    uniform_interval,
)
from .montecarlo import TrialPlan, derive_seed, run_mse
from .special_math import q_function, q_ratio
from .zzb import (
    BoundResult,
    DeltaSearch,
    QuadratureRule,
    ScalarBoundSpec,
    VectorBoundSpec,
    _gamma_matched,
    _q_linear_gamma,
    bound,
    zzb_closed_form_q_linear,
    zzb_scalar_independent,
    zzb_vector,
)

__all__ = [
    "Example1Scenario",
    "Example2Scenario",
    "Example3Scenario",
    "Example4Scenario",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_example4",
    "example3_matched_bound",
    "matched_mixture_pe",
    "example4_bounds",
    "SweepConfig",
    "SweepRow",
    "check_sweep_k",
    "check_sweep_value",
    "default_grid",
    "run_sweep",
]

THETA_DC = 4.0

_SWEEP_VARS = {1: "sigma2", 2: "mu_star", 3: "one_minus_omega1", 4: "snr"}
_DEFAULT_K = {1: 500, 2: 500, 3: 2000, 4: 5000}
_DEFAULT_TRIALS = {1: 2000, 2: 2000, 3: 1000, 4: 500}


def _prior_width(gamma_min: float, floor: float = 10.0) -> float:
    """Support width giving the bound room to saturate: max(100/gamma, floor)."""
    return max(100.0 / gamma_min, floor)


# ---------------------------------------------------------------------------
# Example 1: DC level, colored + white noise, two partial covariance models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Example1Scenario:
    """One sigma^2 point: white-only (m1) and colored-only (m2) assumed models.

    The truth adds white noise of variance sigma2 to a fixed diagonal colored
    component; "matched" assumes the full sum. m1 is absent when sigma2 = 0
    (its assumed covariance would be singular).
    """

    sigma2: float
    k: int
    theta: float
    t_prior: float
    prior: Prior
    truth: TrueModel
    assumed: dict[str, AssumedModel]
    gammas: dict[str, float]
    bounds: dict[str, float]


def build_example1(sigma2: float, k: int = 500, t_prior: float = 10.0) -> Example1Scenario:
    if sigma2 < 0.0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    diag_c = 0.016 * np.linspace(1.0, 5.0, k)
    hvec = np.ones(k)
    signal = LinearVectorMap(hvec)
    zero = np.zeros(k)
    true_diag = sigma2 + diag_c
    truth = TrueModel(signal, GaussianNoise(zero, DiagonalCov(true_diag)))

    assumed: dict[str, AssumedModel] = {}
    if sigma2 > 0.0:
        assumed["m1"] = AssumedModel(signal, zero, ScaledIdentityCov(sigma2, k))
    assumed["m2"] = AssumedModel(signal, zero, DiagonalCov(diag_c.copy()))
    assumed["matched"] = AssumedModel(signal, zero, DiagonalCov(true_diag.copy()))

    gammas = {
        name: _gamma_matched(truth) if name == "matched" else _q_linear_gamma(model, truth)
        for name, model in assumed.items()
    }
    bounds = {name: zzb_closed_form_q_linear(g, t_prior) for name, g in gammas.items()}
    return Example1Scenario(
        sigma2=sigma2,
        k=k,
        theta=THETA_DC,
        t_prior=t_prior,
        prior=uniform_interval(t_prior),
        truth=truth,
        assumed=assumed,
        gammas=gammas,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Example 2: DC level with a wrong assumed noise mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Example2Scenario:
    """One true-mean point of the mean-mismatch sweep.

    The assumed model keeps its mean pinned at mu_assumed = 5 while the true
    mean mu_star sweeps, so the estimator inherits a bias mu_star - 5 and the
    bound follows it through the signed-offset (asymmetric) integral.
    """

    mu_star: float
    k: int
    theta: float
    t_prior: float
    mu_assumed: float
    prior: Prior
    truth: TrueModel
    assumed: AssumedModel
    gamma_matched: float
    bound_matched: float
    bound_mismatched: BoundResult


def build_example2(mu_star: float, k: int = 500, t_prior: float = 50.0) -> Example2Scenario:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    sigma2_true = 0.16
    mu_assumed = 5.0
    signal = LinearVectorMap(np.ones(k))
    cov = ScaledIdentityCov(sigma2_true, k)
    truth = TrueModel(signal, GaussianNoise(np.full(k, float(mu_star)), cov))
    assumed = AssumedModel(signal, np.full(k, mu_assumed), cov)
    prior = uniform_interval(t_prior)
    gamma_matched = _gamma_matched(truth)
    return Example2Scenario(
        mu_star=float(mu_star),
        k=k,
        theta=THETA_DC,
        t_prior=t_prior,
        mu_assumed=mu_assumed,
        prior=prior,
        truth=truth,
        assumed=assumed,
        gamma_matched=gamma_matched,
        bound_matched=zzb_closed_form_q_linear(gamma_matched, t_prior),
        # Quadrature also at mu_star = mu_assumed, where the closed form
        # would apply, so the whole sweep reports one route.
        bound_mismatched=bound(assumed, truth, prior, "quadrature"),
    )


# ---------------------------------------------------------------------------
# Example 3: outlier contamination, sample mean versus sample median
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Example3Scenario:
    """One contamination point: clean unit-variance samples with probability
    omega1, wide (std 25) outliers otherwise, i.i.d. per sample.

    truth_empirical drives the Monte Carlo (per-sample contamination);
    truth_mixture is the formal per-vector mixture whose pooled second moment
    gives the same slope constant for the closed-form mismatched bound.
    """

    omega1: float
    k: int
    theta: float
    t_prior: float
    std_narrow: float
    std_wide: float
    prior: Prior
    truth_empirical: TrueModel
    truth_mixture: TrueModel
    assumed: AssumedModel
    gamma_mismatched: float
    bound_mismatched: float


def _contamination_sampler(
    k: int, wide_prob: float, std_narrow: float, std_wide: float
) -> Callable[[np.random.Generator], np.ndarray]:
    def sample(rng: np.random.Generator) -> np.ndarray:
        u = rng.random(k)
        z = rng.standard_normal(k)
        return np.where(u < wide_prob, std_wide, std_narrow) * z

    return sample


def build_example3(
    omega1: float, k: int = 2000, t_prior: float | None = None
) -> Example3Scenario:
    if not 0.0 <= omega1 <= 1.0:
        raise ValueError(f"omega1 must be in [0, 1], got {omega1}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    std_narrow, std_wide = 1.0, 25.0
    signal = LinearVectorMap(np.ones(k))
    zero = np.zeros(k)
    assumed = AssumedModel(signal, zero, ScaledIdentityCov(std_narrow**2, k))
    truth_mixture = TrueModel(
        signal,
        MixtureNoise(
            np.array([omega1, 1.0 - omega1]),
            (
                GaussianNoise(zero, ScaledIdentityCov(std_narrow**2, k)),
                GaussianNoise(zero, ScaledIdentityCov(std_wide**2, k)),
            ),
        ),
    )
    truth_empirical = TrueModel(
        signal,
        EmpiricalNoise(_contamination_sampler(k, 1.0 - omega1, std_narrow, std_wide), k),
    )
    gamma_mm = _q_linear_gamma(assumed, truth_mixture)
    if t_prior is None:
        gamma_floor = 0.5 * math.sqrt(k) / std_wide  # slope at full contamination
        t_prior = _prior_width(gamma_floor)
    return Example3Scenario(
        omega1=float(omega1),
        k=k,
        theta=THETA_DC,
        t_prior=t_prior,
        std_narrow=std_narrow,
        std_wide=std_wide,
        prior=uniform_interval(t_prior),
        truth_empirical=truth_empirical,
        truth_mixture=truth_mixture,
        assumed=assumed,
        gamma_mismatched=gamma_mm,
        bound_mismatched=zzb_closed_form_q_linear(gamma_mm, t_prior),
    )


_MIXTURE_ROWS = 64  # offsets per row block of matched_mixture_pe


def matched_mixture_pe(
    k: int, omega1: float, std_narrow: float = 1.0, std_wide: float = 25.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Error-probability profile of the optimal test under i.i.d. contamination.

    Per sample the exact log-likelihood ratio has moments computed by fixed
    Simpson quadrature over the contamination density (a dense center segment
    for the narrow component, wide flanks for the outlier tails); the K-sample
    error probability then follows from the normal approximation of the
    per-sample sum. Returns a vectorized pe(h_off) with pe(0) = 0.5.

    The shifted log-density log f(v - h) = logaddexp(a, b) adds a narrow term
    a = la + ca - (d/std_narrow)^2/2 and a wide term b = lb + cb -
    (d/std_wide)^2/2, with d = v - h. When std_narrow < std_wide, a - b falls
    quadratically in |d|; past the reach R below, a - b < -50 and b <= -1.
    There logaddexp returns b + log1p(exp(a - b)), and exp(-50) is far below
    half an ulp of |b| >= 1, so the sum rounds to b exactly. Each row block
    therefore computes b at full width and logaddexp only on the nodes within
    R of its offsets (NaN offsets aside), with the same bits as the full-width
    evaluation. When std_narrow >= std_wide the window is the whole grid.
    """
    for name, std in (("std_narrow", std_narrow), ("std_wide", std_wide)):
        if not 0.0 < std < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {std}")
    if not 0.0 < omega1 < 1.0:
        raise ValueError("interior weights only; the extremes are exactly Gaussian")
    la, lb = math.log(omega1), math.log(1.0 - omega1)
    ca = -0.5 * math.log(2.0 * math.pi * std_narrow**2)
    cb = -0.5 * math.log(2.0 * math.pi * std_wide**2)
    curvature = 0.5 / std_narrow**2 - 0.5 / std_wide**2
    if curvature > 0.0:
        narrow_reach = max(
            math.sqrt(max(la + ca - lb - cb + 50.0, 0.0) / curvature),
            std_wide * math.sqrt(2.0 * max(lb + cb + 1.0, 0.0)),
        )
    else:
        narrow_reach = math.inf

    reach = 8.8 * std_wide
    center = 10.0 * std_narrow
    nodes, weights = [], []
    for lo, hi, n in (
        (-reach, -center, 2049),
        (-center, center, 2049),
        (center, reach, 2049),
    ):
        x = np.linspace(lo, hi, n)
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        nodes.append(x)
        weights.append(w * (x[1] - x[0]) / 3.0)
    v = np.concatenate(nodes)
    log_f = np.logaddexp(
        la + ca - 0.5 * (v / std_narrow) ** 2, lb + cb - 0.5 * (v / std_wide) ** 2
    )
    f_w = np.exp(log_f) * np.concatenate(weights)

    def pe(h_off) -> np.ndarray:
        h = np.atleast_1d(np.asarray(h_off, dtype=float))
        out = np.full(h.shape, 0.5)
        live = np.nonzero(h != 0.0)[0]
        # Two row-block buffers, reused in place with the operation order of
        # lb + cb - 0.5 * ((v - h) / std_wide) ** 2 and its narrow twin.
        rows = min(_MIXTURE_ROWS, live.size)
        ell_buf, tmp_buf = np.empty((rows, v.size)), np.empty((rows, v.size))
        for start in range(0, live.size, _MIXTURE_ROWS):
            idx = live[start : start + _MIXTURE_ROWS]
            hb = h[idx, None]
            ell = ell_buf[: idx.size]
            np.subtract(v, hb, out=ell)
            ell /= std_wide
            np.square(ell, out=ell)
            ell *= 0.5
            np.subtract(lb + cb, ell, out=ell)
            j0 = np.searchsorted(v, np.nanmin(hb) - narrow_reach)
            j1 = np.searchsorted(v, np.nanmax(hb) + narrow_reach, "right")
            near = ell[:, j0:j1]
            narrow = tmp_buf[: idx.size, : j1 - j0]
            np.subtract(v[j0:j1], hb, out=narrow)
            narrow /= std_narrow
            np.square(narrow, out=narrow)
            narrow *= 0.5
            np.subtract(la + ca, narrow, out=narrow)
            np.logaddexp(narrow, near, out=near)
            ell -= log_f
            mean = ell @ f_w
            sq = np.multiply(ell, ell, out=tmp_buf[: idx.size])
            var = sq @ f_w - mean * mean
            var = np.maximum(var, 1e-300)
            out[idx] = q_function(math.sqrt(k) * np.abs(mean) / np.sqrt(var))
        if np.isscalar(h_off):
            return out[0]
        return out

    return pe


def example3_matched_bound(scenario: Example3Scenario) -> BoundResult:
    """Matched bound: exact Gaussian closed form at the weight extremes, the
    likelihood-ratio normal-approximation profile otherwise."""
    w1 = scenario.omega1
    if w1 in (0.0, 1.0):
        var = scenario.std_narrow**2 if w1 == 1.0 else scenario.std_wide**2
        gamma = 0.5 * math.sqrt(scenario.k / var)
        return BoundResult(
            zzb_closed_form_q_linear(gamma, scenario.t_prior), True, "closed_form_q_linear"
        )
    pe = matched_mixture_pe(scenario.k, w1, scenario.std_narrow, scenario.std_wide)
    return zzb_scalar_independent(ScalarBoundSpec(uniform_interval(scenario.t_prior), pe))


# ---------------------------------------------------------------------------
# Example 4: arrival time and amplitude with a too-narrow template
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Example4Scenario:
    """One SNR point of the pulse scenario.

    The true pulse has width 300 samples, the assumed template 200; both have
    unit peak. SNR fixes the white-noise level through the true pulse energy
    at nominal amplitude 1. The prior is uniform over all k lattice positions
    and amplitudes in [0.5, 1.5].
    """

    snr: float
    k: int
    sigma2: float
    true_width: int
    assumed_width: int
    prior: Prior
    truth: TrueModel
    assumed: AssumedModel
    assumed_matched: AssumedModel
    e_s_true: float
    e_s_assumed: float
    rho0: float


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


_EX4_TRUE_WIDTH = 300


def build_example4(
    snr: float, k: int = 5000, true_width: int = _EX4_TRUE_WIDTH, assumed_width: int = 200
) -> Example4Scenario:
    if snr <= 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    if k < 2 * true_width:
        raise ValueError(f"k must be at least twice the true width, got k={k}")
    s_true = pulse_template(true_width)
    s_assumed = pulse_template(assumed_width)
    e_s_true = float(s_true @ s_true)
    e_s_assumed = float(s_assumed @ s_assumed)
    rho0 = float(_xcorr_at_lags(s_true, s_assumed, np.array([0]))[0])
    # SNR = (true pulse energy) * alpha / N_o at nominal alpha = 1, noise
    # variance per sample sigma^2 = N_o / 2.
    sigma2 = e_s_true / (2.0 * snr)
    cov = ScaledIdentityCov(sigma2, k)
    zero = np.zeros(k)
    prior = Prior((LatticeAxis(k, 0.0, 1.0), IntervalAxis(0.5, 1.5)))
    return Example4Scenario(
        snr=float(snr),
        k=k,
        sigma2=sigma2,
        true_width=true_width,
        assumed_width=assumed_width,
        prior=prior,
        truth=TrueModel(AmplitudePulseMap(true_width, k), GaussianNoise(zero, cov)),
        assumed=AssumedModel(AmplitudePulseMap(assumed_width, k), zero, cov),
        assumed_matched=AssumedModel(AmplitudePulseMap(true_width, k), zero.copy(), cov),
        e_s_true=e_s_true,
        e_s_assumed=e_s_assumed,
        rho0=rho0,
    )


_EX4_INNER_NODES = 129
_EX4_BLOCK = 2**14  # elements per _ex4_pe call: amplitude nodes x keys


def _ex4_pe(a_o, d_alpha, r_ss, r_ts, rho0, e_s, sigma2):
    """Vectorized error probability at interior positions via correlations.

    a_o is the amplitude at the first candidate, a_o + d_alpha at the second;
    r_ss and r_ts are the template auto- and cross-correlations at the
    candidates' lattice separation.
    """
    a1 = a_o + d_alpha
    first = 0.5 * (a1 * a1 - a_o * a_o) * e_s / sigma2
    s0 = first + a_o * (a_o * rho0 - a1 * r_ts) / sigma2
    s1 = first + a1 * (a_o * r_ts - a1 * rho0) / sigma2
    d_norm2 = (a_o * a_o + a1 * a1) * e_s - 2.0 * a_o * a1 * r_ss
    sig_n = np.sqrt(np.maximum(d_norm2, 0.0) / sigma2)
    return 0.5 * (q_ratio(s0, sig_n) + q_ratio(-s1, sig_n))


def _make_example4_g(scenario: Example4Scenario, matched: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Location-averaged integrand G(delta) for the pulse scenario.

    Clipped boundary positions are dropped (their error probabilities are
    nonnegative, so the result stays a lower bound); interior positions are
    shift invariant, which collapses the position average to a counting
    factor times a fixed-grid quadrature over the amplitude overlap.

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

    The bound's search and quadrature revisit many keys (the negative tau
    offsets repeat the positive ones exactly), so g remembers the sum of
    every key it has evaluated, in arrays sorted by the complex key
    lag + 1j * d_alpha, and computes only unseen keys. Those are evaluated
    at all amplitude nodes in one (nodes, keys) block per call of _ex4_pe
    and summed over the nodes in the same sequential order.
    """
    k = scenario.k
    wide = float(scenario.true_width)
    s_true = pulse_template(scenario.true_width)
    s_assumed = s_true if matched else pulse_template(scenario.assumed_width)
    e_s = float(s_assumed @ s_assumed)
    # The cross-correlation reaches lag r_true + r_assumed and the assumed
    # autocorrelation lag 2 r_assumed; both tables are zero past the larger.
    r_true, r_assumed = (s_true.size - 1) // 2, (s_assumed.size - 1) // 2
    reach = max(r_true, r_assumed) + r_assumed + 1
    lags = np.arange(min(reach + 1, k))
    table_ss = np.zeros(k)
    table_ts = np.zeros(k)
    table_ss[: lags.size] = _xcorr_at_lags(s_assumed, s_assumed, lags)
    table_ts[: lags.size] = _xcorr_at_lags(s_true, s_assumed, lags)
    # First lag from which both tables are zero to the end; it equals k when
    # the correlations reach the last lag, and then no lag is collapsed.
    span = int(np.flatnonzero((table_ss != 0.0) | (table_ts != 0.0))[-1]) + 1
    rho0 = table_ts[0]
    sigma2 = scenario.sigma2
    alpha_axis = scenario.prior.axes[1]
    a_lo, a_hi = alpha_axis.lo, alpha_axis.hi
    a_width = alpha_axis.width

    n = _EX4_INNER_NODES
    t_nodes = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    t_weights = w / (3.0 * (n - 1))
    block = max(1, _EX4_BLOCK // n)  # keys per _ex4_pe call
    memo_keys = np.empty(0, dtype=complex)
    memo_sums = np.empty(0)

    def quadrature(key_lag: np.ndarray, da: np.ndarray) -> np.ndarray:
        """Amplitude-quadrature sum for each (lag, d_alpha) key."""
        sums = np.empty(da.size)
        for start in range(0, da.size, block):
            sl = slice(start, start + block)
            lo_u = np.maximum(a_lo, a_lo - da[sl])
            len_u = np.minimum(a_hi, a_hi - da[sl]) - lo_u
            a_o = lo_u + t_nodes[:, None] * len_u
            pe = _ex4_pe(
                a_o, da[sl], table_ss[key_lag[sl]], table_ts[key_lag[sl]], rho0, e_s, sigma2
            )
            # Accumulate adds the weighted nodes strictly in order, as a
            # running sum would; a pairwise reduction would move the bits.
            sums[sl] = np.add.accumulate(t_weights[:, None] * pe, axis=0)[-1]
        return sums

    def g(deltas: np.ndarray) -> np.ndarray:
        nonlocal memo_keys, memo_sums
        d = np.asarray(deltas, dtype=float)
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
        key_lag = u_code // u_alpha.size
        da = u_alpha[u_code % u_alpha.size]
        # Sorted like u_code (lag, then d_alpha); -0.0 and 0.0 compare equal.
        keys = key_lag + 1j * da
        pos = np.searchsorted(memo_keys, keys)
        seen = pos < memo_keys.size
        seen[seen] = memo_keys[pos[seen]] == keys[seen]
        if not seen.all():
            new = ~seen
            memo_keys = np.insert(memo_keys, pos[new], keys[new])
            memo_sums = np.insert(memo_sums, pos[new], quadrature(key_lag[new], da[new]))
            pos = np.searchsorted(memo_keys, keys)
        acc = memo_sums[pos]
        out[idx] = tau_share[idx] * (length[idx] / a_width) * acc[inv]
        return out

    return g


_EX4_SEARCH = DeltaSearch(grid_points=33, refine_iters=8, lattice_window=8)
_EX4_QUADRATURE = QuadratureRule(points=513, rel_tol=1e-4, max_doublings=4)


def example4_bounds(scenario: Example4Scenario) -> dict[str, BoundResult]:
    """All four direction bounds (tau and alpha, mismatched and matched)."""
    out: dict[str, BoundResult] = {}
    for label, matched in (("mismatched", False), ("matched", True)):
        g = _make_example4_g(scenario, matched)
        for coord, direction in (("tau", (1.0, 0.0)), ("alpha", (0.0, 1.0))):
            spec = VectorBoundSpec(
                direction=np.array(direction),
                prior=scenario.prior,
                pe=g,
                pe_includes_prior=True,
                search=_EX4_SEARCH,
                quadrature=_EX4_QUADRATURE,
            )
            out[f"zzb_{coord}_{label}"] = zzb_vector(spec)
    return out


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


# Domain of each example's sweep variable; NaN fails every comparison.
_SWEEP_DOMAINS: dict[int, tuple[Callable[[float], bool], str]] = {
    1: (lambda v: 0.0 <= v < math.inf, "finite and nonnegative"),
    2: (math.isfinite, "finite"),
    3: (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    4: (lambda v: 0.0 < v < math.inf, "finite and positive"),
}


def check_sweep_value(example: int, value: float) -> None:
    """Raise ValueError unless value lies in the example's sweep domain."""
    in_domain, domain = _SWEEP_DOMAINS[example]
    if not in_domain(value):
        raise ValueError(f"{_SWEEP_VARS[example]} must be {domain}, got {value}")


# Shortest record each study can be built on; example 4 needs room for two
# true-width pulses.
_SWEEP_MIN_K = {1: 2, 2: 2, 3: 2, 4: 2 * _EX4_TRUE_WIDTH}


def check_sweep_k(example: int, k: int) -> None:
    """Raise ValueError unless the example's study can be built with k samples."""
    least = _SWEEP_MIN_K[example]
    if k < least:
        raise ValueError(f"k must be at least {least} for example {example}, got {k}")


@dataclass(frozen=True)
class SweepConfig:
    """One example sweep: which variable, over which grid, at what scale."""

    example: int
    var: str
    grid: tuple[float, ...]
    overrides: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.example not in _SWEEP_VARS:
            raise ValueError(f"example must be in {{1, 2, 3, 4}}, got {self.example}")
        expected = _SWEEP_VARS[self.example]
        if self.var != expected:
            raise ValueError(
                f"example {self.example} sweeps {expected!r}, got var={self.var!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        for i, value in enumerate(grid):
            try:
                check_sweep_value(self.example, value)
            except ValueError as exc:
                raise ValueError(f"grid[{i}]: {exc}") from None
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        known = {"k", "trials"}
        unknown = set(self.overrides) - known
        if unknown:
            raise ValueError(f"unknown overrides {sorted(unknown)}; allowed: k, trials")
        if "k" in self.overrides:
            check_sweep_k(self.example, int(self.overrides["k"]))
        if "trials" in self.overrides and int(self.overrides["trials"]) < 1:
            raise ValueError("override trials must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: a quantity evaluated at one sweep point."""

    sweep_var: str
    sweep_value: float
    quantity: str
    method: str
    value: float
    stderr: float
    flag: str


def default_grid(example: int) -> tuple[float, ...]:
    """The sweep grid each example was designed around."""
    if example == 1:
        return tuple(np.linspace(0.01, 0.3, 8))
    if example == 2:
        return tuple(float(v) for v in range(11))
    if example == 3:
        return tuple(np.linspace(0.0, 1.0, 11))
    if example == 4:
        return (1.0, 3.162, 10.0, 31.62, 100.0, 316.2)
    raise ValueError(f"example must be in {{1, 2, 3, 4}}, got {example}")


def _scale(config: SweepConfig) -> tuple[int, int]:
    k = int(config.overrides.get("k", _DEFAULT_K[config.example]))
    trials = int(config.overrides.get("trials", _DEFAULT_TRIALS[config.example]))
    return k, trials


def _mse_rows(
    config: SweepConfig,
    value: float,
    plan: TrialPlan,
    quantities: tuple[str, ...],
) -> list[SweepRow]:
    report = run_mse(plan)
    flag = "ok" if report.valid else "invalid"
    return [
        SweepRow(
            config.var,
            value,
            quantity,
            "monte_carlo",
            float(report.mse[coord]),
            float(report.stderr[coord]),
            flag,
        )
        for coord, quantity in enumerate(quantities)
    ]


def _bound_row(
    config: SweepConfig, value: float, quantity: str, result: BoundResult
) -> SweepRow:
    flag = "ok" if result.converged else "not_converged"
    return SweepRow(config.var, value, quantity, result.form, result.value, 0.0, flag)


def _sweep_example1(config: SweepConfig) -> list[SweepRow]:
    k, trials = _scale(config)
    probe = [build_example1(s, k) for s in config.grid]
    gamma_min = min(min(s.gammas.values()) for s in probe)
    t_prior = _prior_width(gamma_min)
    rows: list[SweepRow] = []
    for i, sigma2 in enumerate(config.grid):
        scn = build_example1(sigma2, k, t_prior)
        for name in ("m1", "m2", "matched"):
            if name not in scn.assumed:
                continue
            rows.append(
                _bound_row(
                    config,
                    sigma2,
                    f"zzb_{name}",
                    BoundResult(scn.bounds[name], True, "closed_form_q_linear"),
                )
            )
        for j, name in enumerate(("m1", "m2", "matched")):
            if name not in scn.assumed:
                continue
            plan = TrialPlan(
                truth=scn.truth,
                estimator=LinearClosedForm(scn.assumed[name]),
                prior=scn.prior,
                trials=trials,
                seed=derive_seed(config.seed, 1, i, j),
                theta_true=np.array([scn.theta]),
            )
            rows.extend(_mse_rows(config, sigma2, plan, (f"mse_mle_{name}",)))
    return rows


def _sweep_example2(config: SweepConfig) -> list[SweepRow]:
    k, trials = _scale(config)
    rows: list[SweepRow] = []
    for i, mu_star in enumerate(config.grid):
        scn = build_example2(mu_star, k)
        rows.append(_bound_row(config, mu_star, "zzb_mismatched", scn.bound_mismatched))
        rows.append(
            _bound_row(
                config,
                mu_star,
                "zzb_matched",
                BoundResult(scn.bound_matched, True, "closed_form_q_linear"),
            )
        )
        plan = TrialPlan(
            truth=scn.truth,
            estimator=LinearClosedForm(scn.assumed),
            prior=scn.prior,
            trials=trials,
            seed=derive_seed(config.seed, 2, i, 0),
            theta_true=np.array([scn.theta]),
        )
        rows.extend(_mse_rows(config, mu_star, plan, ("mse_mle",)))
    return rows


def _sweep_example3(config: SweepConfig) -> list[SweepRow]:
    k, trials = _scale(config)
    probe = [build_example3(1.0 - w2, k) for w2 in config.grid]
    gamma_min = min(s.gamma_mismatched for s in probe)
    t_prior = _prior_width(gamma_min)
    rows: list[SweepRow] = []
    for i, w2 in enumerate(config.grid):
        scn = build_example3(1.0 - w2, k, t_prior)
        rows.append(
            _bound_row(
                config,
                w2,
                "zzb_mismatched",
                BoundResult(scn.bound_mismatched, True, "closed_form_q_linear"),
            )
        )
        rows.append(_bound_row(config, w2, "zzb_matched", example3_matched_bound(scn)))
        for j, (quantity, estimator) in enumerate(
            (
                ("mse_mle", LinearClosedForm(scn.assumed)),
                ("mse_median", SampleMedian()),
            )
        ):
            plan = TrialPlan(
                truth=scn.truth_empirical,
                estimator=estimator,
                prior=scn.prior,
                trials=trials,
                seed=derive_seed(config.seed, 3, i, j),
                theta_true=np.array([scn.theta]),
            )
            rows.extend(_mse_rows(config, w2, plan, (quantity,)))
    return rows


def _sweep_example4(config: SweepConfig) -> list[SweepRow]:
    k, trials = _scale(config)
    rows: list[SweepRow] = []
    for i, snr in enumerate(config.grid):
        scn = build_example4(snr, k)
        bounds = example4_bounds(scn)
        for coord in ("tau", "alpha"):
            for label in ("mismatched", "matched"):
                name = f"zzb_{coord}_{label}"
                rows.append(_bound_row(config, snr, name, bounds[name]))
        plan = TrialPlan(
            truth=scn.truth,
            estimator=QuasiMLE(scn.assumed),
            prior=scn.prior,
            trials=trials,
            seed=derive_seed(config.seed, 4, i, 0),
        )
        rows.extend(_mse_rows(config, snr, plan, ("mse_mle_tau", "mse_mle_alpha")))
    return rows


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every bound and Monte Carlo quantity over the configured grid.

    Rows come back ordered by sweep value, bounds before Monte Carlo results;
    an invalid Monte Carlo run flags its rows and the sweep continues.
    """
    driver = {
        1: _sweep_example1,
        2: _sweep_example2,
        3: _sweep_example3,
        4: _sweep_example4,
    }[config.example]
    return driver(config)
