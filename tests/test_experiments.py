"""Tests for the four reference scenarios and the sweep driver."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr

from zzbound import experiments, pe_kernel, zzb
from zzbound.experiments import (
    SweepConfig,
    _prior_width,
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
from zzbound.models import (
    AmplitudePulseMap,
    AssumedModel,
    GaussianNoise,
    ScaledIdentityCov,
    TrueModel,
    eval_signal,
    pulse_template,
)
from zzbound.pe_kernel import (
    PeKernel,
    _pulse_pe,
    _xcorr_at_lags,
    linear_scalar_profile,
    pe_gaussian,
    pulse_profile,
)
from zzbound.special_math import q_function, q_ratio
from zzbound.zzb import (
    DeltaSearch,
    QuadratureRule,
    ScalarBoundSpec,
    VectorBoundSpec,
    zzb_scalar_independent,
    zzb_vector,
)


def test_prior_width():
    assert _prior_width(0.5) == 200.0
    assert _prior_width(50.0) == 10.0  # floor takes over for steep slopes


# ---------------------------------------------------------------------------
# Example 1: white-only and colored-only partial models
# ---------------------------------------------------------------------------


def test_example1_gamma_longhand():
    k, sigma2 = 500, 0.1
    scn = build_example1(sigma2, k)
    d = 0.016 * np.linspace(1.0, 5.0, k)
    true_diag = sigma2 + d

    a1, b1 = k / sigma2, float(np.sum(true_diag)) / sigma2**2
    assert scn.gammas["m1"] == pytest.approx(0.5 * a1 / math.sqrt(b1), rel=1e-12, abs=0.0)
    a2, b2 = float(np.sum(1.0 / d)), float(np.sum(true_diag / d**2))
    assert scn.gammas["m2"] == pytest.approx(0.5 * a2 / math.sqrt(b2), rel=1e-12, abs=0.0)
    assert scn.gammas["matched"] == pytest.approx(
        0.5 * math.sqrt(float(np.sum(1.0 / true_diag))), rel=1e-12, abs=0.0
    )


def test_example1_frozen_gammas():
    scn = build_example1(0.1)
    assert scn.gammas["m1"] == pytest.approx(29.061909685954816, rel=1e-12, abs=0.0)
    assert scn.gammas["m2"] == pytest.approx(27.65703544822206, rel=1e-12, abs=0.0)
    assert scn.gammas["matched"] == pytest.approx(29.294946289954513, rel=1e-12, abs=0.0)


def test_example1_m1_asymptote_is_true_average_variance():
    # Unit map with white assumed noise: the large-T floor is the mean true
    # per-sample variance over K, here (sigma^2 + 0.048) / K.
    for sigma2 in (0.05, 0.2):
        scn = build_example1(sigma2)
        g = scn.gammas["m1"]
        assert 1.0 / (4.0 * g * g) == pytest.approx(
            (sigma2 + 0.048) / scn.k, rel=1e-12, abs=0.0
        )


def test_example1_matched_dominates():
    scn = build_example1(0.15)
    assert scn.gammas["matched"] >= scn.gammas["m1"]
    assert scn.gammas["matched"] >= scn.gammas["m2"]
    assert set(scn.assumed) == {"m1", "m2", "matched"}


def test_example1_zero_white_noise_drops_m1_and_matches_m2():
    scn = build_example1(0.0)
    assert set(scn.assumed) == {"m2", "matched"}
    # With no white component the colored-only model is the true model.
    assert scn.gammas["m2"] == scn.gammas["matched"]  # bitwise


def test_example1_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        build_example1(-0.1)
    with pytest.raises(ValueError, match="k"):
        build_example1(0.1, k=1)


# ---------------------------------------------------------------------------
# Example 2: wrong assumed noise mean
# ---------------------------------------------------------------------------


def _example2_bounds(mu_star):
    """The sweep's (mismatched, matched) bound pair at one true mean."""
    scn = build_example2(mu_star)
    mismatched = zzb.bound(scn.assumed["mismatched"], scn.truth, scn.prior, "quadrature")
    return mismatched, zzb.bound(scn.assumed["matched"], scn.truth, scn.prior)


def test_example2_mirror_symmetry_bitwise():
    for off in (1.25, 5.0):
        lo = _example2_bounds(5.0 - off)[0].value
        hi = _example2_bounds(5.0 + off)[0].value
        assert lo == hi


def test_example2_frozen_endpoint():
    mismatched, matched = _example2_bounds(0.0)
    assert mismatched.converged
    assert mismatched.value == pytest.approx(21.666858666666666, rel=1e-10, abs=0.0)
    # Far off-center the mismatched bound dwarfs the matched one.
    assert mismatched.value > 10.0 * matched.value


def test_example2_center_recovers_matched():
    mismatched, matched = _example2_bounds(5.0)
    assert matched.form == "closed_form_q_linear"
    assert mismatched.value == pytest.approx(matched.value, rel=1e-6)
    assert matched.value == pytest.approx(0.0003197564075873413, rel=1e-12, abs=0.0)


def test_example2_grows_away_from_center():
    values = [_example2_bounds(mu)[0].value for mu in (5.0, 6.0, 7.0)]
    assert values[0] < values[1] < values[2]


def test_example2_matched_gamma_ignores_true_mean():
    a, b = build_example2(0.0), build_example2(9.0)
    gamma_a = linear_scalar_profile(PeKernel(a.assumed["matched"], a.truth)).gamma
    assert gamma_a == linear_scalar_profile(PeKernel(b.assumed["matched"], b.truth)).gamma
    assert gamma_a == pytest.approx(0.5 * math.sqrt(500 / 0.16), rel=1e-12, abs=0.0)


def _matched_posterior_mse(scn, trials, seed):
    """MSE and its standard error of the posterior mean of theta under the
    matched model of an example-1 or example-2 scenario, with theta drawn
    from the uniform prior on [0, T] and the record from scn.truth.

    The matched likelihood is Gaussian in theta: the posterior is the normal
    around the WLS estimate, with the WLS variance, truncated to [0, T], so
    its mean is the truncated-normal mean in closed form,
    wls + s (phi(a) - phi(b)) / (Phi(b) - Phi(a)) with a = -wls / s and
    b = (T - wls) / s, whose denominator is taken from the nearer tail.
    """
    model = scn.assumed["matched"]
    h = model.signal.h_matrix[:, 0]
    w = model.noise_cov.solve(h)
    info = float(w @ h)
    s = 1.0 / math.sqrt(info)
    rng = np.random.default_rng(seed)
    t = scn.prior.axes[0].width
    theta = t * rng.random(trials)
    x = theta[:, None] * h + next(scn.truth.noise.draw_blocks(rng, trials, trials))
    wls = (x - model.noise_mean) @ w / info
    a, b = -wls / s, (t - wls) / s
    mass = np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    density = np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b)
    estimate = wls + s * density / (math.sqrt(2.0 * math.pi) * mass)
    sq = (estimate - theta) ** 2
    return float(np.mean(sq)), float(np.std(sq, ddof=1)) / math.sqrt(trials)


@pytest.mark.parametrize("t_prior", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("example, value, k", [(1, 0.01, 2), (1, 0.3, 5), (2, 0.0, 2), (2, 7.0, 4)])
def test_matched_linear_bound_lies_below_the_mmse(example, value, k, t_prior):
    # The matched rows claim every estimator, so the posterior mean is their
    # sharpest comparator. At 40,000 trials the bound was 84-87% of its MSE
    # at T = 0.5 and 99% at T = 10, never above it.
    build = build_example1 if example == 1 else build_example2
    scn = build(value, k, t_prior)
    got = zzb.bound(scn.assumed["matched"], scn.truth, scn.prior)
    mse, stderr = _matched_posterior_mse(scn, 2000, seed=[example, k, int(10 * t_prior)])
    assert got.value <= mse + 4.0 * stderr


# ---------------------------------------------------------------------------
# Example 3: outlier contamination
# ---------------------------------------------------------------------------


def test_example3_default_prior_width():
    scn = build_example3(0.5)
    assert scn.prior.axes[0].width == pytest.approx(111.80339887498947, rel=1e-12, abs=0.0)


def _example3_mismatched_bound(scn):
    return zzb.bound(scn.assumed["mismatched"], scn.truth, scn.prior)


def test_example3_extremes_match_closed_form():
    for omega1 in (0.0, 1.0):
        scn = build_example3(omega1)
        matched = example3_matched_bound(scn)
        mismatched = _example3_mismatched_bound(scn)
        assert matched.form == mismatched.form == "closed_form_q_linear"
        assert abs(matched.value - mismatched.value) <= 1e-10 * mismatched.value


def test_example3_frozen_interior_values():
    expected = {
        0.1: (0.03159259050354465, 0.000580576081525644),
        0.5: (0.1553217829582793, 0.001240336532762137),
        0.9: (0.27846071893932994, 0.011476871159328996),
    }
    for w2, (mm, matched) in expected.items():
        scn = build_example3(1.0 - w2)
        mismatched = _example3_mismatched_bound(scn).value
        assert mismatched == pytest.approx(mm, rel=1e-9, abs=0.0)
        got = example3_matched_bound(scn)
        assert got.converged
        assert got.value == pytest.approx(matched, rel=1e-7)
        assert mismatched > got.value  # mismatch always costs


def test_example3_frozen_benchmark_points():
    # The two weights of the mixture_quadrature benchmark workload, at k=2000.
    expected = {0.3: 0.0008049369542070419, 0.7: 0.002426334619590238}
    for w2, matched in expected.items():
        got = example3_matched_bound(build_example3(1.0 - w2))
        assert got.converged
        assert got.value == pytest.approx(matched, rel=1e-12, abs=0.0)


def _reference_mixture_pe(k, omega1, std_narrow, std_wide):
    """matched_mixture_pe with full-width logaddexp and gemv moments, one block
    of 64 offsets at a time."""
    la, lb = math.log(omega1), math.log(1.0 - omega1)
    ca = -0.5 * math.log(2.0 * math.pi * std_narrow**2)
    cb = -0.5 * math.log(2.0 * math.pi * std_wide**2)

    def logpdf(v):
        return np.logaddexp(
            la + ca - 0.5 * (v / std_narrow) ** 2,
            lb + cb - 0.5 * (v / std_wide) ** 2,
        )

    reach, center = 8.8 * std_wide, 10.0 * std_narrow
    nodes, weights = [], []
    for lo, hi in ((-reach, -center), (-center, center), (center, reach)):
        x = np.linspace(lo, hi, 2049)
        w = np.ones(2049)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        nodes.append(x)
        weights.append(w * (x[1] - x[0]) / 3.0)
    v = np.concatenate(nodes)
    log_f = logpdf(v)
    f_w = np.exp(log_f) * np.concatenate(weights)
    rows = 64

    def pe(h_off):
        h = np.atleast_1d(np.asarray(h_off, dtype=float))
        out = np.full(h.shape, 0.5)
        live = np.nonzero(h != 0.0)[0]
        for start in range(0, live.size, rows):
            idx = live[start : start + rows]
            ell = logpdf(v[None, :] - h[idx, None]) - log_f[None, :]
            mean = ell @ f_w
            var = np.maximum((ell * ell) @ f_w - mean * mean, 1e-300)
            out[idx] = q_function(math.sqrt(k) * np.abs(mean) / np.sqrt(var))
        return out

    return pe


@pytest.mark.parametrize("stds", [(1.0, 25.0), (1.0, 1.0), (2.0, 1.0), (0.01, 0.1)])
def test_example3_mixture_pe_matches_full_width_reference(stds):
    # The kernel drops c(v - h) < exp(-50) outside each offset's window and
    # adds in another order than the full-width reference, so the two agree
    # to rounding. At |h| = 1e-9 both sit at float64's eps / h floor (the
    # ratio's moments are O(h^2) differences of O(1) log-densities).
    offsets = np.array(
        [0.0, 1e-9, -1e-9, 3.7, -0.4, 250.0, -250.0, 10.0, -10.0, 9.99, 10.01, 1.2, -31.0]
    )
    h = np.concatenate([offsets, np.linspace(-30.0, 30.0, 301)])
    far = np.abs(h) >= 0.2
    for omega1 in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        pe = matched_mixture_pe(200, omega1, *stds)
        ref = _reference_mixture_pe(200, omega1, *stds)
        got, want = pe(h), ref(h)
        assert np.all(np.isfinite(got))
        assert np.all(got[h == 0.0] == 0.5)
        assert_allclose(got[far], want[far], rtol=0.0, atol=1e-13)
        assert_allclose(got[~far], want[~far], rtol=0.0, atol=2e-6)
    with np.errstate(invalid="ignore"):
        with_nan = np.array([0.5, np.nan, -2.0])
        assert_allclose(pe(with_nan), ref(with_nan), rtol=0.0, atol=1e-13)


_MIXTURE_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, math.nan]), st.floats(-300.0, 300.0)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([(0.3, 1.0, 25.0), (0.7, 1.0, 25.0), (0.5, 2.0, 1.0)]),
    st.lists(_MIXTURE_OFFSETS, min_size=1, max_size=40),
    st.integers(0, 40),
)
def test_example3_mixture_pe_is_a_pure_function_of_the_offset(params, offsets, cut):
    omega1, std_narrow, std_wide = params
    pe = matched_mixture_pe(2000, omega1, std_narrow, std_wide)
    h = np.array(offsets)
    whole = pe(h)
    assert_array_equal([pe(x) for x in offsets], whole)
    assert_array_equal(np.concatenate([pe(h[:cut]), pe(h[cut:])]), whole)
    assert_array_equal(pe(h[::-1])[::-1], whole)


def _longdouble_mixture_pe(k, omega1, std_narrow=1.0, std_wide=25.0):
    """The profile's quadrature at full width, in np.longdouble from the
    float64 nodes and weights up to the float64 Q of the final ratio."""
    ld = np.longdouble
    la, lb = np.log(ld(omega1)), np.log(ld(1.0) - ld(omega1))
    ca = -np.log(2.0 * ld(np.pi) * ld(std_narrow) ** 2) / 2.0
    cb = -np.log(2.0 * ld(np.pi) * ld(std_wide) ** 2) / 2.0

    def logpdf(v):
        narrow = la + ca - v * v / (2.0 * ld(std_narrow) ** 2)
        return np.logaddexp(narrow, lb + cb - v * v / (2.0 * ld(std_wide) ** 2))

    reach, center = 8.8 * std_wide, 10.0 * std_narrow
    nodes, weights = [], []
    for lo, hi in ((-reach, -center), (-center, center), (center, reach)):
        x = np.linspace(lo, hi, 2049)
        w = np.ones(2049)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        nodes.append(x)
        weights.append(w * (x[1] - x[0]) / 3.0)
    v = np.concatenate(nodes).astype(ld)
    log_f = logpdf(v)
    f_w = np.exp(log_f) * np.concatenate(weights).astype(ld)

    def pe(hs):
        out = []
        for h in hs:
            ell = logpdf(v - ld(h)) - log_f
            mean = np.sum(f_w * ell)
            var = np.sum(f_w * ell * ell) - mean * mean
            out.append(q_function(float(np.sqrt(ld(k)) * abs(mean) / np.sqrt(var))))
        return np.array(out)

    return pe


def test_example3_mixture_pe_against_longdouble_oracle():
    # The oracle needs more precision than float64 to judge it.
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    ladder = np.geomspace(1e-3, 60.0, 40)
    h = np.concatenate([ladder, -ladder[::3]])
    for omega1 in (0.3, 0.7):
        want = _longdouble_mixture_pe(2000, omega1)(h)
        got = matched_mixture_pe(2000, omega1)(h)
        # Relative error means something only where pe is a normal float.
        normal = want >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= 20
        assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)


def test_example3_matched_mixture_pe_rejects_bad_stds():
    with pytest.raises(ValueError, match="std_narrow"):
        matched_mixture_pe(k=10, omega1=0.5, std_narrow=0.0)
    with pytest.raises(ValueError, match="std_wide"):
        matched_mixture_pe(k=10, omega1=0.5, std_wide=-25.0)
    with pytest.raises(ValueError, match="std_wide"):
        matched_mixture_pe(k=10, omega1=0.5, std_wide=math.nan)


def test_example3_matched_mixture_pe_profile():
    pe = matched_mixture_pe(k=100, omega1=0.8)
    assert pe(0.0) == 0.5
    grid = np.linspace(0.0, 3.0, 13)
    vals = pe(grid)
    assert vals.shape == grid.shape
    assert vals[0] == 0.5
    assert np.all(np.diff(vals) < 0.0)
    assert np.all((vals >= 0.0) & (vals <= 0.5))


def test_example3_matched_mixture_pe_rejects_extremes():
    with pytest.raises(ValueError, match="interior"):
        matched_mixture_pe(k=10, omega1=0.0)
    with pytest.raises(ValueError, match="interior"):
        matched_mixture_pe(k=10, omega1=1.0)


def _posterior_mean_mse(scn, trials, seed, n_grid=129):
    """MSE and its standard error of the posterior mean of theta, with theta
    drawn from the scenario's uniform prior and the record from scn.truth.

    The posterior under the exact per-sample likelihood is formed on an
    n_grid trapezoid grid over the prior with log-sum-exp weights. Any
    estimator's MSE is at least the MMSE, so grid error can only make this
    comparator looser, never flag a valid bound.
    """
    rng = np.random.default_rng(seed)
    t = scn.prior.axes[0].width
    theta = t * rng.random(trials)
    x = theta[:, None] + next(scn.truth.noise.draw_blocks(rng, trials, trials))
    grid = np.linspace(0.0, t, n_grid)
    log_trap = np.log(np.r_[0.5, np.ones(n_grid - 2), 0.5])
    stds = scn.truth.noise.stds
    log_c = np.log(scn.truth.noise.weights) - 0.5 * np.log(2.0 * math.pi * stds**2)
    estimate = np.empty(trials)
    block = max(1, 2**18 // (n_grid * scn.k))
    for s in range(0, trials, block):
        d2 = np.square(x[s : s + block, None, :] - grid[None, :, None])
        log_f = np.logaddexp(log_c[0] - 0.5 * d2 / stds[0] ** 2, log_c[1] - 0.5 * d2 / stds[1] ** 2)
        log_post = log_f.sum(axis=2) + log_trap
        post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        estimate[s : s + block] = (post @ grid) / post.sum(axis=1)
    sq = (estimate - theta) ** 2
    return float(np.mean(sq)), float(np.std(sq, ddof=1)) / math.sqrt(trials)


# The matched bound's profile is a normal approximation to the summed
# log-likelihood ratio, least accurate at small k; its quadrature runs at
# rel_tol 1e-4 here, far inside the Monte Carlo error, to keep the test cheap.
_COARSE = QuadratureRule(points=129, rel_tol=1e-4)


@pytest.mark.parametrize("t_prior", [2.0, 5.0, 20.0])
@pytest.mark.parametrize("omega1", [0.3, 0.7])
@pytest.mark.parametrize("k", [2, 6, 10, 40])
def test_example3_matched_bound_lies_below_the_mmse(k, omega1, t_prior):
    scn = build_example3(omega1, k, t_prior)
    spec = ScalarBoundSpec(scn.prior, matched_mixture_pe(k, omega1), _COARSE)
    got = zzb_scalar_independent(spec)
    assert got.converged
    mse, stderr = _posterior_mean_mse(scn, 1000, seed=[k, int(10 * omega1), int(t_prior)])
    assert got.value <= mse + 4.0 * stderr


def test_example3_matched_bound_at_the_coarse_rule():
    # The MMSE test's cheaper quadrature stands in for example3_matched_bound.
    scn = build_example3(0.7, 10, 5.0)
    spec = ScalarBoundSpec(scn.prior, matched_mixture_pe(10, 0.7), _COARSE)
    coarse = zzb_scalar_independent(spec)
    assert coarse.value == pytest.approx(example3_matched_bound(scn).value, rel=1e-4)


def test_example3_validation():
    with pytest.raises(ValueError, match="omega1"):
        build_example3(1.5)


# ---------------------------------------------------------------------------
# Example 4: pulse with a too-narrow template
# ---------------------------------------------------------------------------


def test_example4_frozen_constants():
    scn = build_example4(10.0)
    mismatched = scn.assumed["mismatched"]
    s_true = pulse_template(scn.truth.signal.width)
    s_assumed = pulse_template(mismatched.signal.width)
    e_s_true = float(s_true @ s_true)
    assert e_s_true == pytest.approx(100.00222222222224, rel=1e-12, abs=0.0)
    assert float(s_assumed @ s_assumed) == pytest.approx(66.67000000000002, rel=1e-12, abs=0.0)
    rho0 = _xcorr_at_lags(s_true, s_assumed, np.array([0]))[0]
    assert rho0 == pytest.approx(77.77999999999999, rel=1e-12, abs=0.0)
    assert mismatched.noise_cov.diag == pytest.approx(e_s_true / 20.0, rel=1e-15, abs=0.0)


def test_example4_validation():
    with pytest.raises(ValueError, match="snr"):
        build_example4(0.0)
    with pytest.raises(ValueError, match="twice"):
        build_example4(10.0, k=500, true_width=300)


def test_xcorr_at_lags_brute_force():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(9)
    b = rng.standard_normal(5)
    ra, rb = 4, 2
    lags = np.arange(-7, 8)
    got = _xcorr_at_lags(a, b, lags)
    for pos, j in enumerate(lags):
        acc = 0.0
        for i in range(-ra, ra + 1):
            if -rb <= i + j <= rb:
                acc += a[i + ra] * b[i + j + rb]
        assert got[pos] == pytest.approx(acc, abs=1e-12)


def _xcorr_loop(a, b, lags):
    """One dot product per lag over the overlap, as the tables were built."""
    ra, rb = (a.size - 1) // 2, (b.size - 1) // 2
    out = np.zeros(lags.size)
    for pos, j in enumerate(lags):
        lo, hi = max(-ra, -rb - j), min(ra, rb - j)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        out[pos] = a[i + ra] @ b[i + j + rb]
    return out


# Template width pairs of the studies (300 true, 200 assumed, and matched),
# odd and uneven lengths, and the test scenarios' pulses.
_XCORR_WIDTHS = [
    (300, 200), (200, 200), (300, 300), (21, 41), (41, 21), (20, 60),
    (20, 14), (14, 14), (20, 20), (20, 40), (40, 40), (40, 30), (30, 30), (20, 10), (10, 20),
]  # fmt: skip


@pytest.mark.parametrize(("wa", "wb"), _XCORR_WIDTHS)
def test_xcorr_at_lags_matches_dot_per_lag(wa, wb):
    a, b = pulse_template(wa), pulse_template(wb)
    reach = (a.size - 1) // 2 + (b.size - 1) // 2
    lags = np.arange(-reach - 3, reach + 4)
    got, expected = _xcorr_at_lags(a, b, lags), _xcorr_loop(a, b, lags)
    if min(a.size, b.size) > 11:
        np.testing.assert_array_equal(got, expected)
    else:
        # For a template of at most 11 samples np.correlate sums the fully
        # overlapping lags in sequence, while a dot product may group the
        # sum in SIMD lanes: the two can differ in the last bits.
        np.testing.assert_array_max_ulp(got, expected, maxulp=4)
    assert got[0] == got[1] == got[2] == got[-3] == got[-2] == got[-1] == 0.0


def test_pulse_template_energy_matches_frozen():
    t300 = pulse_template(300)
    t200 = pulse_template(200)
    assert float(t300 @ t300) == pytest.approx(100.00222222222224, rel=1e-12, abs=0.0)
    assert float(t200 @ t200) == pytest.approx(66.67000000000002, rel=1e-12, abs=0.0)
    assert t300.max() == 1.0 and t300.min() > 0.0


def test_ex4_pe_agrees_with_gaussian_kernel():
    # The correlation shortcut must reproduce the generic Gaussian error
    # probability at interior positions, for both signs of the lattice shift.
    k, wt, wa, sigma2 = 60, 14, 10, 0.8
    s_t, s_a = pulse_template(wt), pulse_template(wa)
    e_s = float(s_a @ s_a)
    cov = ScaledIdentityCov(sigma2, k)
    kernel = PeKernel(
        AssumedModel(AmplitudePulseMap(wa, k), np.zeros(k), cov),
        TrueModel(AmplitudePulseMap(wt, k), GaussianNoise(np.zeros(k), cov)),
    )
    rho0 = float(_xcorr_at_lags(s_t, s_a, np.array([0]))[0])
    for a_o, d_alpha, d_tau in [
        (1.0, 0.3, 3),
        (0.7, -0.2, 0),
        (1.2, 0.0, 5),
        (0.9, 0.25, -4),
    ]:
        lag = np.array([abs(d_tau)])
        r_ss = float(_xcorr_at_lags(s_a, s_a, lag)[0])
        r_ts = float(_xcorr_at_lags(s_t, s_a, lag)[0])
        got = _pulse_pe(
            np.array([a_o]), np.array([d_alpha]), r_ss, r_ts, rho0, e_s, sigma2
        )[0]
        expected = pe_gaussian(
            kernel, np.array([30.0, a_o]), np.array([float(d_tau), d_alpha])
        )
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def _coefficient_rows_coincide(d_alpha, r_ss, r_ts, rho0, e_s, sigma2):
    """Whether the per-key linear and constant Horner coefficients of s0
    and -s1 are equal, as _pulse_pe forms them."""
    d = d_alpha
    lin0, const0 = d * (e_s - r_ts) / sigma2, 0.5 * d * d * e_s / sigma2
    m_lin = (e_s - rho0) + (r_ts - rho0)
    lin1, const1 = -(d * m_lin / sigma2), -(d * d * (0.5 * e_s - rho0) / sigma2)
    return np.array_equal(lin0, lin1) and np.array_equal(const0, const1)


def _recorded_q_ratio_calls(monkeypatch, a_o, *args):
    """Every (z, sigma) that _pulse_pe hands q_ratio, and its result. The
    arguments are copied: q_ratio writes its result over z."""
    calls = []

    def recording_q_ratio(z, sigma, out=None):
        calls.append((np.array(z, dtype=float), np.array(sigma, dtype=float)))
        return q_ratio(z, sigma, out=out)

    monkeypatch.setattr(pe_kernel, "q_ratio", recording_q_ratio)
    return calls, _pulse_pe(a_o, *args)


def _pulse_arguments(monkeypatch, a_o, *args):
    """(s0, -s1, sig_n) that _pulse_pe hands q_ratio. It makes one call
    where the coefficient rows of s0 and -s1 coincide (-s1 is then s0) and
    two calls otherwise."""
    calls, _ = _recorded_q_ratio_calls(monkeypatch, a_o, *args)
    if _coefficient_rows_coincide(*args):
        ((s0, sig_n),) = calls
        return s0, s0, sig_n
    (s0, sig_n), (neg_s1, sig_again) = calls
    assert sig_again.tobytes() == sig_n.tobytes()
    return s0, neg_s1, sig_n


def _exact_moments(a, d, r_ss, r_ts, rho0, e_s, sigma2):
    """s0, -s1 and d_norm2 / sigma2 in exact rationals, from the definitions
    with candidates a and a1 = a + d."""
    a, d, r_ss, r_ts, rho0, e_s, sigma2 = (
        Fraction(float(v)) for v in (a, d, r_ss, r_ts, rho0, e_s, sigma2)
    )
    a1 = a + d
    first = (a1 * a1 - a * a) * e_s / 2
    s0 = (first + a * (a * rho0 - a1 * r_ts)) / sigma2
    s1 = (first + a1 * (a * r_ts - a1 * rho0)) / sigma2
    var = ((a * a + a1 * a1) * e_s - 2 * a * a1 * r_ss) / sigma2
    return s0, -s1, var


def _expanded_moments(a, d, r_ss, r_ts, rho0, e_s, sigma2):
    """The same three in floats, expanded from the candidates' products; the
    order-one terms cancel at a small d."""
    a1 = a + d
    first = 0.5 * (a1 * a1 - a * a) * e_s / sigma2
    s0 = first + a * (a * rho0 - a1 * r_ts) / sigma2
    s1 = first + a1 * (a * r_ts - a1 * rho0) / sigma2
    return s0, -s1, ((a * a + a1 * a1) * e_s - 2.0 * a * a1 * r_ss) / sigma2


def _worst_rel(values, exact):
    return max(abs(Fraction(float(v)) - x) / abs(x) for v, x in zip(values, exact))


@pytest.mark.parametrize("lag", [0, 57])
@pytest.mark.parametrize("assumed_width", [200, 300], ids=["mismatched", "matched"])
@pytest.mark.parametrize("d_alpha", [2.0**-10, 2.0**-20])
def test_pulse_pe_arguments_match_exact_rationals(monkeypatch, lag, assumed_width, d_alpha):
    # The kernel's Horner quadratics in the amplitude node agree with exact
    # rational arithmetic on the same floats to a few ulps, also at a tiny
    # amplitude offset and at lag 0, where the candidates' products cancel:
    # there the expanded form misses by more than 1e-12.
    s_true, s_assumed = pulse_template(300), pulse_template(assumed_width)
    e_s = float(s_assumed @ s_assumed)
    rho0 = float(_xcorr_at_lags(s_true, s_assumed, np.array([0]))[0])
    r_ss = float(_xcorr_at_lags(s_assumed, s_assumed, np.array([lag]))[0])
    r_ts = float(_xcorr_at_lags(s_true, s_assumed, np.array([lag]))[0])
    sigma2 = float(s_true @ s_true) / 200.0  # SNR 100
    a = np.linspace(0.5, 1.5 - d_alpha, 9)
    args = (np.full(a.size, d_alpha), r_ss, r_ts, rho0, e_s, sigma2)
    s0, neg_s1, sig_n = _pulse_arguments(monkeypatch, a, *args)
    exact = [_exact_moments(a_j, d_alpha, *args[1:]) for a_j in a]
    ulp = 2.0**-52
    assert _worst_rel(s0, [x[0] for x in exact]) <= 2 * ulp
    assert _worst_rel(neg_s1, [x[1] for x in exact]) <= 2 * ulp
    # sig_n is the rounded root of the rounded variance.
    assert _worst_rel(sig_n**2, [x[2] for x in exact]) <= 4 * ulp
    if lag == 0:
        old = [_expanded_moments(a_j, d_alpha, *args[1:]) for a_j in a]
        worst_old = max(
            _worst_rel([o[i] for o in old], [x[i] for x in exact]) for i in range(3)
        )
        assert worst_old > 1e-12


def _two_q_pulse_pe(a_o, d_alpha, r_ss, r_ts, rho0, e_s, sigma2):
    """The kernel with both decision statistics always evaluated."""
    d = d_alpha
    c2 = (rho0 - r_ts) / sigma2
    m_lin = (e_s - rho0) + (r_ts - rho0)
    s0 = (c2 * a_o + d * (e_s - r_ts) / sigma2) * a_o + 0.5 * d * d * e_s / sigma2
    neg_s1 = (c2 * a_o - d * m_lin / sigma2) * a_o - d * d * (0.5 * e_s - rho0) / sigma2
    v2 = 2.0 * (e_s - r_ss) / sigma2
    var = (v2 * a_o + v2 * d) * a_o + d * d * e_s / sigma2
    sig_n = np.sqrt(np.maximum(var, 0.0))
    return 0.5 * (q_ratio(s0, sig_n) + q_ratio(neg_s1, sig_n))


@pytest.mark.parametrize("snr", [1.0, 100.0])
@pytest.mark.parametrize("matched", [False, True])
def test_pulse_pe_takes_one_q_where_the_coefficient_rows_coincide(monkeypatch, snr, matched):
    # With the same template on both sides -s1 equals s0 bit for bit, and
    # _pulse_pe calls q_ratio once; its value is the two-Q formula's, bit for
    # bit, at every lag up to the correlation span and at tiny, zero and
    # half-width amplitude offsets. Mismatched widths keep both calls.
    scn = build_example4(snr)
    assumed = scn.assumed["matched" if matched else "mismatched"]
    span = pulse_profile(PeKernel(assumed, scn.truth), scn.prior).span
    s_true, s_assumed = pulse_template(scn.truth.signal.width), pulse_template(assumed.signal.width)
    lags = np.arange(span + 1)
    r_ss = _xcorr_at_lags(s_assumed, s_assumed, lags)
    r_ts = _xcorr_at_lags(s_true, s_assumed, lags)
    half_w = 0.5 * scn.prior.axes[1].width
    alphas = np.array([2.0**-20, -(2.0**-20), 2.0**-10, -(2.0**-10), 0.0, half_w, -half_w])
    key_lag, d_alpha = (m.ravel() for m in np.meshgrid(lags, alphas, indexing="ij"))
    lo = np.maximum(0.5, 0.5 - d_alpha)
    a_o = lo + np.linspace(0.0, 1.0, 129)[:, None] * (np.minimum(1.5, 1.5 - d_alpha) - lo)
    args = (d_alpha, r_ss[key_lag], r_ts[key_lag], r_ts[0], r_ss[0], scn.truth.noise.cov.diag[0])
    calls, got = _recorded_q_ratio_calls(monkeypatch, a_o, *args)
    assert len(calls) == (1 if matched else 2)
    assert _coefficient_rows_coincide(*args) == matched
    assert got.tobytes() == _two_q_pulse_pe(a_o, *args).tobytes()


def _make_example4_g(scenario, matched):
    """The pulse profile of the matched or the mismatched model."""
    label = "matched" if matched else "mismatched"
    return pulse_profile(PeKernel(scenario.assumed[label], scenario.truth), scenario.prior)


def test_example4_g_support_and_zero_offset():
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    g = _make_example4_g(scn, matched=False)
    # At zero offset the test is blind (pe = 1/2) and only the position share
    # of unclipped placements survives.
    val = g(np.array([[0.0, 0.0]]))[0]
    assert val == pytest.approx(0.5 * (120 - 20) / 120, rel=1e-12, abs=0.0)
    # Outside the position or amplitude overlap the integrand vanishes.
    assert g(np.array([[101.0, 0.0]]))[0] == 0.0
    assert g(np.array([[0.0, 1.0]]))[0] == 0.0
    assert g(np.array([[0.0, -1.0]]))[0] == 0.0
    vals = g(np.column_stack([np.arange(0.0, 30.0), np.zeros(30)]))
    assert np.all(vals >= 0.0)


def _reference_example4_g(scenario, matched):
    """Row-by-row amplitude quadrature: one 129-node integral per live row."""
    k = scenario.k
    assumed = scenario.assumed["matched" if matched else "mismatched"]
    sigma2 = assumed.noise_cov.diag[0]
    wide = float(scenario.truth.signal.width)
    s_true = pulse_template(scenario.truth.signal.width)
    s_assumed = pulse_template(assumed.signal.width)
    e_s = float(s_assumed @ s_assumed)
    lags = np.arange(k)
    table_ss = _xcorr_at_lags(s_assumed, s_assumed, lags)
    table_ts = _xcorr_at_lags(s_true, s_assumed, lags)
    rho0 = table_ts[0]
    alpha_axis = scenario.prior.axes[1]
    a_lo, a_hi, a_width = alpha_axis.lo, alpha_axis.hi, alpha_axis.width
    n = 129
    t_nodes = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    t_weights = w / (3.0 * (n - 1))

    def g(deltas):
        d = np.asarray(deltas, dtype=float)
        out = np.zeros(d.shape[0])
        d_tau = np.abs(np.rint(d[:, 0])).astype(int)
        d_alpha = d[:, 1]
        tau_share = np.maximum(0.0, k - wide - d_tau) / k
        lo = np.maximum(a_lo, a_lo - d_alpha)
        length = np.minimum(a_hi, a_hi - d_alpha) - lo
        idx = np.nonzero((tau_share > 0.0) & (length > 0.0) & (d_tau < k))[0]
        if idx.size == 0:
            return out
        da, lo_l, len_l = d_alpha[idx], lo[idx], length[idx]
        r_ss, r_ts = table_ss[d_tau[idx]], table_ts[d_tau[idx]]
        acc = np.zeros(idx.size)
        for t_j, w_j in zip(t_nodes, t_weights):
            a_o = lo_l + t_j * len_l
            acc += w_j * _pulse_pe(a_o, da, r_ss, r_ts, rho0, e_s, sigma2)
        out[idx] = tau_share[idx] * (len_l / a_width) * acc
        return out

    return g


def _probe_deltas(k, seed):
    """Offsets mixing near, far, dead, negative, non-integer and duplicate rows."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-1.0, 1.0, 33)
    lags = np.concatenate(
        [
            np.arange(0, 40),  # near lags, the span and beyond
            rng.integers(0, k + 5, 60),  # up to past k: dead rows included
            -rng.integers(0, k, 40),  # negative lags
            rng.uniform(-k, k, 20),  # non-integer lags
        ]
    ).astype(float)
    alphas = np.concatenate(
        [
            rng.choice(grid, lags.size - 20),  # shared offsets, as in a scan
            rng.uniform(-1.3, 1.3, 17),  # includes |d_alpha| >= 1: no overlap
            [-0.0, 1.0, -1.0],
        ]
    )
    deltas = np.column_stack([lags, alphas])
    return np.concatenate([deltas, deltas[::7]])  # duplicate rows


@pytest.mark.parametrize("matched", [False, True])
@pytest.mark.parametrize(
    "widths",
    [(120, 20, 14), (40, 20, 40), (80, 10, 20)],
    ids=["far_lags", "span_past_live_lags", "wide_assumed"],
)
def test_example4_g_matches_row_by_row_reference(widths, matched):
    # The lag collapse must reproduce the row-by-row quadrature bit for bit.
    # In the second scenario the mismatched span exceeds k - true_width, so
    # no live lag is collapsed. In the third the assumed template is wider
    # than the true one, so its autocorrelation outreaches the cross term.
    k, true_width, assumed_width = widths
    scn = build_example4(5.0, k=k, true_width=true_width, assumed_width=assumed_width)
    deltas = _probe_deltas(k, seed=41)
    got = _make_example4_g(scn, matched)(deltas)
    expected = _reference_example4_g(scn, matched)(deltas)
    np.testing.assert_array_equal(got, expected)
    assert np.count_nonzero(expected) > 0
    assert np.count_nonzero(expected == 0.0) > 0


def test_example4_g_far_lags_share_one_quadrature(monkeypatch):
    # 4999 rows past the correlation span with one amplitude offset are one
    # key: the 129-node amplitude quadrature runs on a single element.
    elems = []

    def counting_pe(a_o, *args):
        elems.append(np.size(a_o))
        return _pulse_pe(a_o, *args)

    scn = build_example4(10.0, k=6000)
    g = _make_example4_g(scn, matched=False)
    monkeypatch.setattr(pe_kernel, "_pulse_pe", counting_pe)
    deltas = np.column_stack([300.0 + np.arange(4999), np.full(4999, 0.125)])
    vals = g(deltas)
    assert sum(elems) == 129
    assert np.all(vals > 0.0)


def _counting_pulse_pe(monkeypatch):
    """Patch _pulse_pe to record the element count of every call."""
    elems = []

    def counting_pe(a_o, *args):
        elems.append(np.size(a_o))
        return _pulse_pe(a_o, *args)

    monkeypatch.setattr(pe_kernel, "_pulse_pe", counting_pe)
    return elems


@pytest.mark.parametrize("matched", [False, True])
@pytest.mark.parametrize(
    "widths", [(120, 20, 14), (80, 10, 20)], ids=["far_lags", "wide_assumed"]
)
def test_example4_g_remembered_keys_are_bitwise(widths, matched):
    # One g answers a first call, a repeat, the same rows with every lag's
    # sign flipped, and a call mixing repeated and new keys; each must
    # equal the row-by-row quadrature bit for bit.
    k, true_width, assumed_width = widths
    scn = build_example4(5.0, k=k, true_width=true_width, assumed_width=assumed_width)
    g = _make_example4_g(scn, matched)
    reference = _reference_example4_g(scn, matched)
    deltas = _probe_deltas(k, seed=41)
    flipped = deltas * np.array([-1.0, 1.0])
    mixed = np.concatenate([_probe_deltas(k, seed=42), deltas[::3]])
    for d in (deltas, deltas, flipped, mixed, deltas):
        np.testing.assert_array_equal(g(d), reference(d))


def test_example4_g_nan_row_is_nan_and_leaves_other_rows():
    # rint(nan) has no integer lag; the row gives NaN (as matched_mixture_pe
    # does) and every other row keeps its bits. Lags past the record give 0.
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    got = _make_example4_g(scn, matched=False)(np.array([[math.nan, 0.1], [3.0, 0.1]]))
    alone = _make_example4_g(scn, matched=False)(np.array([[3.0, 0.1]]))
    assert math.isnan(got[0])
    assert got[1:].tobytes() == alone.tobytes()
    rows = np.array([[2.0, math.nan], [math.inf, 0.1], [-1e30, 0.0], [3.0, 0.1]])
    got = _make_example4_g(scn, matched=False)(rows)
    assert math.isnan(got[0])
    assert got[1] == 0.0 and got[2] == 0.0
    assert got[3:].tobytes() == alone.tobytes()
    # Offsets that are not (M, 2) rows are refused, not read in part.
    for bad in (np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match=r"deltas must have shape \(M, 2\)"):
            _make_example4_g(scn, matched=False)(bad)


@pytest.mark.parametrize("matched", [False, True])
def test_example4_g_is_even_in_the_lag(matched):
    # G reads the lag only through |rint(d_tau)|: a fresh g on the negated
    # lags returns the same bits, at every lag and amplitude offset. Jointly
    # negated offsets give the same value up to rounding (G(-delta) = G(delta)).
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    lags = np.arange(0.0, 121.0)
    alphas = np.linspace(-1.0, 1.0, 33)
    deltas = np.array([(t, a) for t in lags for a in alphas])
    forward = _make_example4_g(scn, matched)(deltas)
    negated_lag = _make_example4_g(scn, matched)(deltas * np.array([-1.0, 1.0]))
    assert negated_lag.tobytes() == forward.tobytes()
    assert np.count_nonzero(forward) > 1000
    assert_allclose(_make_example4_g(scn, matched)(-deltas), forward, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("matched", [False, True])
@pytest.mark.parametrize(
    "snr, widths",
    [
        pytest.param(0.3, (120, 20, 14), id="0.3"),
        pytest.param(5.0, (120, 20, 14), id="5.0"),
        pytest.param(50.0, (120, 20, 14), id="50.0"),
        pytest.param(5.0, (40, 20, 40), id="no_tail"),
        pytest.param(10.0, (600, 300, 200), id="k600"),
        pytest.param(50.0, (160, 10, 30), id="tail_alpha_off_zero"),
    ],
)
def test_example4_lattice_bound_reads_positive_lags_only(matched, snr, widths):
    # The lattice route maximizes over the free amplitude offset at the
    # positive lags only. G is even in the lag, so taking the maximum with
    # a pass over the negative lags gives the same bound bit for bit. Past
    # the correlation span the route reads G at the span's maximizer instead
    # of searching; that too keeps every bit of a search at every lag. In
    # the no_tail scenario the span reaches k - true_width (every lag past
    # it has no live position), k600 has the default widths, and in the last
    # scenario the mismatched maximizer past the span is d_alpha 0.8125.
    k, true_width, assumed_width = widths
    scn = build_example4(snr, k=k, true_width=true_width, assumed_width=assumed_width)
    assumed = scn.assumed["matched" if matched else "mismatched"]
    result = zzb.bound(assumed, scn.truth, scn.prior, coord=0)
    g = pulse_profile(PeKernel(assumed, scn.truth), scn.prior)
    spec = VectorBoundSpec(0, scn.prior, g, zzb._PULSE_SEARCH, zzb._PULSE_QUADRATURE)
    offs = np.arange(1.0, scn.k)
    both = np.maximum(zzb._search_free(spec, offs)[0], zzb._search_free(spec, -offs)[0])
    assert result.form == "lattice_staircase"
    assert result.value == zzb.lattice_staircase_sum(1.0, scn.k, both)


@pytest.mark.parametrize("matched", [False, True])
def test_example4_lattice_route_searches_up_to_the_span_only(matched):
    # Each searched lag hands g 50 rows (33 scanned amplitude offsets and 8
    # ternary steps of two probes, plus the midpoint). Past the correlation
    # span G is tau_share times the span's profile, so the route hands g one
    # row per lag there, at the span's maximizer; a search at every lag
    # would hand it 50 (k - 1) rows.
    scn = build_example4(1.0)
    assumed = scn.assumed["matched" if matched else "mismatched"]
    g = pulse_profile(PeKernel(assumed, scn.truth), scn.prior)
    rows = []

    def counting_g(deltas):
        rows.append(deltas.shape[0])
        return g(deltas)

    counting_g.span = g.span
    spec = VectorBoundSpec(0, scn.prior, counting_g, zzb._PULSE_SEARCH, zzb._PULSE_QUADRATURE)
    result = zzb_vector(spec)
    assert result == zzb.bound(assumed, scn.truth, scn.prior, coord=0)
    assert 0 < g.span < scn.k - 1 - 4000
    assert sum(rows) <= (g.span + 1) * 50 + (scn.k - 1 - g.span)


def test_example4_g_is_independent_of_call_order(monkeypatch):
    # G holds no state: rows B called before and after rows A on one g give
    # the bits of B on a fresh g, and evaluate the same _pulse_pe elements.
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    rows_a, rows_b = _probe_deltas(120, seed=42), _probe_deltas(120, seed=41)
    elems = _counting_pulse_pe(monkeypatch)
    fresh = _make_example4_g(scn, matched=False)(rows_b)
    fresh_elems = sum(elems)
    assert fresh_elems > 0
    g = _make_example4_g(scn, matched=False)
    for rows in (rows_b, rows_a, rows_b):
        elems.clear()
        got = g(rows)
        if rows is rows_b:
            assert got.tobytes() == fresh.tobytes()
            assert sum(elems) == fresh_elems


def test_example4_bounds_independent_of_scan_block(monkeypatch):
    # The vector routes hand g at most zzb._SCAN_BLOCK rows per call. At any
    # block size the bounds are bit for bit the same.
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    search = DeltaSearch(grid_points=9, refine_iters=2, lattice_window=3)
    quadrature = QuadratureRule(points=17, rel_tol=1e-4, max_doublings=2)

    def run(block):
        monkeypatch.setattr(zzb, "_SCAN_BLOCK", block)
        rows = []
        g = _make_example4_g(scn, matched=False)

        def pe(deltas):
            rows.append(deltas.shape[0])
            return g(deltas)

        values = [
            zzb_vector(
                VectorBoundSpec(coord, scn.prior, pe, search=search, quadrature=quadrature)
            )
            for coord in (0, 1)
        ]
        return values, rows

    reference, ref_rows = run(1 << 40)
    assert [r.form for r in reference] == ["lattice_staircase", "continuous_profile"]
    for block in (1, 7, 1 << 14):
        values, rows = run(block)
        assert values == reference
        assert max(rows) <= block and sum(rows) == sum(ref_rows)


@pytest.mark.parametrize("block", [129 * 7, pe_kernel._PULSE_BLOCK, 100])
def test_example4_g_partial_last_block(monkeypatch, block):
    # Distinct keys are evaluated block // 129 at a time (at least one). The
    # 128 keys here leave a short last block at 7 and at 127 keys per call.
    monkeypatch.setattr(pe_kernel, "_PULSE_BLOCK", block)
    scn = build_example4(5.0, k=600, true_width=40, assumed_width=30)
    # The correlation span is lag 34: lags 0-30 give 31 keys per amplitude
    # offset, and lags 100-110 collapse to one.
    lags = np.concatenate([np.arange(0.0, 31.0), np.arange(100.0, 111.0)])
    alphas = np.array([-0.375, 0.0, 0.25, 0.5])
    deltas = np.array([(t, a) for t in lags for a in alphas])
    expected = _reference_example4_g(scn, matched=False)(deltas)
    elems = _counting_pulse_pe(monkeypatch)
    got = _make_example4_g(scn, matched=False)(deltas)
    np.testing.assert_array_equal(got, expected)
    keys, per_call = 128, max(1, block // 129)
    assert elems == [129 * min(per_call, keys - s) for s in range(0, keys, per_call)]


def _distinct_key_deltas(n_keys):
    """n_keys live rows with distinct (lag, d_alpha) keys below the span of
    build_example4(5.0, k=600, true_width=40, assumed_width=30), plus a dead
    row; a lone key is the far lag 100, where the lattice tail sits."""
    if n_keys == 1:
        return np.array([[100.0, 0.25], [700.0, 0.0]])
    keys = [(t, a) for a in (-0.375, 0.0, 0.25, 0.5, 0.625) for t in range(31)]
    return np.array(keys[:n_keys] + [(0.0, 1.5)], dtype=float)


@pytest.mark.parametrize("matched", [False, True])
@pytest.mark.parametrize("n_keys", [1, 2, 128, 129])
def test_example4_g_sums_every_block_in_node_order(monkeypatch, n_keys, matched):
    # At 127 keys per _pulse_pe call, 128 keys leave a one-key last block and
    # 129 a two-key one; a single live key is a one-key block on its own. The
    # nodes of every key, in any block, are summed in order: each call equals
    # the row-by-row quadrature bit for bit.
    scn = build_example4(5.0, k=600, true_width=40, assumed_width=30)
    deltas = _distinct_key_deltas(n_keys)
    expected = _reference_example4_g(scn, matched)(deltas)
    elems = _counting_pulse_pe(monkeypatch)
    got = _make_example4_g(scn, matched)(deltas)
    assert got.tobytes() == expected.tobytes()
    per_call = pe_kernel._PULSE_BLOCK // 129
    assert elems == [129 * min(per_call, n_keys - s) for s in range(0, n_keys, per_call)]
    assert np.count_nonzero(got) == n_keys


@pytest.mark.parametrize("keys", [2, 3, 127])
def test_add_reduce_over_nodes_is_the_running_sum(keys):
    # pulse_profile sums a (nodes, keys) block with np.add.reduce along the
    # node axis, relying on NumPy adding in order when that axis is not the
    # fast one. If a NumPy release reorders these sums, this fails.
    rng = np.random.default_rng(5)
    block = np.exp(rng.uniform(-30.0, 0.0, (129, keys)))
    running = block[0].copy()
    for row in block[1:]:
        running = running + row
    backward = block[-1].copy()
    for row in block[-2::-1]:
        backward = backward + row
    assert np.add.reduce(block, axis=0).tobytes() == running.tobytes()
    # The data tell the orders apart, so a reordered sum would show.
    assert backward.tobytes() != running.tobytes()


def test_example4_bounds_small_scale():
    scn = build_example4(50.0, k=240, true_width=20, assumed_width=14)
    out = example4_bounds(scn)
    assert set(out) == {
        "zzb_tau_mismatched",
        "zzb_tau_matched",
        "zzb_alpha_mismatched",
        "zzb_alpha_matched",
    }
    for result in out.values():
        assert result.converged
        assert result.value > 0.0
    assert out["zzb_tau_mismatched"].form == "lattice_staircase"
    assert out["zzb_alpha_mismatched"].form == "continuous_profile"
    # Frozen values: collapsing far lags in the integrand must not move them.
    assert out["zzb_tau_mismatched"].value == pytest.approx(0.7869341290764592, rel=1e-12, abs=0.0)
    assert out["zzb_alpha_mismatched"].value == pytest.approx(0.01715925527225525, rel=1e-12, abs=0.0)
    assert out["zzb_tau_matched"].value == pytest.approx(0.5796243076255466, rel=1e-12, abs=0.0)
    assert out["zzb_alpha_matched"].value == pytest.approx(0.00721628256422579, rel=1e-12, abs=0.0)
    # A too-narrow template cannot beat the matched bound at high SNR.
    assert out["zzb_tau_mismatched"].value >= out["zzb_tau_matched"].value
    assert out["zzb_alpha_mismatched"].value >= out["zzb_alpha_matched"].value


@pytest.mark.parametrize("width", range(6, 19))
def test_example4_g_is_continuous_at_lag_zero(width):
    # At lag 0 and a tiny amplitude offset the two candidates are almost
    # the same, so G is about half the position share, for every template
    # width. An energy one ulp off the lag-0 autocorrelation (width 12)
    # would leave a variance term that outweighs d_alpha^2 and gives 0.
    scn = build_example4(100.0, k=120, true_width=width, assumed_width=14)
    for label in ("mismatched", "matched"):
        g = pulse_profile(PeKernel(scn.assumed[label], scn.truth), scn.prior)
        vals = g(np.array([[0.0, 1e-9], [0.0, -1e-9], [0.0, 1e-12]]))
        assert_allclose(vals, 0.5 * (120 - width) / 120, rtol=1e-6)


def _pulse_posterior_mse(scn, trials, seed, n_amp=101):
    """(MSE, stderr) of the delay and the amplitude under the grid posterior
    of positions x amplitudes, theta drawn from scn.prior, data from scn.truth.

    The delay estimate is the posterior mean rounded to the lattice: the
    lattice staircase bounds estimators confined to the prior's lattice. The
    amplitude estimate is the posterior mean on an n_amp Simpson grid. Each
    is some estimator, so its MSE can only sit above the sharpest one.
    """
    k = scn.k
    sigma2 = scn.truth.noise.cov.diag[0]
    amp_axis = scn.prior.axes[1]
    pulses = eval_signal(scn.truth.signal, np.column_stack([np.arange(k), np.ones(k)]))
    energy = np.einsum("ij,ij->i", pulses, pulses)
    amps = np.linspace(amp_axis.lo, amp_axis.hi, n_amp)
    log_w = np.log(np.r_[1.0, np.tile([4.0, 2.0], (n_amp - 3) // 2), 4.0, 1.0])
    rng = np.random.default_rng(seed)
    tau = rng.integers(0, k, trials)
    alpha = rng.uniform(amp_axis.lo, amp_axis.hi, trials)
    x = alpha[:, None] * pulses[tau] + math.sqrt(sigma2) * rng.standard_normal((trials, k))
    corr = x @ pulses.T
    tau_hat, alpha_hat = np.empty(trials), np.empty(trials)
    block = max(1, 2**20 // (k * n_amp))
    for s in range(0, trials, block):
        c = corr[s : s + block, :, None]
        log_post = (c * amps - 0.5 * energy[:, None] * amps**2) / sigma2 + log_w
        post = np.exp(log_post - log_post.max(axis=(1, 2), keepdims=True))
        post /= post.sum(axis=(1, 2), keepdims=True)
        tau_hat[s : s + block] = np.rint(post.sum(axis=2) @ np.arange(k))
        alpha_hat[s : s + block] = post.sum(axis=1) @ amps
    out = []
    for sq in ((tau_hat - tau) ** 2, (alpha_hat - alpha) ** 2):
        out.append((float(np.mean(sq)), float(np.std(sq, ddof=1)) / math.sqrt(trials)))
    return out


@pytest.mark.parametrize("snr", [0.3, 3.0, 50.0])
def test_example4_matched_bound_lies_below_the_posterior_mse(snr):
    # The matched bounds claim every estimator, so the posterior mean (on the
    # lattice, for the delay) is their sharpest comparator.
    scn = build_example4(snr, k=120, true_width=20, assumed_width=14)
    for coord, (mse, stderr) in enumerate(_pulse_posterior_mse(scn, 1000, seed=17)):
        result = zzb.bound(scn.assumed["matched"], scn.truth, scn.prior, coord=coord)
        assert result.value <= mse + 4.0 * stderr


def test_pulse_bound_takes_coord_0_or_1():
    scn = build_example4(5.0, k=120, true_width=20, assumed_width=14)
    for coord in (None, 2, -1):
        with pytest.raises(ValueError, match="coord must be an integer in \\[0, 2\\)"):
            zzb.bound(scn.assumed["matched"], scn.truth, scn.prior, coord=coord)


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="example"):
        SweepConfig(5, "sigma2", (0.1,))
    with pytest.raises(ValueError, match=r"var: expected one of \['sigma2'\], got 'mu_star'"):
        SweepConfig(1, "mu_star", (0.1,))
    with pytest.raises(ValueError, match="nonempty"):
        SweepConfig(1, "sigma2", ())
    with pytest.raises(ValueError, match="increasing"):
        SweepConfig(1, "sigma2", (0.2, 0.1))
    with pytest.raises(ValueError, match=r"grid\[1\]: snr must be finite and positive"):
        SweepConfig(4, "snr", (1.0, math.nan))
    with pytest.raises(ValueError, match=r"grid\[0\]: one_minus_omega1 must be in"):
        SweepConfig(3, "one_minus_omega1", (-0.5, 0.5))
    with pytest.raises(ValueError, match=r"grid\[0\]: mu_star must be finite"):
        SweepConfig(2, "mu_star", (math.inf,))
    with pytest.raises(ValueError, match=r"grid\[0\]: sigma2 must be finite"):
        SweepConfig(1, "sigma2", (math.nan,))
    for example in (1, 2, 3, 4):
        SweepConfig(example, experiments.STUDIES[example].var, default_grid(example))
    with pytest.raises(ValueError, match="overrides"):
        SweepConfig(1, "sigma2", (0.1,), overrides={"shape": 3})
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(1, "sigma2", (0.1,), overrides={"trials": 0})
    with pytest.raises(ValueError, match="k must be at least 2 for example 1, got 1"):
        SweepConfig(1, "sigma2", (0.1,), overrides={"k": 1})
    # Example 4 needs room for two true-width (300-sample) pulses.
    with pytest.raises(ValueError, match="k must be at least 600 for example 4, got 599"):
        SweepConfig(4, "snr", (10.0,), overrides={"k": 599})
    SweepConfig(4, "snr", (10.0,), overrides={"k": 600})


def test_default_grids():
    g1 = default_grid(1)
    assert len(g1) == 8 and g1[0] == 0.01 and g1[-1] == 0.3
    assert default_grid(2) == tuple(float(v) for v in range(11))
    g3 = default_grid(3)
    assert len(g3) == 11 and g3[0] == 0.0 and g3[-1] == 1.0
    assert len(default_grid(4)) == 6
    with pytest.raises(ValueError, match="example"):
        default_grid(0)


def test_run_sweep_example1_schema():
    config = SweepConfig(
        1, "sigma2", (0.0, 0.1), overrides={"k": 24, "trials": 6}, seed=11
    )
    rows = run_sweep(config)
    # sigma2 = 0 drops the white-only model entirely.
    at0 = [r for r in rows if r.sweep_value == 0.0]
    at1 = [r for r in rows if r.sweep_value == 0.1]
    assert [r.quantity for r in at0] == [
        "zzb_m2",
        "zzb_matched",
        "mse_mle_m2",
        "mse_mle_matched",
    ]
    assert [r.quantity for r in at1] == [
        "zzb_m1",
        "zzb_m2",
        "zzb_matched",
        "mse_mle_m1",
        "mse_mle_m2",
        "mse_mle_matched",
    ]
    for r in rows:
        assert r.sweep_var == "sigma2"
        assert r.flag == "ok"
        assert np.isfinite(r.value)
        if r.quantity.startswith("zzb"):
            assert r.method == "closed_form_q_linear"
            assert r.stderr == 0.0
        else:
            assert r.method == "monte_carlo"
            assert r.stderr > 0.0


def test_run_sweep_example3_schema_and_median():
    config = SweepConfig(
        3,
        "one_minus_omega1",
        (0.0, 0.5, 1.0),
        overrides={"k": 50, "trials": 5},
        seed=4,
    )
    rows = run_sweep(config)
    quantities = [r.quantity for r in rows if r.sweep_value == 0.5]
    assert quantities == ["zzb_mismatched", "zzb_matched", "mse_mle", "mse_median"]
    matched = {r.sweep_value: r for r in rows if r.quantity == "zzb_matched"}
    assert matched[0.0].method == "closed_form_q_linear"
    assert matched[0.5].method == "independent"
    mm = {r.sweep_value: r.value for r in rows if r.quantity == "zzb_mismatched"}
    assert mm[0.0] < mm[0.5] < mm[1.0]  # more contamination, weaker data


def test_run_sweep_sizes_its_prior_from_the_smallest_slope():
    # Studies 1 and 3 build every point on the width _prior_width gives for
    # the smallest q-linear slope over the grid (over every variant in study
    # 1), not on the builders' default width; study 2 keeps its default.
    def build3(w2, *args):
        return build_example3(1.0 - w2, *args)

    cases = [
        (1, "sigma2", (0.05, 0.2), 24, build_example1, lambda s: min(s.gammas.values()), 22.087),
        (3, "one_minus_omega1", (0.3, 0.5), 50, build3, lambda s: s.gamma_mismatched, 500.40),
    ]
    for example, var, grid, k, build, slope, width in cases:
        t = _prior_width(min(slope(build(v, k)) for v in grid))
        assert t == pytest.approx(width, abs=0.005)
        assert build(grid[0], k).prior.axes[0].width != pytest.approx(t)
        rows = run_sweep(SweepConfig(example, var, grid, {"k": k, "trials": 2}))
        for value in grid:
            scn = build(value, k, t)
            want = {f"zzb_{n}": zzb.bound(m, scn.truth, scn.prior) for n, m in scn.assumed.items()}
            if example == 3:
                want["zzb_matched"] = example3_matched_bound(scn)
            bounds = [r for r in rows if r.sweep_value == value and r.method != "monte_carlo"]
            got = {r.quantity: r.value for r in bounds}
            assert got == {quantity: b.value for quantity, b in want.items()}

    rows = run_sweep(SweepConfig(2, "mu_star", (3.0,), {"k": 10, "trials": 2}))
    scn = build_example2(3.0, 10)
    want = zzb.bound(scn.assumed["matched"], scn.truth, scn.prior).value
    assert [r.value for r in rows if r.quantity == "zzb_matched"] == [want]


def _exact_wls_mse(example, value, k, variant):
    """Exact MSE at the pinned theta of a study-1, 2 or 3 sweep's WLS
    estimate: the misspecified-model sandwich (White, Econometrica 50(1),
    1982) plus its squared bias. Every map is the all-ones column, so the
    estimate is a weighted mean of x - mu with weights 1 / Sigma_ii."""
    if example == 1:
        scn = build_example1(value, k)
        w = 1.0 / scn.assumed[variant].noise_cov.diag
        return float(np.sum(w * w * scn.truth.noise.cov.diag) / np.sum(w) ** 2)
    if example == 2:
        return 0.16 / k + (value - 5.0) ** 2  # the mismatched model's mean is 5
    return ((1.0 - value) + 625.0 * value) / k  # the pooled variance over k


@pytest.mark.parametrize("example, plans", [(1, 24), (2, 11), (3, 11)])
def test_sweep_wls_mse_agrees_with_its_exact_value(example, plans):
    # The mse_mle rows of a default-grid sweep at SweepConfig's default seed
    # lie within 4 of their own standard errors of the exact WLS MSE at the
    # pinned theta. Study 1 has three variants at each of its 8 points.
    ref = experiments.study(example)
    k = 50
    rows = run_sweep(SweepConfig(example, ref.var, ref.grid, {"k": k, "trials": 1000}))
    checked = [r for r in rows if r.quantity.startswith("mse_mle")]
    assert len(checked) == plans
    for r in checked:
        exact = _exact_wls_mse(example, r.sweep_value, k, r.quantity.removeprefix("mse_mle_"))
        assert abs(r.value - exact) <= 4.0 * r.stderr, (r, exact)


def test_run_sweep_repeat_is_identical():
    config = SweepConfig(
        2, "mu_star", (0.0, 5.0), overrides={"k": 30, "trials": 5}, seed=7
    )
    a = run_sweep(config)
    b = run_sweep(config)
    assert [(r.quantity, r.value, r.stderr) for r in a] == [
        (r.quantity, r.value, r.stderr) for r in b
    ]
