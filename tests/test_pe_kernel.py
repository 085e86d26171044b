"""Tests for the binary-decision error-probability kernel."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zzbound.models import (
    AssumedModel,
    DenseCov,
    DiagonalCov,
    EmpiricalNoise,
    GaussianNoise,
    LinearMatrixMap,
    LinearVectorMap,
    MixtureNoise,
    PerSampleMixtureNoise,
    ScaledIdentityCov,
    TrueModel,
    eval_signal,
)
from zzbound.montecarlo import empirical_pe
from zzbound.pe_kernel import (
    PeKernel,
    _means,
    _q_integral,
    linear_scalar_profile,
    pe_gaussian,
    pe_mixture,
)
from zzbound.special_math import q_function


def _scalar_kernel(k=1, sigma2=1.0, sigma2_true=None, mu=0.0, mu_true=0.0, hvec=None):
    h = np.ones(k) if hvec is None else np.asarray(hvec, dtype=float)
    sig = LinearVectorMap(h)
    assumed = AssumedModel(sig, np.full(h.size, mu), ScaledIdentityCov(sigma2, h.size))
    true_cov = ScaledIdentityCov(sigma2_true if sigma2_true else sigma2, h.size)
    truth = TrueModel(sig, GaussianNoise(np.full(h.size, mu_true), true_cov))
    return PeKernel(assumed, truth)


def _decision_means(kern, theta_eval, theta_o, delta):
    """_means for data at theta_eval and the candidates theta_o, theta_o + delta."""
    h = eval_signal(kern.assumed.signal, np.array([[theta_o], [theta_o + delta]]))
    return _means(kern, eval_signal(kern.truth.signal, theta_eval), h)


def test_compute_s_frozen_value():
    # K = 1, h = 1, sigma^2 = 1, mu = 0: evaluating at theta_eval = 0 leaves
    # only the quadratic term, (h1^2 - h0^2) / 2 = (9 - 4) / 2.
    kern = _scalar_kernel()
    assert _decision_means(kern, 0.0, 2.0, 1.0) == pytest.approx([2.5], rel=1e-15, abs=0.0)


def test_compute_s_at_candidates_symbolic():
    # For equal maps and mean-zero assumed noise, S at the first candidate is
    # +delta' H' S^-1 H delta / 2 and at the second candidate the negative.
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = 4
        h = rng.standard_normal(k)
        a = rng.standard_normal((k, k))
        cov = DenseCov(a @ a.T + k * np.eye(k))
        sig = LinearVectorMap(h)
        kern = PeKernel(
            AssumedModel(sig, np.zeros(k), cov),
            TrueModel(sig, GaussianNoise(np.zeros(k), cov)),
        )
        theta_o = float(rng.uniform(-3.0, 3.0))
        delta = float(rng.uniform(-2.0, 2.0))
        half_quad = 0.5 * delta * delta * cov.qf_inv(h)
        assert _decision_means(kern, theta_o, theta_o, delta) == pytest.approx(
            [half_quad], rel=1e-11, abs=0.0
        )
        assert _decision_means(kern, theta_o + delta, theta_o, delta) == pytest.approx(
            [-half_quad], rel=1e-11, abs=0.0
        )


def _tiny_variance_kernel(true_means, weights=None):
    # One sample direction with variance (2.6e-101)^2 and signal 2.6e-101:
    # Sigma^-1 times the assumed mean is about 1.5e201, far beyond the
    # decision statistic's mean, which is O(1).
    a = np.array([2.6e-101, 0.0])
    sig = LinearVectorMap(a)
    cov = DiagonalCov(np.array([2.6e-101**2, 1.0]))
    comps = [GaussianNoise(np.array(m, dtype=float), cov) for m in true_means]
    noise = comps[0] if weights is None else MixtureNoise(np.array(weights), tuple(comps))
    return PeKernel(AssumedModel(sig, np.array([1.0, 0.0]), cov), TrueModel(sig, noise))


@pytest.mark.parametrize(
    ("true_means", "weights", "expected"),
    [
        ([[1.0, 0.0]], None, 0.15865525393145707),  # equal means: Q(1)
        ([[0.0, 0.0]], None, 0.5),  # mean offset of 1 / 2.6e-101 noise sigmas
        ([[1.0, 0.0], [0.0, 0.0]], [0.3, 0.7], 0.3 * 0.15865525393145707 + 0.7 * 0.5),
    ],
)
def test_pe_tiny_variance_matches_scalar_profile(true_means, weights, expected):
    # The residual is formed before Sigma^-1 is applied; expanding the
    # candidates' energies and the mean projections first cancels terms of
    # about 7.7e100 and left pe_gaussian at 0.5 and 0.2614 here.
    kern = _tiny_variance_kernel(true_means, weights)
    pe_fn = pe_gaussian if weights is None else pe_mixture
    profile = float(linear_scalar_profile(kern).pe(0.0, 2.0))
    assert profile == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert pe_fn(kern, 0.0, 2.0) == pytest.approx(profile, rel=1e-12, abs=0.0)


def test_pe_gaussian_zero_delta_is_half():
    kern = _scalar_kernel(k=3, sigma2=0.7, mu_true=0.4)
    assert pe_gaussian(kern, 1.3, 0.0) == 0.5


def test_pe_gaussian_full_match_closed_form():
    # Matched models: Pe(delta) = Q(|delta| sqrt(h' S^-1 h) / 2), decreasing.
    rng = np.random.default_rng(4)
    k = 5
    h = rng.standard_normal(k)
    diag = rng.uniform(0.5, 2.0, size=k)
    sig = LinearVectorMap(h)
    kern = PeKernel(
        AssumedModel(sig, np.zeros(k), DiagonalCov(diag)),
        TrueModel(sig, GaussianNoise(np.zeros(k), DiagonalCov(diag))),
    )
    gamma2 = float(h @ (h / diag))
    deltas = [0.1, 0.4, 1.0, 2.5]
    values = []
    for delta in deltas:
        pe = pe_gaussian(kern, 0.7, delta)
        assert pe == pytest.approx(
            float(q_function(0.5 * delta * math.sqrt(gamma2))), rel=1e-12, abs=0.0
        )
        values.append(pe)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_pe_gaussian_independent_of_theta_for_equal_maps():
    kern = _scalar_kernel(k=4, sigma2=2.0, sigma2_true=3.0, mu=0.5, mu_true=-0.25)
    reference = pe_gaussian(kern, 0.0, 0.8)
    for theta_o in (-7.0, -1.0, 2.5, 40.0):
        assert pe_gaussian(kern, theta_o, 0.8) == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_equal_linear_cascade_agrees():
    # Three routes to the same number: the general Gaussian expression, and
    # the scalar profile at theta_o = 0 and at the same theta_o (equal maps
    # make it theta-free).
    rng = np.random.default_rng(9)
    k = 6
    h = rng.standard_normal(k)
    kern = PeKernel(
        AssumedModel(
            LinearVectorMap(h), np.full(k, 0.3), ScaledIdentityCov(1.5, k)
        ),
        TrueModel(
            LinearVectorMap(h),
            GaussianNoise(np.full(k, -0.2), ScaledIdentityCov(2.5, k)),
        ),
    )
    profile = linear_scalar_profile(kern)
    assert profile.cross == 0.0
    for delta in (-2.0, -0.3, 0.05, 0.7, 3.0):
        theta_o = rng.uniform(-5, 5)
        a = pe_gaussian(kern, theta_o, delta)
        b = float(profile.pe(0.0, delta))
        c = float(profile.pe(theta_o, delta))
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        assert b == pytest.approx(c, rel=1e-12, abs=0.0)


def test_profile_against_longhand_gaussian_algebra():
    # Independent derivation with explicit inverses, nothing shared with the
    # implementation path.
    rng = np.random.default_rng(14)
    k = 4
    h = rng.standard_normal(k)
    a = rng.standard_normal((k, k))
    sigma = a @ a.T + k * np.eye(k)
    b_mat = rng.standard_normal((k, k))
    sigma_true = b_mat @ b_mat.T + k * np.eye(k)
    mu = rng.standard_normal(k)
    mu_true = rng.standard_normal(k)
    sig = LinearVectorMap(h)
    kern = PeKernel(
        AssumedModel(sig, mu, DenseCov(sigma)),
        TrueModel(sig, GaussianNoise(mu_true, DenseCov(sigma_true))),
    )
    inv = np.linalg.inv(sigma)
    quad = 0.5 * h @ inv @ h
    lin = h @ inv @ (mu - mu_true)
    scale = math.sqrt((inv @ h) @ sigma_true @ (inv @ h))
    profile = linear_scalar_profile(kern)
    assert profile.quad == pytest.approx(quad, rel=1e-10, abs=0.0)
    assert profile.cross == 0.0
    assert profile.lin[0] == pytest.approx(lin, rel=1e-10, abs=0.0)
    assert math.sqrt(profile.var[0]) == pytest.approx(scale, rel=1e-10, abs=0.0)
    for delta in (0.2, 1.1, -0.8):
        z_pos = quad * delta * delta + lin * delta
        z_neg = quad * delta * delta - lin * delta
        expected = 0.5 * float(
            q_function(z_pos / (scale * abs(delta)))
            + q_function(z_neg / (scale * abs(delta)))
        )
        assert pe_gaussian(kern, 0.0, delta) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_profile_symmetric_when_means_match():
    kern = _scalar_kernel(k=3, sigma2=0.5, sigma2_true=2.0, mu=0.7, mu_true=0.7)
    profile = linear_scalar_profile(kern)
    assert profile.lin[0] == 0.0
    h = np.array([-1.5, -0.2, 0.0, 0.2, 1.5])
    vals = profile.single_q(h)
    assert_allclose(vals, profile.single_q(-h))
    assert_allclose(profile.pe(0.0, h), vals)
    assert vals[2] == 0.5


def test_q_argument_free_of_assumed_variance():
    # Isotropic case with equal means: the Q argument is |h| ||hvec|| / (2 s*),
    # so rescaling the assumed variance must not move it.
    h_off = np.array([0.3, 1.7])
    baseline = None
    for sigma2 in (0.01, 1.0, 100.0):
        kern = _scalar_kernel(k=8, sigma2=sigma2, sigma2_true=4.0)
        vals = linear_scalar_profile(kern).single_q(h_off)
        if baseline is None:
            baseline = vals
        else:
            assert_allclose(vals, baseline, rtol=0, atol=1e-15)
    expected = q_function(0.5 * h_off * math.sqrt(8.0) / 2.0)
    assert_allclose(baseline, expected, rtol=1e-12)


def test_pe_mixture_single_component_equals_gaussian():
    k = 3
    h = np.array([1.0, 0.5, -0.5])
    sig = LinearVectorMap(h)
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    comp = GaussianNoise(np.zeros(k), ScaledIdentityCov(3.0, k))
    kern_mix = PeKernel(assumed, TrueModel(sig, MixtureNoise(np.array([1.0]), (comp,))))
    kern_gauss = PeKernel(assumed, TrueModel(sig, comp))
    for delta in (0.2, 1.0, 4.0):
        assert pe_mixture(kern_mix, 1.0, delta) == pytest.approx(
            pe_gaussian(kern_gauss, 1.0, delta), rel=1e-13, abs=0.0
        )


def test_pe_mixture_zero_delta_and_range():
    k = 2
    sig = LinearVectorMap(np.ones(k))
    mix = MixtureNoise(
        np.array([0.6, 0.4]),
        (
            GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k)),
            GaussianNoise(np.zeros(k), ScaledIdentityCov(16.0, k)),
        ),
    )
    kern = PeKernel(
        AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k)), TrueModel(sig, mix)
    )
    assert pe_mixture(kern, 0.0, 0.0) == 0.5
    for delta in (0.3, 1.0, 3.0):
        pe = pe_mixture(kern, 0.0, delta)
        assert 0.0 < pe < 0.5


def test_empirical_pe_zero_delta_exact():
    kern = _scalar_kernel(k=2)
    got = empirical_pe(kern, 1.0, 0.0, trials=64, seed=0)
    assert got.pe == 0.5
    assert got.stderr == 0.0


def test_empirical_pe_matches_analytic():
    kern = _scalar_kernel(k=4, sigma2=1.0, sigma2_true=2.25, mu_true=0.3)
    delta = 0.9
    exact = pe_gaussian(kern, 0.5, delta)
    got = empirical_pe(kern, 0.5, delta, trials=200_000, seed=3)
    assert got.stderr > 0.0
    assert abs(got.pe - exact) < 3.0 * got.stderr


def test_empirical_pe_mixture_truth():
    k = 3
    sig = LinearVectorMap(np.ones(k))
    mix = MixtureNoise(
        np.array([0.5, 0.5]),
        (
            GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k)),
            GaussianNoise(np.zeros(k), ScaledIdentityCov(9.0, k)),
        ),
    )
    kern = PeKernel(
        AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k)), TrueModel(sig, mix)
    )
    exact = pe_mixture(kern, 2.0, 1.2)
    got = empirical_pe(kern, 2.0, 1.2, trials=200_000, seed=8)
    assert abs(got.pe - exact) < 3.0 * got.stderr


def test_pe_mixture_uses_per_component_stddevs():
    k = 2
    sig = LinearVectorMap(np.ones(k))
    mix = MixtureNoise(
        np.array([0.25, 0.75]),
        (
            GaussianNoise(np.full(k, 1.0), ScaledIdentityCov(1.0, k)),
            GaussianNoise(np.full(k, -1.0), ScaledIdentityCov(4.0, k)),
        ),
    )
    kern = PeKernel(
        AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k)), TrueModel(sig, mix)
    )
    # d = -hvec and Sigma^-1 d = -hvec: the components project to stddevs
    # sqrt(2) and sqrt(8); the decision means are 1 - 2 m_c at theta_o and
    # -1 - 2 m_c at theta_o + delta.
    s1, s2 = math.sqrt(2.0), math.sqrt(8.0)
    expected = 0.25 * 0.5 * (q_function(-1.0 / s1) + q_function(3.0 / s1)) + 0.75 * 0.5 * (
        q_function(3.0 / s2) + q_function(-1.0 / s2)
    )
    assert pe_mixture(kern, 0.0, 1.0) == pytest.approx(float(expected), rel=1e-14, abs=0.0)


def test_pe_per_sample_mixture_is_the_pooled_q():
    # The per-sample law's analytic error probability is its central-limit
    # one: one Gaussian component with the pooled variance.
    k = 50
    sig = LinearVectorMap(np.ones(k))
    noise = PerSampleMixtureNoise(np.array([0.8, 0.2]), np.array([1.0, 5.0]), k)
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    kern = PeKernel(assumed, TrueModel(sig, noise))
    pooled = 0.8 + 0.2 * 25.0
    profile = linear_scalar_profile(kern)
    assert profile.weights.tolist() == [1.0]
    assert profile.q_linear
    for delta in (0.1, 0.5, 2.0):
        expected = float(q_function(0.5 * delta * math.sqrt(k / pooled)))
        assert pe_mixture(kern, 0.3, delta) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert float(profile.pe(0.3, delta)) == pytest.approx(expected, rel=1e-12, abs=0.0)
    est = empirical_pe(kern, 0.3, 0.5, 20_000, 4)
    assert abs(est.pe - pe_mixture(kern, 0.3, 0.5)) <= 4.0 * est.stderr


def test_wrong_noise_type_raises():
    kern = _scalar_kernel(k=2)
    with pytest.raises(ValueError, match="mixture"):
        pe_mixture(kern, 0.0, 1.0)
    mix_kern = PeKernel(
        kern.assumed,
        TrueModel(
            kern.truth.signal,
            MixtureNoise(
                np.array([1.0]),
                (GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2)),),
            ),
        ),
    )
    with pytest.raises(ValueError, match="Gaussian"):
        pe_gaussian(mix_kern, 0.0, 1.0)
    # Empirical truth has no projected moments; only empirical_pe serves it.
    empirical = PeKernel(
        kern.assumed, TrueModel(kern.truth.signal, EmpiricalNoise(lambda rng: np.zeros(2), 2))
    )
    with pytest.raises(ValueError, match="montecarlo.empirical_pe"):
        linear_scalar_profile(empirical)
    # Differing linear maps are a valid profile with a location term, not an
    # error; a map with two parameter columns is not a scalar profile.
    differing = PeKernel(
        AssumedModel(LinearVectorMap(np.ones(2)), np.zeros(2), ScaledIdentityCov(1.0, 2)),
        TrueModel(
            LinearVectorMap(np.array([1.0, 2.0])),
            GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2)),
        ),
    )
    profile = linear_scalar_profile(differing)
    assert profile.cross != 0.0
    assert float(profile.pe(0.5, 1.0)) == pytest.approx(
        pe_gaussian(differing, 0.5, 1.0), rel=1e-12, abs=0.0
    )
    two_column = LinearMatrixMap(np.ones((2, 2)))
    with pytest.raises(ValueError, match="one-column"):
        linear_scalar_profile(
            PeKernel(
                AssumedModel(two_column, np.zeros(2), ScaledIdentityCov(1.0, 2)),
                TrueModel(two_column, GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2))),
            )
        )


def test_kernel_dimension_validation():
    with pytest.raises(ValueError, match="K="):
        PeKernel(
            AssumedModel(
                LinearVectorMap(np.ones(3)), np.zeros(3), ScaledIdentityCov(1.0, 3)
            ),
            TrueModel(
                LinearVectorMap(np.ones(2)),
                GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2)),
            ),
        )


# ---------------------------------------------------------------------------
# The scalar linear profile against the pointwise error probabilities
# ---------------------------------------------------------------------------

# pe_gaussian and pe_mixture form S as a difference of two quadratic forms,
# which cancels when |a h| is tiny next to theta_o a + mu; so map entries and
# offsets stay 0 or at least 0.05 in magnitude here.
_entry = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05))
_variance = st.floats(0.1, 4.0, allow_nan=False)


@st.composite
def _linear_kernels(draw, mixture):
    """Scalar linear scenarios: equal or differing maps, mean offsets, and
    Gaussian or mixture truth with diagonal covariances."""
    k = draw(st.integers(1, 4))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    a = vec(_entry)
    h_star = a if draw(st.booleans()) else vec(_entry)
    assumed = AssumedModel(LinearVectorMap(a), vec(_entry), DiagonalCov(vec(_variance)))
    n_comp = draw(st.integers(1, 3)) if mixture else 1
    comps = tuple(GaussianNoise(vec(_entry), DiagonalCov(vec(_variance))) for _ in range(n_comp))
    if mixture:
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n_comp, max_size=n_comp)))
        noise = MixtureNoise(w / w.sum(), comps)
    else:
        noise = comps[0]
    return PeKernel(assumed, TrueModel(LinearVectorMap(h_star), noise))


_theta = st.floats(-5.0, 5.0, allow_nan=False)
_offset = st.one_of(st.floats(0.05, 5.0), st.floats(-5.0, -0.05))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.booleans().flatmap(_linear_kernels), _theta, _offset)
def test_profile_pe_matches_pointwise_pe(kern, theta_o, h_off):
    pointwise = pe_mixture if isinstance(kern.truth.noise, MixtureNoise) else pe_gaussian
    expected = pointwise(kern, theta_o, h_off)
    got = float(linear_scalar_profile(kern).pe(theta_o, h_off))
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.booleans().flatmap(_linear_kernels), _theta)
def test_pe_at_zero_offset_is_half(kern, theta_o):
    pointwise = pe_mixture if isinstance(kern.truth.noise, MixtureNoise) else pe_gaussian
    assert pointwise(kern, theta_o, 0.0) == 0.5
    assert float(linear_scalar_profile(kern).pe(theta_o, 0.0)) == 0.5


def _readme_like(hvec, noise):
    """README's assumed model (unit map, white variance 0.5, k = 4) against
    the truth map hvec."""
    assumed = AssumedModel(LinearVectorMap(np.ones(4)), np.zeros(4), ScaledIdentityCov(0.5, 4))
    return linear_scalar_profile(PeKernel(assumed, TrueModel(LinearVectorMap(np.array(hvec)), noise)))


def _readme_mixture(means=(0.0, 0.0)):
    return MixtureNoise(
        np.array([0.9, 0.1]),
        tuple(GaussianNoise(np.full(4, m), ScaledIdentityCov(v, 4)) for m, v in zip(means, (0.5, 5.0))),
    )


def _readme_gaussian(mean=0.0, white=False):
    cov = ScaledIdentityCov(0.5, 4) if white else DiagonalCov(np.array([0.5, 0.6, 0.7, 0.8]))
    return GaussianNoise(np.full(4, mean), cov)


_OTHER = [1.2, 1.0, 0.8, 1.1]
_NEAR = [1.0 - 5e-10, 1.0, 1.0, 1.0]  # cross about 1e-9: the series branch
# README's sign flip: assumed map [[0], [1]], truth [[0], [-1]], unit covariances.
_UNIT2 = ScaledIdentityCov(1.0, 2)
_SIGN_FLIP = linear_scalar_profile(
    PeKernel(
        AssumedModel(LinearMatrixMap(np.array([[0.0], [1.0]])), np.zeros(2), _UNIT2),
        TrueModel(LinearMatrixMap(np.array([[0.0], [-1.0]])), GaussianNoise(np.zeros(2), _UNIT2)),
    )
)

# name: (profile, lo, hi)
_LOCATION_CASES = {
    "gaussian": (_readme_like(_OTHER, _readme_gaussian()), 0.0, 10.0),
    "gaussian_mean": (_readme_like(_OTHER, _readme_gaussian(0.3)), 2.0, 12.0),
    "gaussian_tiny_cross": (_readme_like(_NEAR, _readme_gaussian(0.3)), 0.0, 10.0),
    # Every Q argument deep in the upper tail near h = T (P about 3e-32).
    "gaussian_shrunk_map": (_readme_like([1.0, 0.9, 0.8, 0.9], _readme_gaussian(white=True)), 0.0, 10.0),
    "sign_flip": (_SIGN_FLIP, 0.0, 1.0),
    "sign_flip_shifted": (_SIGN_FLIP, -3.0, 1.0),
    "mixture": (_readme_like(_OTHER, _readme_mixture()), 0.0, 10.0),
    "mixture_means": (_readme_like(_OTHER, _readme_mixture((0.3, -1.0))), -4.0, 6.0),
    "mixture_tiny_cross": (_readme_like(_NEAR, _readme_mixture((0.3, -1.0))), 0.0, 10.0),
}


def _mp_location_integral(profile, h, lo, hi):
    """int_lo^{hi-h} pe(t, h) dt by mpmath.quad at 30 digits, from the
    profile's one-sided branches g(t, h) and g(t + h, -h)."""

    def q(x):
        return mp.erfc(x / mp.sqrt(2)) / 2

    def pe(t):
        total = mp.mpf(0)
        for w, lin, var in zip(profile.weights, profile.lin, profile.var):
            s = mp.sqrt(mp.mpf(var))
            near = q((profile.quad * h + profile.cross * t + mp.mpf(lin)) / s)
            far = q((profile.quad * h - profile.cross * (t + h) - mp.mpf(lin)) / s)
            total += mp.mpf(w) * (near + far) / 2
        return total

    with mp.workdps(30):
        return float(mp.quad(pe, [mp.mpf(lo), hi - mp.mpf(h)]))


@pytest.mark.parametrize("case", sorted(_LOCATION_CASES))
def test_location_integral_matches_mpmath(case):
    profile, lo, hi = _LOCATION_CASES[case]
    assert 0.0 < abs(profile.cross) < (1e-8 if "tiny" in case else math.inf)
    t = hi - lo
    offsets = np.array([1e-6 * t, 0.5 * t, 0.99 * t, 0.999 * t])
    got = profile.location_integral(offsets, lo, hi)
    for h, value in zip(offsets, got):
        expected = _mp_location_integral(profile, float(h), lo, hi)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert profile.location_integral(0.0, lo, hi) == 0.5 * t
    assert profile.location_integral(t, lo, hi) == 0.0


def test_q_integral_matches_mpmath_from_tail_to_tail():
    # int Q over a segment of half-width |d| about m, in both tails, from
    # segments short enough for the midpoint series to ones far wider than
    # the scale on which Q changes, and for either sign of the slope.
    def f(u):
        return u * mp.ncdf(-u) - mp.npdf(u)

    m = np.linspace(-30.0, 30.0, 31)
    for half in 10.0 ** np.arange(-8.0, 1.5, 0.5):
        for beta in (0.37, -0.37):
            width = 2.0 * half / 0.37
            got = _q_integral(m, beta, width)
            with mp.workdps(50):
                d = mp.mpf(beta) * width / 2
                expected = [float((f(mp.mpf(mj) + d) - f(mp.mpf(mj) - d)) / beta) for mj in m]
            assert_allclose(got, expected, rtol=1e-12, atol=0.0)
