"""Tests for covariances, signal maps, noise laws, models, and priors."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zzbound.models import (
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
    eval_signal,
    triangular_pulse,
    uniform_box,
    uniform_interval,
)
from zzbound.zzb import overlap_rows


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------


def _dense_reference(k=4, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k))
    return a @ a.T + k * np.eye(k)


@pytest.mark.parametrize(
    "cov",
    [
        ScaledIdentityCov(2.5, 4),
        DiagonalCov(np.array([0.5, 1.0, 2.0, 4.0])),
        DenseCov(_dense_reference()),
    ],
)
def test_covariance_interface_consistency(cov):
    rng = np.random.default_rng(1)
    m = cov.dense()
    inv = np.linalg.inv(m)
    u = rng.standard_normal(cov.dim)
    v = rng.standard_normal(cov.dim)
    assert_allclose(cov.solve(u), inv @ u, rtol=1e-10)
    assert cov.qf(u, v) == pytest.approx(u @ m @ v, rel=1e-12)
    assert cov.qf_inv(u, v) == pytest.approx(u @ inv @ v, rel=1e-10)
    assert cov.qf_inv(u) == pytest.approx(u @ inv @ u, rel=1e-10)
    rows = rng.standard_normal((5, cov.dim))
    assert_allclose(cov.qf_inv_rows(rows), np.einsum("ij,ij->i", rows, rows @ inv), rtol=1e-10)
    # chol_matvec maps iid rows z to z L^T, so feeding the identity recovers
    # L^T and the product L L^T must reproduce the covariance.
    l_t = cov.chol_matvec(np.eye(cov.dim))
    assert_allclose(l_t.T @ l_t, m, rtol=1e-12, atol=1e-12)


def test_covariance_batched_solve():
    cov = DiagonalCov(np.array([1.0, 4.0]))
    block = np.array([[2.0, 8.0], [1.0, 0.0]])
    assert_allclose(cov.solve(block), np.array([[2.0, 2.0], [1.0, 0.0]]))


def test_covariance_validation():
    with pytest.raises(ValueError, match="positive"):
        ScaledIdentityCov(0.0, 3)
    with pytest.raises(ValueError, match="positive"):
        DiagonalCov(np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="symmetric"):
        DenseCov(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        DenseCov(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf])
def test_scaled_identity_rejects_non_finite_variance(sigma2):
    with pytest.raises(ValueError, match="finite and positive"):
        ScaledIdentityCov(sigma2, 2)
    with pytest.raises(ValueError, match="finite and positive"):
        DiagonalCov(np.full(2, sigma2))


def test_as_covariance_coercion():
    assert isinstance(as_covariance(2.0, k=3), ScaledIdentityCov)
    assert isinstance(as_covariance(np.array([1.0, 2.0])), DiagonalCov)
    assert isinstance(as_covariance(np.eye(2)), DenseCov)
    existing = DiagonalCov(np.array([1.0]))
    assert as_covariance(existing) is existing
    with pytest.raises(ValueError, match="dimension"):
        as_covariance(1.0)


# ---------------------------------------------------------------------------
# Signal maps and pulses
# ---------------------------------------------------------------------------


def test_linear_maps_evaluate():
    vec = LinearVectorMap(np.array([1.0, -2.0]))
    assert_allclose(eval_signal(vec, 3.0), np.array([3.0, -6.0]))
    assert vec.k == 2 and vec.n_theta == 1

    mat = LinearMatrixMap(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert_allclose(eval_signal(mat, [2.0, 5.0]), np.array([2.0, 5.0, 7.0]))
    assert mat.k == 3 and mat.n_theta == 2


def test_parametric_map_shape_check():
    good = ParametricMap(lambda th: np.full(3, th[0] ** 2), k=3, n_theta=1)
    assert_allclose(eval_signal(good, 2.0), np.array([4.0, 4.0, 4.0]))
    bad = ParametricMap(lambda th: np.zeros(4), k=3, n_theta=1)
    with pytest.raises(ValueError, match="shape"):
        eval_signal(bad, 1.0)


def test_eval_signal_rejects_bad_theta():
    sig = LinearVectorMap(np.ones(2))
    with pytest.raises(ValueError, match="dimension"):
        eval_signal(sig, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        eval_signal(sig, np.nan)


def test_triangular_pulse_shape():
    # Width 4 at tau = 5 in a long record: peak 1 at index 5, 0.5 at 4 and 6.
    p = triangular_pulse(5.0, 4, 11)
    assert p[5] == 1.0
    assert p[4] == p[6] == 0.5
    assert p[3] == p[7] == 0.0
    assert p @ p == pytest.approx(1.5)


def test_triangular_pulse_boundary_clipping():
    # A pulse at the record edge loses its left flank.
    p = triangular_pulse(0.0, 4, 8)
    assert p[0] == 1.0 and p[1] == 0.5 and p[2] == 0.0
    assert p @ p == pytest.approx(1.25)
    full = triangular_pulse(4.0, 4, 9)
    assert full @ full == pytest.approx(1.5)


def test_triangular_pulse_validation():
    with pytest.raises(ValueError, match="position"):
        triangular_pulse(9.0, 3, 9)
    with pytest.raises(ValueError, match="width"):
        triangular_pulse(1.0, 0, 9)
    with pytest.raises(ValueError, match="exceeds"):
        triangular_pulse(1.0, 10, 9)


def test_amplitude_pulse_map():
    sig = AmplitudePulseMap(width=4, k=11)
    out = eval_signal(sig, [5.0, 2.0])
    assert_allclose(out, 2.0 * triangular_pulse(5.0, 4, 11))
    assert sig.n_theta == 2


def test_reference_pulse_energies():
    # The two template widths used by the pulse example, at full support.
    wide = triangular_pulse(2500.0, 300, 5000)
    narrow = triangular_pulse(2500.0, 200, 5000)
    assert wide @ wide == pytest.approx(100.00222222222222, rel=1e-12)
    assert narrow @ narrow == pytest.approx(66.67, rel=1e-12)
    assert wide @ narrow == pytest.approx(77.78, rel=1e-12)


# ---------------------------------------------------------------------------
# Noise laws
# ---------------------------------------------------------------------------


def test_gaussian_noise_moments():
    mean = np.array([1.0, -2.0])
    cov = DenseCov(np.array([[2.0, 0.6], [0.6, 1.0]]))
    noise = GaussianNoise(mean, cov)
    draws = noise.draw(np.random.default_rng(3), size=200_000)
    assert draws.shape == (200_000, 2)
    se_mean = np.sqrt(np.diag(cov.dense()) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5.0 * se_mean)
    sample_cov = np.cov(draws.T)
    assert_allclose(sample_cov, cov.dense(), atol=0.03)


def test_gaussian_noise_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        GaussianNoise(np.zeros(3), DiagonalCov(np.ones(2)))


def test_mixture_single_component_equals_gaussian():
    comp = GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2))
    mix = MixtureNoise(np.array([1.0]), (comp,))
    a = mix.draw(np.random.default_rng(7), size=4)
    assert a.shape == (4, 2)
    assert np.all(np.isfinite(a))


def test_mixture_weight_validation():
    comp = GaussianNoise(np.zeros(1), ScaledIdentityCov(1.0, 1))
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureNoise(np.array([0.5, 0.4]), (comp, comp))
    with pytest.raises(ValueError, match="length"):
        MixtureNoise(np.array([1.0]), (comp, comp))
    # NaN passes |sum(w) - 1| <= 1e-12 as a False comparison; it must not.
    for bad in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            MixtureNoise(np.array(bad), (comp, comp))


def test_mixture_second_moment():
    # Pooled variance omega1 * v1 + omega2 * v2 shows up in the draws.
    k = 4
    mix = MixtureNoise(
        np.array([0.7, 0.3]),
        (
            GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k)),
            GaussianNoise(np.zeros(k), ScaledIdentityCov(25.0, k)),
        ),
    )
    draws = mix.draw(np.random.default_rng(11), size=100_000)
    pooled = 0.7 * 1.0 + 0.3 * 25.0
    second = np.mean(draws**2)
    # var of v^2 under the mixture: E[v^4] - (E[v^2])^2, fourth moment 3(w1 v1^2 + w2 v2^2)
    fourth = 3.0 * (0.7 * 1.0 + 0.3 * 625.0)
    se = np.sqrt((fourth - pooled**2) / draws.size)
    assert abs(second - pooled) < 5.0 * se


def test_empirical_noise_draw_and_validation():
    noise = EmpiricalNoise(lambda rng: rng.standard_normal(3), k=3)
    one = noise.draw(np.random.default_rng(0))
    assert one.shape == (3,)
    batch = noise.draw(np.random.default_rng(0), size=5)
    assert batch.shape == (5, 3)
    assert_allclose(batch[0], one)

    bad = EmpiricalNoise(lambda rng: rng.standard_normal(2), k=3)
    with pytest.raises(ValueError, match="shape"):
        bad.draw(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Models and observation sampling
# ---------------------------------------------------------------------------


def test_model_dimension_checks():
    sig = LinearVectorMap(np.ones(3))
    with pytest.raises(ValueError, match="mismatch"):
        AssumedModel(sig, np.zeros(2), ScaledIdentityCov(1.0, 2))
    with pytest.raises(ValueError, match="dimension"):
        TrueModel(sig, GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2)))


def test_sample_observation_reproducible():
    sig = LinearVectorMap(np.ones(4))
    model = TrueModel(sig, GaussianNoise(np.zeros(4), ScaledIdentityCov(0.25, 4)))

    def observe(seed):
        return eval_signal(model.signal, 2.0) + model.noise.draw(np.random.default_rng(seed))

    x1 = observe(42)
    x2 = observe(42)
    assert_allclose(x1, x2)
    assert x1.shape == (4,)
    # The signal part is exact; the noise part has variance 0.25.
    assert abs(x1.mean() - 2.0) < 2.0


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def _axis_overlap(ax, delta):
    return overlap_rows(Prior((ax,)), np.array([[delta]]))[0]


def test_interval_axis_overlap():
    ax = IntervalAxis(0.0, 10.0)
    assert ax.width == 10.0
    assert _axis_overlap(ax, 0.0) == 1.0
    assert _axis_overlap(ax, 2.5) == pytest.approx(0.75)
    assert _axis_overlap(ax, -2.5) == pytest.approx(0.75)
    assert _axis_overlap(ax, 10.0) == 0.0
    assert _axis_overlap(ax, 12.0) == 0.0


def test_lattice_axis_overlap():
    ax = LatticeAxis(count=5, start=0.0, step=1.0)
    assert ax.width == 4.0
    assert _axis_overlap(ax, 0.0) == 1.0
    assert _axis_overlap(ax, 2.0) == pytest.approx(0.6)
    assert _axis_overlap(ax, -2.0) == pytest.approx(0.6)
    assert _axis_overlap(ax, 5.0) == 0.0
    assert _axis_overlap(ax, 0.5) == 0.0  # off-lattice shift never aligns


def test_axis_validation():
    with pytest.raises(ValueError, match="hi > lo"):
        IntervalAxis(1.0, 1.0)
    with pytest.raises(ValueError, match="count"):
        LatticeAxis(count=0)
    with pytest.raises(ValueError, match="step"):
        LatticeAxis(count=3, step=0.0)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite step"):
            LatticeAxis(count=3, step=step)
    for start in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite start"):
            LatticeAxis(count=3, start=start)


def test_prior_sampling_stays_in_support():
    prior = Prior((LatticeAxis(count=20, start=0.0, step=1.0), IntervalAxis(0.5, 1.5)))
    rng = np.random.default_rng(5)
    draws = np.array([prior.sample(rng) for _ in range(200)])
    assert np.all(draws[:, 0] == np.round(draws[:, 0]))
    assert np.all((0.0 <= draws[:, 0]) & (draws[:, 0] <= 19.0))
    assert np.all((0.5 <= draws[:, 1]) & (draws[:, 1] <= 1.5))


def test_prior_factories():
    p1 = uniform_interval(10.0)
    assert p1.n_theta == 1 and p1.axes[0].hi == 10.0
    with pytest.raises(ValueError, match="positive"):
        uniform_interval(0.0)

    p2 = uniform_box([0.0, 0.5], [1.0, 1.5])
    assert p2.n_theta == 2 and p2.axes[1].lo == 0.5

    p3 = Prior((LatticeAxis(count=4), LatticeAxis(count=1, start=2.0)))
    assert p3.n_theta == 2 and p3.axes[0].width == 3.0 and p3.axes[1].width == 0.0
