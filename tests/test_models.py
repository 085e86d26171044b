"""Tests for covariances, signal maps, noise laws, models, and priors."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal, assert_equal

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
    PerSampleMixtureNoise,
    Prior,
    ScaledIdentityCov,
    TrueModel,
    eval_signal,
    uniform_interval,
)
from zzbound.montecarlo import _PE_BLOCK
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
    assert cov.qf(u) == pytest.approx(u @ m @ u, rel=1e-12, abs=0.0)
    assert cov.qf_inv(u, v) == pytest.approx(u @ inv @ v, rel=1e-10, abs=0.0)
    assert cov.qf_inv(u) == pytest.approx(u @ inv @ u, rel=1e-10, abs=0.0)
    rows = rng.standard_normal((5, cov.dim))
    assert_allclose(cov.qf_inv_rows(rows), np.einsum("ij,ij->i", rows, rows @ inv), rtol=1e-10)
    # chol_matvec maps iid rows z to z L^T, so feeding the identity recovers
    # L^T and the product L L^T must reproduce the covariance.
    l_t = cov.chol_matvec(np.eye(cov.dim))
    assert_allclose(l_t.T @ l_t, m, rtol=1e-12, atol=1e-12)
    # The diagonal factors scale their float argument in place.
    z = rng.standard_normal((3, cov.dim))
    if not isinstance(cov, DenseCov):
        assert cov.chol_matvec(z) is z


@pytest.mark.parametrize("k", [4, 50, 600])
@pytest.mark.parametrize("kind", ["scaled_identity", "diagonal", "dense"])
def test_qf_inv_rows_is_row_block_invariant(kind, k):
    # empirical_pe computes its statistic in row blocks of _PE_BLOCK
    # elements; each row's form must not depend on the rows beside it.
    rng = np.random.default_rng(k)
    cov = {
        "scaled_identity": lambda: ScaledIdentityCov(2.5, k),
        "diagonal": lambda: DiagonalCov(rng.uniform(0.5, 4.0, k)),
        "dense": lambda: DenseCov(_dense_reference(k, seed=k)),
    }[kind]()
    stat_rows = max(1, _PE_BLOCK // k)
    rows = rng.standard_normal((2 * stat_rows + 3, k))
    whole = cov.qf_inv_rows(rows)
    for block in (1, 7, stat_rows):
        parts = [cov.qf_inv_rows(rows[lo : lo + block]) for lo in range(0, len(rows), block)]
        assert_array_equal(np.concatenate(parts), whole)


def test_covariance_batched_solve():
    cov = DiagonalCov(np.array([1.0, 4.0]))
    block = np.array([[2.0, 8.0], [1.0, 0.0]])
    assert_allclose(cov.solve(block), np.array([[2.0, 2.0], [1.0, 0.0]]))


def test_covariance_validation():
    for sigma2 in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"variance must be finite and positive, got {sigma2}"):
            ScaledIdentityCov(sigma2, 3)
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        ScaledIdentityCov(1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        DiagonalCov(np.array([1.0, -2.0]))
    for diag in (np.zeros(0), np.ones((2, 2))):
        with pytest.raises(ValueError, match="diagonal must be a nonempty 1-D array"):
            DiagonalCov(diag)
    for matrix in (np.ones((2, 3)), np.ones(2), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="covariance must be square"):
            DenseCov(matrix)
    with pytest.raises(ValueError, match="covariance entries must be finite"):
        DenseCov(np.array([[1.0, math.nan], [math.nan, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        DenseCov(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        DenseCov(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # A numerical failure, by its type: the CLI reports it with exit status 3.
    with pytest.raises(np.linalg.LinAlgError, match="^covariance is not positive definite$"):
        DenseCov(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_scaled_identity_is_the_diagonal_with_equal_entries():
    cov = ScaledIdentityCov(2.5, 4)
    assert type(cov) is DiagonalCov
    assert_array_equal(cov.diag, DiagonalCov(np.full(4, 2.5)).diag)
    assert cov.white and DiagonalCov(np.full(4, 2.5)).white
    assert not DiagonalCov(np.array([2.5, 2.5, 2.0])).white
    assert vars(cov)["white"] is True  # asked once, then cached


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf])
def test_scaled_identity_rejects_non_finite_variance(sigma2):
    with pytest.raises(ValueError, match=f"variance must be finite and positive, got {sigma2}"):
        ScaledIdentityCov(sigma2, 2)
    with pytest.raises(ValueError, match="finite and positive"):
        DiagonalCov(np.full(2, sigma2))


def test_models_require_a_covariance_object():
    # A bare number or array is not coerced: the models name what they need.
    k = 2
    for cov in (0.5, np.array([1.0, 2.0]), np.eye(k)):
        with pytest.raises(ValueError, match="noise covariance must be a ScaledIdentityCov"):
            GaussianNoise(np.zeros(k), cov)
        with pytest.raises(ValueError, match="noise covariance must be a ScaledIdentityCov"):
            AssumedModel(LinearVectorMap(np.ones(k)), np.zeros(k), cov)


# ---------------------------------------------------------------------------
# Signal maps and pulses
# ---------------------------------------------------------------------------


def test_linear_maps_evaluate():
    vec = LinearVectorMap(np.array([1.0, -2.0]))
    assert_allclose(eval_signal(vec, 3.0), np.array([3.0, -6.0]))
    assert vec.k == 2 and vec.n_theta == 1
    assert isinstance(vec, LinearMatrixMap) and vec.h_matrix.shape == (2, 1)
    with pytest.raises(ValueError, match="hvec must be a finite 1-D array"):
        LinearVectorMap(np.ones((2, 1)))

    mat = LinearMatrixMap(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert_allclose(eval_signal(mat, [2.0, 5.0]), np.array([2.0, 5.0, 7.0]))
    assert mat.k == 3 and mat.n_theta == 2


def test_eval_signal_rejects_bad_theta():
    sig = LinearVectorMap(np.ones(2))
    with pytest.raises(ValueError, match="dimension"):
        eval_signal(sig, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        eval_signal(sig, np.nan)
    # A batch is checked the same way, and names its first non-finite row.
    with pytest.raises(ValueError, match="theta has dimension 2, map expects 1"):
        eval_signal(sig, np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"finite, got \[nan\]$"):
        eval_signal(sig, [[1.0], [np.nan], [np.inf]])


def _unit_pulse(tau, width, k):
    """The pulse map's signal at (tau, 1): the unit-peak triangle."""
    return eval_signal(AmplitudePulseMap(width=width, k=k), [tau, 1.0])


def test_triangular_pulse_shape():
    # Width 4 at tau = 5 in a long record: peak 1 at index 5, 0.5 at 4 and 6.
    p = _unit_pulse(5.0, 4, 11)
    assert p[5] == 1.0
    assert p[4] == p[6] == 0.5
    assert p[3] == p[7] == 0.0
    assert p @ p == pytest.approx(1.5)


def test_triangular_pulse_boundary_clipping():
    # A pulse at the record edge loses its left flank.
    p = _unit_pulse(0.0, 4, 8)
    assert p[0] == 1.0 and p[1] == 0.5 and p[2] == 0.0
    assert p @ p == pytest.approx(1.25)
    full = _unit_pulse(4.0, 4, 9)
    assert full @ full == pytest.approx(1.5)


@pytest.mark.parametrize("width", [1, 2, 5, 6, 13, 20])
def test_triangular_pulse_matches_the_full_length_formula(width):
    # The formula runs only near tau; every sample keeps the bits of the
    # whole-record formula, for whole, half-sample and fractional peaks,
    # peaks on and one ulp off a sample, and peaks at both record edges.
    # Whole rows are scaled by alpha, so a negative one gives -0.0 off the
    # pulse; alone and in one batch of every tau, the rows are the same.
    k = 24
    sig = AmplitudePulseMap(width=width, k=k)
    idx = np.arange(k, dtype=float)
    taus = [0.0, 0.3, 0.5, 1.0, 7.0, 7.5, 7.25, math.nextafter(9.0, 0.0), 9.0 + 1e-12]
    taus += [width / 2.0, k - width / 2.0, k - 1.0, math.nextafter(float(k), 0.0)]
    rows = [(tau, alpha) for tau in taus if 0.0 <= tau < k for alpha in (1.0, -0.7)]
    batch = eval_signal(sig, np.array(rows))
    for (tau, alpha), row in zip(rows, batch):
        got = eval_signal(sig, [tau, alpha])
        expected = alpha * np.maximum(0.0, 1.0 - 2.0 * np.abs(idx - tau) / width)
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()  # signed zeros too
        assert row.tobytes() == expected.tobytes()


def test_triangular_pulse_validation():
    sig = AmplitudePulseMap(width=3, k=9)
    with pytest.raises(ValueError, match=r"position must satisfy 0 <= tau < 9, got 9.0$"):
        eval_signal(sig, [9.0, 1.0])
    # A batch names its first position outside the record.
    with pytest.raises(ValueError, match=r"got -0.5$"):
        eval_signal(sig, [[1.0, 1.0], [-0.5, 1.0], [9.5, 1.0]])
    with pytest.raises(ValueError, match="width"):
        AmplitudePulseMap(width=0, k=9)
    with pytest.raises(ValueError, match="exceeds"):
        AmplitudePulseMap(width=10, k=9)


def test_amplitude_pulse_map():
    sig = AmplitudePulseMap(width=4, k=11)
    out = eval_signal(sig, [5.0, 2.0])
    assert_allclose(out, 2.0 * _unit_pulse(5.0, 4, 11))
    assert_allclose(out[3:8], [0.0, 1.0, 2.0, 1.0, 0.0])
    assert sig.n_theta == 2


def test_reference_pulse_energies():
    # The two template widths used by the pulse example, at full support.
    wide = _unit_pulse(2500.0, 300, 5000)
    narrow = _unit_pulse(2500.0, 200, 5000)
    assert wide @ wide == pytest.approx(100.00222222222222, rel=1e-12, abs=0.0)
    assert narrow @ narrow == pytest.approx(66.67, rel=1e-12, abs=0.0)
    assert wide @ narrow == pytest.approx(77.78, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Noise laws
# ---------------------------------------------------------------------------


def test_gaussian_noise_moments():
    mean = np.array([1.0, -2.0])
    cov = DenseCov(np.array([[2.0, 0.6], [0.6, 1.0]]))
    noise = GaussianNoise(mean, cov)
    draws = next(noise.draw_blocks(np.random.default_rng(3), 200_000, 200_000))
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
    a = next(mix.draw_blocks(np.random.default_rng(7), 4, 4))
    assert a.shape == (4, 2)
    assert np.all(np.isfinite(a))


def test_mixture_weight_validation():
    comp = GaussianNoise(np.zeros(1), ScaledIdentityCov(1.0, 1))
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureNoise(np.array([0.5, 0.4]), (comp, comp))
    with pytest.raises(ValueError, match="length"):
        MixtureNoise(np.array([1.0]), (comp, comp))
    wide = GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2))
    with pytest.raises(ValueError, match=r"components disagree on dimension: \[1, 2\]"):
        MixtureNoise(np.array([0.5, 0.5]), (comp, wide))
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
    draws = next(mix.draw_blocks(np.random.default_rng(11), 100_000, 100_000))
    pooled = 0.7 * 1.0 + 0.3 * 25.0
    second = np.mean(draws**2)
    # var of v^2 under the mixture: E[v^4] - (E[v^2])^2, fourth moment 3(w1 v1^2 + w2 v2^2)
    fourth = 3.0 * (0.7 * 1.0 + 0.3 * 625.0)
    se = np.sqrt((fourth - pooled**2) / draws.size)
    assert abs(second - pooled) < 5.0 * se


@pytest.mark.parametrize("omega1", [0.0, 0.3, 0.7, 1.0])
def test_per_sample_mixture_draws_like_the_contamination_sampler(omega1):
    # The study-3 sampler this law replaced: k uniforms, k normals, and the
    # wide std where a uniform falls below the outlier weight.
    k = 37
    noise = PerSampleMixtureNoise(np.array([omega1, 1.0 - omega1]), np.array([1.0, 25.0]), k)
    for seed in range(5):
        ref_rng = np.random.default_rng(seed)
        u = ref_rng.random(k)
        z = ref_rng.standard_normal(k)
        expected = np.where(u < 1.0 - omega1, 25.0, 1.0) * z
        got = noise.draw(np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()
    assert next(noise.draw_blocks(np.random.default_rng(0), 3, 3)).shape == (3, k)


def test_per_sample_mixture_three_components_and_moments():
    # The last component takes u below its weight, the one before it the
    # next slice, the first one the rest.
    k = 200_000
    weights, stds = np.array([0.5, 0.3, 0.2]), np.array([1.0, 2.0, 4.0])
    noise = PerSampleMixtureNoise(weights, stds, k)
    x = noise.draw(np.random.default_rng(3))
    rng = np.random.default_rng(3)
    u = rng.random(k)
    z = rng.standard_normal(k)
    assert_allclose(x, np.select([u < 0.2, u < 0.5], [4.0, 2.0], 1.0) * z, rtol=0.0, atol=0.0)
    pooled = float(np.sum(weights * stds**2))
    assert np.array_equal(noise.gaussian.cov.diag, np.full(k, pooled))
    assert abs(np.mean(x * x) - pooled) < 0.02 * pooled


def test_per_sample_mixture_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        PerSampleMixtureNoise(np.array([0.5, 0.4]), np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError, match="weights and stds"):
        PerSampleMixtureNoise(np.array([1.0]), np.array([1.0, 2.0]), 3)
    for bad in ([1.0, 0.0], [1.0, math.nan], [1.0, math.inf], [1.0, -2.0]):
        with pytest.raises(ValueError, match="stds"):
            PerSampleMixtureNoise(np.array([0.5, 0.5]), np.array(bad), 3)
    with pytest.raises(ValueError, match="dimension"):
        PerSampleMixtureNoise(np.array([1.0]), np.array([1.0]), 0)


def test_empirical_noise_draw_and_validation():
    noise = EmpiricalNoise(lambda rng: rng.standard_normal(3), k=3)
    one = noise.draw(np.random.default_rng(0))
    assert one.shape == (3,)
    batch = next(noise.draw_blocks(np.random.default_rng(0), 5, 5))
    assert batch.shape == (5, 3)
    assert_allclose(batch[0], one)

    bad = EmpiricalNoise(lambda rng: rng.standard_normal(2), k=3)
    with pytest.raises(ValueError, match="shape"):
        bad.draw(np.random.default_rng(0))


def _blocked_laws(k=5):
    white = GaussianNoise(np.zeros(k), ScaledIdentityCov(2.0, k))
    diagonal = GaussianNoise(np.full(k, 0.3), DiagonalCov(np.linspace(0.5, 2.0, k)))
    dense = GaussianNoise(np.linspace(-1.0, 1.0, k), DenseCov(_dense_reference(k, seed=4)))
    return {
        "white": white,
        "diagonal": diagonal,
        "dense": dense,
        "mixture": MixtureNoise(np.array([0.6, 0.4]), (white, diagonal)),
        "mixture_dense": MixtureNoise(np.array([0.5, 0.3, 0.2]), (white, dense, diagonal)),
        "per_sample": PerSampleMixtureNoise(
            np.array([0.5, 0.3, 0.2]), np.array([1.0, 2.0, 4.0]), k
        ),
        "empirical": EmpiricalNoise(lambda rng: rng.laplace(scale=1.5, size=k), k),
    }


@pytest.mark.parametrize("rows", [1, 7, 40])
@pytest.mark.parametrize("name", list(_blocked_laws()))
def test_blocked_draw_is_the_one_chunk_draw(name, rows):
    # The blocks, in order, are the chunk one n-row block gives, byte for
    # byte, and they leave the stream where it does.
    n, law = 40, _blocked_laws()[name]
    want_rng = np.random.Generator(np.random.Philox(key=11))
    want = next(law.draw_blocks(want_rng, n, n))
    rng = np.random.Generator(np.random.Philox(key=11))
    blocks = list(law.draw_blocks(rng, n, rows))
    assert [b.shape[0] for b in blocks] == [min(rows, n - lo) for lo in range(0, n, rows)]
    got = np.concatenate(blocks)
    assert got.shape == want.shape == (n, law.dim)
    assert got.tobytes() == want.tobytes()
    assert_equal(rng.bit_generator.state, want_rng.bit_generator.state)
    # Where one draw reads the stream as one row of a block does, n
    # successive draws are an independent reference, whole-chunk case
    # included. (A mixture block draws all its labels first, a per-sample
    # one all its uniforms, and a dense block colours rows in one product.)
    if name in ("white", "diagonal", "empirical"):
        one_rng = np.random.Generator(np.random.Philox(key=11))
        one_by_one = np.array([law.draw(one_rng) for _ in range(n)])
        assert got.tobytes() == one_by_one.tobytes()
        assert_equal(rng.bit_generator.state, one_rng.bit_generator.state)
    with pytest.raises(ValueError, match="a chunk needs n >= 1 rows"):
        next(law.draw_blocks(np.random.default_rng(0), 0, rows))


# ---------------------------------------------------------------------------
# Models and observation sampling
# ---------------------------------------------------------------------------


def test_model_dimension_checks():
    sig = LinearVectorMap(np.ones(3))
    with pytest.raises(ValueError, match="mismatch"):
        AssumedModel(sig, np.zeros(2), ScaledIdentityCov(1.0, 2))
    with pytest.raises(ValueError, match="dimension"):
        TrueModel(sig, GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2)))
    for mean in (np.array([0.0, math.nan, 0.0]), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="noise mean must be a finite 1-D array"):
            GaussianNoise(mean, ScaledIdentityCov(1.0, 3))
        with pytest.raises(ValueError, match="noise mean must be a finite 1-D array"):
            AssumedModel(sig, mean, ScaledIdentityCov(1.0, 3))


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
    with pytest.raises(ValueError, match="prior needs at least one axis"):
        Prior(())


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

    p3 = Prior((LatticeAxis(count=4), LatticeAxis(count=1, start=2.0)))
    assert p3.n_theta == 2 and p3.axes[0].width == 3.0 and p3.axes[1].width == 0.0
