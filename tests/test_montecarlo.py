"""Tests for the deterministic Monte Carlo drivers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zzbound.estimators import LinearClosedForm, QuasiMLE, SampleMedian, estimate
from zzbound.experiments import THETA_DC, build_example3
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
from zzbound.montecarlo import (
    MseReport,
    TrialPlan,
    _KEY_BLOCK,
    _trial_keys,
    _trial_states,
    derive_seed,
    empirical_pe,
    run_mse,
    trial_generator,
)
from zzbound.pe_kernel import PeKernel, pe_gaussian, pe_mixture
from zzbound.special_math import q_function


def test_trial_generator_streams():
    a = trial_generator(5, 0).integers(0, 1 << 30, 8)
    b = trial_generator(5, 0).integers(0, 1 << 30, 8)
    c = trial_generator(5, 1).integers(0, 1 << 30, 8)
    d = trial_generator(6, 0).integers(0, 1 << 30, 8)
    assert_allclose(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError, match="nonnegative"):
        trial_generator(5, -1)


def test_trial_generator_frozen_stream():
    # Pins the key construction; the sweep CSV byte-identity contract
    # depends on this stream never changing.
    got = trial_generator(123, 7).integers(0, 1000, 3)
    assert_allclose(got, [804, 742, 184])


def _trial_draws(rng, index):
    """A mix of draw kinds; even indices start with an odd number of float32
    draws, which leaves half of a 64-bit word buffered in the bit generator."""
    return [
        rng.random(index % 4 + 1, dtype=np.float32),
        rng.standard_normal(3),
        rng.random(2),
        rng.integers(0, 1000, 3),
        rng.integers(0, 7, 2, dtype=np.int32),
        rng.choice(4, size=2, p=[0.1, 0.2, 0.3, 0.4]),
        np.array([rng.choice(3, p=[0.5, 0.25, 0.25])]),
        rng.random(index % 2 + 1, dtype=np.float32),
    ]


def test_reset_stream_matches_trial_generator():
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    for seed in (0, 7, (1 << 63) + 5, (1 << 64) - 1):
        for i, state in enumerate(_trial_states(seed, 300)):
            bitgen.state = state
            got = _trial_draws(rng, i)
            want = _trial_draws(trial_generator(seed, i), i)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


_M64 = (1 << 64) - 1


def _splitmix_key(seed, index):
    """The trial key written out with Python integers, one word at a time."""

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        return z ^ (z >> 31)

    golden = 0x9E3779B97F4A7C15
    return (
        mix((seed + (2 * index + 1) * golden) & _M64),
        mix((seed + (2 * index + 2) * golden) & _M64),
    )


@pytest.mark.parametrize("seed", [0, 7, (1 << 63) + 5, (1 << 64) - 1, (1 << 64) + 3, -1])
def test_vectorized_keys_match_scalar_splitmix(seed):
    n = 3001
    assert _KEY_BLOCK < n  # the schedule below crosses block boundaries
    want = [_splitmix_key(seed, i) for i in range(n)]
    assert [tuple(k) for k in _trial_keys(seed, 0, n).tolist()] == want
    assert [tuple(s["state"]["key"]) for s in _trial_states(seed, n)] == want
    for i in (0, _KEY_BLOCK - 1, _KEY_BLOCK, n - 1, 1 << 40, (1 << 62) - 1):
        assert tuple(_trial_keys(seed, i, 1)[0].tolist()) == _splitmix_key(seed, i)
    far = _trial_keys(seed, (1 << 62) - 3, 3).tolist()
    assert [tuple(k) for k in far] == [_splitmix_key(seed, (1 << 62) - 3 + j) for j in range(3)]


def test_derive_seed_frozen_and_order_sensitive():
    assert derive_seed(42, 1, 2) == 9347878797982206644
    assert derive_seed(42, 2, 1) == 14641016262535425597
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(7) == 7
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert 0 <= derive_seed(42, 9, 9) < 1 << 64


def _linear_setup(k=16, sigma2_true=1.0):
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    truth = TrueModel(sig, GaussianNoise(np.zeros(k), ScaledIdentityCov(sigma2_true, k)))
    return assumed, truth


def test_run_mse_zero_noise_is_exact():
    k = 8
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    silent = TrueModel(sig, EmpiricalNoise(lambda rng: np.zeros(k), k))
    plan = TrialPlan(
        truth=silent,
        estimator=LinearClosedForm(assumed),
        prior=uniform_interval(5.0),
        trials=32,
        seed=1,
    )
    rep = run_mse(plan)
    assert rep.failures == 0
    assert rep.valid
    assert rep.trials == 32
    # The closed form reproduces theta up to float rounding of the ratio.
    assert_allclose(rep.mse, [0.0], atol=1e-28)
    assert_allclose(rep.stderr, [0.0], atol=1e-28)
    assert_allclose(rep.bias, [0.0], atol=1e-14)


def test_run_mse_matched_linear_variance():
    # Matched WLS on the unit map: MSE = sigma^2 / K exactly, so the estimate
    # must cover it within three reported standard errors.
    k = 500
    assumed, truth = _linear_setup(k=k, sigma2_true=2.0)
    plan = TrialPlan(
        truth=truth,
        estimator=LinearClosedForm(assumed),
        prior=uniform_interval(50.0),
        trials=2000,
        seed=77,
        theta_true=np.array([25.0]),
    )
    rep = run_mse(plan)
    expected = 2.0 / k
    assert abs(rep.mse[0] - expected) <= 3.0 * rep.stderr[0]
    assert abs(rep.bias[0]) <= 3.0 * np.sqrt(expected / plan.trials)


def test_run_mse_worker_count_invariance():
    # A QuasiMLE plan (the grid search) repeats bit for bit, bias included.
    assumed, truth = _linear_setup(k=12)
    plan = TrialPlan(
        truth=truth,
        estimator=QuasiMLE(assumed),
        prior=uniform_interval(8.0),
        trials=130,
        seed=9,
    )
    first = run_mse(plan)
    second = run_mse(plan)
    assert first.mse[0] == second.mse[0]
    assert first.stderr[0] == second.stderr[0]
    assert first.bias[0] == second.bias[0]


def test_run_mse_repeat_is_bitwise_identical():
    assumed, truth = _linear_setup(k=10)
    plan = TrialPlan(
        truth=truth,
        estimator=LinearClosedForm(assumed),
        prior=uniform_interval(4.0),
        trials=100,
        seed=3,
    )
    a, b = run_mse(plan), run_mse(plan)
    assert a.mse[0] == b.mse[0] and a.stderr[0] == b.stderr[0]


def test_run_mse_counts_failures():
    k = 6
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))

    def sometimes_nan(rng):
        x = rng.standard_normal(k)
        if rng.random() < 0.5:
            x[0] = np.nan  # estimate() rejects non-finite records
        return x

    flaky = TrueModel(sig, EmpiricalNoise(sometimes_nan, k))
    plan = TrialPlan(
        truth=flaky,
        estimator=LinearClosedForm(assumed),
        prior=uniform_interval(5.0),
        trials=64,
        seed=2,
    )
    rep = run_mse(plan)
    assert 0 < rep.failures < 64
    assert not rep.valid
    assert np.isfinite(rep.mse[0])
    assert rep.failure_reasons == {
        "ValueError: observation contains non-finite values": rep.failures
    }


def test_run_mse_failure_reasons_in_first_occurrence_order():
    # A pulse assumed map fails every finite record in the closed form;
    # non-finite records fail earlier, in estimate's own check.
    k = 5
    sig = AmplitudePulseMap(width=3, k=k)
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    prior = Prior((LatticeAxis(k, 0.0, 1.0), IntervalAxis(0.5, 1.5)))

    def sometimes_nan(rng):
        x = rng.standard_normal(k)
        if rng.random() < 0.5:
            x[0] = np.nan
        return x

    truth = TrueModel(sig, EmpiricalNoise(sometimes_nan, k))
    plan = TrialPlan(truth, LinearClosedForm(assumed), prior, 40, seed=4)
    rep = run_mse(plan)
    assert rep.failures == 40
    nan_msg = "ValueError: observation contains non-finite values"
    map_msg = "ValueError: closed-form estimation requires a linear signal map"
    order = []
    for i in range(plan.trials):
        rng = trial_generator(plan.seed, i)
        theta = plan.prior.sample(rng)
        x = eval_signal(sig, theta) + truth.noise.draw(rng)
        msg = map_msg if np.all(np.isfinite(x)) else nan_msg
        if msg not in order:
            order.append(msg)
    assert list(rep.failure_reasons) == order
    assert set(order) == {nan_msg, map_msg}
    assert sum(rep.failure_reasons.values()) == rep.failures


def test_run_mse_all_failures_yields_nan_report():
    k = 4
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    broken = TrueModel(sig, EmpiricalNoise(lambda rng: np.full(k, np.nan), k))
    plan = TrialPlan(
        truth=broken,
        estimator=LinearClosedForm(assumed),
        prior=uniform_interval(1.0),
        trials=8,
        seed=0,
    )
    rep = run_mse(plan)
    assert rep.failures == 8
    assert not rep.valid
    assert np.isnan(rep.mse).all()
    assert rep.failure_reasons == {"ValueError: observation contains non-finite values": 8}


def test_trial_plan_validation():
    assumed, truth = _linear_setup(k=4)
    prior = uniform_interval(1.0)
    with pytest.raises(ValueError, match="trials"):
        TrialPlan(truth, LinearClosedForm(assumed), prior, trials=0, seed=0)
    with pytest.raises(ValueError, match="theta_true"):
        TrialPlan(
            truth,
            LinearClosedForm(assumed),
            prior,
            trials=1,
            seed=0,
            theta_true=np.array([1.0, 2.0]),
        )
    with pytest.raises(ValueError, match="theta_true must be finite"):
        TrialPlan(truth, LinearClosedForm(assumed), prior, trials=1, seed=0, theta_true=np.nan)


def test_empirical_pe_zero_offset_exact():
    assumed, truth = _linear_setup(k=6)
    out = empirical_pe(PeKernel(assumed, truth), 1.0, 0.0, trials=10, seed=0)
    assert out.pe == 0.5
    assert out.stderr == 0.0
    assert out.trials == 10


def test_empirical_pe_matched_matches_analytic():
    k = 25
    assumed, truth = _linear_setup(k=k)
    kernel = PeKernel(assumed, truth)
    delta = 0.4
    analytic = pe_gaussian(kernel, 1.0, delta)
    assert analytic == pytest.approx(float(q_function(0.5 * delta * np.sqrt(k))), rel=1e-12, abs=0.0)
    got = empirical_pe(kernel, 1.0, delta, trials=40000, seed=5)
    assert abs(got.pe - analytic) <= 3.0 * got.stderr + 1e-12


def test_empirical_pe_mixture_matches_analytic():
    k = 12
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    mix = MixtureNoise(
        np.array([0.7, 0.3]),
        (
            GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k)),
            GaussianNoise(np.zeros(k), ScaledIdentityCov(9.0, k)),
        ),
    )
    kernel = PeKernel(assumed, TrueModel(sig, mix))
    delta = 0.6
    analytic = pe_mixture(kernel, 0.5, delta)
    got = empirical_pe(kernel, 0.5, delta, trials=40000, seed=13)
    assert abs(got.pe - analytic) <= 3.0 * got.stderr + 1e-12


def _dense_cov(k, seed):
    a = np.random.default_rng(seed).standard_normal((k, k))
    return DenseCov(4.0 * (a @ a.T / k + np.eye(k)))


def _frozen_pe_setup(name):
    k = 50 if name.endswith("dense") else 4096
    sig = LinearVectorMap(np.ones(k))
    lin = np.linspace
    if name == "scaled_identity":
        cov = ScaledIdentityCov(4.0, k)
        noise = GaussianNoise(np.zeros(k), DiagonalCov(lin(3.0, 5.0, k)))
    elif name == "diagonal":
        cov = DiagonalCov(lin(2.0, 6.0, k))
        noise = GaussianNoise(np.full(k, 0.01), ScaledIdentityCov(4.0, k))
    elif name == "dense":
        cov, noise = _dense_cov(k, 1), GaussianNoise(np.zeros(k), _dense_cov(k, 2))
    elif name == "mixture":
        cov = ScaledIdentityCov(4.0, k)
        wide = GaussianNoise(np.full(k, 0.1), DiagonalCov(lin(8.0, 12.0, k)))
        narrow = GaussianNoise(np.zeros(k), ScaledIdentityCov(2.0, k))
        noise = MixtureNoise(np.array([0.7, 0.3]), (narrow, wide))
    elif name == "mixture_dense":
        cov = _dense_cov(k, 1)
        narrow = GaussianNoise(np.zeros(k), ScaledIdentityCov(2.0, k))
        dense = GaussianNoise(np.full(k, 0.1), _dense_cov(k, 2))
        noise = MixtureNoise(np.array([0.6, 0.4]), (narrow, dense))
    elif name == "per_sample":
        cov = ScaledIdentityCov(4.9, k)
        noise = PerSampleMixtureNoise(np.array([0.5, 0.3, 0.2]), np.array([1.0, 2.0, 4.0]), k)
    else:
        cov = ScaledIdentityCov(4.5, k)
        noise = EmpiricalNoise(lambda rng: rng.laplace(scale=1.5, size=k), k)
    return PeKernel(AssumedModel(sig, np.zeros(k), cov), TrueModel(sig, noise))


@pytest.mark.parametrize(
    "name, pe, stderr",
    [
        ("scaled_identity", 0.2180952380952381, 0.0063732407308959),
        ("diagonal", 0.23928571428571427, 0.0064374970071826515),
        ("dense", 0.2816666666666667, 0.006122108327289021),
        ("mixture", 0.23190476190476192, 0.006231806597849133),
        ("mixture_dense", 0.18833333333333335, 0.005297832610024065),
        ("per_sample", 0.23619047619047617, 0.006555248108191836),
        ("empirical", 0.22380952380952382, 0.006432815351566977),
    ],
)
def test_empirical_pe_frozen_values(monkeypatch, name, pe, stderr):
    # Frozen values: how the draws and the statistic are blocked in memory
    # must not move a byte. At k = 4096 the 2,100 trials span two draw
    # chunks (2,048 rows each) and many statistic blocks (8 rows); the dense
    # cases run at k = 50 with a smaller draw chunk (2,621 rows) for the
    # same cover.
    import zzbound.montecarlo as mc

    trials, delta = 2100, 0.05
    if name.endswith("dense"):
        monkeypatch.setattr(mc, "_MC_CHUNK", 1 << 17)
        trials, delta = 2700, 0.5
    got = empirical_pe(_frozen_pe_setup(name), 0.2, delta, trials, seed=3)
    assert (repr(got.pe), repr(got.stderr)) == (repr(pe), repr(stderr))


def test_empirical_pe_keeps_one_draw_block_live():
    # A per-vector mixture draws its chunk's one-byte labels first, then its
    # normals a row block at a time, each component's rows scaled and
    # written back into the block. 4,000 trials at k = 5000 are three
    # chunks of up to 1,677 rows (64 MiB) per hypothesis; the peak stays
    # near a few 240 KB blocks, as for the white law of the next test.
    k = 5000
    sig = LinearVectorMap(np.ones(k))
    comps = tuple(GaussianNoise(np.zeros(k), ScaledIdentityCov(v, k)) for v in (1.0, 4.0))
    noise = MixtureNoise(np.array([0.9, 0.1]), comps)
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))
    kernel = PeKernel(assumed, TrueModel(sig, noise))
    peak = _traced_peak(lambda: empirical_pe(kernel, 0.0, 0.05, trials=4000, seed=0))
    assert peak < 2 * 2**20


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_pe_streams_a_diagonal_law_one_row_block_at_a_time():
    # A chunk of 1,677 rows at k = 5000 is 64 MiB; drawn and decided six
    # rows at a time, 240 KB a block, the peak stays near a few blocks.
    kernel = PeKernel(*_linear_setup(k=5000))
    peak = _traced_peak(lambda: empirical_pe(kernel, 0.0, 0.05, trials=4000, seed=0))
    assert peak < 2 * 2**20


def test_empirical_pe_keeps_only_the_labels_of_a_per_sample_chunk():
    # 6,000 trials at k = 2000 are two chunks of up to 4,194 rows. The
    # chunk's uniforms come before its normals in the stream, so each is
    # kept as a one-byte label; the floats are drawn a row block at a time.
    import zzbound.montecarlo as mc

    k = 2000
    sig = LinearVectorMap(np.ones(k))
    noise = PerSampleMixtureNoise(np.array([0.9, 0.1]), np.array([1.0, 5.0]), k)
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(3.4, k))
    kernel = PeKernel(assumed, TrueModel(sig, noise))
    peak = _traced_peak(lambda: empirical_pe(kernel, 4.0, 0.3, trials=6000, seed=0))
    labels = (mc._MC_CHUNK // k) * k
    assert peak < labels + 4 * 2**20


def test_empirical_pe_holds_one_coloured_chunk_of_a_dense_law(monkeypatch):
    # A dense covariance colours its whole chunk in one product, since the
    # product's row bits depend on how many rows it holds. So the chunk's
    # normals and their coloured copy are live together; then its row blocks
    # are decided, each with two residuals and their two solves, into one
    # weight per trial. 25,000 trials at k = 100 in 2^20-element chunks are
    # three chunks per hypothesis, and the peak allowed is one of them.
    import zzbound.montecarlo as mc

    monkeypatch.setattr(mc, "_MC_CHUNK", 1 << 20)
    k, trials = 100, 25_000
    i = np.arange(k)
    cov = DenseCov(0.5 ** np.abs(i[:, None] - i[None, :]))
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), cov)
    kernel = PeKernel(assumed, TrueModel(sig, GaussianNoise(np.zeros(k), cov)))
    peak = _traced_peak(lambda: empirical_pe(kernel, 0.0, 0.05, trials=trials, seed=0))
    chunk, block = mc._MC_CHUNK // k, mc._PE_BLOCK // k
    assert peak <= 8 * (2 * chunk * k + 4 * block * k + trials)


def test_empirical_pe_validation():
    assumed, truth = _linear_setup(k=4)
    with pytest.raises(ValueError, match="trials"):
        empirical_pe(PeKernel(assumed, truth), 0.0, 0.1, trials=0, seed=0)


def _estimate_per_trial(spec, x, prior):
    """estimate() with the closed-form weights rebuilt for every record."""
    if not isinstance(spec, LinearClosedForm):
        return estimate(spec, x, prior)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("observation contains non-finite values")
    h_mat = spec.model.signal.h_matrix
    w = spec.model.noise_cov.solve(h_mat.T)
    rhs = w @ (x - spec.model.noise_mean)
    return np.linalg.solve(w @ h_mat, np.atleast_1d(rhs))


def _run_mse_reference(plan):
    """The trial loop as first written: a fresh generator, signal and
    estimator set-up for every trial."""
    n_theta = plan.prior.n_theta
    errors = np.full((plan.trials, n_theta), np.nan)
    ok = np.zeros(plan.trials, dtype=bool)
    for i in range(plan.trials):
        rng = trial_generator(plan.seed, i)
        if plan.theta_true is not None:
            theta = plan.theta_true
        else:
            theta = plan.prior.sample(rng)
        clean = eval_signal(plan.truth.signal, theta)
        x = clean + plan.truth.noise.draw(rng)
        try:
            est = _estimate_per_trial(plan.estimator, x, plan.prior)
        except (ValueError, np.linalg.LinAlgError):
            continue
        errors[i] = est - theta
        ok[i] = True
    failures = int(plan.trials - np.count_nonzero(ok))
    kept = errors[ok]
    sq = kept * kept
    stderr = np.std(sq, axis=0, ddof=1) / np.sqrt(kept.shape[0])
    return np.mean(sq, axis=0), stderr, np.mean(kept, axis=0), failures


def _assert_matches_reference(plan):
    rep = run_mse(plan)
    mse, stderr, bias, failures = _run_mse_reference(plan)
    np.testing.assert_array_equal(rep.mse, mse)
    np.testing.assert_array_equal(rep.stderr, stderr)
    np.testing.assert_array_equal(rep.bias, bias)
    assert rep.failures == failures
    return rep


def _fixed_theta_plans():
    k = 9
    rng = np.random.default_rng(11)
    h = rng.uniform(0.5, 1.5, k)
    a = rng.standard_normal((k, k))
    covs = [
        ScaledIdentityCov(0.7, k),
        DiagonalCov(rng.uniform(0.2, 2.0, k)),
        DenseCov(a @ a.T / k + 0.5 * np.eye(k)),
    ]
    prior = uniform_interval(3.0)
    plans = []
    for j, cov in enumerate(covs):
        for sig in (LinearVectorMap(h), LinearMatrixMap(h[:, None])):
            assumed = AssumedModel(sig, np.zeros(k), cov)
            truth = TrueModel(sig, GaussianNoise(np.full(k, 0.1), cov))
            plans.append(
                TrialPlan(truth, LinearClosedForm(assumed), prior, 150, 20 + j, np.array([1.3]))
            )
    return plans


@pytest.mark.parametrize("index", range(6))
def test_run_mse_matches_reference_fixed_theta(index):
    _assert_matches_reference(_fixed_theta_plans()[index])


def test_run_mse_matches_reference_quasi_mle_grid_and_pulse():
    assumed, truth = _linear_setup(k=12, sigma2_true=1.5)
    _assert_matches_reference(
        TrialPlan(truth, QuasiMLE(assumed), uniform_interval(6.0), 60, seed=5)
    )
    k = 40
    cov = ScaledIdentityCov(0.3, k)
    zero = np.zeros(k)
    pulse = AmplitudePulseMap(7, k)
    prior = Prior((LatticeAxis(k, 0.0, 1.0), IntervalAxis(0.5, 1.5)))
    plan = TrialPlan(
        TrueModel(AmplitudePulseMap(9, k), GaussianNoise(zero, cov)),
        QuasiMLE(AssumedModel(pulse, zero, cov)),
        prior,
        120,
        seed=6,
    )
    _assert_matches_reference(plan)


def test_run_mse_matches_reference_median_mixture_and_flaky():
    scn = build_example3(0.7, k=41)
    _assert_matches_reference(
        TrialPlan(scn.truth, SampleMedian(), scn.prior, 100, 8, np.array([THETA_DC]))
    )
    zero = np.zeros(scn.k)
    per_vector = MixtureNoise(
        np.array([0.7, 0.3]),
        (
            GaussianNoise(zero, ScaledIdentityCov(1.0, scn.k)),
            GaussianNoise(zero, ScaledIdentityCov(625.0, scn.k)),
        ),
    )
    _assert_matches_reference(
        TrialPlan(
            TrueModel(scn.truth.signal, per_vector),
            LinearClosedForm(scn.assumed["mismatched"]),
            scn.prior,
            150,
            seed=9,
        )
    )
    k = 6
    sig = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(sig, np.zeros(k), ScaledIdentityCov(1.0, k))

    def sometimes_nan(rng):
        x = rng.standard_normal(k)
        if rng.random() < 0.5:
            x[0] = np.nan
        return x

    flaky = TrueModel(sig, EmpiricalNoise(sometimes_nan, k))
    rep = _assert_matches_reference(
        TrialPlan(flaky, LinearClosedForm(assumed), uniform_interval(5.0), 64, seed=2)
    )
    assert 0 < rep.failures < 64


def test_run_mse_specs_differing_only_in_covariance():
    # Each plan gets a new spec; a weight cache keyed by object identity could
    # hand the second plan the first plan's weights once the first spec is
    # collected and its id reused.
    k = 7
    h = np.linspace(0.5, 2.0, k)
    diags = [np.linspace(0.2, 3.0, k), np.linspace(3.0, 0.2, k)] * 3
    results = []
    for j, d in enumerate(diags):
        sig = LinearVectorMap(h)
        truth = TrueModel(sig, GaussianNoise(np.zeros(k), DiagonalCov(np.ones(k))))
        assumed = AssumedModel(sig, np.zeros(k), DiagonalCov(d))
        plan = TrialPlan(truth, LinearClosedForm(assumed), uniform_interval(2.0), 80, 31)
        results.append(_assert_matches_reference(plan).mse[0])
        del plan, assumed
    assert results[0] != results[1]
    assert results[0::2] == [results[0]] * 3
    assert results[1::2] == [results[1]] * 3


def test_run_mse_matches_reference_across_key_blocks():
    # More trials than one key block, with the parameter drawn per trial.
    assumed, truth = _linear_setup(k=3)
    plan = TrialPlan(truth, LinearClosedForm(assumed), uniform_interval(2.0), 2 * _KEY_BLOCK + 5, 12)
    _assert_matches_reference(plan)


def test_run_mse_calls_estimate_and_draw_once_per_trial(monkeypatch):
    import zzbound.montecarlo as mc

    calls = {"estimate": 0, "draw": 0}
    real_estimate, real_draw = mc.estimate, GaussianNoise.draw

    def counted_estimate(*args):
        calls["estimate"] += 1
        return real_estimate(*args)

    def counted_draw(self, *args, **kwargs):
        calls["draw"] += 1
        return real_draw(self, *args, **kwargs)

    monkeypatch.setattr(mc, "estimate", counted_estimate)
    monkeypatch.setattr(GaussianNoise, "draw", counted_draw)
    assumed, truth = _linear_setup(k=4)
    trials = _KEY_BLOCK + 3
    run_mse(TrialPlan(truth, LinearClosedForm(assumed), uniform_interval(1.0), trials, 5))
    assert calls == {"estimate": trials, "draw": trials}


def test_run_mse_zero_normal_tallies_singular_matrix():
    # An all-zero assumed map makes the scalar normal equation 0 * theta = 0.
    k = 4
    assumed = AssumedModel(LinearVectorMap(np.zeros(k)), np.zeros(k), ScaledIdentityCov(1.0, k))
    _, truth = _linear_setup(k=k)
    rep = run_mse(TrialPlan(truth, LinearClosedForm(assumed), uniform_interval(1.0), 20, 3))
    assert rep.failures == 20
    assert not rep.valid
    assert rep.failure_reasons == {"LinAlgError: Singular matrix": 20}


def test_run_mse_memory_stays_bounded_at_many_trials(monkeypatch):
    # Keys are derived one block at a time, here of 64 trials. The peak,
    # about 0.34 MB, is the reduction over the 80 kB per-trial error array;
    # deriving all 10,000 keys at once raises it to about 1.8 MB.
    import tracemalloc

    import zzbound.montecarlo as mc

    monkeypatch.setattr(mc, "_KEY_BLOCK", 64)
    assumed, truth = _linear_setup(k=4)
    plan = TrialPlan(
        truth, LinearClosedForm(assumed), uniform_interval(1.0), 10_000, 1, np.array([0.5])
    )
    tracemalloc.start()
    try:
        rep = run_mse(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.failures == 0
    assert peak < 1_000_000
