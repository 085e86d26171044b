"""Tests for the likelihood machinery and the three estimator kinds."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import zzbound.estimators as estimators
from zzbound.estimators import (
    LinearClosedForm,
    QuasiMLE,
    SampleMedian,
    estimate,
    log_likelihood,
    sample_median,
)
from zzbound.models import (
    AmplitudePulseMap,
    AssumedModel,
    DiagonalCov,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    LinearVectorMap,
    Prior,
    ScaledIdentityCov,
    eval_signal,
    uniform_interval,
)


def _scalar_model(k=2, h=None, diag=None):
    hvec = np.ones(k) if h is None else np.asarray(h, dtype=float)
    cov = ScaledIdentityCov(1.0, k) if diag is None else DiagonalCov(np.asarray(diag))
    return AssumedModel(LinearVectorMap(hvec), np.zeros(k), cov)


def test_log_likelihood_frozen_value():
    model = _scalar_model(k=2, diag=[1.0, 4.0])
    # Residual [2, 2]: -(4 / 1 + 4 / 4) / 2 = -2.5.
    assert log_likelihood(model, np.array([2.0, 2.0]), 0.0) == pytest.approx(-2.5)


def test_log_likelihood_peaks_at_zero_residual():
    model = _scalar_model(k=3, h=[1.0, 2.0, 3.0])
    x = eval_signal(model.signal, 1.7)
    assert log_likelihood(model, x, 1.7) == 0.0
    for other in (-1.0, 0.0, 1.6, 2.5):
        assert log_likelihood(model, x, other) < 0.0


def test_log_likelihood_checks_shape():
    model = _scalar_model(k=4)
    with pytest.raises(ValueError, match="expects"):
        log_likelihood(model, np.zeros(3), 0.0)


def test_sample_median_values():
    assert sample_median([3.0, 1.0, 2.0]) == 2.0
    assert sample_median([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert sample_median([5.0]) == 5.0
    with pytest.raises(ValueError, match="1-D"):
        sample_median(np.zeros((2, 2)))


def test_sample_median_breakdown_resistance():
    # 40 of 101 samples wildly corrupted: the median barely moves.
    rng = np.random.default_rng(7)
    x = 3.0 + rng.standard_normal(101)
    x[:40] += 1000.0
    assert abs(sample_median(x) - 3.0) < 1.0


def test_sample_median_asymptotic_variance():
    # Standard normal location: var(median) ~ pi / (2 K).
    k, reps = 101, 20000
    rng = np.random.default_rng(11)
    meds = np.median(rng.standard_normal((reps, k)), axis=1)
    assert float(np.var(meds)) == pytest.approx(math.pi / (2.0 * k), rel=0.05)


def test_linear_closed_form_scalar_oracle():
    k = 5
    h = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    diag = np.array([0.5, 1.0, 2.0, 0.25, 4.0])
    model = _scalar_model(k=k, h=h, diag=diag)
    rng = np.random.default_rng(3)
    x = 2.3 * h + rng.standard_normal(k)
    got = estimate(LinearClosedForm(model), x, uniform_interval(10.0))
    w = h / diag
    assert got.shape == (1,)
    assert got[0] == pytest.approx(float(w @ x) / float(w @ h), rel=1e-12)


def test_linear_closed_form_matrix_oracle():
    rng = np.random.default_rng(4)
    k, n = 8, 2
    h_mat = rng.standard_normal((k, n))
    diag = rng.uniform(0.5, 2.0, k)
    model = AssumedModel(LinearMatrixMap(h_mat), np.zeros(k), DiagonalCov(diag))
    theta = np.array([1.5, -0.7])
    x = h_mat @ theta + 0.01 * rng.standard_normal(k)
    got = estimate(LinearClosedForm(model), x, Prior((IntervalAxis(-5, 5), IntervalAxis(-5, 5))))
    w = h_mat.T / diag
    expected = np.linalg.solve(w @ h_mat, w @ x)
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(got, theta, atol=0.05)


def test_linear_closed_form_rejects_nonlinear_map():
    model = AssumedModel(
        AmplitudePulseMap(k=20, width=6), np.zeros(20), ScaledIdentityCov(1.0, 20)
    )
    with pytest.raises(ValueError, match="linear signal map"):
        estimate(LinearClosedForm(model), np.zeros(20), uniform_interval(1.0))


def test_quasi_mle_noiseless_recovery():
    model = _scalar_model(k=6, h=[1.0, 0.5, 2.0, 1.0, 1.0, 3.0])
    x = eval_signal(model.signal, 4.25)
    got = estimate(QuasiMLE(model), x, uniform_interval(10.0))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(4.25, abs=1e-7)


def test_quasi_mle_agrees_with_closed_form_inside_support():
    model = _scalar_model(k=10, h=np.linspace(0.5, 2.0, 10), diag=np.linspace(0.5, 1.5, 10))
    rng = np.random.default_rng(9)
    x = 3.0 * model.signal.hvec + 0.3 * rng.standard_normal(10)
    prior = uniform_interval(10.0)
    mle = estimate(QuasiMLE(model), x, prior)
    wls = estimate(LinearClosedForm(model), x, prior)
    assert mle[0] == pytest.approx(wls[0], abs=1e-6)


def test_quasi_mle_respects_prior_support():
    # The unconstrained optimum sits far above T; the search must stay inside.
    model = _scalar_model(k=4)
    x = np.full(4, 50.0)
    t = 5.0
    got = estimate(QuasiMLE(model), x, uniform_interval(t))
    assert got[0] == pytest.approx(t, abs=1e-9)


def test_quasi_mle_lattice_prior_exact_scan():
    model = _scalar_model(k=3)
    prior = Prior((LatticeAxis(11, 0.0, 0.5),))
    x = eval_signal(model.signal, 3.5) + np.array([0.05, -0.02, 0.01])
    got = estimate(QuasiMLE(model), x, prior)
    assert got[0] == 3.5  # exact lattice point, no refinement drift


def _pulse_setup(k=40, width=8, sigma2=0.2):
    model = AssumedModel(
        AmplitudePulseMap(k=k, width=width), np.zeros(k), ScaledIdentityCov(sigma2, k)
    )
    prior = Prior((LatticeAxis(k, 0.0, 1.0), IntervalAxis(0.5, 1.5)))
    return model, prior


def test_pulse_fast_path_is_mesh_optimal():
    # The correlation shortcut must dominate a dense brute-force likelihood
    # mesh, including positions whose template is clipped at the edges.
    model, prior = _pulse_setup()
    rng = np.random.default_rng(17)
    for tau_true in (0, 1, 13, 39):
        x = eval_signal(model.signal, np.array([float(tau_true), 1.2]))
        x = x + math.sqrt(0.2) * rng.standard_normal(model.k)
        got = estimate(QuasiMLE(model), x, prior)
        ll_got = log_likelihood(model, x, got)
        alphas = np.linspace(0.5, 1.5, 801)
        best_mesh = -np.inf
        for tau in range(model.k):
            for al in alphas:
                best_mesh = max(
                    best_mesh, log_likelihood(model, x, np.array([float(tau), al]))
                )
        assert ll_got >= best_mesh - 1e-9
        assert got[0] == float(int(got[0]))  # position stays on the lattice


def test_pulse_fast_path_clips_amplitude():
    model, prior = _pulse_setup()
    x = 5.0 * eval_signal(model.signal, np.array([20.0, 1.0]))
    got = estimate(QuasiMLE(model), x, prior)
    assert got[0] == 20.0
    assert got[1] == 1.5  # amplitude pinned at the prior ceiling


def test_pulse_fast_path_noiseless_recovery():
    model, prior = _pulse_setup()
    truth = np.array([7.0, 0.9])
    got = estimate(QuasiMLE(model), eval_signal(model.signal, truth), prior)
    assert_allclose(got, truth, atol=1e-12)


def test_estimate_validation():
    model = _scalar_model(k=4)
    prior = uniform_interval(1.0)
    with pytest.raises(ValueError, match="expects"):
        estimate(QuasiMLE(model), np.zeros(3), prior)
    with pytest.raises(ValueError, match="non-finite"):
        estimate(QuasiMLE(model), np.array([0.0, np.nan, 0.0, 0.0]), prior)
    with pytest.raises(ValueError, match="scalar parameter"):
        estimate(
            SampleMedian(),
            np.zeros(4),
            Prior((IntervalAxis(0, 1), IntervalAxis(0, 1))),
        )


def _scalar_closed_form(w, normal):
    """A one-sample closed-form spec whose normal equation is normal * theta = w."""
    spec = LinearClosedForm(_scalar_model(k=1))
    spec.__dict__["_weights"] = (np.array([[w]]), np.array([[normal]]))
    return spec


def _solve_outcome(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn()
        except np.linalg.LinAlgError as exc:
            return f"LinAlgError: {exc}"
    assert out.shape == (1,)
    return out[0].tobytes()


def test_linear_closed_form_scalar_division_matches_solve():
    # The 1x1 system is solved by one division; it must give solve's bits,
    # solve's failure, and no warning that solve would not give.
    x = np.array([1.0])
    specials = [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0,
        -3.0, 1e300, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
    ]
    rng = np.random.default_rng(3)
    sizes = 10.0 ** rng.uniform(-300, 300, (2, 2000)) * rng.choice([-1.0, 1.0], (2, 2000))
    pairs = [(w, n) for w in specials for n in specials] + list(zip(*sizes))
    for w, normal in pairs:
        spec = _scalar_closed_form(w, normal)
        weights, normal_eq = spec._weights
        got = _solve_outcome(lambda: estimators._linear_closed_form(spec, x))
        want = _solve_outcome(lambda: np.linalg.solve(normal_eq, weights @ x))
        assert got == want, (w, normal)
    assert _solve_outcome(
        lambda: estimators._linear_closed_form(_scalar_closed_form(1.0, 0.0), x)
    ) == "LinAlgError: Singular matrix"


def test_pulse_tables_shared_by_equal_priors(monkeypatch):
    # The table is keyed by value: equal maps and priors built separately
    # share one table, and a different lattice gets its own.
    templates = []
    real_template = estimators.pulse_template

    def counted_template(width):
        templates.append(width)
        return real_template(width)

    monkeypatch.setattr(estimators, "pulse_template", counted_template)
    estimators._pulse_table.cache_clear()
    x = np.random.default_rng(5).standard_normal(40)
    results = []
    for _ in range(3):
        model, prior = _pulse_setup()
        results.append(estimate(QuasiMLE(model), x, prior))
    assert templates == [8]
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])
    model, _ = _pulse_setup()
    estimate(QuasiMLE(model), x, Prior((LatticeAxis(30, 5.0, 1.0), IntervalAxis(0.5, 1.5))))
    assert templates == [8, 8]
    table = estimators._pulse_table(8, 40, 0.0, 40)
    assert all(not arr.flags.writeable for arr in table)
