"""Tests for the likelihood machinery and the three estimator kinds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import zzbound.estimators as estimators
from zzbound.estimators import (
    LinearClosedForm,
    QuasiMLE,
    SampleMedian,
    estimate,
    sample_median,
)
from zzbound.models import (
    AmplitudePulseMap,
    AssumedModel,
    DenseCov,
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


def _log_likelihood(model, x, theta):
    """The assumed-model log-likelihood at one theta: _loglik_on_grid's one-row case."""
    return float(estimators._loglik_on_grid(model, x, np.reshape(theta, (1, -1)))[0])


def test_log_likelihood_frozen_value():
    model = _scalar_model(k=2, diag=[1.0, 4.0])
    # Residual [2, 2]: -(4 / 1 + 4 / 4) / 2 = -2.5.
    assert _log_likelihood(model, np.array([2.0, 2.0]), 0.0) == pytest.approx(-2.5)


def test_log_likelihood_peaks_at_zero_residual():
    model = _scalar_model(k=3, h=[1.0, 2.0, 3.0])
    x = eval_signal(model.signal, 1.7)
    assert _log_likelihood(model, x, 1.7) == 0.0
    for other in (-1.0, 0.0, 1.6, 2.5):
        assert _log_likelihood(model, x, other) < 0.0


def test_sample_median_values():
    assert sample_median([3.0, 1.0, 2.0]) == 2.0
    assert sample_median([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert sample_median([5.0]) == 5.0
    with pytest.raises(ValueError, match="1-D"):
        sample_median(np.zeros((2, 2)))


def test_sample_median_keeps_nan_and_empty_rules():
    assert math.isnan(sample_median([1.0, math.nan, 3.0]))
    assert math.isnan(sample_median([math.nan]))
    with pytest.raises(ValueError, match="nonempty"):
        sample_median([])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0, -0.0, 0.0])
@example([1e308, 1e308])
@example([math.inf, -math.inf])
def test_sample_median_is_bitwise_np_median(values):
    # One partition and the middle values' mean, with np.median's own
    # partition indices and sum order: signed zeros, infinities, overflow
    # and NaN all come out as np.median's bits.
    x = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.median(x)
    assert np.float64(sample_median(x)).tobytes() == np.float64(expected).tobytes()


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
    assert got[0] == pytest.approx(float(w @ x) / float(w @ h), rel=1e-12, abs=0.0)


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
    x = 3.0 * model.signal.h_matrix[:, 0] + 0.3 * rng.standard_normal(10)
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


def _traced_estimate(model, x, prior):
    """The estimate and the peak bytes tracemalloc saw while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        got = estimate(QuasiMLE(model), x, prior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


def test_quasi_mle_keeps_a_bounded_working_set():
    # The 512 x 512 grid is scored 2^14 points at a time, each piece's
    # maximum merged into a running one, so the peak (1.4 MiB) is one piece
    # of points and scores and a block of residuals: not a whole grid row of
    # scores (4 MiB), nor 2^18 residuals of length k (about 810 MiB here).
    k = 200
    rng = np.random.default_rng(200)
    h = rng.standard_normal((k, 2))
    model = AssumedModel(LinearMatrixMap(h), np.zeros(k), ScaledIdentityCov(1.0, k))
    prior = Prior((IntervalAxis(0.0, 5.0), IntervalAxis(0.0, 5.0)))
    x = h @ np.array([1.3, 3.7]) + rng.standard_normal(k)
    got, peak = _traced_estimate(model, x, prior)
    assert peak <= 2 * 2**20
    assert_allclose(got, [1.3, 3.7], atol=0.2)


def test_quasi_mle_three_axis_grid_is_scored_in_pieces(monkeypatch):
    # 128^3 grid points in one search: held as one row, their scores and
    # indices took 32 MiB; merged piece by piece the peak is 1.6 MiB.
    monkeypatch.setattr(estimators, "_GRID_POINTS", 128)
    k = 10
    rng = np.random.default_rng(3)
    h = rng.standard_normal((k, 3))
    model = AssumedModel(LinearMatrixMap(h), np.zeros(k), ScaledIdentityCov(1.0, k))
    prior = Prior((IntervalAxis(0.0, 5.0), IntervalAxis(-1.0, 1.0), IntervalAxis(0.0, 2.0)))
    x = h @ np.array([1.3, 0.2, 1.1]) + 0.1 * rng.standard_normal(k)
    got, peak = _traced_estimate(model, x, prior)
    assert peak <= 4 * 2**20
    assert_allclose(got, [1.3, 0.2, 1.1], atol=0.2)


def _scan_block_cases():
    lattice = Prior((LatticeAxis(9, -2.0, 0.5), IntervalAxis(0.0, 5.0)))
    both = Prior((IntervalAxis(0.0, 5.0), IntervalAxis(-1.0, 1.0)))
    cases = []
    for k in (300, 50, 7):
        rng = np.random.default_rng(k)
        diag = DiagonalCov(rng.uniform(0.5, 2.0, k))
        one = AssumedModel(LinearMatrixMap(rng.standard_normal((k, 1))), np.zeros(k), diag)
        two = AssumedModel(LinearMatrixMap(rng.standard_normal((k, 2))), np.zeros(k), diag)
        cases.append(pytest.param(one, uniform_interval(2.5), [0.4], 3, id=f"interval-{k}"))
        cases.append(pytest.param(two, lattice, [-0.5, 1.8], 3, id=f"lattice_x_interval-{k}"))
    # The full 512 x 512 grid, split across blocks and within its one row;
    # at one row per block it takes seconds, so one record.
    cases.append(pytest.param(two, both, [1.7, 0.2], 1, id="interval_x_interval-7"))
    # Off the pulse fast path: a coloured diagonal, and an interval delay
    # axis (its amplitudes on a lattice, so the grid is 512 x 5).
    pulse = AssumedModel(
        AmplitudePulseMap(k=6, width=4), np.zeros(6), DiagonalCov(np.linspace(0.5, 1.0, 6))
    )
    pulse_prior = Prior((LatticeAxis(6, 0.0, 1.0), IntervalAxis(0.5, 1.5)))
    cases.append(pytest.param(pulse, pulse_prior, [2.0, 1.1], 3, id="pulse_coloured-6"))
    white = AssumedModel(AmplitudePulseMap(k=6, width=4), np.zeros(6), ScaledIdentityCov(0.5, 6))
    delay_prior = Prior((IntervalAxis(0.0, 5.0), LatticeAxis(5, 0.5, 0.25)))
    cases.append(pytest.param(white, delay_prior, [2.3, 1.0], 3, id="pulse_interval_delay-6"))
    # A dense covariance scores a block by cho_solve, whose rows do not
    # depend on the block's row count (one solve_triangular's would).
    for k in (6, 50):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, k))
        dense = DenseCov(a @ a.T / k + np.eye(k))
        two = AssumedModel(LinearMatrixMap(rng.standard_normal((k, 2))), np.zeros(k), dense)
        cases.append(pytest.param(two, lattice, [-0.5, 1.8], 2, id=f"dense_lattice_x_interval-{k}"))
    return cases


@pytest.mark.parametrize("model, prior, theta, records", _scan_block_cases())
def test_quasi_mle_is_bitwise_independent_of_the_scan_block(
    monkeypatch, model, prior, theta, records
):
    # Grid scores are computed row by row from the same operands at any
    # block size, so the first maximum, its polish and the estimate are the
    # same bits whether a block holds the whole grid or a single row.
    import zzbound.zzb as zzb

    rng = np.random.default_rng(11)
    signal = eval_signal(model.signal, np.array(theta))
    xs = [signal + rng.standard_normal(model.k) for _ in range(records)]
    got = {}
    for block in (1 << 14, 1 << 9, 1 << 5, 7):
        monkeypatch.setattr(zzb, "_SCAN_BLOCK", block)
        got[block] = [estimate(QuasiMLE(model), x, prior) for x in xs]
    for block in got:
        for a, b in zip(got[block], got[1 << 14]):
            assert_array_equal(a, b)


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
    # A diagonal with one value is the same white covariance: same path, same bits.
    diagonal = AssumedModel(model.signal, model.noise_mean, DiagonalCov(np.full(model.k, 0.2)))
    rng = np.random.default_rng(17)
    for tau_true in (0, 1, 13, 39):
        x = eval_signal(model.signal, np.array([float(tau_true), 1.2]))
        x = x + math.sqrt(0.2) * rng.standard_normal(model.k)
        got = estimate(QuasiMLE(model), x, prior)
        assert_array_equal(estimate(QuasiMLE(diagonal), x, prior), got)
        ll_got = _log_likelihood(model, x, got)
        # The whole 40 x 801 mesh in one blocked call; _log_likelihood is its
        # one-row case, so each mesh value has that call's bits.
        taus, alphas = np.meshgrid(
            np.arange(model.k, dtype=float), np.linspace(0.5, 1.5, 801), indexing="ij"
        )
        mesh = np.column_stack((taus.ravel(), alphas.ravel()))
        best_mesh = float(np.max(estimators._loglik_on_grid(model, x, mesh)))
        assert ll_got >= best_mesh - 1e-9
        assert got[0] == float(int(got[0]))  # position stays on the lattice


@pytest.mark.parametrize("width", [4, 5])
def test_pulse_signal_rows_are_eval_signal_bits(width):
    # The blocked likelihood evaluates whole batches of pulse rows at once;
    # each row must be the single-theta bits, at clipped, half-integer and
    # end positions, and signed zeros included.
    sig = AmplitudePulseMap(width=width, k=12)
    taus = [0.0, 0.5, 1.0, 2.5, 5.25, 6.0, 10.5, 11.0, 11.999]
    th = np.array([(tau, alpha) for tau in taus for alpha in (1.0, -0.7, 1.3)])
    want = np.array([eval_signal(sig, row) for row in th])
    assert eval_signal(sig, th).tobytes() == want.tobytes()
    assert eval_signal(sig, th[5:6]).tobytes() == want[5:6].tobytes()


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_linear_signal_rows_are_eval_signal_bits(cols):
    # A linear row is summed column by column, so a batch is the stacked
    # single-theta bits. (A matrix product rounds a one-row batch otherwise.)
    # One column is the product h * theta, as H @ theta gives it, with +0.0
    # where a zero has a negative factor.
    rng = np.random.default_rng(cols)
    h = rng.standard_normal((30, cols))
    h[::7] = 0.0
    th = rng.uniform(-3.0, 3.0, (40, cols))
    th[::9] = 0.0
    sig = LinearMatrixMap(h)
    want = np.array([eval_signal(sig, row) for row in th])
    assert eval_signal(sig, th).tobytes() == want.tobytes()
    if cols == 1:
        assert want.tobytes() == np.array([h @ row for row in th]).tobytes()


def _pulse_off_fast_path_cases():
    k = 5
    white = ScaledIdentityCov(0.5, k)
    coloured = DiagonalCov(np.linspace(0.5, 1.0, k))
    a = np.random.default_rng(k).standard_normal((k, k))
    dense = DenseCov(a @ a.T / k + np.eye(k))
    delay = Prior((IntervalAxis(0.0, 4.0), IntervalAxis(0.5, 1.5)))
    inner = Prior((IntervalAxis(0.3, 3.5), IntervalAxis(-1.0, 2.0)))
    half = Prior((LatticeAxis(9, 0.0, 0.5), IntervalAxis(0.5, 1.5)))
    return [
        pytest.param(white, 3, delay, id="white-interval_delay"),
        pytest.param(white, 5, inner, id="white-inner_delay"),
        pytest.param(coloured, 4, delay, id="coloured-interval_delay"),
        pytest.param(dense, 2, delay, id="dense-interval_delay"),
        pytest.param(coloured, 3, half, id="coloured-half_step_lattice"),
    ]


def _axis_mesh(ax):
    if isinstance(ax, IntervalAxis):
        return np.linspace(ax.lo, ax.hi, 65)
    return ax.start + ax.step * np.arange(ax.count)


@pytest.mark.parametrize("cov, width, prior", _pulse_off_fast_path_cases())
def test_pulse_off_the_fast_path_is_mesh_optimal(cov, width, prior):
    # Off the fast path the pulse grid is scored in row blocks; each estimate
    # must reach the best of a brute-force mesh scored one row at a time.
    model = AssumedModel(AmplitudePulseMap(width=width, k=cov.dim), np.zeros(cov.dim), cov)
    rng = np.random.default_rng(width)
    meshes = [_axis_mesh(ax) for ax in prior.axes]
    for _ in range(2):
        theta = prior.sample(rng)
        x = eval_signal(model.signal, theta) + 0.7 * rng.standard_normal(model.k)
        got = estimate(QuasiMLE(model), x, prior)
        best_mesh = max(
            _log_likelihood(model, x, np.array([tau, al])) for tau in meshes[0] for al in meshes[1]
        )
        assert _log_likelihood(model, x, got) >= best_mesh - 1e-9


def test_quasi_mle_pulse_on_an_interval_delay_axis_takes_milliseconds():
    # A pulse delay axis on an interval leaves the fast path for the
    # 512 x 512 grid. Scored one row at a time this estimate took 4.5 s; in
    # row blocks it takes about 0.05 s (2 vCPUs).
    import time

    k = 5
    model = AssumedModel(AmplitudePulseMap(width=3, k=k), np.zeros(k), ScaledIdentityCov(0.5, k))
    prior = Prior((IntervalAxis(0.0, 4.0), IntervalAxis(0.5, 1.5)))
    x = eval_signal(model.signal, [2.3, 1.1]) + np.array([0.3, -0.2, 0.1, 0.4, -0.5])
    start = time.perf_counter()
    got = estimate(QuasiMLE(model), x, prior)
    assert time.perf_counter() - start <= 0.5
    assert 0.0 <= got[0] <= 4.0 and 0.5 <= got[1] <= 1.5


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
    with pytest.raises(ValueError, match=r"x has shape \(3,\), model expects \(4,\)"):
        estimate(LinearClosedForm(model), np.zeros(3), prior)
    with pytest.raises(ValueError, match="unknown estimator spec object"):
        estimate(object(), np.zeros(4), prior)
    with pytest.raises(ValueError, match="scalar parameter"):
        estimate(
            SampleMedian(),
            np.zeros(4),
            Prior((IntervalAxis(0, 1), IntervalAxis(0, 1))),
        )
    # A delay grid that reaches past the record fails as eval_signal does.
    pulse = AssumedModel(AmplitudePulseMap(width=3, k=5), np.zeros(5), ScaledIdentityCov(1.0, 5))
    past = Prior((IntervalAxis(0.0, 5.0), IntervalAxis(0.5, 1.5)))
    with pytest.raises(ValueError, match=r"0 <= tau < 5, got 5.0$"):
        estimate(QuasiMLE(pulse), np.zeros(5), past)


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
