"""Tests for the scalar and vector bound evaluators and scenario constants."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zzbound import experiments, pe_kernel, zzb
from zzbound.estimators import LinearClosedForm
from zzbound.experiments import matched_mixture_pe
from zzbound.models import (
    AmplitudePulseMap,
    AssumedModel,
    DenseCov,
    DiagonalCov,
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
    uniform_interval,
)
from zzbound.montecarlo import TrialPlan, run_mse
from zzbound.pe_kernel import EqualLinearScalarPe, PeKernel, linear_scalar_profile
from zzbound.special_math import q_function
from zzbound.zzb import (
    DeltaSearch,
    MethodError,
    QuadratureRule,
    ScalarBoundSpec,
    VectorBoundSpec,
    _adaptive_1d,
    _odd,
    _simpson_last,
    bound,
    lattice_staircase_sum,
    overlap_rows,
    zzb_closed_form_q_linear,
    zzb_scalar_general,
    zzb_scalar_independent,
    zzb_scalar_symmetric,
    zzb_vector,
)

# Closed-form values on the (gamma, T) grid, frozen from an independent
# high-precision evaluation of the three-term expression.
CLOSED_FORM_ORACLE = {
    (0.1, 1.0): 8.001102889632e-02,
    (0.1, 10.0): 5.213875734813e00,
    (0.1, 100.0): 2.234038479732e01,
    (1.0, 1.0): 5.213875734813e-02,
    (1.0, 10.0): 2.234038479732e-01,
    (1.0, 100.0): 2.473403847973e-01,
    (10.0, 1.0): 2.234038479732e-03,
    (10.0, 10.0): 2.473403847973e-03,
    (10.0, 100.0): 2.497340384797e-03,
}


def test_closed_form_frozen_grid():
    for (gamma, t), expected in CLOSED_FORM_ORACLE.items():
        assert zzb_closed_form_q_linear(gamma, t) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_closed_form_small_t_limit():
    # As T gamma -> 0 the bound collapses to the prior variance T^2 / 12.
    value = zzb_closed_form_q_linear(1.0, 1e-3)
    assert value == pytest.approx(8.330008814551621e-08, rel=1e-9, abs=0.0)
    assert value == pytest.approx(1e-6 / 12.0, rel=5e-4)


def test_closed_form_asymptote_gap_law():
    # For T gamma >= 50 the relative distance to 1 / (4 gamma^2) is exactly
    # 8 / (3 sqrt(2 pi) T gamma) at double precision (the remaining terms of
    # the expansion underflow).
    for gamma, t in [(1.0, 50.0), (1.0, 100.0), (0.5, 2000.0), (2.0, 500.0), (1.0, 1e6)]:
        asym = 1.0 / (4.0 * gamma * gamma)
        rel_gap = (asym - zzb_closed_form_q_linear(gamma, t)) / asym
        predicted = 8.0 / (3.0 * math.sqrt(2.0 * math.pi) * t * gamma)
        assert rel_gap == pytest.approx(predicted, rel=1e-9, abs=0.0)
    assert 8.0 / (3.0 * math.sqrt(2.0 * math.pi) * 50.0) == pytest.approx(
        2.127692e-02, rel=1e-6
    )


def test_closed_form_scaling_invariance():
    # ZZB(c gamma, T / c) = ZZB(gamma, T) / c^2.
    for gamma, t in ((0.7, 13.0), (3.0, 4.0)):
        base = zzb_closed_form_q_linear(gamma, t)
        assert zzb_closed_form_q_linear(2.0 * gamma, t / 2.0) == pytest.approx(
            base / 4.0, rel=1e-13, abs=0.0
        )
        assert zzb_closed_form_q_linear(10.0 * gamma, t / 10.0) == pytest.approx(
            base / 100.0, rel=1e-12, abs=0.0
        )


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        zzb_closed_form_q_linear(0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        zzb_closed_form_q_linear(1.0, -2.0)


def test_closed_form_matches_quadrature():
    rule = QuadratureRule(points=4097, rel_tol=1e-9, max_doublings=6)
    for gamma, t in ((0.1, 10.0), (1.0, 10.0), (5.0, 3.0)):
        spec = ScalarBoundSpec(
            uniform_interval(t), lambda h, g=gamma: q_function(g * h), rule
        )
        result = zzb_scalar_independent(spec)
        assert result.converged
        assert result.form == "independent"
        assert result.value == pytest.approx(
            zzb_closed_form_q_linear(gamma, t), rel=1e-8
        )


def test_quadrature_rule_rejects_a_nan_tolerance():
    # NaN passes a plain <= 0 test; the bound then never converged.
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        QuadratureRule(rel_tol=math.nan)


@pytest.mark.parametrize("rel_tol", [math.inf, 1.0, 0.0, -1e-5])
def test_quadrature_rule_rejects_a_tolerance_outside_zero_one(rel_tol):
    # A tolerance of 1 or more accepted any two successive values, so the
    # bound reported convergence after one doubling.
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        QuadratureRule(rel_tol=rel_tol)
    assert QuadratureRule(rel_tol=0.5).rel_tol == 0.5


def test_delta_search_rejects_a_negative_lattice_window():
    # A negative window once left no candidates and divided by zero in the scan.
    with pytest.raises(ValueError, match="lattice_window"):
        DeltaSearch(lattice_window=-1)
    prior = Prior((IntervalAxis(0.0, 2.0), LatticeAxis(5, 0.0, 1.0)))
    pe = _times_overlap(prior, lambda rows: q_function(np.abs(rows[:, 0])))
    assert zzb_vector(VectorBoundSpec(0, prior, pe, DeltaSearch(lattice_window=0))).value > 0.0


def test_quadrature_constant_pe_limits():
    # Pe = 1/2 (pure guessing) gives the uniform-prior variance T^2 / 12;
    # Pe = 0 gives zero.
    t = 7.0
    spec_half = ScalarBoundSpec(uniform_interval(t), lambda h: np.full(np.shape(h), 0.5))
    assert zzb_scalar_independent(spec_half).value == pytest.approx(
        t * t / 12.0, rel=1e-10, abs=0.0
    )
    spec_zero = ScalarBoundSpec(uniform_interval(t), lambda h: np.zeros(np.shape(h)))
    assert zzb_scalar_independent(spec_zero).value == 0.0


def _equal_map_profiles(rng, n):
    """Random equal-map profiles (cross = 0): one or two truth components
    with mean offsets and unequal spreads."""
    for _ in range(n):
        c = int(rng.integers(1, 3))
        w = rng.uniform(0.1, 1.0, c)
        yield EqualLinearScalarPe(
            float(rng.uniform(0.2, 4.0)),
            0.0,
            rng.uniform(-1.0, 1.0, c),
            rng.uniform(0.2, 8.0, c),
            w / w.sum(),
        )


def test_general_form_reduces_to_independent():
    # With equal maps the error probability is free of the location, so
    # P(h) = (T - h) pe(h) and the two routes integrate the same function.
    rng = np.random.default_rng(21)
    for profile in _equal_map_profiles(rng, 6):
        t = float(rng.uniform(1.0, 15.0))
        prior = uniform_interval(t)
        independent = zzb_scalar_independent(ScalarBoundSpec(prior, partial(profile.pe, 0.0)))
        general = zzb_scalar_general(
            ScalarBoundSpec(prior, partial(profile.location_integral, lo=0.0, hi=t))
        )
        assert general.form == "general"
        assert general.value == pytest.approx(independent.value, rel=1e-12, abs=0.0)


def test_symmetric_split_even_profile_matches_independent():
    gamma, t = 1.3, 6.0
    prior = uniform_interval(t)
    even = zzb_scalar_symmetric(
        ScalarBoundSpec(prior, lambda h: q_function(gamma * np.abs(h)))
    )
    ind = zzb_scalar_independent(ScalarBoundSpec(prior, lambda h: q_function(gamma * h)))
    assert even.form == "symmetric_split"
    assert even.value == pytest.approx(ind.value, rel=1e-10, abs=0.0)


def test_symmetric_split_mirror_bitwise():
    # Flipping the sign of the asymmetric part swaps the two half-integrals,
    # so the value must be bit-identical.
    t = 10.0
    prior = uniform_interval(t)

    def branch(lin):
        def g(h):
            h = np.asarray(h, dtype=float)
            z = 0.5 * h * h + lin * h
            with np.errstate(divide="ignore", invalid="ignore"):
                arg = np.where(h == 0.0, 0.0, z / np.abs(h))
            return np.where(h == 0.0, 0.5, q_function(arg))

        return g

    plus = zzb_scalar_symmetric(ScalarBoundSpec(prior, branch(2.0)))
    minus = zzb_scalar_symmetric(ScalarBoundSpec(prior, branch(-2.0)))
    assert plus.value == minus.value


def _adaptive_1d_full_grid(f, lo, hi, rule):
    """The driver without nested reuse: every level evaluates its whole grid."""
    n = _odd(rule.points)
    x = np.linspace(lo, hi, n)
    prev = float(_simpson_last(np.asarray(f(x), dtype=float), (hi - lo) / (n - 1)))
    for _ in range(rule.max_doublings):
        n = 2 * n - 1
        x = np.linspace(lo, hi, n)
        cur = float(_simpson_last(np.asarray(f(x), dtype=float), (hi - lo) / (n - 1)))
        if abs(cur - prev) <= rule.rel_tol * max(abs(cur), 1e-300):
            return cur, True
        prev = cur
    return prev, False


def test_linspace_grids_are_nested_bitwise():
    for lo, hi, n in ((0.0, 6.0, 4097), (0.0, 1e3 / 7.0, 513), (-3.7, 2.9, 9), (0.0, 0.1, 33)):
        np.testing.assert_array_equal(np.linspace(lo, hi, 2 * n - 1)[::2], np.linspace(lo, hi, n))


@pytest.mark.parametrize(
    "rule, converged, nodes",
    [
        (QuadratureRule(), True, 8193),  # settles after one doubling
        (QuadratureRule(points=5, rel_tol=1e-15, max_doublings=3), False, 33),
        (QuadratureRule(points=7, max_doublings=0), False, 7),
    ],
)
def test_adaptive_1d_nested_reuse_matches_full_grid(rule, converged, nodes):
    t = 6.0

    def f(h):
        return h * (t - h) * q_function(1.3 * h) * (1.0 + 0.5 * np.sin(40.0 * h))

    sizes = []

    def counted(h):
        sizes.append(h.size)
        return f(h)

    got = _adaptive_1d(counted, 0.0, t, rule)
    assert got == _adaptive_1d_full_grid(f, 0.0, t, rule)
    assert got[1] is converged
    assert sum(sizes) == nodes


def test_example3_matched_bound_evaluates_each_node_once(monkeypatch):
    offsets = []

    def counting_factory(*args):
        pe = matched_mixture_pe(*args)

        def counted(h):
            offsets.append(np.size(h))
            return pe(h)

        return counted

    monkeypatch.setattr(experiments, "matched_mixture_pe", counting_factory)
    got = experiments.example3_matched_bound(experiments.build_example3(0.7))
    assert got.converged
    assert sum(offsets) == 8193


def test_general_passes_absolute_locations():
    # Shifting the prior interval by 2 moves every Q argument by 2 cross, as
    # a mean offset of lin + 2 cross on the unshifted interval does.
    def general(lin, var, weights, lo, hi):
        profile = EqualLinearScalarPe(0.8, 0.3, np.array(lin), np.array(var), np.array(weights))
        spec = ScalarBoundSpec(
            Prior((IntervalAxis(lo, hi),)), partial(profile.location_integral, lo=lo, hi=hi)
        )
        return zzb_scalar_general(spec)

    for lin, var, weights in (([0.1], [1.2], [1.0]), ([0.1, -0.4], [1.2, 6.0], [0.7, 0.3])):
        shifted = general(lin, var, weights, 2.0, 6.0)
        at_zero = general(np.array(lin) + 2.0 * 0.3, var, weights, 0.0, 4.0)
        assert shifted.converged and at_zero.converged
        assert shifted.value == pytest.approx(at_zero.value, rel=1e-12, abs=0.0)


def test_scalar_bounds_reject_vector_priors():
    prior = Prior((IntervalAxis(0.0, 1.0), IntervalAxis(0.0, 1.0)))
    with pytest.raises(ValueError, match="one-axis"):
        zzb_scalar_independent(ScalarBoundSpec(prior, lambda h: h))


# ---------------------------------------------------------------------------
# Scenario constants and the scalar bound router
# ---------------------------------------------------------------------------


def _linear_models(k, h, cov_assumed, noise):
    sig = LinearVectorMap(np.asarray(h, dtype=float))
    assumed = AssumedModel(sig, np.zeros(k), cov_assumed)
    return assumed, TrueModel(sig, noise)


def _slope(assumed, truth):
    """The scenario's q-linear slope, EqualLinearScalarPe.gamma."""
    return linear_scalar_profile(PeKernel(assumed, truth)).gamma


def _matched_gamma(truth):
    """Slope of the model that assumes the Gaussian truth itself."""
    noise = truth.noise
    return _slope(AssumedModel(truth.signal, noise.mean, noise.cov), truth)


def test_gamma_matched_oracle():
    k = 6
    h = np.arange(1.0, k + 1.0)
    diag = np.linspace(0.5, 3.0, k)
    assumed, truth = _linear_models(
        k, h, ScaledIdentityCov(1.0, k), GaussianNoise(np.zeros(k), DiagonalCov(diag))
    )
    expected = 0.5 * math.sqrt(float(h @ (h / diag)))
    assert _matched_gamma(truth) == pytest.approx(
        expected, rel=1e-13, abs=0.0
    )


def test_gamma_mismatch_longhand():
    rng = np.random.default_rng(31)
    k = 5
    h = rng.standard_normal(k)
    a = rng.standard_normal((k, k))
    sigma = a @ a.T + k * np.eye(k)
    b = rng.standard_normal((k, k))
    sigma_true = b @ b.T + k * np.eye(k)
    assumed, truth = _linear_models(
        k, h, DenseCov(sigma), GaussianNoise(np.zeros(k), DenseCov(sigma_true))
    )
    inv = np.linalg.inv(sigma)
    a_val = h @ inv @ h
    b_val = h @ inv @ sigma_true @ inv @ h
    assert _slope(assumed, truth) == pytest.approx(
        0.5 * a_val / math.sqrt(b_val), rel=1e-10, abs=0.0
    )


def test_gamma_mismatch_equal_cov_equals_matched_bitwise():
    k = 4
    h = np.array([1.0, 2.0, 3.0, 4.0])
    diag = np.array([0.3, 0.7, 1.1, 1.9])
    assumed, truth = _linear_models(
        k, h, DiagonalCov(diag), GaussianNoise(np.zeros(k), DiagonalCov(diag.copy()))
    )
    mm = _slope(assumed, truth)
    matched = _matched_gamma(truth)
    assert mm == matched  # bitwise, not approximately


def _covariance_zoo():
    k = 4
    d = np.array([0.3, 0.7, 1.1, 1.9])
    m = np.diag(d) + 0.1 * (np.ones((k, k)) - np.eye(k))
    return [
        ScaledIdentityCov(0.5, k),
        ScaledIdentityCov(0.5, k),
        ScaledIdentityCov(0.7, k),
        ScaledIdentityCov(0.5, 3),
        DiagonalCov(np.full(k, 0.5)),
        DiagonalCov(d),
        DiagonalCov(d.copy()),
        DiagonalCov(d[::-1]),
        DenseCov(np.diag(d)),
        DenseCov(0.5 * np.eye(k)),
        DenseCov(m),
        DenseCov(m.copy()),
    ]


def test_same_covariance_matches_dense_comparison():
    covs = _covariance_zoo()
    seen = set()
    for a in covs:
        for b in covs:
            want = np.array_equal(a.dense(), b.dense())
            assert pe_kernel._same_covariance(a, b) == want, (a, b)
            seen.add((type(a) is type(b), want))
    # Same-type and cross-type pairs, both equal and unequal by value.
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_same_covariance_builds_no_dense_matrix_for_diagonal_kinds(monkeypatch):
    def refuse(self):
        raise AssertionError("dense() called on a diagonal covariance")

    diagonal = [c for c in _covariance_zoo() if not isinstance(c, DenseCov)]
    pairs = [(a, b) for a in diagonal for b in diagonal]
    expected = [np.array_equal(a.dense(), b.dense()) for a, b in pairs]
    monkeypatch.setattr(DiagonalCov, "dense", refuse)
    assert [pe_kernel._same_covariance(a, b) for a, b in pairs] == expected
    # The pulse profile, its one caller, compares the two diagonals as
    # vectors too: it accepts an equal one and refuses a different one.
    k = 8
    prior = Prior((LatticeAxis(k), IntervalAxis(0.5, 1.5)))
    assumed = AssumedModel(AmplitudePulseMap(3, k), np.zeros(k), ScaledIdentityCov(0.1, k))
    for diag, same in ((np.full(k, 0.1), True), (np.full(k, 0.2), False), (np.linspace(0.1, 0.2, k), False)):
        truth = TrueModel(AmplitudePulseMap(4, k), GaussianNoise(np.zeros(k), DiagonalCov(diag)))
        if same:
            g = pe_kernel.pulse_profile(PeKernel(assumed, truth), prior)
            assert np.all(g(np.array([[1.0, 0.1], [2.0, -0.2]])) > 0.0)
        else:
            with pytest.raises(ValueError, match="assumed white covariance"):
                pe_kernel.pulse_profile(PeKernel(assumed, truth), prior)


def test_gamma_isotropic_mismatch_equals_matched():
    # Assumed white, truth white with a different level: the slopes agree and
    # the asymptote is the true per-sample variance over K.
    k, sigma2, extra = 100, 0.5, 1.7
    h = np.ones(k)
    assumed, truth = _linear_models(
        k,
        h,
        ScaledIdentityCov(sigma2, k),
        GaussianNoise(np.zeros(k), ScaledIdentityCov(sigma2 + extra, k)),
    )
    gamma = _slope(assumed, truth)
    assert 1.0 / (4.0 * gamma * gamma) == pytest.approx((sigma2 + extra) / k, rel=1e-12, abs=0.0)


def test_gamma_mixture_pooling_and_extremes():
    # The per-sample mixture's error probability is the pooled Q(gamma |h|);
    # a per-vector mixture of unequal variances has no single slope.
    k = 50
    h = np.ones(k)
    v1, v2 = 1.0, 625.0
    assumed, _ = _linear_models(
        k, h, ScaledIdentityCov(1.0, k), GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k))
    )
    for w1 in (0.0, 0.25, 0.9, 1.0):
        noise = PerSampleMixtureNoise(np.array([w1, 1.0 - w1]), np.sqrt([v1, v2]), k)
        gamma = _slope(assumed, TrueModel(assumed.signal, noise))
        pooled = w1 * v1 + (1.0 - w1) * v2
        assert gamma == pytest.approx(0.5 * math.sqrt(k / pooled), rel=1e-13, abs=0.0)
    per_vector = MixtureNoise(
        np.array([0.25, 0.75]),
        (
            GaussianNoise(np.zeros(k), ScaledIdentityCov(v1, k)),
            GaussianNoise(np.zeros(k), ScaledIdentityCov(v2, k)),
        ),
    )
    with pytest.raises(ValueError, match="equal component variances"):
        _slope(assumed, TrueModel(assumed.signal, per_vector))


def test_gamma_case_validation():
    k = 3
    h = np.ones(k)
    noise = GaussianNoise(np.zeros(k), ScaledIdentityCov(1.0, k))
    assumed, _ = _linear_models(k, h, ScaledIdentityCov(1.0, k), noise)
    biased = TrueModel(
        assumed.signal, GaussianNoise(np.full(k, 1.0), ScaledIdentityCov(1.0, k))
    )
    with pytest.raises(ValueError, match="equal noise means"):
        _slope(assumed, biased)
    with pytest.raises(ValueError, match="identical scalar maps"):
        _slope(assumed, TrueModel(LinearVectorMap(2.0 * h), noise))


def _router_models(truth_hvec=None, mean=0.0, noise=None):
    k = 4
    assumed = AssumedModel(LinearVectorMap(np.ones(k)), np.zeros(k), ScaledIdentityCov(0.5, k))
    signal = assumed.signal if truth_hvec is None else LinearVectorMap(np.array(truth_hvec))
    if noise is None:
        noise = GaussianNoise(np.full(k, mean), DiagonalCov(np.array([0.5, 0.6, 0.7, 0.8])))
    return assumed, TrueModel(signal, noise)


def _two_component_mixture(k=4, mean=0.0, wide=5.0):
    return MixtureNoise(
        np.array([0.9, 0.1]),
        (
            GaussianNoise(np.full(k, mean), ScaledIdentityCov(0.5, k)),
            GaussianNoise(np.full(k, mean), ScaledIdentityCov(wide, k)),
        ),
    )


def _per_sample_mixture(k=4):
    return PerSampleMixtureNoise(np.array([0.9, 0.1]), np.sqrt([0.5, 5.0]), k)


@pytest.mark.parametrize(
    "models, method, form",
    [
        (_router_models(), "auto", "closed_form_q_linear"),
        (_router_models(), "closed_form", "closed_form_q_linear"),
        (_router_models(), "quadrature", "symmetric_split"),
        (_router_models(mean=0.3), "auto", "symmetric_split"),
        (_router_models(noise=_per_sample_mixture()), "auto", "closed_form_q_linear"),
        (_router_models(noise=_two_component_mixture()), "quadrature", "independent"),
        (_router_models(noise=_two_component_mixture(mean=0.3)), "auto", "independent"),
        (_router_models([1.2, 1.0, 0.8, 1.1]), "auto", "general"),
        (_router_models([1.2, 1.0, 0.8, 1.1], noise=_two_component_mixture()), "auto", "general"),
        (_router_models(noise=_two_component_mixture()), "auto", "independent"),
        (_router_models(noise=_two_component_mixture(wide=0.5)), "auto", "closed_form_q_linear"),
        (_router_models(noise=_per_sample_mixture()), "quadrature", "symmetric_split"),
    ],
)
def test_router_routes(models, method, form):
    got = bound(*models, uniform_interval(10.0), method)
    assert got.form == form
    assert got.converged
    assert 0.0 <= got.value <= 100.0 / 12.0


def test_router_closed_form_values_match_gamma():
    assumed, truth = _router_models()
    gamma = _slope(assumed, truth)
    prior = uniform_interval(10.0)
    assert bound(assumed, truth, prior).value == zzb_closed_form_q_linear(gamma, 10.0)
    # 1/(4 gamma^2), the unconstrained WLS MSE, is not a lower bound and no
    # method returns it.
    with pytest.raises(ValueError, match="unknown bound method 'asymptotic'"):
        bound(assumed, truth, prior, "asymptotic")


@pytest.mark.parametrize(
    "models",
    [
        _router_models(mean=0.3),
        _router_models([1.2, 1.0, 0.8, 1.1]),
        _router_models(noise=_two_component_mixture()),
    ],
)
@pytest.mark.parametrize("method", ["closed_form", "asymptotic"])
def test_router_rejects_closed_forms_off_the_q_linear_case(models, method):
    # "asymptotic" is no method at all, so it is refused here as everywhere.
    error = MethodError if method == "closed_form" else ValueError
    with pytest.raises(error, match=method):
        bound(*models, uniform_interval(10.0), method)


def _white_k4_mixture(weights, variances, t):
    """k = 4, unit white assumed noise, a zero-mean per-vector mixture truth."""
    k = 4
    assumed = AssumedModel(LinearVectorMap(np.ones(k)), np.zeros(k), ScaledIdentityCov(1.0, k))
    comps = tuple(GaussianNoise(np.zeros(k), ScaledIdentityCov(v, k)) for v in variances)
    truth = TrueModel(assumed.signal, MixtureNoise(np.array(weights), comps))
    return assumed, truth, uniform_interval(t)


# Wide per-vector mixtures, where the pooled closed form (0.9607, 0.9541,
# 0.2204) is far from the bound of the exact pe (0.8419, 0.4193, 0.0317).
WIDE_MIXTURE_ROWS = [
    ((0.5, 0.5), (0.1, 10.0), 10.0),
    ((0.9, 0.1), (0.01, 50.0), 10.0),
    ((0.9, 0.1), (0.01, 50.0), 2.0),
]


@st.composite
def _equal_map_scenarios(draw):
    """Equal scalar linear maps and zero-mean truth: Gaussian, a per-vector
    mixture of equal or unequal variances, or a per-sample mixture."""
    k = draw(st.integers(1, 8))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

    a = vec(0.5, 1.5)
    assumed = AssumedModel(LinearVectorMap(a), np.zeros(k), DiagonalCov(vec(0.25, 4.0)))
    zero = np.zeros(k)
    w = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(["gaussian", "equal", "unequal", "per_sample"]))
    if kind == "gaussian":
        noise = GaussianNoise(zero, DiagonalCov(vec(0.25, 4.0)))
    elif kind == "per_sample":
        stds = np.array([draw(st.floats(0.1, 10.0)) for _ in range(2)])
        noise = PerSampleMixtureNoise(np.array([w, 1.0 - w]), stds, k)
    else:
        diag = vec(0.25, 4.0)
        scale = 1.0 if kind == "equal" else draw(st.floats(0.01, 50.0))
        comps = tuple(GaussianNoise(zero, DiagonalCov(c * diag)) for c in (1.0, scale))
        noise = MixtureNoise(np.array([w, 1.0 - w]), comps)
    t = draw(st.sampled_from([0.5, 2.0, 10.0, 50.0]))
    return assumed, TrueModel(assumed.signal, noise), uniform_interval(t)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_equal_map_scenarios())
@example(_white_k4_mixture(*WIDE_MIXTURE_ROWS[0]))
@example(_white_k4_mixture(*WIDE_MIXTURE_ROWS[1]))
@example(_white_k4_mixture(*WIDE_MIXTURE_ROWS[2]))
def test_auto_agrees_with_quadrature(scenario):
    # "auto" may take a closed form only where it is the exact error
    # probability, so changing the method never changes the model.
    quad = bound(*scenario, "quadrature")
    assert quad.converged
    assert bound(*scenario).value == pytest.approx(quad.value, rel=QuadratureRule().rel_tol)


@pytest.mark.parametrize("row", WIDE_MIXTURE_ROWS)
def test_wide_mixtures_take_the_independent_route(row):
    scenario = _white_k4_mixture(*row)
    auto = bound(*scenario)
    assert auto.form == "independent"
    assert auto == bound(*scenario, "quadrature")
    with pytest.raises(MethodError, match="closed_form"):
        bound(*scenario, "closed_form")


@st.composite
def _wls_scenarios(draw):
    """Scalar linear scenarios: assumed a theta + N(0, sigma2 I); truth with
    an equal, scaled or sign-flipped map and Gaussian or two-component
    mixture noise, with or without mean offsets."""
    k = draw(st.integers(2, 8))
    a = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k)))
    assumed = AssumedModel(
        LinearVectorMap(a), np.zeros(k), ScaledIdentityCov(draw(st.floats(0.25, 4.0)), k)
    )
    kind = draw(st.sampled_from(["equal", "scaled", "flipped"]))
    h_star = {"equal": a, "scaled": draw(st.floats(0.5, 1.5)) * a, "flipped": -a}[kind]
    offsets = draw(st.booleans())

    def mean():
        return np.full(k, draw(st.floats(-1.0, 1.0)) if offsets else 0.0)

    if draw(st.booleans()):
        diag = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k)))
        noise = GaussianNoise(mean(), DiagonalCov(diag))
    else:
        w = draw(st.floats(0.1, 0.9))
        comps = tuple(
            GaussianNoise(mean(), ScaledIdentityCov(draw(st.floats(0.25, 9.0)), k))
            for _ in range(2)
        )
        noise = MixtureNoise(np.array([w, 1.0 - w]), comps)
    t = draw(st.sampled_from([50.0, 10.0, 2.0, 0.5]))
    return assumed, TrueModel(LinearVectorMap(h_star), noise), uniform_interval(t)


def _mean_offset_case(mixture):
    """Equal maps, true noise mean 1 against the assumed 0, T = 50: the
    symmetric_split (Gaussian) or independent (mixture) route, within about
    7% of the WLS MSE."""
    k = 4
    assumed = AssumedModel(LinearVectorMap(np.ones(k)), np.zeros(k), ScaledIdentityCov(1.0, k))
    noise = GaussianNoise(np.ones(k), DiagonalCov(np.array([0.5, 1.0, 1.5, 2.0])))
    if mixture:
        wide = GaussianNoise(np.full(k, -0.5), ScaledIdentityCov(2.0, k))
        narrow = GaussianNoise(np.ones(k), ScaledIdentityCov(1.0, k))
        noise = MixtureNoise(np.array([0.5, 0.5]), (narrow, wide))
    return assumed, TrueModel(assumed.signal, noise), uniform_interval(50.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_wls_scenarios(), st.integers(0, 2**32 - 1))
@example(_mean_offset_case(False), 1)
@example(_mean_offset_case(True), 1)
def test_bound_lies_below_the_wls_bayesian_mse(scenario, seed):
    # For a linear map the unconstrained WLS estimate falls nearer theta_o
    # than theta_o + h exactly when the assumed-model test picks theta_o, so
    # every route's value must lie below WLS's MSE with theta drawn from the
    # prior, whatever the truth (pe may exceed 1/2 when the maps differ).
    assumed, truth, prior = scenario
    result = bound(assumed, truth, prior)
    report = run_mse(TrialPlan(truth, LinearClosedForm(assumed), prior, 2000, seed))
    assert report.valid
    assert result.value <= report.mse[0] + 4.0 * report.stderr[0]
    # The simulated MSE is WLS's exact Bayesian MSE up to its own error.
    assert abs(report.mse[0] - _wls_bayesian_mse(*scenario)) <= 4.0 * report.stderr[0]


def _wls_bayesian_mse(assumed, truth, prior):
    """Exact Bayesian MSE of the WLS estimate on a scalar linear scenario.

    With G = A^-1 H^T Sigma^-1 and A = H^T Sigma^-1 H, the estimate errs by
    M theta + c_c + G n under truth component c, where M = G (H* - H),
    c_c = G (m_c - mu) and n has the component's covariance. So the MSE is
    sum_c w_c [M^2 E[theta^2] + 2 M c_c E[theta] + c_c^2 + G Sigma_c G^T],
    with the interval prior's moments.
    """
    h = assumed.signal.h_matrix[:, 0]
    g = assumed.noise_cov.solve(h) / assumed.noise_cov.qf_inv(h)
    m = g @ (truth.signal.h_matrix[:, 0] - h)
    (axis,) = prior.axes
    m1 = 0.5 * (axis.lo + axis.hi)
    m2 = (axis.lo * axis.lo + axis.lo * axis.hi + axis.hi * axis.hi) / 3.0
    noise = truth.noise
    mixture = isinstance(noise, MixtureNoise)
    weights, comps = (noise.weights, noise.components) if mixture else ((1.0,), (noise,))
    mse = 0.0
    for w, comp in zip(weights, comps):
        c = g @ (comp.mean - assumed.noise_mean)
        mse += w * (m * m * m2 + 2.0 * m * c * m1 + c * c + comp.cov.qf(g))
    return mse


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_wls_scenarios())
@example(_mean_offset_case(False))
@example(_mean_offset_case(True))
def test_bound_lies_below_the_exact_wls_bayesian_mse(scenario):
    # The deterministic form of the Monte Carlo check above, without its
    # slack: only the route's own quadrature tolerance is allowed.
    result = bound(*scenario)
    closed = result.form == "closed_form_q_linear"
    margin = 1e-12 if closed else 10.0 * QuadratureRule().rel_tol
    assert result.value <= _wls_bayesian_mse(*scenario) * (1.0 + margin)


def test_router_zero_signal_is_pure_guessing():
    k = 3
    zero = LinearVectorMap(np.zeros(k))
    assumed = AssumedModel(zero, np.zeros(k), ScaledIdentityCov(1.0, k))
    truth = TrueModel(zero, GaussianNoise(np.zeros(k), ScaledIdentityCov(2.0, k)))
    got = bound(assumed, truth, uniform_interval(3.0))
    assert got.form == "symmetric_split"
    assert got.value == pytest.approx(9.0 / 12.0, rel=1e-12, abs=0.0)


def test_router_sign_flip_bound_exceeds_the_prior_variance():
    # README's example: the truth map flips the sign of the assumed one, so
    # the assumed-model test errs more often than a coin flip.
    flip = LinearMatrixMap(np.array([[0.0], [1.0]]))
    assumed = AssumedModel(flip, np.zeros(2), ScaledIdentityCov(1.0, 2))
    truth = TrueModel(
        LinearMatrixMap(np.array([[0.0], [-1.0]])), GaussianNoise(np.zeros(2), ScaledIdentityCov(1.0, 2))
    )
    got = bound(assumed, truth, uniform_interval(1.0))
    assert got.form == "general" and got.converged
    assert round(got.value, 4) == 0.0934
    assert 1.0 / 12.0 < got.value <= 1.0 / 6.0


def _mp_general_bound(profile, t):
    """(1/T) int_0^T h P(h) dh at 30 digits, with each location integral
    int_a^b Q(alpha + beta x) dx = [F(alpha + beta b) - F(alpha + beta a)] / beta
    for F(u) = u Q(u) - phi(u), which cancels nothing at that precision."""

    def f(u):
        return u * mp.ncdf(-u) - mp.npdf(u)

    def p(h):
        total = mp.mpf(0)
        for w, lin, var in zip(profile.weights, profile.lin, profile.var):
            s = mp.sqrt(mp.mpf(var))
            beta = profile.cross / s
            alpha = (profile.quad * h + mp.mpf(lin)) / s
            alpha_far = (profile.quad * h - profile.cross * h - mp.mpf(lin)) / s
            near = (f(alpha + beta * (t - h)) - f(alpha)) / beta
            far = (f(alpha_far - beta * (t - h)) - f(alpha_far)) / -beta
            total += mp.mpf(w) * (near + far) / 2
        return total

    with mp.workdps(30):
        return float(mp.quad(lambda h: h * p(h), [0, t / 4, t / 2, t]) / t)


@pytest.mark.parametrize("noise", [None, _two_component_mixture()], ids=["gaussian", "mixture"])
def test_router_differing_map_bound_matches_mpmath(noise):
    # README's differing-map config: the closed-form location integral
    # leaves only the offset quadrature's error.
    assumed, truth = _router_models([1.2, 1.0, 0.8, 1.1], noise=noise)
    got = bound(assumed, truth, uniform_interval(10.0))
    assert got.form == "general" and got.converged
    reference = _mp_general_bound(linear_scalar_profile(PeKernel(assumed, truth)), 10.0)
    assert got.value == pytest.approx(reference, rel=1e-12, abs=0.0)


_entry = st.floats(-2.0, 2.0, allow_nan=False)
_variance = st.floats(0.1, 4.0, allow_nan=False)


@st.composite
def _router_scenarios(draw):
    k = draw(st.integers(1, 3))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    a = vec(_entry)
    h_star = a if draw(st.booleans()) else vec(_entry)
    mean = st.one_of(st.just(0.0), _entry)
    assumed = AssumedModel(LinearVectorMap(a), vec(mean), DiagonalCov(vec(_variance)))
    comps = tuple(
        GaussianNoise(vec(mean), DiagonalCov(vec(_variance))) for _ in range(draw(st.integers(1, 3)))
    )
    noise = comps[0] if len(comps) == 1 else MixtureNoise(np.full(len(comps), 1.0 / len(comps)), comps)
    return assumed, TrueModel(LinearVectorMap(h_star), noise)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    _router_scenarios(),
    st.floats(0.5, 20.0),
    st.sampled_from(["auto", "quadrature"]),
)
def test_router_bound_within_prior_limits(models, t, method):
    got = bound(*models, uniform_interval(t), method)
    # pe <= 1/2 when the maps agree, so the bound is at most the prior
    # variance; a differing truth map can push pe above 1/2 (never above 1).
    assumed, truth = models
    equal = np.array_equal(assumed.signal.h_matrix, truth.signal.h_matrix)
    cap = t * t / (12.0 if equal else 6.0)
    assert 0.0 <= got.value <= cap * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Overlap and the lattice tail sum
# ---------------------------------------------------------------------------


def test_prior_overlap_box():
    prior = Prior((IntervalAxis(0.0, 1.0), IntervalAxis(0.0, 1.0)))
    deltas = np.array([[0.5, 0.25], [0.0, 0.0], [1.0, 0.0], [-0.5, -0.25]])
    assert_allclose(overlap_rows(prior, deltas), [0.375, 1.0, 0.0, 0.375], rtol=1e-15)


def test_overlap_rows_matches_scalar_api():
    prior = Prior((LatticeAxis(8, 0.0, 1.0), IntervalAxis(0.0, 2.0)))
    deltas = np.array([[0.0, 0.0], [3.0, 0.5], [2.5, 0.1], [-3.0, -0.5], [8.0, 0.0]])
    batch = overlap_rows(prior, deltas)
    singles = [overlap_rows(prior, d[None, :])[0] for d in deltas]
    assert_allclose(batch, singles)
    assert batch[2] == 0.0  # off-lattice tau offset


def test_lattice_staircase_frozen_values():
    # Pure guessing on N-point unit lattices.
    assert lattice_staircase_sum(1.0, 5, np.array([0.4, 0.3, 0.2, 0.1])) == pytest.approx(2.0)
    assert lattice_staircase_sum(1.0, 4, np.array([0.375, 0.25, 0.125])) == pytest.approx(1.5)
    assert lattice_staircase_sum(1.0, 1, np.zeros(0)) == 0.0


def test_lattice_staircase_matches_guessing_estimator():
    # With pe = 1/2 everywhere, the bound must be attained by the best
    # constant lattice-valued estimator under the uniform lattice prior.
    for count in (2, 3, 4, 5, 8, 9):
        g = np.array([0.5 * (1.0 - j / count) for j in range(1, count)])
        bound = lattice_staircase_sum(1.0, count, g)
        values = np.arange(count, dtype=float)
        best = min(float(np.mean((values - c) ** 2)) for c in values)
        assert bound == pytest.approx(best, rel=1e-12, abs=0.0)


def test_lattice_staircase_validation():
    with pytest.raises(ValueError, match="shape"):
        lattice_staircase_sum(1.0, 4, np.zeros(5))
    with pytest.raises(ValueError, match="count"):
        lattice_staircase_sum(1.0, 0, np.zeros(0))


# ---------------------------------------------------------------------------
# Vector bound
# ---------------------------------------------------------------------------


def _times_overlap(prior, pe):
    """Whole integrand overlap_rows(prior, delta) * pe(delta) of a
    location-free error probability."""
    return lambda rows: pe(rows) * overlap_rows(prior, rows)


def test_vector_bound_scalar_axis_reduction():
    gamma, t = 0.8, 9.0
    prior = uniform_interval(t)
    vec = zzb_vector(
        VectorBoundSpec(
            coord=0,
            prior=prior,
            pe=_times_overlap(prior, lambda rows: q_function(gamma * np.abs(rows[:, 0]))),
        )
    )
    scalar = zzb_scalar_independent(
        ScalarBoundSpec(prior, lambda h: q_function(gamma * h))
    )
    assert vec.value == pytest.approx(scalar.value, rel=1e-10, abs=0.0)


def test_vector_bound_free_axis_does_not_change_separable_case():
    # pe depending only on the pinned coordinate: the free-axis maximum sits
    # at offset zero where its overlap factor is one, so the two-axis bound
    # reduces to the scalar bound.
    gamma, t = 1.1, 5.0
    prior2 = Prior((IntervalAxis(0.0, t), IntervalAxis(0.0, 3.0)))
    vec = zzb_vector(
        VectorBoundSpec(
            coord=0,
            prior=prior2,
            pe=_times_overlap(prior2, lambda rows: q_function(gamma * np.abs(rows[:, 0]))),
            search=DeltaSearch(grid_points=129, refine_iters=60),
        )
    )
    scalar = zzb_scalar_independent(
        ScalarBoundSpec(uniform_interval(t), lambda h: q_function(gamma * h))
    )
    assert vec.form == "continuous_profile"
    assert vec.value == pytest.approx(scalar.value, rel=1e-6)


def test_vector_bound_lattice_direction_matches_manual_sum():
    count = 9
    gamma = 0.6
    prior = Prior((LatticeAxis(count, 0.0, 1.0), IntervalAxis(0.5, 1.5)))

    def pe(rows):
        return q_function(gamma * np.abs(rows[:, 0]))

    vec = zzb_vector(VectorBoundSpec(coord=0, prior=prior, pe=_times_overlap(prior, pe)))
    g = np.array(
        [float(q_function(gamma * j)) * (1.0 - j / count) for j in range(1, count)]
    )
    assert vec.form == "lattice_staircase"
    assert vec.value == pytest.approx(lattice_staircase_sum(1.0, count, g), rel=1e-12, abs=0.0)


def test_vector_bound_alpha_direction_uses_free_lattice_max():
    # pe rewards a one-step lattice shift; the alpha-direction bound must
    # exceed the no-shift profile to prove the free maximization is live.
    prior = Prior((LatticeAxis(30, 0.0, 1.0), IntervalAxis(0.0, 1.0)))

    def pe_with_shift(rows):
        dtau = np.abs(rows[:, 0])
        dal = np.abs(rows[:, 1])
        base = q_function(3.0 * dal)
        boost = np.where(dtau == 1.0, 0.45 + 0.0 * dal, base)
        return np.where(dtau == 0.0, base, np.where(dtau == 1.0, boost, 0.0))

    with_shift = zzb_vector(
        VectorBoundSpec(coord=1, prior=prior, pe=_times_overlap(prior, pe_with_shift))
    )

    def pe_no_shift(rows):
        dtau = np.abs(rows[:, 0])
        return np.where(dtau == 0.0, q_function(3.0 * np.abs(rows[:, 1])), 0.0)

    without = zzb_vector(
        VectorBoundSpec(coord=1, prior=prior, pe=_times_overlap(prior, pe_no_shift))
    )
    assert with_shift.form == "continuous_profile"
    assert with_shift.value > without.value


def test_vector_bound_direction_validation():
    # The bounded coordinate must be an integer index of the prior's axes.
    box = Prior((IntervalAxis(0.0, 5.0), IntervalAxis(0.0, 3.0)))
    for coord in (2, -1, 1.0, None):
        with pytest.raises(ValueError, match="coord"):
            VectorBoundSpec(coord=coord, prior=box, pe=lambda rows: rows[:, 0])
    assert VectorBoundSpec(coord=np.int64(1), prior=box, pe=lambda rows: rows[:, 0]).coord == 1


@pytest.mark.parametrize(
    "prior, form, frozen",
    [
        (Prior((LatticeAxis(40, 0.0, 0.5),)), "lattice_staircase", 0.3853618364298208),
        (uniform_interval(9.0), "continuous_profile", 0.3329076561919293),
    ],
    ids=["lattice", "interval"],
)
def test_vector_bound_one_axis_frozen_values(prior, form, frozen):
    # pe = Q(0.8 |delta|) times the overlap on a one-axis prior.
    pe = _times_overlap(prior, lambda rows: q_function(0.8 * np.abs(rows[:, 0])))
    unit = zzb_vector(VectorBoundSpec(0, prior, pe))
    assert unit.form == form and unit.converged
    assert unit.value == pytest.approx(frozen, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Bounded pe calls: every vector route scans in blocks
# ---------------------------------------------------------------------------


def _coupled_pe(rows):
    # Smooth in every offset, with the free axes coupled to the first so the
    # free-axis maximum moves with the pinned offset.
    d = np.asarray(rows, dtype=float)
    spread = np.abs(d[:, 0]) + 0.6 * np.sum(np.abs(d[:, 1:] - 0.2 * d[:, :1]), axis=1)
    return q_function(0.8 * spread) * (1.0 + 0.1 * np.cos(d[:, 0]))


_SMALL_SEARCH = DeltaSearch(grid_points=9, refine_iters=3)
_SMALL_QUADRATURE = QuadratureRule(points=17, rel_tol=1e-9, max_doublings=3)

# route: (prior, form), each bounded on coordinate 0
_ROUTE_SPECS = {
    "scalar_interval": (uniform_interval(4.0), "continuous_profile"),
    "scalar_lattice": (Prior((LatticeAxis(40, 0.0, 0.5),)), "lattice_staircase"),
    "lattice_direction": (
        Prior((LatticeAxis(12, 0.0, 1.0), IntervalAxis(0.5, 1.5))),
        "lattice_staircase",
    ),
    "continuous_direction": (
        Prior((IntervalAxis(0.0, 4.0), LatticeAxis(5, 0.0, 1.0), IntervalAxis(-1.0, 1.0))),
        "continuous_profile",
    ),
}


@pytest.mark.parametrize("route", sorted(_ROUTE_SPECS))
def test_vector_routes_scan_in_bounded_blocks(monkeypatch, route):
    # At any block size each pe call gets at most the block's rows, every
    # row is evaluated as often as with one unbounded block, and the bound
    # is bit for bit the same.
    prior, form = _ROUTE_SPECS[route]

    def run(block):
        monkeypatch.setattr(zzb, "_SCAN_BLOCK", block)
        sizes = []

        def pe(rows):
            sizes.append(rows.shape[0])
            return _coupled_pe(rows)

        spec = VectorBoundSpec(
            0, prior, _times_overlap(prior, pe), search=_SMALL_SEARCH, quadrature=_SMALL_QUADRATURE
        )
        return zzb_vector(spec), sizes

    reference, ref_sizes = run(1 << 40)
    assert reference.form == form and reference.value > 0.0
    for block in (1, 7, 1 << 14):
        got, sizes = run(block)
        assert got == reference
        assert max(sizes) <= block
        assert sum(sizes) == sum(ref_sizes)


def test_free_axis_scan_keeps_first_maximum_per_pin(monkeypatch):
    # Every free-axis candidate ties at exactly 0.5, so the row's first
    # candidate (-1) starts the ternary polish, which climbs to the lower of
    # the two peaks (near -5/6, not +5/6). A NaN row stays NaN. Blocks that
    # split rows must keep both, bit for bit.
    prior = Prior((LatticeAxis(6, 0.0, 1.0), IntervalAxis(0.0, 1.0)))

    def pe(rows):
        tau, alpha = rows[:, 0], rows[:, 1]
        out = (0.5 + (0.4 + 0.1 * alpha) * np.sin(3.0 * np.pi * alpha) ** 2) * (1.0 - 0.05 * tau)
        out[tau == 3.0] = np.nan
        return out

    spec = VectorBoundSpec(0, prior, pe, search=DeltaSearch(grid_points=7, refine_iters=30))
    pins = np.arange(1.0, 6.0)
    monkeypatch.setattr(zzb, "_SCAN_BLOCK", 1 << 40)
    reference = zzb._search_free(spec, pins)[0]
    assert np.isnan(reference[2])
    assert_allclose(reference[[0, 1, 3, 4]], 0.8167 * (1.0 - 0.05 * pins[[0, 1, 3, 4]]), rtol=1e-3)
    for block in (1, 3, 7, 8):
        monkeypatch.setattr(zzb, "_SCAN_BLOCK", block)
        np.testing.assert_array_equal(zzb._search_free(spec, pins)[0], reference)


@pytest.mark.parametrize("block", [1, 3, 5, 12, 13, 1 << 40])
def test_grid_max_merges_pieces_as_argmax_over_the_whole_row(monkeypatch, block):
    # A grid larger than the block is scored in pieces, and each piece's
    # maximum is merged into a running one. The result must be np.argmax
    # over the whole row: the first of tied maxima, and the first NaN over
    # every number, wherever the pieces split the row.
    nan, inf = math.nan, math.inf
    table = np.array(
        [
            [0, 5, 1, 5, 2, 5, 0, 0, 5, 0, 0, 0],
            [0, 1, 2, 3, 9, 0, 9, nan, 9, nan, 0, 9],
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, nan],
            [nan, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [-inf] * 12,
            [-inf] * 11 + [nan],
            [-inf, 0, 0, 0, 0, 0, inf, 0, 0, 0, 0, inf],
        ]
    )
    cands = [np.array([10.0, 20.0, 30.0]), np.array([0.0, 0.25, 0.5, 0.75])]
    sizes = []

    def f(idx, pts):
        sizes.append(idx.size)
        flat = np.searchsorted(cands[0], pts[:, 0]) * 4 + np.searchsorted(cands[1], pts[:, 1])
        return table[idx, flat]

    monkeypatch.setattr(zzb, "_SCAN_BLOCK", block)
    best_val, best = zzb._grid_max(f, table.shape[0], cands)
    arg = np.argmax(table, axis=1)
    np.testing.assert_array_equal(best_val, table[np.arange(table.shape[0]), arg])
    np.testing.assert_array_equal(best, np.column_stack([cands[0][arg // 4], cands[1][arg % 4]]))
    assert max(sizes) <= block and sum(sizes) == table.size
