"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print. Criterion 2 is expected to fail and documents why: the closed form
approaches its large-argument floor 1/(4 gamma^2) only at rate
8 / (3 sqrt(2 pi) T gamma), which is 2.1e-2 at T gamma = 50, far outside the
1e-6 target; the target would need T gamma of about 1.1e6. The criterion is
asserted as stated rather than weakened to meet the implementation.
"""

import math
import time

import numpy as np
import pytest

from zzbound.cli import main
from zzbound.estimators import LinearClosedForm
from zzbound.experiments import (
    SweepConfig,
    build_example1,
    default_grid,
    run_sweep,
)
from zzbound.models import (
    AssumedModel,
    DenseCov,
    DiagonalCov,
    GaussianNoise,
    LinearVectorMap,
    MixtureNoise,
    ScaledIdentityCov,
    TrueModel,
    uniform_interval,
)
from zzbound.montecarlo import TrialPlan, empirical_pe, run_mse
from zzbound.pe_kernel import (
    PeKernel,
    linear_scalar_profile,
    pe_gaussian,
    pe_mixture,
)
from zzbound.special_math import q_function
from zzbound.zzb import (
    QuadratureRule,
    ScalarBoundSpec,
    bound,
    zzb_closed_form_q_linear,
    zzb_scalar_independent,
)

SEED = 20260819


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_01_closed_form_vs_quadrature():
    start = time.perf_counter()
    rule = QuadratureRule(points=4097, rel_tol=1e-8, max_doublings=8)
    worst = 0.0
    for gamma in (0.1, 1.0, 10.0):
        for t in (1.0, 10.0, 100.0):
            closed = zzb_closed_form_q_linear(gamma, t)
            spec = ScalarBoundSpec(
                uniform_interval(t), lambda h, g=gamma: q_function(g * h), rule
            )
            quad = zzb_scalar_independent(spec).value
            worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, ok, f"max rel diff {worst:.2e} over 9 grid points, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_asymptotic_limit_at_t_gamma_50():
    # Expected to FAIL: see the module docstring. Asserted as stated.
    worst = 0.0
    for gamma, t in ((1.0, 50.0), (0.5, 100.0), (10.0, 5.0)):
        asym = 1.0 / (4.0 * gamma * gamma)
        rel = abs(asym - zzb_closed_form_q_linear(gamma, t)) / asym
        worst = max(worst, rel)
    rate = 8.0 / (3.0 * math.sqrt(2.0 * math.pi) * 50.0)
    ok = worst <= 1e-6
    _report(
        2,
        ok,
        f"rel gap at T*gamma=50 is {worst:.3e}, matching the approach rate "
        f"{rate:.3e}; 1e-6 would need T*gamma about 1.1e6",
    )
    assert worst <= 1e-6, (
        "documented limitation: the floor is approached at rate "
        f"8/(3 sqrt(2 pi) T gamma) = {rate:.3e} at T gamma = 50"
    )


def _random_cov(rng, k, dense):
    if dense:
        a = rng.standard_normal((k, k))
        return DenseCov(a @ a.T + k * np.eye(k))
    return DiagonalCov(rng.uniform(0.4, 2.5, k))


def _criterion3_case(rng, variant):
    """One randomized scalar scenario whose analytic pe is informative."""
    while True:
        k = int(rng.integers(2, 9))
        h_assumed = rng.uniform(0.3, 1.5, k) * rng.choice([-1.0, 1.0], k)
        sig_assumed = LinearVectorMap(h_assumed)
        mean_assumed = rng.uniform(-0.5, 0.5, k)
        cov_assumed = _random_cov(rng, k, dense=bool(rng.integers(0, 2)))
        assumed = AssumedModel(sig_assumed, mean_assumed, cov_assumed)

        if variant == "equal_linear":
            sig_truth = sig_assumed
        else:
            sig_truth = LinearVectorMap(h_assumed + 0.3 * rng.standard_normal(k))
        if variant == "mixture":
            n_comp = int(rng.integers(2, 4))
            w = rng.uniform(0.2, 1.0, n_comp)
            w /= w.sum()
            comps = tuple(
                GaussianNoise(rng.uniform(-0.5, 0.5, k), _random_cov(rng, k, False))
                for _ in range(n_comp)
            )
            noise = MixtureNoise(w, comps)
        else:
            noise = GaussianNoise(
                rng.uniform(-0.5, 0.5, k), _random_cov(rng, k, dense=True)
            )
        kernel = PeKernel(assumed, TrueModel(sig_truth, noise))
        theta_o = float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        if variant == "gaussian":
            analytic = pe_gaussian(kernel, theta_o, delta)
        elif variant == "mixture":
            analytic = pe_mixture(kernel, theta_o, delta)
        else:
            analytic = float(linear_scalar_profile(kernel).pe(theta_o, delta))
        if 0.005 <= analytic <= 0.95:
            return kernel, theta_o, delta, analytic


def test_criterion_03_pe_oracle_equivalence():
    start = time.perf_counter()
    results = {}
    for v_idx, variant in enumerate(("gaussian", "mixture", "equal_linear")):
        rng = np.random.default_rng(SEED + v_idx)
        hits = 0
        for case in range(20):
            kernel, theta_o, delta, analytic = _criterion3_case(rng, variant)
            est = empirical_pe(
                kernel, theta_o, delta, trials=100_000, seed=SEED + 100 * v_idx + case
            )
            if abs(est.pe - analytic) <= 3.0 * est.stderr + 1e-12:
                hits += 1
        results[variant] = hits
    elapsed = time.perf_counter() - start
    ok = all(hits >= 19 for hits in results.values()) and elapsed < 120.0
    _report(3, ok, f"hits within 3 se per variant {results} of 20, {elapsed:.1f}s")
    for variant, hits in results.items():
        assert hits >= 19, f"{variant}: only {hits}/20 within 3 standard errors"
    assert elapsed < 120.0


def test_criterion_04_classical_recovery():
    rng = np.random.default_rng(SEED)
    k = 40
    h = rng.uniform(0.5, 1.5, k)
    diag = rng.uniform(0.5, 2.0, k)
    crb = 1.0 / float(h @ (h / diag))
    gamma = 0.5 / math.sqrt(crb)
    t = 2e5 / gamma
    closed = zzb_closed_form_q_linear(gamma, t)
    rel = abs(closed - crb) / crb

    signal = LinearVectorMap(h)
    model = AssumedModel(signal, np.zeros(k), DiagonalCov(diag))
    truth = TrueModel(signal, GaussianNoise(np.zeros(k), DiagonalCov(diag.copy())))
    plan = TrialPlan(
        truth=truth,
        estimator=LinearClosedForm(model),
        prior=uniform_interval(t),
        trials=10_000,
        seed=SEED,
        theta_true=np.array([t / 2.0]),
    )
    report = run_mse(plan)
    mse_rel = abs(report.mse[0] - crb) / crb
    ok = rel <= 1e-5 and mse_rel <= 0.05
    _report(
        4,
        ok,
        f"bound vs inverse information rel {rel:.2e}, MC MSE off by {mse_rel:.2%}",
    )
    assert rel <= 1e-5
    assert mse_rel <= 0.05


def test_criterion_05_white_variance_mismatch_invariance():
    rng = np.random.default_rng(SEED)
    k = 12
    h = rng.uniform(0.5, 1.5, k)
    signal = LinearVectorMap(h)
    sigma_star = 0.7
    truth = TrueModel(
        signal, GaussianNoise(np.zeros(k), ScaledIdentityCov(sigma_star**2, k))
    )
    args = []
    for sigma2 in (0.01, 1.0, 100.0):
        assumed = AssumedModel(signal, np.zeros(k), ScaledIdentityCov(sigma2, k))
        profile = linear_scalar_profile(PeKernel(assumed, truth))
        args.append(profile.gamma)  # Q argument per unit offset
    spread = (max(args) - min(args)) / max(args)
    expected = 0.5 * float(np.linalg.norm(h)) / sigma_star
    ok = spread <= 1e-12 and abs(args[0] - expected) <= 1e-12 * expected
    _report(
        5,
        ok,
        f"Q-argument spread {spread:.2e} across sigma^2 in {{0.01, 1, 100}}",
    )
    assert spread <= 1e-12
    assert abs(args[0] - expected) <= 1e-12 * expected


def _sweep_lookup(rows, quantity):
    return {r.sweep_value: r for r in rows if r.quantity == quantity}


def test_criterion_06_example1_sweep():
    start = time.perf_counter()
    rows = run_sweep(SweepConfig(1, "sigma2", default_grid(1), seed=SEED))
    failures = []
    for name in ("m1", "m2", "matched"):
        bounds = _sweep_lookup(rows, f"zzb_{name}")
        mses = _sweep_lookup(rows, f"mse_mle_{name}")
        for value, bound_row in bounds.items():
            mc = mses[value]
            if mc.value < bound_row.value - 3.0 * mc.stderr:
                failures.append(f"{name}@{value:.3g}")
    b_m1 = _sweep_lookup(rows, "zzb_m1")
    b_m2 = _sweep_lookup(rows, "zzb_m2")
    b_match = _sweep_lookup(rows, "zzb_matched")
    dominance = all(
        b_match[v].value <= min(b_m1[v].value, b_m2[v].value) * (1.0 + 1e-12)
        for v in b_match
    )
    zero = build_example1(0.0)
    m2, matched = (bound(zero.assumed[v], zero.truth, zero.prior) for v in ("m2", "matched"))
    exact_zero_limit = m2.value == matched.value
    elapsed = time.perf_counter() - start
    ok = not failures and dominance and exact_zero_limit and elapsed < 180.0
    _report(
        6,
        ok,
        f"bound violations {failures or 'none'}, matched dominates {dominance}, "
        f"zero-noise m2 equals matched exactly {exact_zero_limit}, {elapsed:.1f}s",
    )
    assert not failures
    assert dominance
    assert exact_zero_limit
    assert elapsed < 180.0


def test_criterion_07_example2_sweep():
    start = time.perf_counter()
    rows = run_sweep(SweepConfig(2, "mu_star", default_grid(2), seed=SEED))
    mm = _sweep_lookup(rows, "zzb_mismatched")
    matched = _sweep_lookup(rows, "zzb_matched")
    mses = _sweep_lookup(rows, "mse_mle")

    sym = max(
        abs(mm[float(v)].value - mm[float(10 - v)].value)
        / max(1.0, abs(mm[float(v)].value))
        for v in range(11)
    )
    argmin = min(mm, key=lambda v: mm[v].value)
    center_rel = abs(mm[5.0].value - matched[5.0].value) / matched[5.0].value
    violations = [
        v for v in mm if mses[v].value < mm[v].value - 3.0 * mses[v].stderr
    ]
    bias_ratio = mses[0.0].value / matched[0.0].value
    elapsed = time.perf_counter() - start
    ok = (
        sym <= 1e-8
        and argmin == 5.0
        and center_rel <= 1e-5
        and not violations
        and bias_ratio > 10.0
        and elapsed < 120.0
    )
    _report(
        7,
        ok,
        f"symmetry {sym:.1e}, min at mu*={argmin:g} within {center_rel:.1e} of "
        f"matched, violations {violations or 'none'}, off-center MSE over matched "
        f"bound {bias_ratio:.0f}x, {elapsed:.1f}s",
    )
    assert sym <= 1e-8
    assert argmin == 5.0
    assert center_rel <= 1e-5
    assert not violations
    assert bias_ratio > 10.0
    assert elapsed < 120.0


def test_criterion_08_example3_sweep():
    start = time.perf_counter()
    rows = run_sweep(SweepConfig(3, "one_minus_omega1", default_grid(3), seed=SEED))
    mm = _sweep_lookup(rows, "zzb_mismatched")
    matched = _sweep_lookup(rows, "zzb_matched")
    mle = _sweep_lookup(rows, "mse_mle")
    median = _sweep_lookup(rows, "mse_median")
    grid = sorted(mm)

    extreme_rel = max(
        abs(mm[v].value - matched[v].value) / matched[v].value for v in (grid[0], grid[-1])
    )
    interior = [v for v in grid if 0.1 - 1e-9 <= v <= 0.9 + 1e-9]
    ordered = all(mm[v].value >= matched[v].value for v in interior)
    median_wins = [v for v in interior if median[v].value < mle[v].value]
    elapsed = time.perf_counter() - start
    ok = (
        extreme_rel <= 1e-10
        and ordered
        and len(median_wins) == len(interior)
        and elapsed < 180.0
    )
    _report(
        8,
        ok,
        f"extremes rel diff {extreme_rel:.1e}, mismatched >= matched inside "
        f"{ordered}, median beats the assumed-model estimate at "
        f"{len(median_wins)}/{len(interior)} interior points, {elapsed:.1f}s",
    )
    assert extreme_rel <= 1e-10
    assert ordered
    assert len(median_wins) == len(interior)
    assert elapsed < 180.0


def test_criterion_09_example4_sweep():
    start = time.perf_counter()
    rows = run_sweep(SweepConfig(4, "snr", default_grid(4), seed=SEED))
    tau_mm = _sweep_lookup(rows, "zzb_tau_mismatched")
    tau_matched = _sweep_lookup(rows, "zzb_tau_matched")
    alpha_mm = _sweep_lookup(rows, "zzb_alpha_mismatched")
    mse_tau = _sweep_lookup(rows, "mse_mle_tau")
    mse_alpha = _sweep_lookup(rows, "mse_mle_alpha")
    grid = sorted(tau_mm)

    low, high = mse_tau[grid[0]].value, mse_tau[grid[-1]].value
    ratio = math.inf if high == 0.0 else low / high
    top_two_ordered = all(
        tau_mm[v].value >= tau_matched[v].value for v in grid[-2:]
    )
    alpha_violations = [
        v
        for v in grid
        if mse_alpha[v].value < alpha_mm[v].value - 3.0 * mse_alpha[v].stderr
    ]
    tau_violations = [
        v for v in grid if mse_tau[v].value < tau_mm[v].value - 3.0 * mse_tau[v].stderr
    ]
    monotone = all(
        mse_alpha[b].value
        <= mse_alpha[a].value + 3.0 * (mse_alpha[a].stderr + mse_alpha[b].stderr)
        for a, b in zip(grid, grid[1:])
    )
    elapsed = time.perf_counter() - start
    ok = (
        ratio > 100.0
        and top_two_ordered
        and not alpha_violations
        and not tau_violations
        and monotone
        and elapsed < 600.0
    )
    _report(
        9,
        ok,
        f"position MSE threshold ratio {ratio:.3g}, mismatched >= matched at top "
        f"SNRs {top_two_ordered}, amplitude bound violations "
        f"{alpha_violations or 'none'}, position bound violations "
        f"{tau_violations or 'none'}, amplitude MSE monotone {monotone}, "
        f"{elapsed:.1f}s",
    )
    assert ratio > 100.0
    assert top_two_ordered
    assert not alpha_violations
    assert not tau_violations
    assert monotone
    assert elapsed < 600.0


_C10_CONFIGS = {
    1: {"example": 1, "grid": [0.01, 0.1, 0.3], "k": 100, "trials": 200, "seed": SEED},
    2: {"example": 2, "grid": [0.0, 5.0, 10.0], "k": 100, "trials": 200, "seed": SEED},
    3: {
        "example": 3,
        "grid": [0.0, 0.5, 1.0],
        "k": 400,
        "trials": 200,
        "seed": SEED,
    },
    4: {"example": 4, "grid": [10.0, 100.0], "k": 600, "trials": 50, "seed": SEED},
}


def test_criterion_10_byte_identical_sweeps(tmp_path):
    import json

    mismatched = []
    for example, payload in _C10_CONFIGS.items():
        cfg = tmp_path / f"ex{example}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        out1 = tmp_path / f"ex{example}_w1.csv"
        out4 = tmp_path / f"ex{example}_w4.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out4)]) == 0
        if out1.read_bytes() != out4.read_bytes():
            mismatched.append(example)
    ok = not mismatched
    _report(
        10,
        ok,
        "all four reduced-scale sweeps byte-identical across reruns"
        if ok
        else f"examples {mismatched} differ between reruns",
    )
    assert not mismatched
