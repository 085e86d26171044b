"""Four reference mismatch scenarios and the sweep driver behind the CLI.

Each builder assembles one point of a parameter sweep at desk scale: a DC
level in colored noise estimated under two wrong covariance models, the same
level with a wrong noise mean, an outlier-contaminated record compared
against the sample median, and joint arrival-time plus amplitude estimation
with a too-narrow pulse template. Builders are deterministic; all randomness
lives in the Monte Carlo plans they feed.

Every builder returns one record, Scenario: the record length, the prior,
the truth and the assumed models in `assumed`, keyed by variant (the CLI
presets name the same keys). Its `gammas` holds the q-linear slopes (studies
1 and 3); a sweep builds every point on the interval prior _prior_width
gives for the smallest slope over the grid. STUDIES holds each study's facts
once; the CLI presets and the sweep driver both read them. Every bound
comes from zzb.bound, the pulse bounds one coordinate at a time; only the
matched contamination bound at an interior weight takes a route of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .estimators import EstimatorSpec, LinearClosedForm, QuasiMLE, SampleMedian
from .models import (
    AmplitudePulseMap,
    AssumedModel,
    DiagonalCov,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearVectorMap,
    PerSampleMixtureNoise,
    Prior,
    ScaledIdentityCov,
    TrueModel,
    pulse_template,
    uniform_interval,
)
from .montecarlo import TrialPlan, derive_seed, run_mse
from .pe_kernel import PeKernel, linear_scalar_profile
from .special_math import q_function
from .zzb import BoundResult, ScalarBoundSpec, bound, zzb_scalar_independent

__all__ = [
    "Scenario",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_example4",
    "example3_matched_bound",
    "matched_mixture_pe",
    "example4_bounds",
    "STUDIES",
    "Study",
    "SweepConfig",
    "SweepRow",
    "check_sweep_trials",
    "default_grid",
    "run_sweep",
    "study",
]

THETA_DC = 4.0


def _prior_width(gamma_min: float) -> float:
    """Support width giving the bound room to saturate: max(100/gamma, 10)."""
    return max(100.0 / gamma_min, 10.0)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One point of a reference study, at record length k.

    assumed holds the assumed models by variant. gammas holds the q-linear
    slope of each variant whose bound follows from it, and a sweep sizes its
    interval prior from the smallest over the grid; it is empty where the
    prior is fixed.
    """

    k: int
    prior: Prior
    truth: TrueModel
    assumed: dict[str, AssumedModel]
    gammas: dict[str, float] = field(default_factory=dict)

    @property
    def gamma_mismatched(self) -> float:
        return self.gammas["mismatched"]


# ---------------------------------------------------------------------------
# Example 1: DC level, colored + white noise, two partial covariance models
# ---------------------------------------------------------------------------


def build_example1(sigma2: float, k: int = 500, t_prior: float = 10.0) -> Scenario:
    """One sigma^2 point: white-only (m1) and colored-only (m2) assumed models.

    The truth adds white noise of variance sigma2 to a fixed diagonal colored
    component; "matched" assumes the full sum. m1 is absent when sigma2 = 0
    (its assumed covariance would be singular). gammas holds each variant's
    q-linear slope; zzb.bound gives its bound.
    """
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
        name: linear_scalar_profile(PeKernel(model, truth)).gamma for name, model in assumed.items()
    }
    return Scenario(k, uniform_interval(t_prior), truth, assumed, gammas)


# ---------------------------------------------------------------------------
# Example 2: DC level with a wrong assumed noise mean
# ---------------------------------------------------------------------------


def build_example2(mu_star: float, k: int = 500, t_prior: float = 50.0) -> Scenario:
    """One true-mean point of the mean-mismatch sweep.

    The "mismatched" model keeps its mean pinned at 5 while the true mean
    mu_star sweeps, so the estimator inherits a bias mu_star - 5 and the
    bound follows it through the signed-offset (asymmetric) integral; the
    "matched" model assumes the true mean.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    signal = LinearVectorMap(np.ones(k))
    cov = ScaledIdentityCov(0.16, k)
    mean = np.full(k, float(mu_star))
    assumed = {
        "mismatched": AssumedModel(signal, np.full(k, 5.0), cov),
        "matched": AssumedModel(signal, mean.copy(), cov),
    }
    truth = TrueModel(signal, GaussianNoise(mean, cov))
    return Scenario(k, uniform_interval(t_prior), truth, assumed)


# ---------------------------------------------------------------------------
# Example 3: outlier contamination, sample mean versus sample median
# ---------------------------------------------------------------------------


def build_example3(omega1: float, k: int = 2000, t_prior: float | None = None) -> Scenario:
    """One contamination point: clean unit-variance samples with probability
    omega1, wide (std 25) outliers otherwise, i.i.d. per sample.

    truth is that per-sample law, whose analytic error probability is the
    central-limit Q(gamma |h|): zzb.bound takes the closed form in
    gamma_mismatched for the "mismatched" model (unit-variance white noise).
    The default prior width is sized for the slope at full contamination.
    """
    if not 0.0 <= omega1 <= 1.0:
        raise ValueError(f"omega1 must be in [0, 1], got {omega1}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    std_narrow, std_wide = 1.0, 25.0
    signal = LinearVectorMap(np.ones(k))
    assumed = AssumedModel(signal, np.zeros(k), ScaledIdentityCov(std_narrow**2, k))
    truth = TrueModel(
        signal,
        PerSampleMixtureNoise(
            np.array([omega1, 1.0 - omega1]), np.array([std_narrow, std_wide]), k
        ),
    )
    if t_prior is None:
        t_prior = _prior_width(0.5 * math.sqrt(k) / std_wide)
    gammas = {"mismatched": linear_scalar_profile(PeKernel(assumed, truth)).gamma}
    return Scenario(k, uniform_interval(t_prior), truth, {"mismatched": assumed}, gammas)


_MIXTURE_CELLS = 2**14  # (offset, node) cells per block of matched_mixture_pe
_MIXTURE_CHUNK = 32  # nodes per pairwise partial sum of matched_mixture_pe


def matched_mixture_pe(
    k: int, omega1: float, std_narrow: float = 1.0, std_wide: float = 25.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Error-probability profile of the optimal test under i.i.d. contamination.

    Per sample the exact log-likelihood ratio has moments computed by fixed
    Simpson quadrature over the contamination density (a dense center segment
    for the narrow component, wide flanks for the outlier tails); the K-sample
    error probability then follows from the normal approximation of the
    per-sample sum. Returns a vectorized pe(h_off) with pe(0) = 0.5 and NaN at
    a NaN offset.

    The log-density splits as log f(d) = b(d) + c(d): the wide Gaussian term
    b(d) = lb + cb - d^2 / (2 std_wide^2) and the narrow correction
    c(d) = log1p(exp(k0 - curvature d^2)), with k0 = la + ca - lb - cb. The
    ratio at node v is then ell = alpha v - beta + e, with alpha = h /
    std_wide^2, beta = h^2 / (2 std_wide^2) and e = c(v - h) - c(v); its mean
    and second moment need three moments of the weighted density, computed
    once, and the sums of e, v e and e^2. When std_narrow < std_wide,
    c(d) < exp(-50) past a reach R, so c(v - h) is evaluated only on the
    window of nodes with |v - h| <= R; outside it e = -c(v), whose sums are
    prefix and suffix sums computed once (in long double, since at large
    offsets they carry most of the mean). When std_narrow >= std_wide, the
    window is the whole grid.

    Each value is a pure function of its offset. The window is found from h
    alone. Window sums add fixed chunks of _MIXTURE_CHUNK nodes, aligned to
    the node index, and then the chunk sums in node order (np.add.accumulate);
    a block's nodes outside a row's window contribute exact zeros. So neither
    the other offsets of a call nor the block size moves a bit.
    """
    for name, std in (("std_narrow", std_narrow), ("std_wide", std_wide)):
        if not 0.0 < std < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {std}")
    if not 0.0 < omega1 < 1.0:
        raise ValueError("interior weights only; the extremes are exactly Gaussian")
    la, lb = math.log(omega1), math.log(1.0 - omega1)
    ca = -0.5 * math.log(2.0 * math.pi * std_narrow**2)
    cb = -0.5 * math.log(2.0 * math.pi * std_wide**2)
    k0 = la + ca - lb - cb
    curvature = 0.5 / std_narrow**2 - 0.5 / std_wide**2
    window_reach = math.sqrt(max(k0 + 50.0, 0.0) / curvature) if curvature > 0.0 else math.inf

    def correction(d: np.ndarray) -> np.ndarray:
        """c(d), computed in place over d."""
        np.square(d, out=d)
        d *= -curvature
        d += k0
        if curvature > 0.0:
            return np.log1p(np.exp(d, out=d), out=d)
        return np.logaddexp(0.0, d, out=d)  # exp(d) would overflow

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
    m0, m1, m2 = (math.fsum(f_w * v**p) for p in (0, 1, 2))
    c_v = correction(v.copy())
    # What the nodes below index j (below[:, j]) and from j on (above[:, j])
    # add to the sums of f_w e, f_w v e and f_w e^2 when e = -c(v) there.
    terms = np.stack((-f_w * c_v, -f_w * c_v * v, f_w * c_v * c_v)).astype(np.longdouble)
    below = np.zeros((3, v.size + 1))
    above = np.zeros((3, v.size + 1))
    below[:, 1:] = np.cumsum(terms, axis=1)
    above[:, :-1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    # At least one node of padding, so a block can always end a chunk past
    # its last window.
    pad = _MIXTURE_CHUNK - v.size % _MIXTURE_CHUNK
    v_pad, f_pad, c_pad = (np.pad(x, (0, pad), mode="edge") for x in (v, f_w, c_v))

    def pe(h_off) -> np.ndarray:
        h = np.atleast_1d(np.asarray(h_off, dtype=float))
        out = np.where(np.isnan(h), np.nan, 0.5)
        live = np.flatnonzero((h != 0.0) & ~np.isnan(h))
        # Sorted offsets keep each block's hull of windows narrow.
        live = live[np.argsort(h[live], kind="stable")]
        hs = h[live]
        j0 = np.searchsorted(v, hs - window_reach)
        j1 = np.searchsorted(v, hs + window_reach, "right")
        sums = below[:, j0] + above[:, j1]
        start = 0
        while start < hs.size:
            # As many rows as fit in _MIXTURE_CELLS at the width of the
            # block's hull of windows, widened to whole chunks.
            span = j1[start : start + _MIXTURE_CELLS // _MIXTURE_CHUNK] - j0[start]
            fits = np.arange(1, span.size + 1) * (span + 2 * _MIXTURE_CHUNK) <= _MIXTURE_CELLS
            stop = start + max(np.count_nonzero(fits), 1)
            lo = j0[start] // _MIXTURE_CHUNK * _MIXTURE_CHUNK
            hi = (j1[stop - 1] // _MIXTURE_CHUNK + 1) * _MIXTURE_CHUNK
            e = correction(np.subtract.outer(hs[start:stop], v_pad[lo:hi]))
            e -= c_pad[lo:hi]
            col = np.arange(lo, hi)
            np.copyto(e, 0.0, where=(col < j0[start:stop, None]) | (col >= j1[start:stop, None]))
            fe = f_pad[lo:hi] * e
            for i, term in enumerate((fe, fe * v_pad[lo:hi], fe * e)):
                chunks = np.add.reduce(term.reshape(stop - start, -1, _MIXTURE_CHUNK), axis=2)
                sums[i, start:stop] += np.add.accumulate(chunks, axis=1)[:, -1]
            start = stop
        s_e, s_ve, s_ee = sums
        alpha = hs / std_wide**2
        beta = 0.5 * hs * alpha
        mean = alpha * m1 - beta * m0 + s_e
        second = alpha * (alpha * m2 - 2.0 * beta * m1 + 2.0 * s_ve)
        second += beta * (beta * m0 - 2.0 * s_e) + s_ee
        var = np.maximum(second - mean * mean, 1e-300)
        out[live] = q_function(math.sqrt(k) * np.abs(mean) / np.sqrt(var))
        if np.isscalar(h_off):
            return out[0]
        return out

    return pe


def example3_matched_bound(scenario: Scenario) -> BoundResult:
    """Matched bound: the likelihood-ratio normal-approximation profile at
    an interior weight. At the weight extremes the law is Gaussian, and a
    scalar test between equal maps does not depend on the assumed variance,
    so the matched test is the mismatched one and zzb.bound gives it."""
    w1 = float(scenario.truth.noise.weights[0])
    if w1 in (0.0, 1.0):
        return bound(scenario.assumed["mismatched"], scenario.truth, scenario.prior)
    std_narrow, std_wide = scenario.truth.noise.stds
    pe = matched_mixture_pe(scenario.k, w1, std_narrow, std_wide)
    return zzb_scalar_independent(ScalarBoundSpec(scenario.prior, pe))


# ---------------------------------------------------------------------------
# Example 4: arrival time and amplitude with a too-narrow template
# ---------------------------------------------------------------------------


_EX4_TRUE_WIDTH = 300


def build_example4(
    snr: float, k: int = 5000, true_width: int = _EX4_TRUE_WIDTH, assumed_width: int = 200
) -> Scenario:
    """One SNR point of the pulse scenario.

    The true pulse map has width 300 samples, the assumed template 200; both
    have unit peak. SNR fixes the white-noise covariance through the true
    pulse energy at nominal amplitude 1. The prior is uniform over all k
    lattice positions and amplitudes in [0.5, 1.5]. The "mismatched" model
    assumes the narrow template, the "matched" one the true pulse.
    """
    if snr <= 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    if k < 2 * true_width:
        raise ValueError(f"k must be at least twice the true width, got k={k}")
    s_true = pulse_template(true_width)
    # SNR = (true pulse energy) * alpha / N_o at nominal alpha = 1, noise
    # variance per sample sigma^2 = N_o / 2.
    sigma2 = float(s_true @ s_true) / (2.0 * snr)
    cov = ScaledIdentityCov(sigma2, k)
    zero = np.zeros(k)
    prior = Prior((LatticeAxis(k, 0.0, 1.0), IntervalAxis(0.5, 1.5)))
    assumed = {
        "mismatched": AssumedModel(AmplitudePulseMap(assumed_width, k), zero, cov),
        "matched": AssumedModel(AmplitudePulseMap(true_width, k), zero.copy(), cov),
    }
    truth = TrueModel(AmplitudePulseMap(true_width, k), GaussianNoise(zero, cov))
    return Scenario(k, prior, truth, assumed)


def example4_bounds(scenario: Scenario) -> dict[str, BoundResult]:
    """All four direction bounds (tau and alpha, mismatched and matched)."""
    return {
        f"zzb_{name}_{label}": bound(model, scenario.truth, scenario.prior, coord=coord)
        for coord, name in enumerate(("tau", "alpha"))
        for label, model in scenario.assumed.items()
    }


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


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


# What a sweep evaluates at one point: bounds by quantity name, and Monte
# Carlo plans (quantities, estimator, pinned theta or None), None where a
# variant is absent, so each plan keeps its index in the seed cell.
_Plan = tuple[tuple[str, ...], EstimatorSpec, "np.ndarray | None"]
_Point = tuple[dict[str, BoundResult], list["_Plan | None"]]


@dataclass(frozen=True)
class Study:
    """One reference study, as its CLI presets and its sweeps read it.

    build(value, *args) makes the scenario at a value of the sweep variable
    var, which must satisfy in_domain (described by domain; NaN never does),
    at a record length k of at least min_k. grid, k and trials are the sweep
    defaults; variants name the assumed models, the default first. point
    gives what a sweep evaluates at each scenario. Where the scenarios carry
    gammas, a sweep builds every point on the prior width _prior_width gives
    for the smallest slope over the grid, passed to build after k.
    """

    example: int
    var: str
    in_domain: Callable[[float], bool]
    domain: str
    grid: tuple[float, ...]
    k: int
    trials: int
    min_k: int
    variants: tuple[str, ...]
    build: Callable[..., Scenario]
    point: Callable[[Scenario], _Point]

    def check_value(self, value: float) -> None:
        if not self.in_domain(value):
            raise ValueError(f"{self.var} must be {self.domain}, got {value}")

    def check_k(self, k: int) -> None:
        if k < self.min_k:
            raise ValueError(f"k must be at least {self.min_k} for example {self.example}, got {k}")


def _dc_point(scn: Scenario) -> _Point:
    bounds = {f"zzb_{name}": bound(m, scn.truth, scn.prior) for name, m in scn.assumed.items()}
    pin = np.array([THETA_DC])
    return bounds, [
        ((f"mse_mle_{name}",), LinearClosedForm(scn.assumed[name]), pin)
        if name in scn.assumed
        else None
        for name in ("m1", "m2", "matched")
    ]


def _mean_point(scn: Scenario) -> _Point:
    # Quadrature also at mu_star = 5, where the closed form would apply, so
    # the whole sweep reports one route.
    mismatched = scn.assumed["mismatched"]
    bounds = {
        "zzb_mismatched": bound(mismatched, scn.truth, scn.prior, "quadrature"),
        "zzb_matched": bound(scn.assumed["matched"], scn.truth, scn.prior),
    }
    return bounds, [(("mse_mle",), LinearClosedForm(mismatched), np.array([THETA_DC]))]


def _contamination_point(scn: Scenario) -> _Point:
    mismatched = scn.assumed["mismatched"]
    bounds = {
        "zzb_mismatched": bound(mismatched, scn.truth, scn.prior),
        "zzb_matched": example3_matched_bound(scn),
    }
    pin = np.array([THETA_DC])
    return bounds, [
        (("mse_mle",), LinearClosedForm(mismatched), pin),
        (("mse_median",), SampleMedian(), pin),
    ]


def _pulse_point(scn: Scenario) -> _Point:
    estimator = QuasiMLE(scn.assumed["mismatched"])
    return example4_bounds(scn), [(("mse_mle_tau", "mse_mle_alpha"), estimator, None)]


# The four studies by example number. Each builder and bound is looked up
# when it is called, so a wrapper set later on the module attribute sees
# every preset and sweep call.
STUDIES = {
    s.example: s
    for s in (
        Study(
            1, "sigma2", in_domain=lambda v: 0.0 <= v < math.inf, domain="finite and nonnegative",
            grid=tuple(np.linspace(0.01, 0.3, 8)), k=500, trials=2000, min_k=2,
            variants=("matched", "m1", "m2"), build=lambda v, *args: build_example1(v, *args),
            point=_dc_point,
        ),
        Study(
            2, "mu_star", in_domain=math.isfinite, domain="finite",
            grid=tuple(float(v) for v in range(11)), k=500, trials=2000, min_k=2,
            variants=("mismatched", "matched"), build=lambda v, *args: build_example2(v, *args),
            point=_mean_point,
        ),
        Study(
            3, "one_minus_omega1", in_domain=lambda v: 0.0 <= v <= 1.0, domain="in [0, 1]",
            grid=tuple(np.linspace(0.0, 1.0, 11)), k=2000, trials=1000, min_k=2,
            variants=("mismatched",), build=lambda w2, *args: build_example3(1.0 - w2, *args),
            point=_contamination_point,
        ),
        Study(
            4, "snr", in_domain=lambda v: 0.0 < v < math.inf, domain="finite and positive",
            grid=(1.0, 3.162, 10.0, 31.62, 100.0, 316.2), k=5000, trials=500,
            min_k=2 * _EX4_TRUE_WIDTH,  # room for two true-width pulses
            variants=("mismatched", "matched"), build=lambda v, *args: build_example4(v, *args),
            point=_pulse_point,
        ),
    )
}


def study(example: int) -> Study:
    """The study numbered example; the ValueError names the field."""
    if example not in STUDIES:
        raise ValueError(f"example: expected 1, 2, 3, or 4, got {example}")
    return STUDIES[example]


def default_grid(example: int) -> tuple[float, ...]:
    """The sweep grid each example was designed around."""
    return study(example).grid


def check_sweep_trials(trials: int) -> None:
    """Raise ValueError unless a Monte Carlo run has at least one trial."""
    if trials < 1:
        raise ValueError(f"expected a positive count, got {trials}")


def _named(name: str, check: Callable[..., None], *args: Any) -> None:
    """Run check, putting the field name at the head of its ValueError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    """One example sweep: which variable, over which grid, at what scale.

    Every ValueError starts with the field it names, as in "grid[1]: ".
    """

    example: int
    var: str
    grid: tuple[float, ...]
    overrides: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        ref = study(self.example)
        if self.var != ref.var:
            raise ValueError(f"var: expected one of {[ref.var]}, got {self.var!r}")
        grid = tuple(float(v) for v in self.grid)
        for i, value in enumerate(grid):
            _named(f"grid[{i}]", ref.check_value, value)
        if not grid:
            raise ValueError("grid: expected a nonempty grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid: grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        unknown = set(self.overrides) - {"k", "trials"}
        if unknown:
            raise ValueError(f"overrides: unknown {sorted(unknown)}; allowed: k, trials")
        if "k" in self.overrides:
            _named("k", ref.check_k, int(self.overrides["k"]))
        if "trials" in self.overrides:
            _named("trials", check_sweep_trials, int(self.overrides["trials"]))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every bound and Monte Carlo quantity over the configured grid.

    Rows come back ordered by sweep value, bounds before Monte Carlo results;
    an invalid Monte Carlo run flags its rows and the sweep continues. Each
    plan is seeded by its (grid index, plan index) cell.
    """
    ref = study(config.example)
    k = int(config.overrides.get("k", ref.k))
    trials = int(config.overrides.get("trials", ref.trials))
    scenarios = [ref.build(v, k) for v in config.grid]
    slopes = [g for scn in scenarios for g in scn.gammas.values()]
    if slopes:
        width = _prior_width(min(slopes))
        scenarios = [ref.build(v, k, width) for v in config.grid]
    rows: list[SweepRow] = []
    for i, (value, scn) in enumerate(zip(config.grid, scenarios)):
        bounds, plans = ref.point(scn)
        for quantity, result in bounds.items():
            flag = "ok" if result.converged else "not_converged"
            rows.append(SweepRow(config.var, value, quantity, result.form, result.value, 0.0, flag))
        for j, plan in enumerate(plans):
            if plan is None:
                continue
            quantities, estimator, pin = plan
            seed = derive_seed(config.seed, config.example, i, j)
            report = run_mse(TrialPlan(scn.truth, estimator, scn.prior, trials, seed, pin))
            flag = "ok" if report.valid else "invalid"
            for coord, quantity in enumerate(quantities):
                mse, stderr = float(report.mse[coord]), float(report.stderr[coord])
                rows.append(SweepRow(config.var, value, quantity, "monte_carlo", mse, stderr, flag))
    return rows
