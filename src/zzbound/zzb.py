"""Scalar and vector mean-square-error lower bounds from error probabilities.

A bound evaluation has three ingredients: an error-probability profile (how
distinguishable two parameter values at a given offset are), a prior (how much
probability mass the offset pair shares), and an integration or summation over
offsets. This module supplies the integrators plus the closed form available
when the profile is exactly Q(gamma * h_off) on a uniform interval prior.

Quadrature is composite Simpson with grid doubling; every bound reports the
doubling convergence through BoundResult.converged rather than raising, so
sweeps can flag rows instead of dying. Sums and quadrature reductions rely on
numpy's pairwise summation in fixed index order, which keeps results identical
across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .models import (
    AssumedModel,
    Covariance,
    DiagonalCov,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    Prior,
    ScaledIdentityCov,
    TrueModel,
)
from .pe_kernel import PeKernel, linear_column, linear_scalar_profile
from .special_math import inc_gamma_reg, q_function

__all__ = [
    "QuadratureRule",
    "BoundResult",
    "ScalarBoundSpec",
    "zzb_scalar_general",
    "zzb_scalar_independent",
    "zzb_scalar_symmetric",
    "zzb_closed_form_q_linear",
    "MethodError",
    "bound",
    "prior_overlap",
    "overlap_rows",
    "lattice_staircase_sum",
    "DeltaSearch",
    "VectorBoundSpec",
    "zzb_vector",
]

# Tensor quadrature (outer offset x inner location) caps its own doubling so
# the mesh never exceeds roughly 8193^2 nodes.
_TENSOR_MAX_SIDE = 8193
# Most profile or integrand evaluations handed to one pe call by the tensor
# and vector routes (see _scan_rows). It bounds the pe's temporaries, and so
# the working set, at any mesh size; each value is computed from the same
# operands at any block size, so the bits do not depend on it.
_SCAN_BLOCK = 1 << 14


@dataclass(frozen=True)
class QuadratureRule:
    """Composite-Simpson settings shared by the bound integrators.

    points is the starting grid size for one-dimensional sweeps (made odd if
    needed); each doubling refines until successive values agree to rel_tol.
    tensor_points seeds the two-dimensional general form, which doubles both
    axes together.
    """

    points: int = 4097
    rel_tol: float = 1e-5
    max_doublings: int = 10
    tensor_points: int = 257

    def __post_init__(self) -> None:
        if self.points < 5 or self.tensor_points < 5:
            raise ValueError("quadrature needs at least 5 points per axis")
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")


@dataclass(frozen=True)
class BoundResult:
    """Bound value with its convergence flag and the evaluation route taken."""

    value: float
    converged: bool = True
    form: str = ""


@dataclass(frozen=True, eq=False)
class ScalarBoundSpec:
    """Scalar-parameter bound problem: uniform interval prior plus a profile.

    The profile signature depends on the operation: zzb_scalar_independent
    wants pe(h_off) vectorized over an offset array, zzb_scalar_general wants
    pe(theta_o, h_off) vectorized elementwise over equal-shape arrays, and
    zzb_scalar_symmetric wants the signed one-sided branch g(h_off) for
    h_off in [-T, T].
    """

    prior: Prior
    pe: Callable[..., np.ndarray]
    quadrature: QuadratureRule = QuadratureRule()


def _interval_axis(prior: Prior) -> IntervalAxis:
    if prior.n_theta != 1 or not isinstance(prior.axes[0], IntervalAxis):
        raise ValueError("scalar bounds require a one-axis interval prior")
    return prior.axes[0]


def _interval_width(prior: Prior) -> float:
    return _interval_axis(prior).width


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _scan_rows(
    evaluate: Callable[[slice, slice], np.ndarray], n_rows: int, row_len: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Values of an (n_rows, row_len) grid, one block of whole rows at a time.

    evaluate(rows, cols) returns the values on the rectangle rows x cols in
    row-major order and is never asked for more than _SCAN_BLOCK cells: a
    block holds as many whole rows as fit, and a row longer than the block
    is asked for in pieces. Yields (rows, vals) with vals of shape
    (rows, row_len), so per-row reductions see whole rows.
    """
    per_block = max(1, _SCAN_BLOCK // row_len)
    for r0 in range(0, n_rows, per_block):
        rows = slice(r0, min(r0 + per_block, n_rows))
        parts = [
            np.asarray(evaluate(rows, slice(c0, min(c0 + _SCAN_BLOCK, row_len))), dtype=float)
            for c0 in range(0, row_len, _SCAN_BLOCK)
        ]
        vals = parts[0] if len(parts) == 1 else np.concatenate([p.ravel() for p in parts])
        yield rows, vals.reshape(rows.stop - rows.start, row_len)


def _simpson_last(y: np.ndarray, step: float) -> np.ndarray:
    """Composite Simpson along the last axis (odd node count)."""
    s = (
        y[..., 0]
        + y[..., -1]
        + 4.0 * np.sum(y[..., 1::2], axis=-1)
        + 2.0 * np.sum(y[..., 2:-1:2], axis=-1)
    )
    return s * (step / 3.0)


def _doubling(
    value_at: Callable[[int], float], n: int, rule: QuadratureRule, max_side: float = math.inf
) -> tuple[float, bool]:
    """Grid doubling n -> 2n - 1 until two successive values agree to rule.rel_tol.

    value_at(n) is the quadrature value on n nodes per axis. At most
    rule.max_doublings doublings are made, and none past max_side nodes.
    Returns the last value and whether it converged.
    """
    prev = value_at(n)
    for _ in range(rule.max_doublings):
        if 2 * n - 1 > max_side:
            break
        n = 2 * n - 1
        cur = value_at(n)
        if abs(cur - prev) <= rule.rel_tol * max(abs(cur), 1e-300):
            return cur, True
        prev = cur
    return prev, False


def _adaptive_1d(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, rule: QuadratureRule
) -> tuple[float, bool]:
    """Simpson value of f on [lo, hi] with grid doubling to rule.rel_tol.

    The grids are nested: linspace(lo, hi, 2n - 1)[::2] equals
    linspace(lo, hi, n) bit for bit, because the step halves exactly. So
    each doubling keeps the previous values at the even nodes and calls f
    only on the new odd nodes; f sees each final node exactly once, and
    every Simpson sum matches a fresh evaluation of the whole grid.
    """
    y = None

    def value_at(n: int) -> float:
        nonlocal y
        if y is None:
            y = np.asarray(f(np.linspace(lo, hi, n)), dtype=float)
        else:
            fine = np.empty(n)
            fine[::2] = y
            fine[1::2] = f(np.linspace(lo, hi, n)[1::2])
            y = fine
        return float(_simpson_last(y, (hi - lo) / (n - 1)))

    return _doubling(value_at, _odd(rule.points), rule)


# ---------------------------------------------------------------------------
# Scalar bounds
# ---------------------------------------------------------------------------


def zzb_scalar_general(spec: ScalarBoundSpec) -> BoundResult:
    """Offset-and-location form (1/T) int_0^T h int_lo^{hi-h} pe(t, h) dt dh.

    spec.pe(theta_o, h_off) is the error probability between theta_o and
    theta_o + h_off on the prior interval [lo, hi] of width T. The inner
    integral is mapped onto a fixed unit interval so the two Simpson grids
    form a tensor mesh; both axes double together on _doubling, capped at
    _TENSOR_MAX_SIDE nodes. Each level is evaluated afresh in _scan_rows
    blocks: reusing the previous level's nodes would mean keeping its whole
    n x n mesh, not one block.
    """
    axis = _interval_axis(spec.prior)
    t_width = axis.width
    rule = spec.quadrature

    def value_at(n: int) -> float:
        h = np.linspace(0.0, t_width, n)
        u = np.linspace(0.0, 1.0, n)

        def pe_at(rows: slice, cols: slice) -> np.ndarray:
            hb = h[rows]
            theta = axis.lo + u[None, cols] * (t_width - hb)[:, None]
            return spec.pe(theta, np.broadcast_to(hb[:, None], theta.shape))

        inner = np.empty(n)
        for rows, pe_vals in _scan_rows(pe_at, n, n):
            inner[rows] = (t_width - h[rows]) * _simpson_last(pe_vals, 1.0 / (n - 1))
        outer = _simpson_last(h * inner, t_width / (n - 1))
        return float(outer) / t_width

    n = _odd(min(rule.tensor_points, _TENSOR_MAX_SIDE))
    value, converged = _doubling(value_at, n, rule, _TENSOR_MAX_SIDE)
    return BoundResult(max(value, 0.0), converged, "general_tensor")


def zzb_scalar_independent(spec: ScalarBoundSpec) -> BoundResult:
    """Location-free form (1/T) int_0^T h (T-h) pe(h) dh."""
    t_width = _interval_width(spec.prior)

    def f(h: np.ndarray) -> np.ndarray:
        return h * (t_width - h) * np.asarray(spec.pe(h), dtype=float)

    val, conv = _adaptive_1d(f, 0.0, t_width, spec.quadrature)
    return BoundResult(max(val / t_width, 0.0), conv, "independent")


def zzb_scalar_symmetric(spec: ScalarBoundSpec) -> BoundResult:
    """Signed form (1/2T) int_{-T}^{T} |h| (T-|h|) g(h) dh.

    g is the one-sided decision branch, which need not be even when the
    assumed and true noise means differ. The two half-lines are integrated
    separately (the integrand has a kink at 0), each with its own doubling,
    so a sign flip of the asymmetry maps one half exactly onto the other.
    """
    t_width = _interval_width(spec.prior)

    def f_pos(h: np.ndarray) -> np.ndarray:
        return h * (t_width - h) * np.asarray(spec.pe(h), dtype=float)

    def f_neg(h: np.ndarray) -> np.ndarray:
        return h * (t_width - h) * np.asarray(spec.pe(-h), dtype=float)

    val_pos, conv_pos = _adaptive_1d(f_pos, 0.0, t_width, spec.quadrature)
    val_neg, conv_neg = _adaptive_1d(f_neg, 0.0, t_width, spec.quadrature)
    value = (val_pos + val_neg) / (2.0 * t_width)
    return BoundResult(max(value, 0.0), conv_pos and conv_neg, "symmetric_split")


def zzb_closed_form_q_linear(gamma: float, t: float) -> float:
    """Closed-form bound for pe(h) = Q(gamma h) on a uniform [0, T] prior.

    Evaluates
    (T^2/6) Q(T gamma) + P(3/2, T^2 gamma^2 / 2) / (4 gamma^2)
    - 2 P(2, T^2 gamma^2 / 2) / (3 T sqrt(2 pi) gamma^3)
    with P the regularized lower incomplete gamma function. Approaches
    T^2/12 as T gamma -> 0 and 1/(4 gamma^2) from below as T gamma grows,
    with relative gap 8 / (3 sqrt(2 pi) T gamma).
    """
    if gamma <= 0.0 or t <= 0.0:
        raise ValueError(f"gamma and t must be positive, got gamma={gamma}, t={t}")
    x = 0.5 * (t * gamma) ** 2
    term_tail = (t * t / 6.0) * float(q_function(t * gamma))
    term_main = inc_gamma_reg(1.5, x) / (4.0 * gamma**2)
    term_corr = 2.0 * inc_gamma_reg(2.0, x) / (3.0 * t * math.sqrt(2.0 * math.pi) * gamma**3)
    return term_tail + term_main - term_corr


# ---------------------------------------------------------------------------
# Scenario constants and the scalar bound router
# ---------------------------------------------------------------------------


def _gamma_matched(truth: TrueModel) -> float:
    if not isinstance(truth.noise, GaussianNoise):
        raise ValueError("matched gamma requires Gaussian truth")
    return 0.5 * math.sqrt(truth.noise.cov.qf_inv(linear_column(truth.signal)))


def _diagonal(cov: Covariance) -> np.ndarray | None:
    if isinstance(cov, ScaledIdentityCov):
        return np.full(cov.k, cov.sigma2)
    if isinstance(cov, DiagonalCov):
        return cov.diag
    return None


def _same_covariance(a: Covariance, b: Covariance) -> bool:
    """Whether a and b are equal as matrices. Two diagonal kinds compare
    their diagonals; K x K matrices are built only when a DenseCov is
    involved."""
    da, db = _diagonal(a), _diagonal(b)
    if da is None or db is None:
        return np.array_equal(a.dense(), b.dense())
    return np.array_equal(da, db)


def _q_linear_gamma(assumed: AssumedModel, truth: TrueModel) -> float:
    """Slope gamma of a q_linear scenario, whose error probability is the
    pooled Q(gamma |h|) (see EqualLinearScalarPe.gamma). Gaussian truth whose
    covariance equals the assumed one takes the matched expression
    sqrt(a^T Sigma^-1 a) / 2, so a matched scenario gives the bits of
    _gamma_matched."""
    profile = linear_scalar_profile(PeKernel(assumed, truth))
    if not profile.q_linear:
        raise ValueError("the q-linear slope requires identical scalar maps and equal noise means")
    noise = truth.noise
    if isinstance(noise, GaussianNoise) and _same_covariance(assumed.noise_cov, noise.cov):
        return 0.5 * math.sqrt(noise.cov.qf_inv(linear_column(assumed.signal)))
    return profile.gamma


class MethodError(ValueError):
    """The requested bound method does not apply to the scenario."""


def bound(
    assumed: AssumedModel, truth: TrueModel, prior: Prior, method: str = "auto"
) -> BoundResult:
    """Scalar bound of a linear scenario on a one-axis interval prior.

    The route follows the scenario's EqualLinearScalarPe profile:
    - q_linear (no location term, no mean offset): the closed form in the
      slope gamma, or with method "asymptotic" its floor 1 / (4 gamma^2);
    - no location term, one truth component: "symmetric_split" over the
      signed one-sided branch;
    - no location term, several components: "independent" over the
      two-sided error probability;
    - a location term (the maps differ, cross != 0): "general_tensor" over
      the offset and the location.
    method "auto" takes the closed form where it applies and quadrature
    otherwise; "quadrature" always integrates. "closed_form" and
    "asymptotic" raise MethodError unless the profile is q_linear.
    """
    t_width = _interval_width(prior)
    profile = linear_scalar_profile(PeKernel(assumed, truth))
    if method == "auto":
        method = "closed_form" if profile.q_linear else "quadrature"
    if method in ("closed_form", "asymptotic"):
        if not profile.q_linear:
            raise MethodError(
                f"{method} needs a scalar linear map and centered gaussian or "
                "mixture noise; use quadrature"
            )
        gamma = _q_linear_gamma(assumed, truth)
        if method == "closed_form":
            value = zzb_closed_form_q_linear(gamma, t_width)
            return BoundResult(value, True, "closed_form_q_linear")
        return BoundResult(1.0 / (4.0 * gamma * gamma), True, "asymptotic_q_linear")
    if method != "quadrature":
        raise ValueError(f"unknown bound method {method!r}")
    if profile.cross != 0.0:
        return zzb_scalar_general(ScalarBoundSpec(prior, profile.pe))
    if profile.weights.size == 1:
        return zzb_scalar_symmetric(ScalarBoundSpec(prior, profile.single_q))
    return zzb_scalar_independent(ScalarBoundSpec(prior, partial(profile.pe, 0.0)))


# ---------------------------------------------------------------------------
# Prior overlap and the vector bound
# ---------------------------------------------------------------------------


def prior_overlap(prior: Prior, delta) -> float:
    """Shared mass int min[p(theta), p(theta + delta)] d(theta) in [0, 1]."""
    de = np.atleast_1d(np.asarray(delta, dtype=float))
    if de.size != prior.n_theta:
        raise ValueError(f"delta has dimension {de.size}, prior expects {prior.n_theta}")
    return float(overlap_rows(prior, de.reshape(1, -1))[0])


def overlap_rows(prior: Prior, deltas: np.ndarray) -> np.ndarray:
    """prior_overlap of each row of a (M, n_theta) offset array.

    Per axis, an interval of width W contributes max(0, 1 - |d| / W) and a
    lattice of count N contributes max(0, 1 - |j| / N) when d is j whole
    steps, else 0; the row's overlap is the product over axes.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 2 or d.shape[1] != prior.n_theta:
        raise ValueError(f"deltas must have shape (M, {prior.n_theta})")
    out = np.ones(d.shape[0], dtype=float)
    for j, ax in enumerate(prior.axes):
        col = d[:, j]
        if isinstance(ax, IntervalAxis):
            out *= np.maximum(0.0, 1.0 - np.abs(col) / ax.width)
        else:
            steps = col / ax.step
            rounded = np.round(steps)
            on_lattice = np.abs(steps - rounded) <= 1e-9
            frac = np.maximum(0.0, 1.0 - np.abs(rounded) / ax.count)
            out *= np.where(on_lattice, frac, 0.0)
    return out


def lattice_staircase_sum(step: float, count: int, g_tilde: np.ndarray) -> float:
    """Lattice tail-sum bound sum_m (2m-1) min(1, 2 max(G(2m-1), G(2m))).

    g_tilde[j-1] holds the overlap-weighted error probability at offset j
    lattice steps, already maximized over any free parameter directions.
    Valid for estimators confined to the same lattice as the prior: the
    squared error then decomposes over integer tail events, and each tail
    P(|err| >= m steps) is bounded through the offset-(2m-1) and offset-(2m)
    binary tests (both parities give valid tails; the larger is kept).
    """
    g = np.asarray(g_tilde, dtype=float)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if g.shape != (count - 1,):
        raise ValueError(f"g_tilde must have shape ({count - 1},), got {g.shape}")
    if count == 1:
        return 0.0
    padded = np.concatenate([g, np.zeros(count + 2)])
    m = np.arange(1, count)
    odd = padded[2 * m - 2]  # offset 2m-1 lives at index 2m-2
    even = padded[2 * m - 1]  # offset 2m at index 2m-1
    tails = np.minimum(1.0, 2.0 * np.maximum(odd, even))
    return float(step * step * np.sum((2 * m - 1) * tails))


@dataclass(frozen=True)
class DeltaSearch:
    """Search settings for the offset maximization inside the vector bound.

    grid_points controls the scan density on each free continuous axis,
    refine_iters the ternary-refinement depth after the scan, and
    lattice_window caps the |offset| (in steps) scanned on free lattice axes
    (None scans every offset when the axis has at most 129 points, else
    offsets up to 128).
    """

    grid_points: int = 65
    refine_iters: int = 40
    lattice_window: int | None = None

    def __post_init__(self) -> None:
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")


@dataclass(frozen=True, eq=False)
class VectorBoundSpec:
    """Vector-parameter bound along a direction.

    pe maps a (M, n_theta) array of offsets to (M,) error probabilities.
    With pe_includes_prior=False the integrand is prior_overlap(delta) times
    pe(delta); with True, pe is treated as the full location-averaged
    integrand (overlap weighting and any location dependence already inside),
    which is how scenarios with location-dependent error probabilities plug
    in after collapsing their inner average.
    """

    direction: np.ndarray
    prior: Prior
    pe: Callable[[np.ndarray], np.ndarray]
    pe_includes_prior: bool = False
    search: DeltaSearch = DeltaSearch()
    quadrature: QuadratureRule = QuadratureRule()

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.direction, dtype=float))
        if a.size != self.prior.n_theta:
            raise ValueError(
                f"direction has dimension {a.size}, prior expects {self.prior.n_theta}"
            )
        if not np.all(np.isfinite(a)) or float(a @ a) == 0.0:
            raise ValueError("direction must be finite and nonzero")
        object.__setattr__(self, "direction", a)


def _g_rows(spec: VectorBoundSpec, deltas: np.ndarray) -> np.ndarray:
    """Integrand at each row of a (M, n_theta) offset array, in _scan_rows blocks."""

    def g_at(rows: slice, cols: slice) -> np.ndarray:
        d = deltas[rows]
        vals = np.asarray(spec.pe(d), dtype=float)
        if spec.pe_includes_prior:
            return vals
        return vals * overlap_rows(spec.prior, d)

    out = np.empty(deltas.shape[0])
    for rows, vals in _scan_rows(g_at, deltas.shape[0], 1):
        out[rows] = vals[:, 0]
    return out


def _free_mesh(spec: VectorBoundSpec, free_idx: Sequence[int]) -> np.ndarray:
    """(n_c, n_free) candidate offsets on the free axes, first axis slowest."""
    cand = [_free_axis_candidates(spec.prior.axes[j], spec.search) for j in free_idx]
    mesh = np.meshgrid(*cand, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _mesh_deltas(
    n: int, pin_axis: int, pins: np.ndarray, free_idx: Sequence[int], combos: np.ndarray
) -> np.ndarray:
    """(r * n_c, n) offsets, row-major over (r, n_c): free axes from the n_c
    combinations, pin_axis from pins of shape (r, 1) or (r, n_c)."""
    deltas = np.zeros((pins.shape[0], combos.shape[0], n))
    deltas[:, :, pin_axis] = pins
    for col, j in enumerate(free_idx):
        deltas[:, :, j] = combos[None, :, col]
    return deltas.reshape(-1, n)


def _free_axis_candidates(ax, search: DeltaSearch) -> np.ndarray:
    """Candidate offsets scanned on one free axis."""
    if isinstance(ax, IntervalAxis):
        return np.linspace(-ax.width, ax.width, _odd(search.grid_points))
    window = search.lattice_window
    if window is None:
        window = ax.count - 1 if ax.count <= 129 else 128
    window = min(window, ax.count - 1)
    offs = np.arange(-window, window + 1, dtype=float)
    return offs * ax.step


def _max_over_free(
    spec: VectorBoundSpec,
    pins: np.ndarray,
    pin_axis: int,
    free_idx: Sequence[int],
) -> np.ndarray:
    """max over free-axis offsets of the integrand, per pinned offset.

    pins gives the offset value on pin_axis for each row of the result;
    the remaining axes are scanned on a grid and continuous ones are then
    polished by vectorized ternary search around each row's best point.
    """
    n = spec.prior.n_theta
    n_pin = pins.size
    if not free_idx:
        deltas = np.zeros((n_pin, n))
        deltas[:, pin_axis] = pins
        return _g_rows(spec, deltas)

    combos = _free_mesh(spec, free_idx)  # (n_c, n_free)

    def g_at(rows: slice, cols: slice) -> np.ndarray:
        return _g_rows(spec, _mesh_deltas(n, pin_axis, pins[rows, None], free_idx, combos[cols]))

    best_c = np.empty(n_pin, dtype=np.intp)
    best_val = np.empty(n_pin)
    for rows, vals in _scan_rows(g_at, n_pin, combos.shape[0]):
        best_c[rows] = np.argmax(vals, axis=1)
        best_val[rows] = vals[np.arange(vals.shape[0]), best_c[rows]]
    best_free = combos[best_c]  # (n_pin, n_free)

    def eval_rows(free_mat: np.ndarray) -> np.ndarray:
        d = np.zeros((n_pin, n))
        d[:, pin_axis] = pins
        for col2, j2 in enumerate(free_idx):
            d[:, j2] = free_mat[:, col2]
        return _g_rows(spec, d)

    for col, j in enumerate(free_idx):
        ax = spec.prior.axes[j]
        if not isinstance(ax, IntervalAxis) or spec.search.refine_iters == 0:
            continue
        spacing = 2.0 * ax.width / (_odd(spec.search.grid_points) - 1)
        lo = np.maximum(best_free[:, col] - spacing, -ax.width)
        hi = np.minimum(best_free[:, col] + spacing, ax.width)
        probe = best_free.copy()
        for _ in range(spec.search.refine_iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            probe[:, col] = m1
            f1 = eval_rows(probe)
            probe[:, col] = m2
            f2 = eval_rows(probe)
            take_hi = f1 < f2
            lo = np.where(take_hi, m1, lo)
            hi = np.where(take_hi, hi, m2)
        probe[:, col] = 0.5 * (lo + hi)
        refined = eval_rows(probe)
        improved = refined > best_val
        best_val = np.where(improved, refined, best_val)
        best_free[:, col] = np.where(improved, probe[:, col], best_free[:, col])

    return best_val


def _zzb_vector_scalar_axis(spec: VectorBoundSpec) -> BoundResult:
    ax = spec.prior.axes[0]
    c = float(spec.direction[0])
    if isinstance(ax, IntervalAxis):
        h_max = abs(c) * ax.width

        def f(h: np.ndarray) -> np.ndarray:
            return h * _g_rows(spec, (h / c)[:, None])

        val, conv = _adaptive_1d(f, 0.0, h_max, spec.quadrature)
        return BoundResult(max(val, 0.0), conv, "scalar_reduction")
    offs = np.arange(1, ax.count, dtype=float) * ax.step * math.copysign(1.0, c)
    g_tilde = _g_rows(spec, offs[:, None])
    value = c * c * lattice_staircase_sum(ax.step, ax.count, g_tilde)
    return BoundResult(value, True, "lattice_staircase")


def _zzb_vector_lattice_direction(spec: VectorBoundSpec, pin_axis: int) -> BoundResult:
    ax = spec.prior.axes[pin_axis]
    c = float(spec.direction[pin_axis])
    free_idx = [j for j in range(spec.prior.n_theta) if j != pin_axis]
    offs = np.arange(1, ax.count, dtype=float) * ax.step
    g_pos = _max_over_free(spec, offs, pin_axis, free_idx)
    g_neg = _max_over_free(spec, -offs, pin_axis, free_idx)
    g_tilde = np.maximum(g_pos, g_neg)
    value = c * c * lattice_staircase_sum(ax.step, ax.count, g_tilde)
    return BoundResult(value, True, "lattice_staircase")


def _zzb_vector_continuous_direction(spec: VectorBoundSpec, pin_axis: int) -> BoundResult:
    ax = spec.prior.axes[pin_axis]
    c = float(spec.direction[pin_axis])
    free_idx = [j for j in range(spec.prior.n_theta) if j != pin_axis]
    h_max = abs(c) * ax.width

    def f(h: np.ndarray) -> np.ndarray:
        return h * _max_over_free(spec, h / c, pin_axis, free_idx)

    val, conv = _adaptive_1d(f, 0.0, h_max, spec.quadrature)
    return BoundResult(max(val, 0.0), conv, "continuous_profile")


def _zzb_vector_oblique(spec: VectorBoundSpec) -> BoundResult:
    """General direction over an all-continuous prior via a pivot coordinate."""
    a = spec.direction
    axes = spec.prior.axes
    if any(isinstance(ax, LatticeAxis) for ax in axes):
        raise ValueError("direction must be axis-aligned when the prior has lattice axes")
    pivot = int(np.argmax(np.abs(a)))
    free_idx = [j for j in range(spec.prior.n_theta) if j != pivot]
    h_max = float(np.sum(np.abs(a) * np.array([ax.width for ax in axes])))
    w_piv = axes[pivot].width

    combos = _free_mesh(spec, free_idx)
    proj = combos @ np.array([a[j] for j in free_idx])

    def g_tilde(h: np.ndarray) -> np.ndarray:
        def g_at(rows: slice, cols: slice) -> np.ndarray:
            piv = (h[rows, None] - proj[None, cols]) / a[pivot]
            flat = _mesh_deltas(spec.prior.n_theta, pivot, piv, free_idx, combos[cols])
            feasible = np.abs(flat[:, pivot]) <= w_piv
            vals = np.zeros(flat.shape[0])
            if np.any(feasible):
                vals[feasible] = _g_rows(spec, flat[feasible])
            return vals

        out = np.empty(h.size)
        for rows, vals in _scan_rows(g_at, h.size, combos.shape[0]):
            out[rows] = np.max(vals, axis=1)
        return out

    def f(h: np.ndarray) -> np.ndarray:
        return h * g_tilde(h)

    val, conv = _adaptive_1d(f, 0.0, h_max, spec.quadrature)
    return BoundResult(max(val, 0.0), conv, "continuous_profile")


def zzb_vector(spec: VectorBoundSpec) -> BoundResult:
    """Direction-projected bound int_0^inf h max_{a.delta = h} G(delta) dh.

    G is overlap times error probability (or the caller's combined integrand,
    see VectorBoundSpec.pe_includes_prior). Continuous directions integrate
    the offset profile; a lattice direction instead accumulates the exact
    tail-sum over integer offsets (see lattice_staircase_sum), which is the
    rigorous discrete analogue. The returned form field names the route.
    """
    a = spec.direction
    if spec.prior.n_theta == 1:
        return _zzb_vector_scalar_axis(spec)
    nonzero = np.nonzero(a)[0]
    if nonzero.size == 1:
        pin_axis = int(nonzero[0])
        if isinstance(spec.prior.axes[pin_axis], LatticeAxis):
            return _zzb_vector_lattice_direction(spec, pin_axis)
        return _zzb_vector_continuous_direction(spec, pin_axis)
    return _zzb_vector_oblique(spec)
