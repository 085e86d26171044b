"""Scalar and vector mean-square-error lower bounds from error probabilities.

A bound evaluation has three ingredients: an error-probability profile (how
distinguishable two parameter values at a given offset are), a prior (how much
probability mass the offset pair shares), and an integration or summation over
offsets. This module supplies the integrators plus the closed form available
when the profile is exactly Q(gamma * h_off) on a uniform interval prior.
The vector bound takes one coordinate j at a time: offsets on axis j are
pinned and the other axes' offsets are maximized over, or held at 0 where
the assumed model is not the truth. bound routes a linear scenario to a
scalar form and a pulse one to zzb_vector.

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
from typing import Callable, Sequence

import numpy as np

from .models import (
    AmplitudePulseMap,
    AssumedModel,
    IntervalAxis,
    LatticeAxis,
    Prior,
    TrueModel,
)
from .pe_kernel import PeKernel, linear_scalar_profile, pulse_profile
from .special_math import inc_gamma_reg, q_function

__all__ = [
    "QuadratureRule",
    "BoundResult",
    "ScalarBoundSpec",
    "zzb_scalar_general",
    "zzb_scalar_independent",
    "zzb_scalar_symmetric",
    "zzb_closed_form_q_linear",
    "RouteError",
    "MethodError",
    "bound",
    "overlap_rows",
    "lattice_staircase_sum",
    "DeltaSearch",
    "VectorBoundSpec",
    "zzb_vector",
]

# Most cells per block: per pe call of the vector routes, per _grid_max
# block, and over k, per quasi-MLE scoring block. It bounds
# the working set at any mesh size; each value is computed from the same
# operands at any block size, so the bits do not depend on it.
_SCAN_BLOCK = 1 << 14


@dataclass(frozen=True)
class QuadratureRule:
    """Composite-Simpson settings shared by the bound integrators.

    points is the starting grid size of every bound quadrature, each one
    dimensional (made odd if needed); each doubling refines until successive
    values agree to rel_tol, at most max_doublings times.
    """

    points: int = 4097
    rel_tol: float = 1e-5
    max_doublings: int = 10

    def __post_init__(self) -> None:
        if self.points < 5:
            raise ValueError("quadrature needs at least 5 points")
        # NaN fails every comparison. A tolerance of 1 or more would accept
        # any two successive values as converged.
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be positive and below 1, got {self.rel_tol}")
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

    Every profile is vectorized over an offset array, and its meaning
    depends on the operation: zzb_scalar_independent wants the error
    probability pe(h_off), zzb_scalar_general the location integral
    P(h_off) = int_lo^{hi-h_off} pe(t, h_off) dt over the prior interval
    [lo, hi], both for h_off in [0, T], and zzb_scalar_symmetric wants the
    signed one-sided branch g(h_off) for h_off in [-T, T].
    """

    prior: Prior
    pe: Callable[..., np.ndarray]
    quadrature: QuadratureRule = QuadratureRule()


class RouteError(ValueError):
    """No bound route applies to the scenario."""


class MethodError(RouteError):
    """The requested bound method does not apply to the scenario."""


def _interval_axis(prior: Prior) -> IntervalAxis:
    if prior.n_theta != 1 or not isinstance(prior.axes[0], IntervalAxis):
        raise RouteError("scalar bounds require a one-axis interval prior")
    return prior.axes[0]


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _simpson_last(y: np.ndarray, step: float) -> np.ndarray:
    """Composite Simpson along the last axis (odd node count)."""
    s = (
        y[..., 0]
        + y[..., -1]
        + 4.0 * np.sum(y[..., 1::2], axis=-1)
        + 2.0 * np.sum(y[..., 2:-1:2], axis=-1)
    )
    return s * (step / 3.0)


def _adaptive_1d(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, rule: QuadratureRule
) -> tuple[float, bool]:
    """Simpson value of f on [lo, hi] with grid doubling to rule.rel_tol.

    The grid of rule.points nodes (made odd) doubles n -> 2n - 1 until two
    successive values agree to rule.rel_tol, at most rule.max_doublings
    times. Returns the last value and whether it converged.

    The grids are nested: linspace(lo, hi, 2n - 1)[::2] equals
    linspace(lo, hi, n) bit for bit, because the step halves exactly. So
    each doubling keeps the previous values at the even nodes and calls f
    only on the new odd nodes; f sees each final node exactly once, and
    every Simpson sum matches a fresh evaluation of the whole grid.
    """
    n = _odd(rule.points)
    y = np.asarray(f(np.linspace(lo, hi, n)), dtype=float)
    prev = float(_simpson_last(y, (hi - lo) / (n - 1)))
    for _ in range(rule.max_doublings):
        n = 2 * n - 1
        fine = np.empty(n)
        fine[::2] = y
        fine[1::2] = f(np.linspace(lo, hi, n)[1::2])
        y = fine
        cur = float(_simpson_last(y, (hi - lo) / (n - 1)))
        if abs(cur - prev) <= rule.rel_tol * max(abs(cur), 1e-300):
            return cur, True
        prev = cur
    return prev, False


# ---------------------------------------------------------------------------
# Scalar bounds
# ---------------------------------------------------------------------------


def _half_line(
    spec: ScalarBoundSpec,
    weight: Callable[[np.ndarray, float], np.ndarray],
    form: str,
    signs: tuple[float, ...] = (1.0,),
) -> BoundResult:
    """(1/(n T)) sum over the n signs of int_0^T weight(h, T) pe(sign h) dh,
    clamped at 0; each sign has its own doubling, and all must converge."""
    t_width = _interval_axis(spec.prior).width
    total, converged = 0.0, True
    for sign in signs:

        def f(h: np.ndarray, sign: float = sign) -> np.ndarray:
            return weight(h, t_width) * np.asarray(spec.pe(sign * h), dtype=float)

        val, conv = _adaptive_1d(f, 0.0, t_width, spec.quadrature)
        total, converged = total + val, converged and conv
    return BoundResult(max(total / (len(signs) * t_width), 0.0), converged, form)


def zzb_scalar_general(spec: ScalarBoundSpec) -> BoundResult:
    """Offset-and-location form (1/T) int_0^T h P(h) dh.

    spec.pe is the location integral P(h) = int_lo^{hi-h} pe(t, h) dt of the
    error probability between t and t + h over the prior interval [lo, hi]
    of width T (EqualLinearScalarPe.location_integral gives it in closed
    form), so the one quadrature left is over the offset. Where pe does not
    depend on t, P(h) = (T - h) pe(h) and this is zzb_scalar_independent.
    """
    return _half_line(spec, lambda h, t: h, "general")


def zzb_scalar_independent(spec: ScalarBoundSpec) -> BoundResult:
    """Location-free form (1/T) int_0^T h (T-h) pe(h) dh."""
    return _half_line(spec, lambda h, t: h * (t - h), "independent")


def zzb_scalar_symmetric(spec: ScalarBoundSpec) -> BoundResult:
    """Signed form (1/2T) int_{-T}^{T} |h| (T-|h|) g(h) dh.

    g is the one-sided decision branch, which need not be even when the
    assumed and true noise means differ. The two half-lines are integrated
    separately (the integrand has a kink at 0), each with its own doubling,
    so a sign flip of the asymmetry maps one half exactly onto the other.
    """
    return _half_line(spec, lambda h, t: h * (t - h), "symmetric_split", (1.0, -1.0))


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


def bound(
    assumed: AssumedModel, truth: TrueModel, prior: Prior, method: str = "auto", coord: int | None = None
) -> BoundResult:
    """Bound of a scenario, one coordinate at a time.

    A pulse scenario (an AmplitudePulseMap assumed) is bounded on coord, 0
    the delay and 1 the amplitude, by zzb_vector over its pulse_profile, and
    raises RouteError where that profile is not exact. The profile needs the
    assumed noise mean and covariance, so the template width is the one
    possible mismatch: a matched model (the true width) maximizes over the
    other coordinate's offset, and a mismatched one holds it at 0 (see
    VectorBoundSpec.search). Any other scenario is
    scalar linear on a one-axis interval prior (coord None or 0), and its
    route follows its EqualLinearScalarPe profile:
    - q_linear (no location term, no mean offset, one projected variance),
      where the error probability is exactly Q(gamma |h|): the closed form
      in the slope gamma;
    - no location term, one truth component: "symmetric_split" over the
      signed one-sided branch;
    - no location term, several components (a mean offset, or unequal
      variances): "independent" over the two-sided error probability;
    - a location term (the maps differ, cross != 0): "general" over the
      offset, with the location integral in closed form.
    method "auto" takes the closed form where it applies and quadrature
    otherwise; "quadrature" always integrates. "closed_form" raises
    MethodError unless the profile is q_linear (never for a pulse).
    """
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown bound method {method!r}")
    if isinstance(assumed.signal, AmplitudePulseMap):
        if method == "closed_form":
            raise MethodError("closed_form has no pulse form; use quadrature")
        try:
            g = pulse_profile(PeKernel(assumed, truth), prior)
        except ValueError as exc:
            raise RouteError(str(exc)) from None
        # Only the matched (optimal) test may maximize over free offsets.
        search = _PULSE_SEARCH if assumed.signal.width == truth.signal.width else None
        return zzb_vector(VectorBoundSpec(coord, prior, g, search, _PULSE_QUADRATURE))
    if coord not in (None, 0):
        raise ValueError(f"a scalar bound has only coord 0, got {coord}")
    axis = _interval_axis(prior)
    profile = linear_scalar_profile(PeKernel(assumed, truth))
    if method == "auto":
        method = "closed_form" if profile.q_linear else "quadrature"
    if method == "closed_form":
        if not profile.q_linear:
            raise MethodError(
                "closed_form needs equal scalar linear maps, the assumed noise mean and "
                "one noise variance (mixture components of equal variance); use quadrature"
            )
        value = zzb_closed_form_q_linear(profile.gamma, axis.width)
        return BoundResult(value, True, "closed_form_q_linear")
    if profile.cross != 0.0:
        location_integral = partial(profile.location_integral, lo=axis.lo, hi=axis.hi)
        return zzb_scalar_general(ScalarBoundSpec(prior, location_integral))
    if profile.weights.size == 1:
        return zzb_scalar_symmetric(ScalarBoundSpec(prior, profile.single_q))
    return zzb_scalar_independent(ScalarBoundSpec(prior, partial(profile.pe, 0.0)))


# ---------------------------------------------------------------------------
# Prior overlap and the vector bound
# ---------------------------------------------------------------------------


def overlap_rows(prior: Prior, deltas: np.ndarray) -> np.ndarray:
    """Shared prior mass int min[p(theta), p(theta + delta)] d(theta) in
    [0, 1] of each row delta of a (M, n_theta) offset array.

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
    The integrand is even, G(-delta) = G(delta) (see VectorBoundSpec), so
    offset +j stands for -j too.
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
        if self.lattice_window is not None and self.lattice_window < 0:
            raise ValueError("lattice_window must be >= 0 or None")


@dataclass(frozen=True, eq=False)
class VectorBoundSpec:
    """Vector-parameter bound on the MSE of coordinate coord.

    pe is the whole integrand G: it maps a (M, n_theta) array of offsets to
    (M,) values, the location-averaged error probability with the prior
    overlap already inside. Where the error probability does not depend on
    the location, G(delta) is overlap_rows(prior, delta) * pe(delta). The
    field keeps the name pe for callers that swap the integrand.

    G must be even, G(-delta) = G(delta), as every Ziv-Zakai integrand is
    (Bell, Steinberg, Ephraim & Van Trees, IEEE T-IT 43(2), 1997): the
    error probability of the test between theta and theta + delta is
    symmetric in the two candidates, and the shift theta -> theta - delta
    maps the overlap-weighted pairs at delta onto those at -delta. The
    lattice route therefore reads G at positive pinned offsets only.

    search sets the maximization over the free offsets (the axes other
    than coord); None holds them at 0, one integrand row per pin. The
    maximum is valid where G is the optimal test's error probability,
    whose Pmin lower-bounds every decision rule (Bell et al. 1997). A test
    with an assumed model that is not the truth is not optimal: at a wrong
    position a free offset that suits the assumed model can push its error
    probability towards 1, above the joint quasi-MLE's MSE. So bound
    passes None for a mismatched pulse model. That offset 0 keeps the
    bound below that MSE is measured, not proven (for study 4, by
    test_example4_mismatched_bound_lies_below_the_quasi_mle_mse and
    acceptance criterion 09).

    pe may carry a positive integer attribute span (pulse_profile sets
    it): from span lattice steps on, G at a pinned offset is a nonnegative
    multiple, fixed by the pin, of G at span with the same free offsets.
    The lattice route then searches the free offsets at pins 1..span only
    and reads G at every later pin at span's maximizer, a choice of free
    offsets as valid as any other. An integrand without span is searched at
    every pin.
    """

    coord: int
    prior: Prior
    pe: Callable[[np.ndarray], np.ndarray]
    search: DeltaSearch | None = DeltaSearch()
    quadrature: QuadratureRule = QuadratureRule()

    def __post_init__(self) -> None:
        n = self.prior.n_theta
        if not (isinstance(self.coord, (int, np.integer)) and 0 <= self.coord < n):
            raise ValueError(f"coord must be an integer in [0, {n}), got {self.coord!r}")


def _g_rows(spec: VectorBoundSpec, deltas: np.ndarray) -> np.ndarray:
    """Integrand at each row of a (M, n_theta) offset array, _SCAN_BLOCK rows a call."""
    out = np.empty(deltas.shape[0])
    for r0 in range(0, deltas.shape[0], _SCAN_BLOCK):
        out[r0 : r0 + _SCAN_BLOCK] = spec.pe(deltas[r0 : r0 + _SCAN_BLOCK])
    return out


def _free_axis_candidates(ax, search: DeltaSearch) -> np.ndarray:
    """Candidate offsets scanned on one free axis."""
    if isinstance(ax, IntervalAxis):
        return np.linspace(-ax.width, ax.width, _odd(search.grid_points))
    window = min(ax.count - 1, 128 if search.lattice_window is None else search.lattice_window)
    offs = np.arange(-window, window + 1, dtype=float)
    return offs * ax.step


# A grid search's objective f(idx, pts): search idx[m]'s value at point pts[m].
_Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _grid_max(
    f: _Objective, n_search: int, cands: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of each of n_search searches over one product grid.

    The grid is the product of the 1-D arrays in cands, first axis slowest,
    and each point is computed from its flat index, so the grid is never
    built. At most _SCAN_BLOCK (search, point) pairs are scored at once: a
    block holds as many whole searches as fit, and a grid larger than the
    block is scored in pieces, each piece's maximum merged into a running
    one. The merge keeps np.argmax's rule over the whole grid: the first
    maximum wins, and the first NaN wins over every number. Returns the best
    values, shape (n_search,), and their points, shape (n_search, len(cands)).
    """
    shape = [c.size for c in cands]
    n_points = math.prod(shape)

    def points(flat: np.ndarray) -> np.ndarray:
        pts = np.empty((flat.size, len(cands)))
        for col in range(len(cands) - 1, -1, -1):
            flat, pos = np.divmod(flat, shape[col])
            pts[:, col] = cands[col][pos]
        return pts

    best = np.zeros(n_search, dtype=np.intp)
    best_val = np.full(n_search, -np.inf)
    per_block = max(1, _SCAN_BLOCK // n_points)
    for r0 in range(0, n_search, per_block):
        idx = np.arange(r0, min(r0 + per_block, n_search))
        for c0 in range(0, n_points, _SCAN_BLOCK):
            pts = points(np.arange(c0, min(c0 + _SCAN_BLOCK, n_points)))
            vals = f(np.repeat(idx, pts.shape[0]), np.tile(pts, (idx.size, 1)))
            vals = np.asarray(vals, dtype=float).reshape(idx.size, pts.shape[0])
            arg = np.argmax(vals, axis=1)
            top = vals[np.arange(idx.size), arg]
            run = best_val[idx]
            take = (top > run) | (np.isnan(top) & ~np.isnan(run))
            best_val[idx] = np.where(take, top, run)
            best[idx] = np.where(take, arg + c0, best[idx])
    return best_val, points(best)


def _polish(
    f: _Objective,
    best_val: np.ndarray,
    best: np.ndarray,
    cands: Sequence[np.ndarray],
    bounds: Sequence[tuple[float, float] | None],
    iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One vectorized ternary pass over the continuous axes of _grid_max's result.

    bounds[col] is axis col's (lo, hi), or None where the axis is scanned
    exactly. On each continuous axis in turn, every search brackets its best
    point by one grid spacing, (hi - lo) / (nodes - 1), clipped to [lo, hi],
    runs iters ternary steps, and keeps the bracket's midpoint where f is
    higher there. Updates best in place; returns (best_val, best).
    """
    idx = np.arange(best_val.size)
    for col, box in enumerate(bounds):
        if box is None or iters == 0:
            continue
        a, b = box
        spacing = (b - a) / (cands[col].size - 1)
        lo = np.maximum(best[:, col] - spacing, a)
        hi = np.minimum(best[:, col] + spacing, b)
        probe = best.copy()
        for _ in range(iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            probe[:, col] = m1
            f1 = f(idx, probe)
            probe[:, col] = m2
            f2 = f(idx, probe)
            take_hi = f1 < f2
            lo = np.where(take_hi, m1, lo)
            hi = np.where(take_hi, hi, m2)
        probe[:, col] = 0.5 * (lo + hi)
        refined = f(idx, probe)
        improved = refined > best_val
        best_val = np.where(improved, refined, best_val)
        best[:, col] = np.where(improved, probe[:, col], best[:, col])
    return best_val, best


def _pinned(spec: VectorBoundSpec, pins: np.ndarray) -> _Objective:
    """The integrand as f(idx, free): offset pins[idx] on axis spec.coord and
    the rows of free on the other axes, in axis order."""
    n = spec.prior.n_theta
    free_idx = [j for j in range(n) if j != spec.coord]

    def f(idx: np.ndarray, free: np.ndarray) -> np.ndarray:
        d = np.zeros((idx.size, n))
        d[:, spec.coord] = pins[idx]
        d[:, free_idx] = free
        return _g_rows(spec, d)

    return f


def _search_free(spec: VectorBoundSpec, pins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(best value, best free offsets) of the integrand, per pinned offset.

    pins gives the offset value on axis spec.coord for each row of the
    result; the remaining axes are scanned on a grid and continuous ones are
    then polished by vectorized ternary search around each row's best point.
    Without a search (spec.search None) every free offset is 0. The free
    offsets have shape (pins, n_theta - 1), in axis order.
    """
    f = _pinned(spec, pins)
    if spec.search is None:
        free = np.zeros((pins.size, spec.prior.n_theta - 1))
        return f(np.arange(pins.size), free), free
    free_axes = [ax for j, ax in enumerate(spec.prior.axes) if j != spec.coord]
    cands = [_free_axis_candidates(ax, spec.search) for ax in free_axes]
    bounds = [(-ax.width, ax.width) if isinstance(ax, IntervalAxis) else None for ax in free_axes]
    best_val, best_free = _grid_max(f, pins.size, cands)
    return _polish(f, best_val, best_free, cands, bounds, spec.search.refine_iters)


def zzb_vector(spec: VectorBoundSpec) -> BoundResult:
    """Bound on the MSE of coordinate j = spec.coord:
    int_0^inf h max_{delta_j = h} G(delta) dh.

    G is the spec's integrand (see VectorBoundSpec), maximized over the
    offsets of the other axes, or read with them at 0 where spec.search is
    None. An interval axis j integrates that offset profile
    ("continuous_profile"); a lattice axis j instead accumulates the exact
    tail-sum over the positive integer offsets (G is even, so the negative
    ones add nothing; see lattice_staircase_sum), which is the rigorous
    discrete analogue ("lattice_staircase"). Where the integrand carries a
    span (see VectorBoundSpec), the lattice route searches the pins up to
    span and reads every later pin in one scan at span's free offsets, a
    valid choice for any of them. The returned form field names the route.
    """
    ax = spec.prior.axes[spec.coord]
    if isinstance(ax, LatticeAxis):
        offs = np.arange(1, ax.count, dtype=float) * ax.step
        # Pins 1..span are searched; past span, G is a nonnegative multiple
        # of G at span, so span's maximizer is read there.
        n_search = min(getattr(spec.pe, "span", offs.size), offs.size)
        head, best_free = _search_free(spec, offs[:n_search])
        rest = np.arange(n_search, offs.size)
        tail = _pinned(spec, offs)(rest, np.repeat(best_free[-1:], rest.size, 0))
        g_max = np.concatenate([head, tail])
        return BoundResult(lattice_staircase_sum(ax.step, ax.count, g_max), True, "lattice_staircase")

    def f(h: np.ndarray) -> np.ndarray:
        return h * _search_free(spec, h)[0]

    val, conv = _adaptive_1d(f, 0.0, ax.width, spec.quadrature)
    return BoundResult(max(val, 0.0), conv, "continuous_profile")


# The pulse route's quadrature, and its offset search for a matched model
# (see bound).
_PULSE_SEARCH = DeltaSearch(grid_points=33, refine_iters=8, lattice_window=8)
_PULSE_QUADRATURE = QuadratureRule(points=513, rel_tol=1e-4, max_doublings=4)
