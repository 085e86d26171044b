"""Estimators whose measured error the bounds are checked against.

Three kinds are enough for every shipped scenario: a grid-plus-refinement
maximizer of the assumed-model log-likelihood (with a fast correlation path
for the pulse map), the closed-form weighted least squares solution that is
exact for linear maps, and the sample median as the classic robust baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .models import (
    AmplitudePulseMap,
    AssumedModel,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    LinearVectorMap,
    Prior,
    ScaledIdentityCov,
    eval_signal,
    pulse_template,
)

__all__ = [
    "QuasiMLE",
    "LinearClosedForm",
    "SampleMedian",
    "EstimatorSpec",
    "log_likelihood",
    "estimate",
    "sample_median",
]


# Likelihood search on continuous axes: a grid of _GRID_POINTS nodes, then
# ternary refinement around the best node until the bracket is below
# _REFINE_TOL or after _REFINE_ITERS steps. Lattice axes are scanned exactly
# and never refined.
_GRID_POINTS = 512
_REFINE_ITERS = 80
_REFINE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuasiMLE:
    """Maximizer of the assumed-model log-likelihood over the prior support."""

    model: AssumedModel


@dataclass(frozen=True, eq=False)
class LinearClosedForm:
    """Weighted least squares theta = (H^T Sigma^-1 H)^-1 H^T Sigma^-1 (x - mu).

    Exact maximizer for linear signal maps; unconstrained by the prior.
    """

    model: AssumedModel

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows of Sigma^-1 H, shape (n_theta, K), and H^T Sigma^-1 H.

        Fixed for the spec, so every trial of a plan shares one copy.
        """
        sig = self.model.signal
        if isinstance(sig, LinearVectorMap):
            h_mat = sig.hvec[:, None]
        elif isinstance(sig, LinearMatrixMap):
            h_mat = sig.h_matrix
        else:
            raise ValueError("closed-form estimation requires a linear signal map")
        w = self.model.noise_cov.solve(h_mat.T)
        return w, w @ h_mat


@dataclass(frozen=True, eq=False)
class SampleMedian:
    """Sample median of the record; scalar location parameter only."""


EstimatorSpec = Union[QuasiMLE, LinearClosedForm, SampleMedian]


def log_likelihood(model: AssumedModel, x: np.ndarray, theta) -> float:
    """Assumed-model log-likelihood up to its constant: -1/2 r^T Sigma^-1 r."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.k,):
        raise ValueError(f"x has shape {x.shape}, model expects ({model.k},)")
    r = x - eval_signal(model.signal, theta) - model.noise_mean
    return -0.5 * model.noise_cov.qf_inv(r)


def sample_median(x) -> float:
    """Middle order statistic; for even length, the mean of the middle two."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("sample median needs a nonempty 1-D array")
    return float(np.median(arr))


def _axis_grid(ax, n_points: int) -> np.ndarray:
    if isinstance(ax, IntervalAxis):
        return np.linspace(ax.lo, ax.hi, n_points)
    return ax.start + ax.step * np.arange(ax.count, dtype=float)


def _loglik_on_grid(model: AssumedModel, x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Log-likelihood over a (M, n_theta) batch of candidate thetas."""
    xm = x - model.noise_mean
    sig = model.signal
    if isinstance(sig, LinearVectorMap):
        resid = xm[None, :] - grid[:, 0, None] * sig.hvec[None, :]
        return -0.5 * model.noise_cov.qf_inv_rows(resid)
    if isinstance(sig, LinearMatrixMap):
        resid = xm[None, :] - grid @ sig.h_matrix.T
        return -0.5 * model.noise_cov.qf_inv_rows(resid)
    out = np.empty(grid.shape[0], dtype=float)
    for i, th in enumerate(grid):
        r = xm - eval_signal(sig, th)
        out[i] = -0.5 * model.noise_cov.qf_inv(r)
    return out


def _refine_axes(
    model: AssumedModel, x: np.ndarray, prior: Prior, best: np.ndarray, spacing: list
) -> np.ndarray:
    """Coordinate-wise ternary polish of continuous axes around a grid optimum."""
    theta = best.copy()
    best_ll = log_likelihood(model, x, theta)
    passes = 1 if prior.n_theta == 1 else 2
    for _ in range(passes):
        for j, ax in enumerate(prior.axes):
            if not isinstance(ax, IntervalAxis):
                continue
            lo = max(ax.lo, theta[j] - spacing[j])
            hi = min(ax.hi, theta[j] + spacing[j])
            cand = theta.copy()
            for _ in range(_REFINE_ITERS):
                if hi - lo <= _REFINE_TOL:
                    break
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                cand[j] = m1
                f1 = log_likelihood(model, x, cand)
                cand[j] = m2
                f2 = log_likelihood(model, x, cand)
                if f1 < f2:
                    lo = m1
                else:
                    hi = m2
            cand[j] = 0.5 * (lo + hi)
            ll = log_likelihood(model, x, cand)
            if ll > best_ll:
                best_ll = ll
                theta = cand.copy()
    return theta


@lru_cache(maxsize=32)
def _pulse_table(width: int, k: int, start: float, count: int) -> tuple[np.ndarray, ...]:
    """Template, positions, correlation indices and template energies.

    They depend only on the pulse map and the unit-step position lattice, so
    every trial of a plan, and every plan with equal-by-value map and prior,
    shares one read-only table. Template energy near the record edges comes
    from prefix sums, so clipped templates are handled exactly.
    """
    tpl = pulse_template(width)
    radius = (tpl.size - 1) // 2
    positions = (start + np.arange(count, dtype=float)).astype(int)
    cum = np.concatenate([[0.0], np.cumsum(tpl * tpl)])
    lo_idx = np.maximum(0, radius - positions)
    hi_idx = radius + np.minimum(radius, k - 1 - positions)
    energy = cum[hi_idx + 1] - cum[lo_idx]
    table = (tpl, positions, positions + radius, energy)
    for arr in table:
        arr.setflags(write=False)
    return table


def _pulse_fast_path(spec: QuasiMLE, x: np.ndarray, prior: Prior) -> np.ndarray:
    """Joint (position, amplitude) maximization by template correlation.

    For each candidate position the amplitude optimum is the correlation over
    the template energy, clipped to the prior box; the position scan then
    compares the profiled objectives. Ties go to the smallest position index.
    """
    sig = spec.model.signal
    tau_ax, alpha_ax = prior.axes
    tpl, positions, corr_idx, energy = _pulse_table(sig.width, sig.k, tau_ax.start, tau_ax.count)
    xm = x - spec.model.noise_mean

    corr_full = np.convolve(xm, tpl)  # symmetric template: convolution = correlation
    corr = corr_full[corr_idx]

    alpha = np.clip(corr / energy, alpha_ax.lo, alpha_ax.hi)
    objective = alpha * corr - 0.5 * alpha * alpha * energy
    best = int(np.argmax(objective))
    return np.array([float(positions[best]), float(alpha[best])])


def _quasi_mle(spec: QuasiMLE, x: np.ndarray, prior: Prior) -> np.ndarray:
    sig = spec.model.signal
    if (
        isinstance(sig, AmplitudePulseMap)
        and isinstance(spec.model.noise_cov, ScaledIdentityCov)
        and prior.n_theta == 2
        and isinstance(prior.axes[0], LatticeAxis)
        and isinstance(prior.axes[1], IntervalAxis)
        and prior.axes[0].step == 1.0
        and float(prior.axes[0].start).is_integer()
        and prior.axes[0].start >= 0.0
        and prior.axes[0].start + prior.axes[0].count - 1 <= sig.k - 1
    ):
        return _pulse_fast_path(spec, x, prior)

    axis_grids = [_axis_grid(ax, _GRID_POINTS) for ax in prior.axes]
    mesh = np.meshgrid(*axis_grids, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    ll = _loglik_on_grid(spec.model, x, grid)
    best = grid[int(np.argmax(ll))].copy()

    spacing = []
    for ax, g in zip(prior.axes, axis_grids):
        spacing.append(g[1] - g[0] if isinstance(ax, IntervalAxis) and g.size > 1 else 0.0)
    return _refine_axes(spec.model, x, prior, best, spacing)


def _linear_closed_form(spec: LinearClosedForm, x: np.ndarray) -> np.ndarray:
    """Solve the normal equations; a scalar system is one division.

    The division is the same IEEE quotient np.linalg.solve returns for a 1x1
    system, and a zero pivot fails with solve's LinAlgError. Python floats
    divide without numpy's floating-point warnings, as solve does.
    """
    w, normal = spec._weights
    rhs = w @ (x - spec.model.noise_mean)
    if normal.shape == (1, 1):
        pivot = float(normal[0, 0])
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return np.array([float(rhs[0]) / pivot])
    return np.linalg.solve(normal, rhs)


def estimate(spec: EstimatorSpec, x, prior: Prior) -> np.ndarray:
    """Point estimate of theta from one record x; returns shape (n_theta,)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("observation contains non-finite values")
    if isinstance(spec, QuasiMLE):
        if x.shape != (spec.model.k,):
            raise ValueError(f"x has shape {x.shape}, model expects ({spec.model.k},)")
        return _quasi_mle(spec, x, prior)
    if isinstance(spec, LinearClosedForm):
        if x.shape != (spec.model.k,):
            raise ValueError(f"x has shape {x.shape}, model expects ({spec.model.k},)")
        return _linear_closed_form(spec, x)
    if isinstance(spec, SampleMedian):
        if prior.n_theta != 1:
            raise ValueError("sample median requires a scalar parameter")
        return np.array([sample_median(x)])
    raise ValueError(f"unknown estimator spec {type(spec).__name__}")
