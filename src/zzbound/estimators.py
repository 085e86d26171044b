"""Estimators whose measured error the bounds are checked against.

Three kinds are enough for every shipped scenario: a grid-plus-refinement
maximizer of the assumed-model log-likelihood (with a fast correlation path
for the pulse map), the closed-form weighted least squares solution that is
exact for linear maps, and the sample median as the classic robust baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from . import zzb
from .models import (
    AmplitudePulseMap,
    AssumedModel,
    DiagonalCov,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    Prior,
    eval_signal,
    pulse_template,
)

__all__ = [
    "QuasiMLE",
    "LinearClosedForm",
    "SampleMedian",
    "EstimatorSpec",
    "estimate",
    "sample_median",
]


# Likelihood search on continuous axes: a grid of _GRID_POINTS nodes, then
# _REFINE_ITERS ternary steps around the best node (zzb._grid_max and
# zzb._polish). Lattice axes are scanned exactly and never refined.
_GRID_POINTS = 512
_REFINE_ITERS = 80


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
        if not isinstance(sig, LinearMatrixMap):
            raise ValueError("closed-form estimation requires a linear signal map")
        h_mat = sig.h_matrix
        w = self.model.noise_cov.solve(h_mat.T)
        return w, w @ h_mat


@dataclass(frozen=True, eq=False)
class SampleMedian:
    """Sample median of the record; scalar location parameter only."""


EstimatorSpec = Union[QuasiMLE, LinearClosedForm, SampleMedian]


def sample_median(x) -> float:
    """Middle order statistic; for even length, the mean of the middle two."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("sample median needs a nonempty 1-D array")
    # np.median's own partition (the middle index or two, and the last,
    # where NaNs sort) and its mean, 0.0 + the middle values over their
    # count, without its generic-axis overhead: the bits are np.median's.
    m = arr.size // 2
    even = arr.size % 2 == 0
    part = np.partition(arr, [m - 1, m, -1] if even else [m, -1])
    if math.isnan(part[-1]):
        return float(part[-1])
    if even:
        return (0.0 + float(part[m - 1]) + float(part[m])) / 2.0
    return 0.0 + float(part[m])


def _axis_grid(ax, n_points: int) -> np.ndarray:
    if isinstance(ax, IntervalAxis):
        return np.linspace(ax.lo, ax.hi, n_points)
    return ax.start + ax.step * np.arange(ax.count, dtype=float)


def _loglik_on_grid(model: AssumedModel, x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Assumed-model log-likelihood up to its constant, -1/2 r^T Sigma^-1 r,
    over a (M, n_theta) batch of candidate thetas.

    Scored in blocks of zzb._SCAN_BLOCK // k rows, so the signals and
    residuals held at once stay near _SCAN_BLOCK values at any M.
    """
    xm = x - model.noise_mean
    out = np.empty(grid.shape[0], dtype=float)
    per_block = max(1, zzb._SCAN_BLOCK // model.k)
    for r0 in range(0, grid.shape[0], per_block):
        rows = slice(r0, r0 + per_block)
        signals = eval_signal(model.signal, grid[rows])
        out[rows] = -0.5 * model.noise_cov.qf_inv_rows(xm - signals)
    return out


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
    sig, cov = spec.model.signal, spec.model.noise_cov
    if (
        isinstance(sig, AmplitudePulseMap)
        and isinstance(cov, DiagonalCov)
        and cov.white
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
    bounds = [(ax.lo, ax.hi) if isinstance(ax, IntervalAxis) else None for ax in prior.axes]

    def f(idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return _loglik_on_grid(spec.model, x, pts)

    best_val, best = zzb._grid_max(f, 1, axis_grids)
    for _ in range(1 if prior.n_theta == 1 else 2):
        best_val, best = zzb._polish(f, best_val, best, axis_grids, bounds, _REFINE_ITERS)
    return best[0]


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
    if isinstance(spec, (QuasiMLE, LinearClosedForm)) and x.shape != (spec.model.k,):
        raise ValueError(f"x has shape {x.shape}, model expects ({spec.model.k},)")
    if isinstance(spec, QuasiMLE):
        return _quasi_mle(spec, x, prior)
    if isinstance(spec, LinearClosedForm):
        return _linear_closed_form(spec, x)
    if isinstance(spec, SampleMedian):
        if prior.n_theta != 1:
            raise ValueError("sample median requires a scalar parameter")
        return np.array([sample_median(x)])
    raise ValueError(f"unknown estimator spec {type(spec).__name__}")
