"""Observation models: signal maps, noise laws, priors, covariances.

The library compares an assumed model (signal map h, Gaussian noise with
hyperparameters mu and Sigma) against a true model (signal map h*, noise law
p*). Everything here is an immutable value object; covariance matrices carry
a precomputed Cholesky factor so inverse-weighted quadratic forms are done
with triangular solves, never an explicit inverse.

Naming note: the scalar test offset used by the bounds is called ``h_off``
throughout this package; ``h`` always refers to a signal map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Union

import numpy as np

__all__ = [
    "Covariance",
    "ScaledIdentityCov",
    "DiagonalCov",
    "DenseCov",
    "SignalMap",
    "LinearVectorMap",
    "LinearMatrixMap",
    "AmplitudePulseMap",
    "eval_signal",
    "pulse_template",
    "NoiseLaw",
    "GaussianNoise",
    "MixtureNoise",
    "PerSampleMixtureNoise",
    "EmpiricalNoise",
    "AssumedModel",
    "TrueModel",
    "IntervalAxis",
    "LatticeAxis",
    "Prior",
    "uniform_interval",
]


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalCov:
    """Diagonal covariance with positive entries."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a nonempty 1-D array")
        if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
            raise ValueError("diagonal entries must be finite and positive")
        object.__setattr__(self, "diag", d)

    @property
    def dim(self) -> int:
        return self.diag.size

    @cached_property
    def white(self) -> bool:
        """Whether this is sigma2 I: one variance on the whole diagonal.

        The pulse quasi-MLE asks it on every trial, so it is computed once.
        """
        return bool(np.all(self.diag == self.diag[0]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=float) / self.diag

    def qf_inv(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(np.sum(u * v / self.diag))

    def qf(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.sum(u * u * self.diag))

    def qf_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rowwise r^T Sigma^-1 r for a (M, k) residual block."""
        r = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", r, r / self.diag)

    @cached_property
    def _scale(self) -> np.ndarray:
        return np.sqrt(self.diag)

    def chol_matvec(self, z: np.ndarray) -> np.ndarray:
        """z L^T for rows z of a float array, scaled in place; returns z."""
        z *= self._scale
        return z

    def dense(self) -> np.ndarray:
        return np.diag(self.diag)


def ScaledIdentityCov(sigma2: float, k: int) -> DiagonalCov:
    """Covariance sigma2 * I on R^k: the DiagonalCov with k equal entries."""
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"variance must be finite and positive, got {sigma2}")
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    return DiagonalCov(np.full(k, float(sigma2)))


@dataclass(frozen=True, eq=False)
class DenseCov:
    """Dense symmetric positive definite covariance.

    The lower Cholesky factor is computed at construction; a failure there is
    reported as a model construction error, so downstream quadratic forms are
    always well defined. scipy.linalg is imported by the methods that use
    it, so a process that builds no dense covariance never loads it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance entries must be finite")
        scale = np.max(np.abs(m))
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * max(scale, 1.0)):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "matrix", m)
        self._chol  # force the PD check at build time

    @cached_property
    def _chol(self) -> np.ndarray:
        import scipy.linalg

        try:
            return scipy.linalg.cholesky(self.matrix, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("covariance is not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return Sigma^-1 b for b of shape (k,) or (n, k)."""
        import scipy.linalg

        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            return scipy.linalg.cho_solve((self._chol, True), b)
        return scipy.linalg.cho_solve((self._chol, True), b.T).T

    def qf_inv(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        # (L^-1 u) . (L^-1 v): two triangular solves, no explicit inverse.
        import scipy.linalg

        a = scipy.linalg.solve_triangular(self._chol, np.asarray(u, dtype=float), lower=True)
        if v is None:
            return float(a @ a)
        b = scipy.linalg.solve_triangular(self._chol, np.asarray(v, dtype=float), lower=True)
        return float(a @ b)

    def qf(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(u @ self.matrix @ u)

    def qf_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rowwise r^T Sigma^-1 r for a (M, k) residual block.

        cho_solve's rows do not depend on how many rows the block holds, so
        quasi-MLE estimates do not depend on the scan block. One
        solve_triangular and a sum of squares would be faster, but its row
        bits change with the row count.
        """
        r = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", r, self.solve(r))

    def chol_matvec(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self._chol.T

    def dense(self) -> np.ndarray:
        return self.matrix


Covariance = Union[DiagonalCov, DenseCov]


def _check_covariance(cov) -> None:
    if not isinstance(cov, (DiagonalCov, DenseCov)):
        kinds = "a ScaledIdentityCov, DiagonalCov or DenseCov"
        raise ValueError(f"noise covariance must be {kinds}, got {type(cov).__name__}")


# ---------------------------------------------------------------------------
# Signal maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearMatrixMap:
    """Vector-parameter linear map theta -> H theta."""

    h_matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.h_matrix, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("H must be a finite 2-D array")
        object.__setattr__(self, "h_matrix", m)

    @property
    def k(self) -> int:
        return self.h_matrix.shape[0]

    @property
    def n_theta(self) -> int:
        return self.h_matrix.shape[1]


@dataclass(frozen=True, eq=False)
class AmplitudePulseMap:
    """Amplitude-scaled triangular pulse: theta = (tau, alpha).

    h(tau, alpha)[i] = alpha * max(0, 1 - 2|i - tau| / width) for samples
    i = 0..k-1, so the pulse is clipped at the record ends. The peak sits at
    sample index tau, 0 <= tau < k; alpha scales the unit peak.
    """

    width: int
    k: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"pulse width must be >= 1, got {self.width}")
        if self.width > self.k:
            raise ValueError(f"pulse width {self.width} exceeds record length {self.k}")

    @property
    def n_theta(self) -> int:
        return 2


SignalMap = Union[LinearMatrixMap, AmplitudePulseMap]


def LinearVectorMap(hvec) -> LinearMatrixMap:
    """Scalar-parameter linear map theta -> hvec * theta: the one-column LinearMatrixMap."""
    v = np.asarray(hvec, dtype=float)
    if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
        raise ValueError("hvec must be a finite 1-D array")
    return LinearMatrixMap(v[:, None])


def _triangle(i, tau, width: int) -> np.ndarray:
    """The unit-peak triangle max(0, 1 - 2|i - tau| / width) at samples i."""
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(i - tau) / width)


def pulse_template(width: int) -> np.ndarray:
    """Unclipped unit-peak triangular template, support radius ceil(w/2) - 1.

    The triangle at offsets -radius..radius from its peak: the nonzero part
    of a unit pulse, centered in an array of odd length.
    """
    radius = int(np.ceil(width / 2.0)) - 1
    return _triangle(np.arange(-radius, radius + 1, dtype=float), 0.0, width)


def eval_signal(sig: SignalMap, theta) -> np.ndarray:
    """Evaluate a signal map at theta; pure.

    theta is one point, shape (n_theta,) (a scalar for n_theta = 1), which
    gives a length-k vector, or a batch of shape (M, n_theta), which gives
    the (M, k) array of their signals. Each row has the bits a single call
    gives it: a linear map's row is summed column by column, theta_j H[:, j],
    not by a matrix product, which rounds a one-row batch differently.
    """
    th = np.asarray(theta, dtype=float)
    rows = th if th.ndim == 2 else th.reshape(1, -1)
    if rows.shape[1] != sig.n_theta:
        raise ValueError(f"theta has dimension {rows.shape[1]}, map expects {sig.n_theta}")
    if not np.isfinite(rows).all():
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise ValueError(f"theta must be finite, got {bad}")
    out = np.zeros((rows.shape[0], sig.k))
    if isinstance(sig, LinearMatrixMap):
        for j in range(sig.n_theta):
            out += rows[:, j, None] * sig.h_matrix[:, j]
    else:
        tau = rows[:, 0]
        lo_tau, hi_tau = float(tau.min()), float(tau.max())
        if not (0.0 <= lo_tau and hi_tau < sig.k):
            bad = float(tau[(tau < 0.0) | (tau >= sig.k)][0])
            raise ValueError(f"pulse position must satisfy 0 <= tau < {sig.k}, got {bad}")
        # The triangle runs only on the hull of the rows' supports (half a
        # width around each tau, with a one-sample margin); every other
        # sample is 0.0, as the formula gives there. Whole rows are scaled
        # by alpha, so a negative one gives -0.0 off the pulse, as alpha
        # times the whole-record formula does.
        lo = max(0, math.floor(lo_tau - sig.width / 2.0))
        hi = min(sig.k, math.ceil(hi_tau + sig.width / 2.0) + 1)
        out[:, lo:hi] = _triangle(np.arange(lo, hi, dtype=float), rows[:, :1], sig.width)
        out *= rows[:, 1:]
    return out if th.ndim == 2 else out[0]


# ---------------------------------------------------------------------------
# Noise laws
# ---------------------------------------------------------------------------
#
# Every law draws one record with draw(rng) and an n-row chunk as a
# generator of consecutive row blocks, draw_blocks(rng, n, rows).
# numpy fills arrays from the stream in order, so normals drawn in blocks
# have the bits one call gives; what a chunk draws before its normals
# (mixture labels, per-sample uniforms) is reduced to one small integer per
# row or sample and kept for the whole chunk.


def _in_blocks(
    n: int, rows: int, whole: bool, make: Callable[[int, int], np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield an n-row chunk rows at a time; make(lo, m) draws rows lo..lo+m-1.

    With whole set, make draws all n rows at once and slices of it are
    yielded: a dense covariance colours by a matrix product, whose row bits
    depend on how many rows it holds.
    """
    if n < 1 or rows < 1:
        raise ValueError(f"a chunk needs n >= 1 rows in blocks of >= 1, got {n}, {rows}")
    step = n if whole else rows
    for lo in range(0, n, step):
        x = make(lo, min(step, n - lo))
        for i in range(0, x.shape[0], rows):
            yield x[i : i + rows]


@dataclass(frozen=True, eq=False)
class GaussianNoise:
    """Gaussian noise with mean vector and covariance."""

    mean: np.ndarray
    cov: Covariance

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        _check_covariance(self.cov)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ValueError("noise mean must be a finite 1-D array")
        if self.cov.dim != m.size:
            raise ValueError(f"mean dimension {m.size} != covariance dimension {self.cov.dim}")
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.mean.size

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.cov.chol_matvec(rng.standard_normal(self.dim))

    def draw_blocks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        def make(lo: int, m: int) -> np.ndarray:
            # Built in place: the normals are dropped once coloured.
            x = self.cov.chol_matvec(rng.standard_normal((m, self.dim)))
            x += self.mean
            return x

        return _in_blocks(n, rows, isinstance(self.cov, DenseCov), make)


def _mixture_weights(weights, n: int, what: str) -> np.ndarray:
    """Mixture weights as a float array: n of them, finite, nonnegative, sum 1."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != n or n < 1:
        raise ValueError(f"weights and {what} must have equal nonzero length")
    # NaN fails every comparison, so finiteness is checked on its own.
    finite = np.all(np.isfinite(w))
    if not finite or np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("weights must be finite, nonnegative and sum to 1 within 1e-12")
    return w


@dataclass(frozen=True, eq=False)
class MixtureNoise:
    """Finite Gaussian mixture; one component is drawn per observation vector."""

    weights: np.ndarray
    components: tuple[GaussianNoise, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        w = _mixture_weights(self.weights, len(comps), "components")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        idx = int(rng.choice(len(self.components), p=self.weights))
        return self.components[idx].draw(rng)

    def draw_blocks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        # The chunk's labels first, then its normals, then per-component
        # affine maps in fixed order: the draw stream does not depend on the
        # labels. Each component's rows are overwritten in the normal block.
        n_comp = len(self.components)
        idx = np.empty(n, dtype=np.min_scalar_type(n_comp - 1))
        for lo in range(0, n, rows):
            idx[lo : lo + rows] = rng.choice(n_comp, size=min(rows, n - lo), p=self.weights)

        def make(lo: int, m: int) -> np.ndarray:
            labels = idx[lo : lo + m]
            z = rng.standard_normal((m, self.dim))
            for i, comp in enumerate(self.components):
                sel = labels == i
                if np.any(sel):
                    x = comp.cov.chol_matvec(z[sel])
                    x += comp.mean
                    z[sel] = x
            return z

        dense = any(isinstance(c.cov, DenseCov) for c in self.components)
        return _in_blocks(n, rows, dense, make)


@dataclass(frozen=True, eq=False)
class PerSampleMixtureNoise:
    """Zero-mean noise of k i.i.d. samples, each with std stds[c] at weights[c].

    A chunk of n draws takes n k uniforms u, then n k standard normals z,
    and scales each z by the std of the last component c whose tail weight
    sum(weights[c:]) exceeds its u (the first component where none does).
    Each u is kept only as its component label, one byte per sample, while
    the normals are drawn a row block at a time. Its analytic error
    probability is that of gaussian, the central-limit law: the pooled
    Q(gamma |h|) of a scalar linear test.
    """

    weights: np.ndarray
    stds: np.ndarray
    k: int

    def __post_init__(self) -> None:
        s = np.asarray(self.stds, dtype=float)
        w = _mixture_weights(self.weights, s.size, "stds")
        if s.ndim != 1 or not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise ValueError("stds must be a 1-D array of finite positive values")
        if self.k < 1:
            raise ValueError(f"dimension must be >= 1, got {self.k}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stds", s)

    @property
    def dim(self) -> int:
        return self.k

    @cached_property
    def gaussian(self) -> GaussianNoise:
        """The Gaussian with this law's covariance, sum_c weights[c] stds[c]^2 I."""
        pooled = float(np.sum(self.weights * self.stds**2))
        return GaussianNoise(np.zeros(self.k), ScaledIdentityCov(pooled, self.k))

    @cached_property
    def _tails(self) -> np.ndarray:
        return np.cumsum(self.weights[::-1])[::-1][1:]  # sum(weights[c:]), c >= 1

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return next(self.draw_blocks(rng, 1, 1))[0]

    def draw_blocks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        # The tails do not increase, so the last c with u < tail_c is the
        # number of tails above u.
        labels = np.zeros((n, self.k), dtype=np.min_scalar_type(self.stds.size - 1))
        for lo in range(0, n, rows):
            u = rng.random((min(rows, n - lo), self.k))
            for tail in self._tails:
                labels[lo : lo + rows] += u < tail

        def make(lo: int, m: int) -> np.ndarray:
            z = rng.standard_normal((m, self.k))
            z *= self.stds.take(labels[lo : lo + m])
            return z

        return _in_blocks(n, rows, False, make)


@dataclass(frozen=True, eq=False)
class EmpiricalNoise:
    """Noise known only through a seeded sampler; no density available.

    Bounds over this law must use the Monte Carlo error-probability path.
    The sampler takes a numpy Generator and returns one length-k draw.
    """

    sampler: Callable[[np.random.Generator], np.ndarray]
    k: int

    @property
    def dim(self) -> int:
        return self.k

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(self.sampler(rng), dtype=float)
        if x.shape != (self.k,):
            raise ValueError(f"sampler returned shape {x.shape}, expected ({self.k},)")
        return x

    def draw_blocks(self, rng: np.random.Generator, n: int, rows: int) -> Iterator[np.ndarray]:
        def make(lo: int, m: int) -> np.ndarray:
            out = np.empty((m, self.k))
            for row in out:
                row[:] = self.draw(rng)
            return out

        return _in_blocks(n, rows, False, make)


NoiseLaw = Union[GaussianNoise, MixtureNoise, PerSampleMixtureNoise, EmpiricalNoise]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AssumedModel:
    """Assumed observation model: x = h(theta) + noise, noise ~ N(mu, Sigma).

    Sigma's Cholesky factor is cached inside the covariance object, so the
    inverse-weighted forms used by the likelihood and the bounds are cheap.
    """

    signal: SignalMap
    noise_mean: np.ndarray
    noise_cov: Covariance

    def __post_init__(self) -> None:
        mu = np.asarray(self.noise_mean, dtype=float)
        cov = self.noise_cov
        _check_covariance(cov)
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ValueError("noise mean must be a finite 1-D array")
        if self.signal.k != mu.size or cov.dim != mu.size:
            raise ValueError(
                f"dimension mismatch: signal {self.signal.k}, mean {mu.size}, cov {cov.dim}"
            )
        object.__setattr__(self, "noise_mean", mu)

    @property
    def k(self) -> int:
        return self.noise_mean.size


@dataclass(frozen=True, eq=False)
class TrueModel:
    """True data-generating model: x = h*(theta) + n*, n* ~ noise law."""

    signal: SignalMap
    noise: NoiseLaw

    def __post_init__(self) -> None:
        if self.signal.k != self.noise.dim:
            raise ValueError(
                f"signal dimension {self.signal.k} != noise dimension {self.noise.dim}"
            )

    @property
    def k(self) -> int:
        return self.signal.k


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalAxis:
    """Uniform continuous prior over [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError(f"interval needs hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class LatticeAxis:
    """Uniform discrete prior over {start, start+step, ..., start+(count-1)step}."""

    count: int
    start: float = 0.0
    step: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"lattice needs count >= 1, got {self.count}")
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"lattice needs a finite step > 0, got {self.step}")
        if not math.isfinite(self.start):
            raise ValueError(f"lattice needs a finite start, got {self.start}")

    @property
    def width(self) -> float:
        return (self.count - 1) * self.step

    def sample(self, rng: np.random.Generator) -> float:
        return self.start + self.step * float(rng.integers(0, self.count))


PriorAxis = Union[IntervalAxis, LatticeAxis]


@dataclass(frozen=True)
class Prior:
    """Product prior: one independent axis per parameter coordinate."""

    axes: tuple[PriorAxis, ...]

    def __post_init__(self) -> None:
        if len(self.axes) < 1:
            raise ValueError("prior needs at least one axis")

    @property
    def n_theta(self) -> int:
        return len(self.axes)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([ax.sample(rng) for ax in self.axes], dtype=float)


def uniform_interval(t: float) -> Prior:
    """Scalar uniform prior over [0, T]."""
    if t <= 0.0:
        raise ValueError(f"interval length must be positive, got {t}")
    return Prior((IntervalAxis(0.0, float(t)),))
