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
from typing import Callable, Union

import numpy as np
import scipy.linalg

__all__ = [
    "Covariance",
    "ScaledIdentityCov",
    "DiagonalCov",
    "DenseCov",
    "as_covariance",
    "SignalMap",
    "LinearVectorMap",
    "LinearMatrixMap",
    "ParametricMap",
    "AmplitudePulseMap",
    "eval_signal",
    "triangular_pulse",
    "pulse_template",
    "NoiseLaw",
    "GaussianNoise",
    "MixtureNoise",
    "EmpiricalNoise",
    "AssumedModel",
    "TrueModel",
    "IntervalAxis",
    "LatticeAxis",
    "Prior",
    "uniform_interval",
    "uniform_box",
]


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScaledIdentityCov:
    """Covariance sigma2 * I on R^k."""

    sigma2: float
    k: int

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"variance must be finite and positive, got {self.sigma2}")
        if self.k < 1:
            raise ValueError(f"dimension must be >= 1, got {self.k}")

    @property
    def dim(self) -> int:
        return self.k

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=float) / self.sigma2

    def qf_inv(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """Quadratic form u^T Sigma^-1 v (v defaults to u)."""
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(u @ v) / self.sigma2

    def qf(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """Forward quadratic form u^T Sigma v (v defaults to u)."""
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return self.sigma2 * float(u @ v)

    def qf_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rowwise r^T Sigma^-1 r for a (M, k) residual block."""
        r = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", r, r) / self.sigma2

    @cached_property
    def _scale(self) -> float:
        return math.sqrt(self.sigma2)

    def chol_matvec(self, z: np.ndarray) -> np.ndarray:
        return self._scale * np.asarray(z, dtype=float)

    def dense(self) -> np.ndarray:
        return self.sigma2 * np.eye(self.k)


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

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, dtype=float) / self.diag

    def qf_inv(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(np.sum(u * v / self.diag))

    def qf(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(np.sum(u * v * self.diag))

    def qf_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rowwise r^T Sigma^-1 r for a (M, k) residual block."""
        r = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", r, r / self.diag)

    @cached_property
    def _scale(self) -> np.ndarray:
        return np.sqrt(self.diag)

    def chol_matvec(self, z: np.ndarray) -> np.ndarray:
        return self._scale * np.asarray(z, dtype=float)

    def dense(self) -> np.ndarray:
        return np.diag(self.diag)


@dataclass(frozen=True, eq=False)
class DenseCov:
    """Dense symmetric positive definite covariance.

    The lower Cholesky factor is computed at construction; a failure there is
    reported as a model construction error, so downstream quadratic forms are
    always well defined.
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
        try:
            return scipy.linalg.cholesky(self.matrix, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return Sigma^-1 b for b of shape (k,) or (n, k)."""
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            return scipy.linalg.cho_solve((self._chol, True), b)
        return scipy.linalg.cho_solve((self._chol, True), b.T).T

    def qf_inv(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        # (L^-1 u) . (L^-1 v): two triangular solves, no explicit inverse.
        a = scipy.linalg.solve_triangular(self._chol, np.asarray(u, dtype=float), lower=True)
        if v is None:
            return float(a @ a)
        b = scipy.linalg.solve_triangular(self._chol, np.asarray(v, dtype=float), lower=True)
        return float(a @ b)

    def qf(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        return float(u @ self.matrix @ v)

    def qf_inv_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rowwise r^T Sigma^-1 r for a (M, k) residual block."""
        r = np.asarray(rows, dtype=float)
        return np.einsum("ij,ij->i", r, self.solve(r))

    def chol_matvec(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self._chol.T

    def dense(self) -> np.ndarray:
        return self.matrix


Covariance = Union[ScaledIdentityCov, DiagonalCov, DenseCov]


def as_covariance(obj, k: int | None = None) -> Covariance:
    """Coerce a covariance-like object.

    Accepts an existing covariance, a square matrix, a 1-D diagonal, or a
    positive scalar (requires ``k`` for the dimension).
    """
    if isinstance(obj, (ScaledIdentityCov, DiagonalCov, DenseCov)):
        return obj
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 0:
        if k is None:
            raise ValueError("scalar covariance needs an explicit dimension k")
        return ScaledIdentityCov(float(arr), k)
    if arr.ndim == 1:
        return DiagonalCov(arr)
    return DenseCov(arr)


# ---------------------------------------------------------------------------
# Signal maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearVectorMap:
    """Scalar-parameter linear map theta -> hvec * theta."""

    hvec: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.hvec, dtype=float)
        if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
            raise ValueError("hvec must be a finite 1-D array")
        object.__setattr__(self, "hvec", v)

    @property
    def k(self) -> int:
        return self.hvec.size

    @property
    def n_theta(self) -> int:
        return 1


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
class ParametricMap:
    """General (possibly nonlinear) map given by a plain function."""

    fn: Callable[[np.ndarray], np.ndarray]
    k: int
    n_theta: int


@dataclass(frozen=True, eq=False)
class AmplitudePulseMap:
    """Amplitude-scaled triangular pulse: theta = (tau, alpha).

    h(tau, alpha) = alpha * triangular_pulse(tau, width, k). The pulse peak
    sits at sample index tau; alpha scales the unit peak.
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


SignalMap = Union[LinearVectorMap, LinearMatrixMap, ParametricMap, AmplitudePulseMap]


def triangular_pulse(tau: float, width: int, k: int) -> np.ndarray:
    """Unit-peak symmetric triangle of total base ``width`` centered at ``tau``.

    The sampled shape is s[i] = max(0, 1 - 2|i - tau| / width), clipped at the
    record boundaries; its energy is sum(s^2).

    Parameters
    ----------
    tau : float
        Peak position as a sample index, 0 <= tau < k.
    width : int
        Total base width in samples, 1 <= width <= k.
    k : int
        Record length.
    """
    if width < 1:
        raise ValueError(f"pulse width must be >= 1, got {width}")
    if width > k:
        raise ValueError(f"pulse width {width} exceeds record length {k}")
    if not 0 <= tau < k:
        raise ValueError(f"pulse position must satisfy 0 <= tau < {k}, got {tau}")
    idx = np.arange(k, dtype=float)
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(idx - tau) / width)


def pulse_template(width: int) -> np.ndarray:
    """Unclipped unit-peak triangular template, support radius ceil(w/2) - 1.

    The samples 1 - 2|j| / width at offsets j = -radius..radius are the
    nonzero part of triangular_pulse, centered in an array of odd length.
    """
    radius = int(np.ceil(width / 2.0)) - 1
    j = np.arange(-radius, radius + 1, dtype=float)
    return 1.0 - 2.0 * np.abs(j) / width


def eval_signal(sig: SignalMap, theta) -> np.ndarray:
    """Evaluate a signal map at theta; pure, returns a length-k vector."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(th)):
        raise ValueError(f"theta must be finite, got {th}")
    if th.size != sig.n_theta:
        raise ValueError(f"theta has dimension {th.size}, map expects {sig.n_theta}")
    if isinstance(sig, LinearVectorMap):
        return sig.hvec * th[0]
    if isinstance(sig, LinearMatrixMap):
        return sig.h_matrix @ th
    if isinstance(sig, AmplitudePulseMap):
        return th[1] * triangular_pulse(th[0], sig.width, sig.k)
    out = np.asarray(sig.fn(th), dtype=float)
    if out.shape != (sig.k,):
        raise ValueError(f"parametric map returned shape {out.shape}, expected ({sig.k},)")
    return out


# ---------------------------------------------------------------------------
# Noise laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianNoise:
    """Gaussian noise with mean vector and covariance."""

    mean: np.ndarray
    cov: Covariance

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        cov = as_covariance(self.cov, k=m.size)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ValueError("noise mean must be a finite 1-D array")
        if cov.dim != m.size:
            raise ValueError(f"mean dimension {m.size} != covariance dimension {cov.dim}")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        if size is None:
            return self.mean + self.cov.chol_matvec(rng.standard_normal(self.dim))
        z = rng.standard_normal((size, self.dim))
        return self.mean + self.cov.chol_matvec(z)


@dataclass(frozen=True, eq=False)
class MixtureNoise:
    """Finite Gaussian mixture; one component is drawn per observation vector."""

    weights: np.ndarray
    components: tuple[GaussianNoise, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        comps = tuple(self.components)
        if w.ndim != 1 or w.size != len(comps) or len(comps) < 1:
            raise ValueError("weights and components must have equal nonzero length")
        # NaN fails every comparison, so finiteness is checked on its own.
        finite = np.all(np.isfinite(w))
        if not finite or np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1 within 1e-12")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n_comp = len(self.components)
        if size is None:
            idx = int(rng.choice(n_comp, p=self.weights))
            return self.components[idx].draw(rng)
        # One choice pass, then one normal block, then per-component affine
        # maps in fixed order: the draw stream does not depend on the labels.
        idx = rng.choice(n_comp, size=size, p=self.weights)
        z = rng.standard_normal((size, self.dim))
        out = np.empty((size, self.dim), dtype=float)
        for i, comp in enumerate(self.components):
            rows = idx == i
            if np.any(rows):
                out[rows] = comp.mean + comp.cov.chol_matvec(z[rows])
        return out


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

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        if size is None:
            x = np.asarray(self.sampler(rng), dtype=float)
            if x.shape != (self.k,):
                raise ValueError(f"sampler returned shape {x.shape}, expected ({self.k},)")
            return x
        return np.stack([self.draw(rng) for _ in range(size)])


NoiseLaw = Union[GaussianNoise, MixtureNoise, EmpiricalNoise]


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
        cov = as_covariance(self.noise_cov, k=mu.size)
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ValueError("noise mean must be a finite 1-D array")
        if self.signal.k != mu.size or cov.dim != mu.size:
            raise ValueError(
                f"dimension mismatch: signal {self.signal.k}, mean {mu.size}, cov {cov.dim}"
            )
        object.__setattr__(self, "noise_mean", mu)
        object.__setattr__(self, "noise_cov", cov)

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


def uniform_box(lo, hi) -> Prior:
    """Uniform prior over an axis-aligned box."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have matching shapes")
    return Prior(tuple(IntervalAxis(float(a), float(b)) for a, b in zip(lo, hi)))
