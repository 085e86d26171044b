"""Scalar special functions used by the bound integrals.

Two functions are needed downstream: the Gaussian tail probability Q and the
regularized lower incomplete gamma function. Q calls ``scipy.special.erfc``
(double precision, accurate to well below the 1e-12 contract over |x| <= 8
and smoothly underflowing far in the tail). The incomplete gamma is
evaluated from scratch with the classic split: a power series for x < a + 1
and a Lentz-style continued fraction for the complementary function
otherwise. See Press et al., Numerical Recipes, ch. 6 for the scheme.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

__all__ = ["q_function", "inc_gamma_reg"]

_MAX_ITER = 500
_EPS = 1e-15


def q_function(x):
    """Standard normal tail probability Q(x) = P(N(0,1) > x).

    Parameters
    ----------
    x : float or ndarray
        Threshold(s); any finite value.

    Returns
    -------
    float or ndarray
        Q(x) = erfc(x / sqrt(2)) / 2, in [0, 1]. Vectorized.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized gamma by power series; good for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized gamma by modified Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_prefac = -x + a * math.log(x) - math.lgamma(a)
    # exp() underflows to 0 for very large x, which is the correct limit
    # (upper tail -> 0, lower regularized -> 1) and keeps the result smooth.
    if log_prefac < -745.0:
        return 0.0
    return math.exp(log_prefac) * f


def inc_gamma_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    P(a, x) = (1 / Gamma(a)) * integral_0^x t^(a-1) e^(-t) dt.

    Parameters
    ----------
    a : float
        Shape parameter, must be > 0.
    x : float
        Upper integration limit, must be >= 0.

    Returns
    -------
    float
        Value in [0, 1], monotone nondecreasing in x, relative accuracy
        around 1e-10 or better over the tested domain.

    Raises
    ------
    ValueError
        If a <= 0 or x < 0.
    """
    a = float(a)
    x = float(x)
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0.0:
        raise ValueError(f"integration limit must be nonnegative, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        p = _gamma_series(a, x)
    else:
        p = 1.0 - _gamma_cf(a, x)
    # Clamp ulp-level excursions so the [0, 1] range contract is exact.
    return min(1.0, max(0.0, p))
