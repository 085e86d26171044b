"""Scalar special functions used by the bound integrals.

Two functions are needed downstream, and both come from ``scipy.special``:
the Gaussian tail probability Q, from ``erfc`` (double precision, accurate to
well below the 1e-12 contract over |x| <= 8 and smoothly underflowing far in
the tail), and the regularized lower incomplete gamma function P(a, x), from
``gammainc``. ``q_ratio`` is Q(z / sigma) continued to sigma = 0, the one
form in which error probabilities with a possibly degenerate spread call Q.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, gammainc

__all__ = ["q_function", "q_ratio", "inc_gamma_reg"]


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


def q_ratio(z, sigma):
    """Q(z / sigma) elementwise, continued to sigma = 0 as its limit.

    The sigma -> 0+ limit of Q(z / sigma) is 1 for z < 0, 0 for z > 0 and
    1/2 at the tie z = 0. z and sigma broadcast; sigma must be >= 0.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    flat = sigma == 0.0
    if not flat.any():
        return q_function(z / sigma)
    q = q_function(z / np.where(flat, 1.0, sigma))
    return np.where(flat, np.where(z < 0.0, 1.0, np.where(z > 0.0, 0.0, 0.5)), q)


def inc_gamma_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    P(a, x) = (1 / Gamma(a)) * integral_0^x t^(a-1) e^(-t) dt, evaluated by
    ``scipy.special.gammainc``.

    Parameters
    ----------
    a : float
        Shape parameter, must be > 0.
    x : float
        Upper integration limit, must be >= 0.

    Returns
    -------
    float
        Value in [0, 1], monotone nondecreasing in x.

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
    return float(gammainc(a, x))
