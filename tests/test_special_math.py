"""Tests for the Gaussian tail, Q(z / sigma) and incomplete gamma primitives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zzbound.special_math import inc_gamma_reg, q_function, q_ratio


def test_q_function_frozen_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(1.0) == pytest.approx(0.15865525393145707, rel=1e-13, abs=0.0)
    assert q_function(3.0) == pytest.approx(1.3498980316300945e-03, rel=1e-12, abs=0.0)


def test_q_function_complement_and_monotone():
    x = np.linspace(-6.0, 6.0, 241)
    assert_allclose(q_function(x) + q_function(-x), np.ones_like(x), rtol=0, atol=1e-14)
    values = q_function(x)
    assert np.all(np.diff(values) < 0.0)


def test_q_function_tails():
    assert q_function(40.0) == 0.0  # graceful underflow
    assert q_function(-40.0) == pytest.approx(1.0, abs=1e-15)


def test_q_function_vectorized_shape():
    x = np.arange(12.0).reshape(3, 4)
    out = q_function(x)
    assert out.shape == (3, 4)
    assert out[0, 0] == pytest.approx(0.5)


def test_q_ratio_degenerate_spread():
    assert q_ratio(-1.0, 0.0) == 1.0
    assert q_ratio(1.0, 0.0) == 0.0
    assert q_ratio(0.0, 0.0) == 0.5
    assert q_ratio(1.0, 2.0) == pytest.approx(float(q_function(0.5)))


def test_q_ratio_mixed_zero_and_positive_spread():
    z = np.array([-1.0, 0.0, 2.0, -1.0, 0.0, 2.0])
    sigma = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 4.0])
    expected = np.array([1.0, 0.5, 0.0, q_function(-2.0), 0.5, q_function(0.5)])
    assert_allclose(q_ratio(z, sigma), expected, rtol=1e-15, atol=0.0)


def test_q_ratio_positive_spread_is_plain_q():
    z = np.linspace(-5.0, 5.0, 41)
    sigma = np.geomspace(1e-3, 10.0, 41)
    assert np.array_equal(q_ratio(z, sigma), q_function(z / sigma))
    assert np.array_equal(q_ratio(z, 0.0), np.where(z < 0.0, 1.0, np.where(z > 0.0, 0.0, 0.5)))


def test_q_ratio_out_overwrites_z_with_the_same_bits():
    # With out=z the result is written over z, bit for bit the returned
    # array's; so is q_function's with out=x. A zero spread takes the limit.
    rng = np.random.default_rng(3)
    z = rng.normal(0.0, 4.0, (9, 5))
    for sigma in (np.abs(rng.normal(0.0, 2.0, 5)) + 0.1, np.array([0.0, 1.0, 0.0, 2.0, 0.5])):
        expected = q_ratio(z, sigma)
        buf = z.copy()
        assert q_ratio(buf, sigma, out=buf) is buf
        assert buf.tobytes() == expected.tobytes()
    buf = z.copy()
    assert q_function(buf, out=buf) is buf
    assert buf.tobytes() == q_function(z).tobytes()


def test_inc_gamma_exponential_closed_form():
    # P(1, x) = 1 - exp(-x)
    assert inc_gamma_reg(1.0, 0.5) == pytest.approx(0.3934693402873666, rel=1e-12, abs=0.0)
    assert inc_gamma_reg(1.0, 2.0) == pytest.approx(0.8646647167633873, rel=1e-12, abs=0.0)


def test_inc_gamma_edge_values():
    assert inc_gamma_reg(1.5, 0.0) == 0.0
    assert inc_gamma_reg(2.0, 50.0) == pytest.approx(1.0, abs=1e-10)


def test_inc_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError, match="shape"):
        inc_gamma_reg(0.0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        inc_gamma_reg(-2.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        inc_gamma_reg(1.0, -0.1)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.7, 10.0])
def test_inc_gamma_recurrence(a):
    # P(a + 1, x) = P(a, x) - x^a e^-x / Gamma(a + 1)
    for x in (0.3, 1.0, a, 4.0 * a):
        lhs = inc_gamma_reg(a + 1.0, x)
        rhs = inc_gamma_reg(a, x) - math.exp(
            a * math.log(x) - x - math.lgamma(a + 1.0)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


def test_inc_gamma_matches_closed_forms_over_grid():
    # The two shapes the closed-form bound uses:
    # P(3/2, x) = erf(sqrt(x)) - 2 sqrt(x / pi) e^-x, P(2, x) = 1 - (1 + x) e^-x.
    for x in np.geomspace(1e-3, 200.0, 400):
        x = float(x)
        p15 = math.erf(math.sqrt(x)) - 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
        p2 = -math.expm1(-x) - x * math.exp(-x)  # expm1 keeps small x accurate
        assert inc_gamma_reg(1.5, x) == pytest.approx(p15, rel=1e-12, abs=1e-300)
        assert inc_gamma_reg(2.0, x) == pytest.approx(p2, rel=1e-12, abs=1e-300)


def test_inc_gamma_monotone_in_x():
    xs = np.linspace(0.0, 30.0, 301)
    for a in (0.7, 1.5, 2.0, 8.0):
        vals = [inc_gamma_reg(a, float(x)) for x in xs]
        assert all(b >= a_ for a_, b in zip(vals, vals[1:]))
        assert 0.0 <= min(vals) and max(vals) <= 1.0
