"""Monte Carlo measurement of estimator error and of detector error rates.

Every trial gets its own counter-based stream keyed by (seed, trial index),
so a trial's draws depend on nothing but that pair; trials run in index
order and reductions happen in fixed trial order.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorSpec, estimate
from .models import Prior, TrueModel, eval_signal
from .pe_kernel import PeKernel

__all__ = [
    "trial_generator",
    "derive_seed",
    "TrialPlan",
    "MseReport",
    "run_mse",
    "PeEstimate",
    "empirical_pe",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KEY_BLOCK = 1024  # trials whose keys are derived in one vectorized step


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 words; bijective scrambling, wraps mod 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _trial_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Philox key words of trials start .. start + count - 1 under one seed.

    Row j holds the low and high 64-bit words for index start + j: the
    scrambled words seed + (2 i + 1) * golden and seed + (2 i + 2) * golden,
    all mod 2^64. Every key of the package comes from here.
    """
    if start < 0:
        raise ValueError("index must be nonnegative")
    idx = np.arange(count, dtype=np.uint64) + np.uint64(start & _M64)
    odd = 2 * idx + 1
    base = np.uint64(seed & _M64)
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = _mix64(base + odd * _GOLDEN)
    keys[:, 1] = _mix64(base + (odd + 1) * _GOLDEN)
    return keys


def _trial_key(seed: int, index: int) -> tuple[int, int]:
    """Low and high 64-bit words of the Philox key for one (seed, index) pair."""
    w0, w1 = _trial_keys(seed, index, 1)[0].tolist()
    return w0, w1


def trial_generator(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, index) pair.

    The 128-bit Philox key is built from two scrambled words of the pair, so
    distinct indices under one seed, and equal indices under distinct seeds,
    give statistically independent streams.
    """
    w0, w1 = _trial_key(seed, index)
    return np.random.Generator(np.random.Philox(key=(w1 << 64) | w0))


_ZERO4 = (0, 0, 0, 0)


def _trial_states(seed: int, count: int) -> Iterator[dict]:
    """Philox states that trial_generator(seed, i) starts in, for i < count.

    Counter 0, the trial's key, an empty output buffer (buffer_pos 4) and no
    buffered 32-bit half, so nothing left by the previous trial leaks in.
    One state record is reused: each step only swaps in the next key. Keys
    are derived _KEY_BLOCK trials at a time, so memory stays bounded.
    """
    state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": (0, 0)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    inner = state["state"]
    for start in range(0, count, _KEY_BLOCK):
        for key in _trial_keys(seed, start, min(_KEY_BLOCK, count - start)).tolist():
            inner["key"] = key
            yield state


def derive_seed(base: int, *parts: int) -> int:
    """Stable 64-bit sub-seed from a base seed and a tuple of index parts.

    Used by sweep drivers to give every (grid point, quantity) its own seed
    without any shared RNG state, so rows are reproducible independently of
    evaluation order.
    """
    z = base & _M64
    for p in parts:
        word = np.array([(z + _GOLDEN * (p + 1)) & _M64], dtype=np.uint64)
        z = int(_mix64(word)[0])
    return z


@dataclass(frozen=True, eq=False)
class TrialPlan:
    """One Monte Carlo experiment: truth, estimator, prior, and sampling plan.

    theta_true pins the parameter across trials; when None each trial draws
    its own parameter from the prior before drawing the record.
    """

    truth: TrueModel
    estimator: EstimatorSpec
    prior: Prior
    trials: int
    seed: int
    theta_true: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.theta_true is not None:
            th = np.atleast_1d(np.asarray(self.theta_true, dtype=float))
            if th.shape != (self.prior.n_theta,):
                raise ValueError(
                    f"theta_true has shape {th.shape}, prior expects ({self.prior.n_theta},)"
                )
            if not np.all(np.isfinite(th)):
                raise ValueError(f"theta_true must be finite, got {th}")
            object.__setattr__(self, "theta_true", th)


@dataclass(frozen=True, eq=False)
class MseReport:
    """Per-coordinate error moments from one Monte Carlo run.

    stderr is the standard error of the mean squared error (sample standard
    deviation of the squared errors over sqrt of the completed trial count).
    valid is False when more than 1% of trials failed. failure_reasons counts
    the failed trials by "ExceptionType: message", in order of first
    occurrence; its counts sum to failures.
    """

    mse: np.ndarray
    stderr: np.ndarray
    bias: np.ndarray
    trials: int
    failures: int
    valid: bool = field(default=True)
    failure_reasons: dict[str, int] = field(default_factory=dict)


def run_mse(plan: TrialPlan) -> MseReport:
    """Run the trials one after another and reduce the errors.

    Trial i draws from the stream trial_generator(plan.seed, i) would give;
    one Philox is reset to each trial's state from _trial_states rather than
    built per trial. A trial whose estimator raises ValueError or
    LinAlgError counts as a failure.
    """
    n_theta = plan.prior.n_theta
    errors = np.full((plan.trials, n_theta), np.nan)
    ok = np.zeros(plan.trials, dtype=bool)
    reasons: dict[str, int] = {}

    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    theta = plan.theta_true
    if theta is not None:
        clean = eval_signal(plan.truth.signal, theta)
    for i, state in enumerate(_trial_states(plan.seed, plan.trials)):
        bitgen.state = state
        if plan.theta_true is None:
            theta = plan.prior.sample(rng)
            clean = eval_signal(plan.truth.signal, theta)
        x = clean + plan.truth.noise.draw(rng)
        try:
            est = estimate(plan.estimator, x, plan.prior)
        except (ValueError, np.linalg.LinAlgError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            reasons[reason] = reasons.get(reason, 0) + 1
            continue
        errors[i] = est - theta
        ok[i] = True

    failures = int(plan.trials - np.count_nonzero(ok))
    kept = errors[ok]
    if kept.shape[0] == 0:
        nanvec = np.full(n_theta, np.nan)
        return MseReport(
            nanvec, nanvec.copy(), nanvec.copy(), plan.trials, failures, False, reasons
        )

    sq = kept * kept
    mse = np.mean(sq, axis=0)
    n_ok = kept.shape[0]
    if n_ok > 1:
        stderr = np.std(sq, axis=0, ddof=1) / np.sqrt(n_ok)
    else:
        stderr = np.zeros(n_theta)
    bias = np.mean(kept, axis=0)
    valid = failures <= 0.01 * plan.trials
    return MseReport(mse, stderr, bias, plan.trials, failures, valid, reasons)


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo error probability of the binary test, with standard error."""

    pe: float
    stderr: float
    trials: int


_MC_CHUNK = 1 << 23  # max elements per draw block


def empirical_pe(
    kernel: PeKernel, theta_o, delta, trials: int, seed: int
) -> PeEstimate:
    """Simulate the assumed-likelihood test between theta_o and theta_o + delta.

    Records are drawn from the true model under each hypothesis in turn (two
    independent substreams of the seed) and pushed through the assumed-model
    log-likelihood ratio; exact ties split half-and-half. The two conditional
    error rates are averaged with equal hypothesis weights.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    theta_o = np.atleast_1d(np.asarray(theta_o, dtype=float))
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.all(delta == 0.0):
        return PeEstimate(0.5, 0.0, trials)

    assumed = kernel.assumed
    truth = kernel.truth
    h0 = eval_signal(assumed.signal, theta_o) + assumed.noise_mean
    h1 = eval_signal(assumed.signal, theta_o + delta) + assumed.noise_mean
    s0 = eval_signal(truth.signal, theta_o)
    s1 = eval_signal(truth.signal, theta_o + delta)
    k = assumed.k
    chunk = max(1, _MC_CHUNK // k)

    def error_rate(sub: int, clean: np.ndarray, sign: float) -> tuple[float, float]:
        rng = trial_generator(seed, sub)
        weights = np.empty(trials)
        done = 0
        while done < trials:
            n = min(chunk, trials - done)
            x = clean[None, :] + truth.noise.draw(rng, size=n)
            # D = ll(theta_o + delta) - ll(theta_o); decide the larger one.
            d = 0.5 * (
                assumed.noise_cov.qf_inv_rows(x - h0[None, :])
                - assumed.noise_cov.qf_inv_rows(x - h1[None, :])
            )
            s = sign * d
            weights[done : done + n] = (s > 0.0) + 0.5 * (s == 0.0)
            done += n
        mean = float(np.mean(weights))
        std = float(np.std(weights, ddof=1)) if trials > 1 else 0.0
        return mean, std

    # Under the first hypothesis an error is deciding for theta_o + delta
    # (d > 0); under the second, deciding for theta_o (d < 0).
    m0, sd0 = error_rate(0, s0, 1.0)
    m1, sd1 = error_rate(1, s1, -1.0)
    pe = 0.5 * (m0 + m1)
    se = 0.5 * float(np.sqrt(sd0 * sd0 / trials + sd1 * sd1 / trials))
    return PeEstimate(pe, se, trials)
