"""Command line entry point: bound, mc, pe, and sweep subcommands.

Each subcommand reads a JSON config, computes, and writes one CSV or JSON
file atomically. Exit status is 0 on success, 2 for a configuration or
schema problem (nothing is written), and 3 for a numerical failure such as
a covariance that is not positive definite.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .estimators import EstimatorSpec, LinearClosedForm, QuasiMLE, SampleMedian
from .experiments import (
    _SWEEP_VARS,
    SweepConfig,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    check_sweep_k,
    check_sweep_value,
    default_grid,
    run_sweep,
)
from .models import (
    AmplitudePulseMap,
    AssumedModel,
    Covariance,
    DenseCov,
    DiagonalCov,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearMatrixMap,
    LinearVectorMap,
    MixtureNoise,
    Prior,
    ScaledIdentityCov,
    SignalMap,
    TrueModel,
)
from .montecarlo import TrialPlan, empirical_pe, run_mse
from .pe_kernel import PeKernel, pe_gaussian, pe_mixture
from .zzb import MethodError, ScalarBoundSpec, bound, zzb_scalar_independent

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Configuration or schema problem; maps to exit status 2."""


class NumericalError(Exception):
    """Numerical failure while building or evaluating; exit status 3."""


# ---------------------------------------------------------------------------
# Schema helpers: every accessor carries the JSON field path for diagnostics
# ---------------------------------------------------------------------------


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _require(d: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in d:
        _fail(path, f"missing required field {key!r}")
    return d[key]


def _as_dict(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_fields(d: Mapping[str, Any], path: str, *known: str) -> None:
    """Reject the fields of an object that its kind does not read."""
    unknown = set(d) - set(known)
    if unknown:
        _fail(path, f"unknown fields {sorted(unknown)}")


def _kind(d: Mapping[str, Any], path: str, fields: Mapping[str, tuple[str, ...]]) -> str:
    """The object's type, one of fields' keys, reading only fields[type]."""
    kind = _as_str(_require(d, "type", path), f"{path}.type", choices=tuple(fields))
    _check_fields(d, path, "type", *fields[kind])
    return kind


def _as_str(value: Any, path: str, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        _fail(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _as_number_list(value: Any, path: str, min_len: int = 1) -> list[float]:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    if len(value) < min_len:
        _fail(path, f"expected at least {min_len} entries, got {len(value)}")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_coords(value: Any, path: str, n: int) -> np.ndarray:
    """A parameter point: n finite coordinates."""
    values = _as_number_list(value, path)
    if len(values) != n:
        _fail(path, f"expected {n} coordinates, got {len(values)}")
    if not all(map(math.isfinite, values)):
        _fail(path, f"expected finite coordinates, got {values}")
    return np.asarray(values)


def _as_matrix(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of rows")
    rows = [_as_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        _fail(path, "rows must all have the same length")
    return np.asarray(rows, dtype=float)


def _build(factory: Callable[..., Any], *args: Any, path: str) -> Any:
    """Construct a model object, mapping its validation errors to the config.

    A failed positive-definiteness check is a numerical problem, not a schema
    one, and keeps its own exit status.
    """
    try:
        return factory(*args)
    except ValueError as exc:
        if "positive definite" in str(exc):
            raise NumericalError(str(exc)) from exc
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario construction from config
# ---------------------------------------------------------------------------


def _build_signal(spec: Any, path: str) -> SignalMap:
    d = _as_dict(spec, path)
    kind = _kind(
        d, path, {"linear_vector": ("hvec",), "linear_matrix": ("matrix",), "pulse": ("width", "k")}
    )
    if kind == "linear_vector":
        h = _as_number_list(_require(d, "hvec", path), f"{path}.hvec")
        return _build(LinearVectorMap, np.asarray(h), path=path)
    if kind == "linear_matrix":
        m = _as_matrix(_require(d, "matrix", path), f"{path}.matrix")
        return _build(LinearMatrixMap, m, path=path)
    width = _as_int(_require(d, "width", path), f"{path}.width")
    k = _as_int(_require(d, "k", path), f"{path}.k")
    return _build(AmplitudePulseMap, width, k, path=path)


def _build_cov(spec: Any, path: str) -> Covariance:
    d = _as_dict(spec, path)
    kind = _kind(
        d, path, {"scaled_identity": ("sigma2", "k"), "diagonal": ("diag",), "dense": ("matrix",)}
    )
    if kind == "scaled_identity":
        sigma2 = _as_number(_require(d, "sigma2", path), f"{path}.sigma2")
        k = _as_int(_require(d, "k", path), f"{path}.k")
        return _build(ScaledIdentityCov, sigma2, k, path=path)
    if kind == "diagonal":
        diag = _as_number_list(_require(d, "diag", path), f"{path}.diag")
        return _build(DiagonalCov, np.asarray(diag), path=path)
    m = _as_matrix(_require(d, "matrix", path), f"{path}.matrix")
    return _build(DenseCov, m, path=path)


def _build_mean(spec: Any, path: str, k: int) -> np.ndarray:
    if isinstance(spec, list):
        values = _as_number_list(spec, path)
        if len(values) != k:
            _fail(path, f"expected {k} entries to match the observation, got {len(values)}")
        return np.asarray(values)
    return np.full(k, _as_number(spec, path))


def _build_gaussian(d: Mapping[str, Any], path: str, k: int) -> GaussianNoise:
    cov = _build_cov(_require(d, "cov", path), f"{path}.cov")
    mean = _build_mean(d.get("mean", 0.0), f"{path}.mean", k)
    return _build(GaussianNoise, mean, cov, path=path)


def _build_component(spec: Any, path: str, k: int) -> GaussianNoise:
    d = _as_dict(spec, path)
    _check_fields(d, path, "cov", "mean")
    return _build_gaussian(d, path, k)


def _build_noise(spec: Any, path: str, k: int):
    d = _as_dict(spec, path)
    kind = _kind(d, path, {"gaussian": ("cov", "mean"), "mixture": ("weights", "components")})
    if kind == "gaussian":
        return _build_gaussian(d, path, k)
    weights = _as_number_list(_require(d, "weights", path), f"{path}.weights")
    comps = _require(d, "components", path)
    if not isinstance(comps, list) or not comps:
        _fail(f"{path}.components", "expected a nonempty array of gaussian components")
    if len(comps) != len(weights):
        _fail(path, f"{len(weights)} weights but {len(comps)} components")
    components = tuple(
        _build_component(c, f"{path}.components[{i}]", k) for i, c in enumerate(comps)
    )
    return _build(MixtureNoise, np.asarray(weights), components, path=path)


def _build_axis(spec: Any, path: str):
    d = _as_dict(spec, path)
    kind = _kind(d, path, {"interval": ("lo", "hi"), "lattice": ("count", "start", "step")})
    if kind == "interval":
        lo = _as_number(_require(d, "lo", path), f"{path}.lo")
        hi = _as_number(_require(d, "hi", path), f"{path}.hi")
        return _build(IntervalAxis, lo, hi, path=path)
    count = _as_int(_require(d, "count", path), f"{path}.count")
    start = _as_number(d.get("start", 0.0), f"{path}.start")
    step = _as_number(d.get("step", 1.0), f"{path}.step")
    return _build(LatticeAxis, count, start, step, path=path)


def _build_prior(spec: Any, path: str) -> Prior:
    d = _as_dict(spec, path)
    kind = _kind(d, path, {"interval": ("t",), "axes": ("axes",)})
    if kind == "interval":
        t = _as_number(_require(d, "t", path), f"{path}.t")
        return _build(Prior, (_build(IntervalAxis, 0.0, t, path=path),), path=path)
    axes = _require(d, "axes", path)
    if not isinstance(axes, list) or not axes:
        _fail(f"{path}.axes", "expected a nonempty array of axis objects")
    built = tuple(_build_axis(a, f"{path}.axes[{i}]") for i, a in enumerate(axes))
    return _build(Prior, built, path=path)


@dataclass(frozen=True)
class _Scenario:
    """A parsed scenario plus the bookkeeping the subcommands need."""

    assumed: AssumedModel
    truth: TrueModel
    prior: Prior
    mc_truth: TrueModel


def _scenario_from_preset(d: Mapping[str, Any], path: str, command: str) -> _Scenario:
    example = _as_int(_require(d, "example", path), f"{path}.example")
    if example not in (1, 2, 3, 4):
        _fail(f"{path}.example", f"expected 1, 2, 3, or 4, got {example}")
    if example == 4 and command == "bound":
        _fail(
            f"{path}.example",
            "the pulse scenario has a vector parameter; use the sweep command",
        )
    _check_fields(d, path, "example", "variant", "k", _SWEEP_VARS[example])
    # Passed on only when given, so each study keeps its own default k.
    k_arg = (_as_int(d["k"], f"{path}.k"),) if "k" in d else ()

    if example == 1:
        sigma2 = _as_number(_require(d, "sigma2", path), f"{path}.sigma2")
        variant = _as_str(
            d.get("variant", "matched"),
            f"{path}.variant",
            choices=("m1", "m2", "matched"),
        )
        scn = _build(build_example1, sigma2, *k_arg, path=path)
        if variant not in scn.assumed:
            _fail(
                f"{path}.variant",
                "the white-only model needs sigma2 > 0 to be well defined",
            )
        return _Scenario(scn.assumed[variant], scn.truth, scn.prior, scn.truth)

    if example == 2:
        mu_star = _as_number(_require(d, "mu_star", path), f"{path}.mu_star")
        variant = _as_str(
            d.get("variant", "mismatched"),
            f"{path}.variant",
            choices=("mismatched", "matched"),
        )
        scn = _build(build_example2, mu_star, *k_arg, path=path)
        assumed = scn.assumed
        if variant == "matched":
            assumed = AssumedModel(
                scn.truth.signal, scn.truth.noise.mean.copy(), scn.truth.noise.cov
            )
        return _Scenario(assumed, scn.truth, scn.prior, scn.truth)

    if example == 3:
        w2 = _as_number(
            _require(d, "one_minus_omega1", path), f"{path}.one_minus_omega1"
        )
        variant = _as_str(
            d.get("variant", "mismatched"), f"{path}.variant", choices=("mismatched",)
        )
        scn = _build(build_example3, 1.0 - w2, *k_arg, path=path)
        return _Scenario(scn.assumed, scn.truth_mixture, scn.prior, scn.truth_empirical)

    snr = _as_number(_require(d, "snr", path), f"{path}.snr")
    variant = _as_str(
        d.get("variant", "mismatched"),
        f"{path}.variant",
        choices=("mismatched", "matched"),
    )
    scn = _build(build_example4, snr, *k_arg, path=path)
    assumed = scn.assumed_matched if variant == "matched" else scn.assumed
    return _Scenario(assumed, scn.truth, scn.prior, scn.truth)


def _scenario_from_config(cfg: Mapping[str, Any], path: str, command: str) -> _Scenario:
    d = _as_dict(_require(cfg, "scenario", path), f"{path}.scenario")
    path = f"{path}.scenario"
    if "example" in d:
        return _scenario_from_preset(d, path, command)
    _check_fields(d, path, "assumed", "truth", "prior")

    assumed_d = _as_dict(_require(d, "assumed", path), f"{path}.assumed")
    _check_fields(assumed_d, f"{path}.assumed", "signal", "cov", "mean")
    signal = _build_signal(_require(assumed_d, "signal", f"{path}.assumed"), f"{path}.assumed.signal")
    cov = _build_cov(_require(assumed_d, "cov", f"{path}.assumed"), f"{path}.assumed.cov")
    mean = _build_mean(assumed_d.get("mean", 0.0), f"{path}.assumed.mean", signal.k)
    assumed = _build(AssumedModel, signal, mean, cov, path=f"{path}.assumed")

    truth_d = _as_dict(_require(d, "truth", path), f"{path}.truth")
    _check_fields(truth_d, f"{path}.truth", "signal", "noise")
    t_signal = signal
    if "signal" in truth_d:
        t_signal = _build_signal(truth_d["signal"], f"{path}.truth.signal")
    noise = _build_noise(_require(truth_d, "noise", f"{path}.truth"), f"{path}.truth.noise", t_signal.k)
    truth = _build(TrueModel, t_signal, noise, path=f"{path}.truth")

    prior = _build_prior(_require(d, "prior", path), f"{path}.prior")
    if prior.n_theta != signal.n_theta:
        _fail(
            f"{path}.prior",
            f"prior has {prior.n_theta} coordinates, the signal map expects {signal.n_theta}",
        )
    return _Scenario(assumed, truth, prior, truth)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render(rows: list[dict[str, Any]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_fmt_cell(v) for v in row.values())
    return buf.getvalue()


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zzbound-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _constant_pe(value: float) -> Callable[[np.ndarray], np.ndarray]:
    def pe(h):
        return np.full(np.shape(np.asarray(h, dtype=float)), value)

    return pe


def _cmd_bound(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "scenario", "method", "pe_constant")
    method = _as_str(
        cfg.get("method", "auto"),
        "config.method",
        choices=("auto", "closed_form", "asymptotic", "quadrature"),
    )
    scn = _scenario_from_config(cfg, "config", "bound")
    if scn.prior.n_theta != 1 or not isinstance(scn.prior.axes[0], IntervalAxis):
        _fail("config.scenario.prior", "the bound command needs a scalar interval prior")

    pe_constant = None
    if "pe_constant" in cfg:
        pe_constant = _as_number(cfg["pe_constant"], "config.pe_constant")
        if not 0.0 <= pe_constant <= 0.5:
            _fail("config.pe_constant", "expected a probability in [0, 0.5]")
        if method in ("closed_form", "asymptotic"):
            _fail("config.method", "pe_constant only makes sense with quadrature")

    start = time.perf_counter()
    if pe_constant is not None:
        result = zzb_scalar_independent(ScalarBoundSpec(scn.prior, _constant_pe(pe_constant)))
    else:
        try:
            result = bound(scn.assumed, scn.truth, scn.prior, method)
        except MethodError as exc:
            _fail("config.method", str(exc))
    runtime = time.perf_counter() - start
    return [
        {
            "method": result.form,
            "value": float(result.value),
            "converged": bool(result.converged),
            "runtime": runtime,
        }
    ]


def _default_estimator(scn: _Scenario) -> EstimatorSpec:
    if isinstance(scn.assumed.signal, AmplitudePulseMap):
        return QuasiMLE(scn.assumed)
    return LinearClosedForm(scn.assumed)


def _cmd_mc(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "scenario", "estimator", "trials", "seed", "theta_true")
    scn = _scenario_from_config(cfg, "config", "mc")

    if "estimator" in cfg:
        name = _as_str(
            cfg["estimator"],
            "config.estimator",
            choices=("quasi_mle", "linear_closed_form", "sample_median"),
        )
        estimator: EstimatorSpec
        if name == "quasi_mle":
            estimator = QuasiMLE(scn.assumed)
        elif name == "linear_closed_form":
            if not isinstance(scn.assumed.signal, (LinearVectorMap, LinearMatrixMap)):
                _fail("config.estimator", "closed-form estimation requires a linear signal map")
            estimator = LinearClosedForm(scn.assumed)
        else:
            if scn.prior.n_theta != 1:
                _fail("config.estimator", "sample median requires a scalar parameter")
            estimator = SampleMedian()
    else:
        estimator = _default_estimator(scn)

    trials = args.trials
    if trials is None:
        trials = _as_int(cfg.get("trials", 1000), "config.trials")
    if trials < 1:
        _fail("config.trials", f"expected a positive count, got {trials}")
    seed = args.seed
    if seed is None:
        seed = _as_int(cfg.get("seed", 0), "config.seed")

    theta_true = None
    if "theta_true" in cfg:
        theta_true = _as_coords(cfg["theta_true"], "config.theta_true", scn.prior.n_theta)

    plan = _build(
        TrialPlan,
        scn.mc_truth,
        estimator,
        scn.prior,
        trials,
        seed,
        theta_true,
        path="config",
    )
    report = run_mse(plan)
    return [
        {
            "coord": i,
            "mse": float(report.mse[i]),
            "stderr": float(report.stderr[i]),
            "bias": float(report.bias[i]),
            "trials": report.trials,
            "failures": report.failures,
            "valid": bool(report.valid),
        }
        for i in range(report.mse.size)
    ]


def _cmd_pe(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "scenario", "theta", "delta", "method", "trials", "seed")
    scn = _scenario_from_config(cfg, "config", "pe")
    n = scn.prior.n_theta

    theta = _as_coords(_require(cfg, "theta", "config"), "config.theta", n)
    delta = _as_coords(_require(cfg, "delta", "config"), "config.delta", n)

    method = _as_str(
        cfg.get("method", "analytic"),
        "config.method",
        choices=("analytic", "empirical", "both"),
    )
    trials = args.trials
    if trials is None:
        trials = _as_int(cfg.get("trials", 100_000), "config.trials")
    if trials < 1:
        _fail("config.trials", f"expected a positive count, got {trials}")
    seed = args.seed
    if seed is None:
        seed = _as_int(cfg.get("seed", 0), "config.seed")

    kernel = PeKernel(scn.assumed, scn.truth)
    rows: list[dict[str, Any]] = []
    if method in ("analytic", "both"):
        if isinstance(scn.truth.noise, MixtureNoise):
            value = pe_mixture(kernel, theta, delta)
        else:
            value = pe_gaussian(kernel, theta, delta)
        rows.append({"method": "analytic", "value": float(value), "stderr": 0.0, "trials": 0})
    if method in ("empirical", "both"):
        est = empirical_pe(kernel, theta, delta, trials, seed)
        rows.append(
            {
                "method": "empirical",
                "value": float(est.pe),
                "stderr": float(est.stderr),
                "trials": est.trials,
            }
        )
    return rows


def _cmd_sweep(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "example", "var", "grid", "k", "trials", "seed")
    example = _as_int(_require(cfg, "example", "config"), "config.example")
    if example not in (1, 2, 3, 4):
        _fail("config.example", f"expected 1, 2, 3, or 4, got {example}")

    if "grid" in cfg:
        grid = tuple(_as_number_list(cfg["grid"], "config.grid", min_len=0))
        if not grid:
            _fail("config.grid", "expected a nonempty grid")
        for i, value in enumerate(grid):
            _build(check_sweep_value, example, value, path=f"config.grid[{i}]")
    else:
        grid = default_grid(example)

    overrides: dict[str, int] = {}
    if "k" in cfg:
        overrides["k"] = _as_int(cfg["k"], "config.k")
        _build(check_sweep_k, example, overrides["k"], path="config.k")
    trials = args.trials
    if trials is None and "trials" in cfg:
        trials = _as_int(cfg["trials"], "config.trials")
    if trials is not None:
        overrides["trials"] = trials
    seed = args.seed
    if seed is None:
        seed = _as_int(cfg.get("seed", 0), "config.seed")

    var = _SWEEP_VARS[example]
    if "var" in cfg:
        var = _as_str(cfg["var"], "config.var", choices=(var,))

    sweep = _build(SweepConfig, example, var, grid, overrides, seed, path="config")
    rows = run_sweep(sweep)
    return [
        {
            "sweep_var": r.sweep_var,
            "sweep_value": float(r.sweep_value),
            "quantity": r.quantity,
            "method": r.method,
            "value": float(r.value),
            "stderr": float(r.stderr),
            "flag": r.flag,
        }
        for r in rows
    ]


_COMMANDS = {
    "bound": _cmd_bound,
    "mc": _cmd_mc,
    "pe": _cmd_pe,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zzbound",
        description="Evaluate mismatch MSE lower bounds, Monte Carlo baselines, "
        "error probabilities, and full example sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "bound": "evaluate one scalar bound from a scenario config",
        "mc": "estimate an estimator's MSE by Monte Carlo",
        "pe": "evaluate a binary-decision error probability",
        "sweep": "run one of the worked examples over its grid",
    }
    for name, helptext in descriptions.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", required=True, help="output file to write")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--trials", type=int, default=None, help="override the config trial count"
        )
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
    return parser


def _load_config(path: str) -> Mapping[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _as_dict(raw, "config")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        rows = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_atomic(args.out, _render(rows, args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
