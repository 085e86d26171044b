"""Command line entry point: bound, mc, pe, and sweep subcommands.

Each subcommand reads a JSON config, computes, and writes one CSV or JSON
file atomically. Exit status is 0 on success, 2 for a configuration or
schema problem or an output file that cannot be written (nothing is
written), and 3 for a numerical failure such as a covariance that is not
positive definite.
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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .estimators import EstimatorSpec, LinearClosedForm, QuasiMLE, SampleMedian
from .experiments import Study, SweepConfig, check_sweep_trials, run_sweep, study
from .models import (
    AmplitudePulseMap,
    AssumedModel,
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
    TrueModel,
    eval_signal,
)
from .montecarlo import TrialPlan, empirical_pe, run_mse
from .pe_kernel import PeKernel, pe_gaussian, pe_mixture
from .zzb import MethodError, RouteError, ScalarBoundSpec, bound, zzb_scalar_independent

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Configuration or schema problem; maps to exit status 2."""


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


def _under(path: str, factory: Callable[..., Any], *args: Any) -> Any:
    """Call factory, whose ValueErrors start with the field they name, below path."""
    try:
        return factory(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _build(factory: Callable[..., Any], *args: Any, path: str) -> Any:
    """Construct a model object, mapping its validation errors to the config.

    A failed positive-definiteness check (a LinAlgError, which is a
    ValueError) is a numerical problem, not a schema one: it is raised as it
    is, and main reports it with exit status 3.
    """
    try:
        return factory(*args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario construction from config
# ---------------------------------------------------------------------------


def _as_array(value: Any, path: str) -> np.ndarray:
    return np.asarray(_as_number_list(value, path))


# The flat kinds, by type name: the constructor and its fields in argument
# order, each as (name, parser) when it must be given, else (name, parser,
# default).
_FLAT_KINDS: dict[str, tuple[Callable[..., Any], tuple[tuple[Any, ...], ...]]] = {
    "linear_vector": (LinearVectorMap, (("hvec", _as_array),)),
    "linear_matrix": (LinearMatrixMap, (("matrix", _as_matrix),)),
    "pulse": (AmplitudePulseMap, (("width", _as_int), ("k", _as_int))),
    "scaled_identity": (ScaledIdentityCov, (("sigma2", _as_number), ("k", _as_int))),
    "diagonal": (DiagonalCov, (("diag", _as_array),)),
    "dense": (DenseCov, (("matrix", _as_matrix),)),
    "interval": (IntervalAxis, (("lo", _as_number), ("hi", _as_number))),
    "lattice": (
        LatticeAxis,
        (("count", _as_int), ("start", _as_number, 0.0), ("step", _as_number, 1.0)),
    ),
}
_SIGNALS = ("linear_vector", "linear_matrix", "pulse")
_COVS = ("scaled_identity", "diagonal", "dense")
_AXES = ("interval", "lattice")


def _build_flat(spec: Any, path: str, kinds: tuple[str, ...], k: int | None = None) -> Any:
    """Build an object of one of the flat kinds from its _FLAT_KINDS entry.

    Given the record length k, a kind's own k field must equal it; that is
    checked before the object, which may allocate k entries, is built.
    """
    d = _as_dict(spec, path)
    kind = _kind(d, path, {t: tuple(f[0] for f in _FLAT_KINDS[t][1]) for t in kinds})
    factory, fields = _FLAT_KINDS[kind]
    args = []
    for name, parse, *default in fields:
        value = d.get(name, *default) if default else _require(d, name, path)
        args.append(parse(value, f"{path}.{name}"))
        if name == "k" and k is not None and args[-1] != k:
            _fail(f"{path}.k", f"dimension {args[-1]} != record length {k}")
    return _build(factory, *args, path=path)


def _build_mean(spec: Any, path: str, k: int) -> np.ndarray:
    if isinstance(spec, list):
        values = _as_number_list(spec, path)
        if len(values) != k:
            _fail(path, f"expected {k} entries to match the observation, got {len(values)}")
        return np.asarray(values)
    return np.full(k, _as_number(spec, path))


def _build_gaussian(d: Mapping[str, Any], path: str, k: int) -> GaussianNoise:
    cov = _build_flat(_require(d, "cov", path), f"{path}.cov", _COVS, k)
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


def _build_prior(spec: Any, path: str) -> Prior:
    d = _as_dict(spec, path)
    kind = _kind(d, path, {"interval": ("t",), "axes": ("axes",)})
    if kind == "interval":
        t = _as_number(_require(d, "t", path), f"{path}.t")
        return _build(Prior, (_build(IntervalAxis, 0.0, t, path=path),), path=path)
    axes = _require(d, "axes", path)
    if not isinstance(axes, list) or not axes:
        _fail(f"{path}.axes", "expected a nonempty array of axis objects")
    built = tuple(_build_flat(a, f"{path}.axes[{i}]", _AXES) for i, a in enumerate(axes))
    return _build(Prior, built, path=path)


@dataclass(frozen=True)
class _Scenario:
    """A parsed scenario plus the bookkeeping the subcommands need."""

    assumed: AssumedModel
    truth: TrueModel
    prior: Prior


def _study(d: Mapping[str, Any], path: str) -> Study:
    """The reference study d["example"] names."""
    example = _as_int(_require(d, "example", path), f"{path}.example")
    return _under(path, study, example)


def _scenario_from_preset(d: Mapping[str, Any], path: str) -> _Scenario:
    ref = _study(d, path)
    _check_fields(d, path, "example", "variant", "k", ref.var)
    # Passed on only when given, so each study keeps its own default k.
    k_arg = ()
    if "k" in d:
        k_arg = (_as_int(d["k"], f"{path}.k"),)
        _build(ref.check_k, *k_arg, path=f"{path}.k")
    value = _as_number(_require(d, ref.var, path), f"{path}.{ref.var}")
    _build(ref.check_value, value, path=f"{path}.{ref.var}")
    variant = _as_str(d.get("variant", ref.variants[0]), f"{path}.variant", choices=ref.variants)
    scn = _build(ref.build, value, *k_arg, path=path)
    if variant not in scn.assumed:
        _fail(f"{path}.variant", "the white-only model needs sigma2 > 0 to be well defined")
    return _Scenario(scn.assumed[variant], scn.truth, scn.prior)


def _scenario_from_config(cfg: Mapping[str, Any], path: str) -> _Scenario:
    d = _as_dict(_require(cfg, "scenario", path), f"{path}.scenario")
    path = f"{path}.scenario"
    if "example" in d:
        return _scenario_from_preset(d, path)
    _check_fields(d, path, "assumed", "truth", "prior")

    assumed_d = _as_dict(_require(d, "assumed", path), f"{path}.assumed")
    _check_fields(assumed_d, f"{path}.assumed", "signal", "cov", "mean")
    signal = _build_flat(
        _require(assumed_d, "signal", f"{path}.assumed"), f"{path}.assumed.signal", _SIGNALS
    )
    cov = _build_flat(
        _require(assumed_d, "cov", f"{path}.assumed"), f"{path}.assumed.cov", _COVS, signal.k
    )
    mean = _build_mean(assumed_d.get("mean", 0.0), f"{path}.assumed.mean", signal.k)
    assumed = _build(AssumedModel, signal, mean, cov, path=f"{path}.assumed")

    truth_d = _as_dict(_require(d, "truth", path), f"{path}.truth")
    _check_fields(truth_d, f"{path}.truth", "signal", "noise")
    t_signal = signal
    if "signal" in truth_d:
        t_signal = _build_flat(truth_d["signal"], f"{path}.truth.signal", _SIGNALS)
    noise = _build_noise(_require(truth_d, "noise", f"{path}.truth"), f"{path}.truth.noise", t_signal.k)
    truth = _build(TrueModel, t_signal, noise, path=f"{path}.truth")
    # The two models must agree on the record length and the parameter count.
    _build(PeKernel, assumed, truth, path=f"{path}.truth")

    prior = _build_prior(_require(d, "prior", path), f"{path}.prior")
    if prior.n_theta != signal.n_theta:
        _fail(
            f"{path}.prior",
            f"prior has {prior.n_theta} coordinates, the signal map expects {signal.n_theta}",
        )
    return _Scenario(assumed, truth, prior)


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


def _cmd_bound(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "scenario", "method", "pe_constant")
    method = _as_str(
        cfg.get("method", "auto"),
        "config.method",
        choices=("auto", "closed_form", "asymptotic", "quadrature"),
    )
    scn = _scenario_from_config(cfg, "config")

    pe_constant = None
    if "pe_constant" in cfg:
        pe_constant = _as_number(cfg["pe_constant"], "config.pe_constant")
        if not 0.0 <= pe_constant <= 0.5:
            _fail("config.pe_constant", "expected a probability in [0, 0.5]")
        if method in ("closed_form", "asymptotic"):
            _fail("config.method", "pe_constant only makes sense with quadrature")

    def row(coord: int | None) -> dict[str, Any]:
        start = time.perf_counter()
        if pe_constant is not None:
            spec = ScalarBoundSpec(scn.prior, lambda h: np.full(np.shape(h), pe_constant))
            result = zzb_scalar_independent(spec)
        else:
            result = bound(scn.assumed, scn.truth, scn.prior, method, coord)
        cells = {
            "method": result.form,
            "value": float(result.value),
            "converged": bool(result.converged),
            "runtime": time.perf_counter() - start,
        }
        return cells if coord is None else {"coord": coord, **cells}

    # A scalar scenario keeps its one row without a coord column.
    coords = [None] if scn.prior.n_theta == 1 else range(scn.prior.n_theta)
    try:
        return [row(coord) for coord in coords]
    except MethodError as exc:
        _fail("config.method", str(exc))
    except RouteError as exc:
        _fail("config.pe_constant" if pe_constant is not None else "config.scenario", str(exc))


def _trials_and_seed(
    cfg: Mapping[str, Any], args: argparse.Namespace, default: int | None
) -> tuple[int | None, int]:
    """Trial count and seed from the command line, else the config, else
    default (trials, which may stay None) and 0 (seed)."""
    trials = args.trials
    if trials is None and ("trials" in cfg or default is not None):
        trials = _as_int(cfg.get("trials", default), "config.trials")
    if default is not None:  # a sweep's count is checked by SweepConfig
        _build(check_sweep_trials, trials, path="config.trials")
    seed = args.seed
    if seed is None:
        seed = _as_int(cfg.get("seed", 0), "config.seed")
    return trials, seed


def _check_point(scn: _Scenario, theta: np.ndarray, path: str) -> None:
    """Evaluate both maps at theta, one point or a batch, so that a point a map
    cannot take, such as a pulse position outside the record, is a config
    error naming path."""
    for signal in (scn.assumed.signal, scn.truth.signal):
        _build(eval_signal, signal, theta, path=path)


def _default_estimator(scn: _Scenario) -> EstimatorSpec:
    if isinstance(scn.assumed.signal, AmplitudePulseMap):
        return QuasiMLE(scn.assumed)
    return LinearClosedForm(scn.assumed)


def _cmd_mc(cfg: Mapping[str, Any], args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_fields(cfg, "config", "scenario", "estimator", "trials", "seed", "theta_true")
    scn = _scenario_from_config(cfg, "config")

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
            if not isinstance(scn.assumed.signal, LinearMatrixMap):
                _fail("config.estimator", "closed-form estimation requires a linear signal map")
            estimator = LinearClosedForm(scn.assumed)
        else:
            if scn.prior.n_theta != 1:
                _fail("config.estimator", "sample median requires a scalar parameter")
            estimator = SampleMedian()
    else:
        estimator = _default_estimator(scn)

    trials, seed = _trials_and_seed(cfg, args, 1000)

    theta_true = None
    if "theta_true" in cfg:
        theta_true = _as_coords(cfg["theta_true"], "config.theta_true", scn.prior.n_theta)
        _check_point(scn, theta_true, "config.theta_true")
    # Trials draw theta from the prior and the estimators search it, so its
    # end positions must be points the maps take.
    ends = [
        (ax.lo, ax.hi) if isinstance(ax, IntervalAxis) else (ax.start, ax.start + ax.width)
        for ax in scn.prior.axes
    ]
    _check_point(scn, np.array(ends).T, "config.scenario.prior")

    plan = _build(
        TrialPlan,
        scn.truth,
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
    scn = _scenario_from_config(cfg, "config")
    n = scn.prior.n_theta

    theta = _as_coords(_require(cfg, "theta", "config"), "config.theta", n)
    delta = _as_coords(_require(cfg, "delta", "config"), "config.delta", n)

    method = _as_str(
        cfg.get("method", "analytic"),
        "config.method",
        choices=("analytic", "empirical", "both"),
    )
    trials, seed = _trials_and_seed(cfg, args, 100_000)
    _check_point(scn, theta, "config.theta")
    _check_point(scn, theta + delta, "config.delta")

    kernel = PeKernel(scn.assumed, scn.truth)
    rows: list[dict[str, Any]] = []
    if method in ("analytic", "both"):
        pe_fn = pe_gaussian if isinstance(scn.truth.noise, GaussianNoise) else pe_mixture
        value = pe_fn(kernel, theta, delta)
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
    ref = _study(cfg, "config")
    grid = ref.grid
    if "grid" in cfg:
        grid = tuple(_as_number_list(cfg["grid"], "config.grid", min_len=0))
    overrides: dict[str, int] = {}
    if "k" in cfg:
        overrides["k"] = _as_int(cfg["k"], "config.k")
    trials, seed = _trials_and_seed(cfg, args, None)
    if trials is not None:
        overrides["trials"] = trials
    var = _as_str(cfg.get("var", ref.var), "config.var")
    sweep = _under("config", SweepConfig, ref.example, var, grid, overrides, seed)
    return [asdict(r) for r in run_sweep(sweep)]


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
        "bound": "evaluate a scenario's bound, one row per parameter coordinate",
        "mc": "estimate an estimator's MSE by Monte Carlo",
        "pe": "evaluate a binary-decision error probability",
        "sweep": "run one of the worked examples over its grid",
    }
    for name, helptext in descriptions.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", required=True, help="output file to write")
        if name != "bound":  # bound draws nothing
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
    except MemoryError as exc:
        # A record too long to allocate, such as a k of 10**12, is a config error.
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        _write_atomic(args.out, _render(rows, args.format))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
