"""The four benchmark workloads: inputs made from a seed, and their outputs.

Each workload is chosen so that a planned optimisation does most of its work
in one workload and almost none in another:

- pulse_bounds: example-4 sweep on one SNR point below and one above the
  delay threshold. The vector bound (lattice staircase plus continuous
  profile, about 1 M integrand rows per SNR point) is almost the whole run;
  Monte Carlo is a few percent.
- mixture_quadrature: example-3 sweep on two interior contamination weights.
  The 1-D adaptive quadrature calls the expensive matched_mixture_pe
  profile, and the refinement grid re-evaluates nested nodes; the rest is
  Monte Carlo with an empirical sampler and the sample median.
- dc_montecarlo: the full example-1 sweep (24 run_mse plans, here of 1000
  trials each so that one run holds several batches). Bounds are closed
  forms, so this workload predicts "no change" for bound-layer work and
  carries every change to trials, estimators and the worker pool.
- cli_scenarios: README-style configs through zzbound.cli.main in process
  (bound by closed form and both quadrature routes, pe analytic plus
  empirical, mc on a linear and on the pulse scenario). It is the only
  workload on the scalar pe kernel routes, empirical_pe, CLI parsing,
  rendering and atomic writes, and the single-threaded Monte Carlo path.

Every record length k is the example default. The seed only feeds the Monte
Carlo seeds (sweep seed, mc and pe --seed), so the amount of work, and every
bound cell, is the same at every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from zzbound import cli, experiments, models

DEFAULT_SEED = 0

# Cell kinds: "id" must match the reference exactly at any seed, "value" is
# a seed-independent number matched to rel 1e-7 and kept inside [lo, hi],
# "mc" is a Monte Carlo number matched byte for byte at the default seed,
# and "runtime" is a wall-clock column that is only required to be finite.
ID, VALUE, MC, RUNTIME = "id", "value", "mc", "runtime"


@dataclass(frozen=True)
class Cell:
    kind: str
    text: str
    lo: float = -math.inf
    hi: float = math.inf


@dataclass(frozen=True)
class Row:
    key: str
    cells: dict[str, Cell]


@dataclass
class Op:
    """One call the workload makes: run() is timed, rows() is not."""

    name: str
    run: Callable[[], Any]
    ok: Callable[[Any], bool]
    rows: Callable[[Any], list[Row]]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    prepare: Callable[[int, bool, Path], list[Op]]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _axis_variance(ax) -> float:
    if isinstance(ax, models.LatticeAxis):
        return ax.step * ax.step * (ax.count * ax.count - 1) / 12.0
    return ax.width * ax.width / 12.0


def _interval_variance(gamma_min: float) -> float:
    # The sweeps size their interval prior as max(100 / gamma_min, 10) over
    # the whole grid; the bound can never exceed that prior's variance.
    t = max(100.0 / gamma_min, 10.0)
    return t * t / 12.0


def _sweep_upper(example: int, grid: tuple[float, ...], k: int) -> Callable[[float, str], float]:
    if example == 1:
        gmin = min(min(experiments.build_example1(s, k).gammas.values()) for s in grid)
        var = _interval_variance(gmin)
        return lambda value, quantity: var
    if example == 3:
        gmin = min(experiments.build_example3(1.0 - w2, k).gamma_mismatched for w2 in grid)
        var = _interval_variance(gmin)
        return lambda value, quantity: var

    def pulse(value: float, quantity: str) -> float:
        axes = experiments.build_example4(value, k).prior.axes
        return _axis_variance(axes[0 if quantity.startswith("zzb_tau") else 1])

    return pulse


def _sweep_rows(op: str, config, out) -> list[Row]:
    upper = _sweep_upper(config.example, config.grid, int(config.overrides["k"]))
    rows = []
    for r in out:
        if r.method == "monte_carlo":
            value, stderr, flag = Cell(MC, repr(r.value)), Cell(MC, repr(r.stderr)), Cell(MC, r.flag)
        else:
            value = Cell(VALUE, repr(r.value), 0.0, upper(r.sweep_value, r.quantity))
            stderr, flag = Cell(ID, repr(r.stderr)), Cell(ID, r.flag)
        cells = {
            "sweep_var": Cell(ID, r.sweep_var),
            "sweep_value": Cell(ID, repr(r.sweep_value)),
            "quantity": Cell(ID, r.quantity),
            "method": Cell(ID, r.method),
            "value": value,
            "stderr": stderr,
            "flag": flag,
        }
        rows.append(Row(f"{op}|{r.sweep_value!r}|{r.quantity}", cells))
    return rows


def _sweep_op(payload: dict[str, Any]) -> Op:
    """A sweep config as the CLI would take it, parsed and validated here."""
    overrides = {key: payload[key] for key in ("k", "trials") if key in payload}
    var = {1: "sigma2", 3: "one_minus_omega1", 4: "snr"}[payload["example"]]
    config = experiments.SweepConfig(
        payload["example"], var, tuple(payload["grid"]), overrides, payload["seed"]
    )
    name = f"sweep_ex{config.example}"
    return Op(
        name,
        run=lambda: experiments.run_sweep(config),
        ok=lambda out: True,
        rows=lambda out: _sweep_rows(name, config, out),
    )


def _pulse_bounds(seed: int, smoke: bool, out_dir: Path) -> list[Op]:
    # SNR 1 sits below the delay threshold and SNR 100 above it.
    payload = {"example": 4, "grid": [1.0, 100.0], "k": 5000, "seed": seed}
    if smoke:
        payload.update(grid=[10.0], k=600, trials=20)
    return [_sweep_op(payload)]


def _mixture_quadrature(seed: int, smoke: bool, out_dir: Path) -> list[Op]:
    payload = {"example": 3, "grid": [0.3, 0.7], "k": 2000, "seed": seed}
    if smoke:
        payload.update(grid=[0.5], k=200, trials=40)
    return [_sweep_op(payload)]


def _dc_montecarlo(seed: int, smoke: bool, out_dir: Path) -> list[Op]:
    grid = [float(v) for v in experiments.default_grid(1)]
    payload = {"example": 1, "grid": grid, "k": 500, "trials": 1000, "seed": seed}
    if smoke:
        payload.update(grid=grid[::3], k=50, trials=100)
    return [_sweep_op(payload)]


# ---------------------------------------------------------------------------
# CLI scenarios
# ---------------------------------------------------------------------------

_K = 4
_T = 10.0
_ASSUMED = {
    "signal": {"type": "linear_vector", "hvec": [1.0] * _K},
    "cov": {"type": "scaled_identity", "sigma2": 0.5, "k": _K},
}
_PRIOR = {"type": "interval", "t": _T}
_GAUSS = {
    "assumed": _ASSUMED,
    "truth": {"noise": {"type": "gaussian", "cov": {"type": "diagonal", "diag": [0.5, 0.6, 0.7, 0.8]}}},
    "prior": _PRIOR,
}
_MEAN_OFFSET = {
    "assumed": _ASSUMED,
    "truth": {
        "noise": {
            "type": "gaussian",
            "mean": 0.3,
            "cov": {"type": "diagonal", "diag": [0.5, 0.6, 0.7, 0.8]},
        }
    },
    "prior": _PRIOR,
}
_MIXTURE = {
    "assumed": _ASSUMED,
    "truth": {
        "noise": {
            "type": "mixture",
            "weights": [0.9, 0.1],
            "components": [
                {"cov": {"type": "scaled_identity", "sigma2": 0.5, "k": _K}},
                {"cov": {"type": "scaled_identity", "sigma2": 5.0, "k": _K}},
            ],
        }
    },
    "prior": _PRIOR,
}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _bound_rows(op: str, table: list[dict[str, str]]) -> list[Row]:
    upper = _T * _T / 12.0
    return [
        Row(
            f"{op}|{i}",
            {
                "method": Cell(ID, r["method"]),
                "value": Cell(VALUE, r["value"], 0.0, upper),
                "converged": Cell(ID, r["converged"]),
                "runtime": Cell(RUNTIME, r["runtime"]),
            },
        )
        for i, r in enumerate(table)
    ]


def _pe_rows(op: str, table: list[dict[str, str]]) -> list[Row]:
    rows = []
    for i, r in enumerate(table):
        analytic = r["method"] == "analytic"
        cells = {
            "method": Cell(ID, r["method"]),
            "value": Cell(VALUE, r["value"], 0.0, 1.0) if analytic else Cell(MC, r["value"]),
            "stderr": Cell(ID if analytic else MC, r["stderr"]),
            "trials": Cell(ID, r["trials"]),
        }
        rows.append(Row(f"{op}|{i}", cells))
    return rows


def _mc_rows(op: str, table: list[dict[str, str]]) -> list[Row]:
    return [
        Row(
            f"{op}|{i}",
            {
                "coord": Cell(ID, r["coord"]),
                "mse": Cell(MC, r["mse"]),
                "stderr": Cell(MC, r["stderr"]),
                "bias": Cell(MC, r["bias"]),
                "trials": Cell(ID, r["trials"]),
                "failures": Cell(MC, r["failures"]),
                "valid": Cell(MC, r["valid"]),
            },
        )
        for i, r in enumerate(table)
    ]


_ROWS = {"bound": _bound_rows, "pe": _pe_rows, "mc": _mc_rows}


def _cli_op(out_dir: Path, name: str, command: str, config: dict[str, Any], seed: int | None) -> Op:
    cfg_path = out_dir / f"{name}.json"
    out_path = out_dir / f"{name}.csv"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]

    def rows(code: int) -> list[Row]:
        return _ROWS[command](name, _read_csv(out_path)) if code == 0 else []

    return Op(name, run=lambda: cli.main(argv), ok=lambda code: code == 0, rows=rows)


def _cli_scenarios(seed: int, smoke: bool, out_dir: Path) -> list[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    pe_trials = 2_000 if smoke else 100_000
    pulse = {"example": 4, "snr": 100.0}
    if smoke:
        pulse["k"] = 600
    pe_common = {"theta": [1.0], "delta": [0.5], "method": "both", "trials": pe_trials}
    return [
        _cli_op(out_dir, "bound_closed_form", "bound", {"scenario": _GAUSS}, None),
        _cli_op(out_dir, "bound_mean_offset", "bound", {"scenario": _MEAN_OFFSET}, None),
        _cli_op(
            out_dir, "bound_mixture", "bound", {"scenario": _MIXTURE, "method": "quadrature"}, None
        ),
        _cli_op(out_dir, "pe_gaussian", "pe", {"scenario": _GAUSS, **pe_common}, seed),
        _cli_op(out_dir, "pe_mixture", "pe", {"scenario": _MIXTURE, **pe_common}, seed),
        _cli_op(
            out_dir,
            "mc_linear",
            "mc",
            {
                "scenario": _GAUSS,
                "estimator": "linear_closed_form",
                "trials": 200 if smoke else 5_000,
                "theta_true": [4.0],
            },
            seed,
        ),
        _cli_op(out_dir, "mc_pulse", "mc", {"scenario": pulse, "trials": 20 if smoke else 500}, seed),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pulse_bounds", 2, _pulse_bounds),
        Workload("mixture_quadrature", 2, _mixture_quadrature),
        Workload("dc_montecarlo", 2, _dc_montecarlo),
        Workload("cli_scenarios", 1, _cli_scenarios),
    )
}


def prepare(name: str, seed: int, smoke: bool, out_dir: Path) -> list[Op]:
    """Make the workload's configs from the seed and parse them."""
    return WORKLOADS[name].prepare(seed, smoke, out_dir)
