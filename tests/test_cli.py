"""End-to-end tests of the command line interface."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zzbound
from zzbound.cli import main
from zzbound.experiments import (
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    example4_bounds,
)
from zzbound.models import (
    AmplitudePulseMap,
    AssumedModel,
    DiagonalCov,
    GaussianNoise,
    IntervalAxis,
    LatticeAxis,
    LinearVectorMap,
    MixtureNoise,
    Prior,
    ScaledIdentityCov,
    TrueModel,
    uniform_interval,
)
from zzbound.pe_kernel import PeKernel, linear_scalar_profile, pe_gaussian
from zzbound.zzb import (
    ScalarBoundSpec,
    bound,
    zzb_closed_form_q_linear,
    zzb_scalar_independent,
)


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _scalar_scenario(k=25, sigma2=1.0, t=80000.0):
    return {
        "scenario": {
            "assumed": {
                "signal": {"type": "linear_vector", "hvec": [1.0] * k},
                "cov": {"type": "scaled_identity", "sigma2": sigma2, "k": k},
            },
            "truth": {
                "noise": {
                    "type": "gaussian",
                    "cov": {"type": "scaled_identity", "sigma2": sigma2, "k": k},
                }
            },
            "prior": {"type": "interval", "t": t},
        }
    }


def test_bound_closed_form_full_match(tmp_path):
    # Matched white scenario, prior wide enough that the bound sits on its
    # asymptote 1 / (h^T Sigma^-1 h) to well under 1e-5 relative.
    cfg = _write_cfg(tmp_path, _scalar_scenario())
    out = str(tmp_path / "bound.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "closed_form_q_linear"
    assert rows[0]["converged"] == "true"
    assert float(rows[0]["value"]) == pytest.approx(1.0 / 25.0, rel=1e-5)
    assert float(rows[0]["runtime"]) >= 0.0


def test_bound_quadrature_agrees_with_closed_form(tmp_path):
    payload = _scalar_scenario(k=10, t=20.0)
    cfg_auto = _write_cfg(tmp_path, payload, "auto.json")
    payload_q = dict(payload, method="quadrature")
    cfg_q = _write_cfg(tmp_path, payload_q, "quad.json")
    out_a = str(tmp_path / "a.csv")
    out_q = str(tmp_path / "q.csv")
    assert main(["bound", "--config", cfg_auto, "--out", out_a]) == 0
    assert main(["bound", "--config", cfg_q, "--out", out_q]) == 0
    row_a = _read_rows(out_a)[0]
    row_q = _read_rows(out_q)[0]
    assert row_a["method"] == "closed_form_q_linear"
    assert row_q["method"] == "symmetric_split"
    assert float(row_q["value"]) == pytest.approx(float(row_a["value"]), rel=1e-6)


def test_bound_pe_constant_limits(tmp_path):
    base = _scalar_scenario(k=4, t=6.0)
    cfg0 = _write_cfg(tmp_path, dict(base, pe_constant=0.0), "z.json")
    out0 = str(tmp_path / "z.csv")
    assert main(["bound", "--config", cfg0, "--out", out0]) == 0
    assert float(_read_rows(out0)[0]["value"]) == 0.0
    cfg5 = _write_cfg(tmp_path, dict(base, pe_constant=0.5), "h.json")
    out5 = str(tmp_path / "h.csv")
    assert main(["bound", "--config", cfg5, "--out", out5]) == 0
    assert float(_read_rows(out5)[0]["value"]) == pytest.approx(36.0 / 12.0, rel=1e-9, abs=0.0)


def test_bound_pe_constant_conflicts_with_closed_form(tmp_path):
    cfg = _write_cfg(
        tmp_path, dict(_scalar_scenario(k=4), pe_constant=0.1, method="closed_form")
    )
    out = str(tmp_path / "x.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_bound_example1_preset_asymptotic(tmp_path, capsys):
    # 1/(4 gamma^2) is the unconstrained WLS MSE, which the closed form
    # approaches from below: not a lower bound, so no method writes it.
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {"example": 1, "sigma2": 0.1, "variant": "m1", "k": 60},
            "method": "asymptotic",
        },
    )
    out = str(tmp_path / "m1.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: config.method: expected one of ['auto', 'closed_form', 'quadrature'], "
        "got 'asymptotic'\n"
    )
    assert not os.path.exists(out)


def test_bound_example1_preset_rejects_m1_at_zero_noise(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, {"scenario": {"example": 1, "sigma2": 0.0, "variant": "m1"}}
    )
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "sigma2 > 0" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "command, scenario",
    [
        ("bound", {"example": 1, "sigma2": 0.1}),
        ("mc", {"example": 3, "one_minus_omega1": 0.3}),
    ],
)
def test_preset_rejects_too_short_k(tmp_path, capsys, command, scenario, k):
    # "k": 0 once fell through to the study default and exited 0.
    cfg = _write_cfg(tmp_path, {"scenario": dict(scenario, k=k)})
    out = str(tmp_path / "no.csv")
    trials = ["--trials", "2"] if command == "mc" else []
    assert main([command, "--config", cfg, "--out", out, *trials]) == 2
    assert "config.scenario.k: k must be at least 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_pulse_preset_k_error_matches_sweep(tmp_path, capsys):
    # The pulse study needs k >= 600; a preset names its field with the
    # message sweep gives for config.k.
    cfg = _write_cfg(tmp_path, {"scenario": {"example": 4, "snr": 10.0, "k": 100}})
    out = str(tmp_path / "no.csv")
    assert main(["mc", "--config", cfg, "--out", out, "--trials", "2"]) == 2
    assert "config.scenario.k: k must be at least 600 for example 4" in capsys.readouterr().err
    assert not os.path.exists(out)


def _assert_rows_match(rows, results):
    """CLI bound rows, one per coordinate, repr-equal to BoundResults."""
    assert [row["coord"] for row in rows] == [str(j) for j in range(len(results))]
    for row, result in zip(rows, results):
        assert row["method"] == result.form
        assert repr(float(row["value"])) == repr(result.value)
        assert row["converged"] == str(result.converged).lower()


def test_bound_example4_preset_rows_match_example4_bounds(tmp_path):
    # Each variant writes one row per coordinate, coord first, as mc does.
    want = example4_bounds(build_example4(10.0, 600))
    out = str(tmp_path / "out.csv")
    for variant in ("mismatched", "matched"):
        scenario = {"example": 4, "snr": 10.0, "k": 600, "variant": variant}
        cfg = _write_cfg(tmp_path, {"scenario": scenario})
        assert main(["bound", "--config", cfg, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert fh.readline() == "coord,method,value,converged,runtime\n"
        results = [want[f"zzb_tau_{variant}"], want[f"zzb_alpha_{variant}"]]
        _assert_rows_match(_read_rows(out), results)


@pytest.mark.parametrize(
    "example, var, value",
    [
        (1, "sigma2", -0.1),
        (2, "mu_star", math.nan),
        (3, "one_minus_omega1", 1.5),
        (4, "snr", math.inf),
    ],
)
def test_preset_sweep_value_error_matches_sweep(tmp_path, capsys, example, var, value):
    # A preset names its sweep variable with the message sweep gives for the
    # same value in its grid.
    out = str(tmp_path / "no.csv")
    sweep_cfg = _write_cfg(tmp_path, {"example": example, "grid": [value]}, "sweep.json")
    assert main(["sweep", "--config", sweep_cfg, "--out", out]) == 2
    sweep_err = capsys.readouterr().err
    assert sweep_err.startswith("error: config.grid[0]: ")
    message = sweep_err.removeprefix("error: config.grid[0]: ")
    cfg = _write_cfg(tmp_path, {"scenario": {"example": example, var: value}})
    assert main(["mc", "--config", cfg, "--out", out, "--trials", "2"]) == 2
    assert capsys.readouterr().err == f"error: config.scenario.{var}: {message}"
    assert not os.path.exists(out)


_PRESET_VARIANTS = [
    ({"example": 1, "sigma2": 0.1, "k": 20}, "m1"),
    ({"example": 1, "sigma2": 0.1, "k": 20}, "m2"),
    ({"example": 1, "sigma2": 0.1, "k": 20}, "matched"),
    ({"example": 2, "mu_star": 3.0, "k": 20}, "mismatched"),
    ({"example": 2, "mu_star": 3.0, "k": 20}, "matched"),
    ({"example": 3, "one_minus_omega1": 0.3, "k": 20}, "mismatched"),
    ({"example": 4, "snr": 10.0, "k": 600}, "mismatched"),
    ({"example": 4, "snr": 10.0, "k": 600}, "matched"),
]


@pytest.mark.parametrize(
    "preset, variant", _PRESET_VARIANTS, ids=[f"ex{p['example']}-{v}" for p, v in _PRESET_VARIANTS]
)
def test_every_preset_variant_runs(tmp_path, preset, variant):
    scenario = dict(preset, variant=variant)
    pulse = preset["example"] == 4
    pe_cfg = {
        "scenario": scenario,
        "theta": [300.0, 1.0] if pulse else [4.0],
        "delta": [2.0, 0.0] if pulse else [0.05],
        "method": "both",
        "trials": 200,
    }
    out = str(tmp_path / "out.csv")
    assert main(["pe", "--config", _write_cfg(tmp_path, pe_cfg), "--out", out]) == 0
    mc_cfg = _write_cfg(tmp_path, {"scenario": scenario, "trials": 3})
    assert main(["mc", "--config", mc_cfg, "--out", out]) == 0
    if pulse:
        return  # see test_bound_example4_preset_rows_match_example4_bounds
    assert main(["bound", "--config", _write_cfg(tmp_path, {"scenario": scenario}), "--out", out]) == 0
    row = _read_rows(out)[0]
    if preset["example"] == 1:
        scn = build_example1(preset["sigma2"], preset["k"])
    elif preset["example"] == 2:
        scn = build_example2(preset["mu_star"], preset["k"])
    else:
        scn = build_example3(1.0 - preset["one_minus_omega1"], preset["k"])
    want = bound(scn.assumed[variant], scn.truth, scn.prior)
    assert row["method"] == want.form
    assert repr(float(row["value"])) == repr(want.value)
    assert row["converged"] == str(want.converged).lower()


def _white_mixture_scenario(k, weights, variances, t):
    components = [{"cov": {"type": "scaled_identity", "sigma2": v, "k": k}} for v in variances]
    return {
        "assumed": {
            "signal": {"type": "linear_vector", "hvec": [1.0] * k},
            "cov": {"type": "scaled_identity", "sigma2": 1.0, "k": k},
        },
        "truth": {"noise": {"type": "mixture", "weights": weights, "components": components}},
        "prior": {"type": "interval", "t": t},
    }


def test_bound_mixture_closed_form(tmp_path):
    # A per-vector mixture takes the closed form only when its components
    # share one variance; study 3's per-sample law takes it with the pooled
    # slope, its central-limit error probability.
    k = 20
    equal = _white_mixture_scenario(k, [0.6, 0.4], [4.0, 4.0], 30.0)
    row = _bound_row(tmp_path, {"scenario": equal}, "equal")
    assert row["method"] == "closed_form_q_linear"
    gamma = 0.5 * k / math.sqrt(4.0 * k)
    assert float(row["value"]) == pytest.approx(zzb_closed_form_q_linear(gamma, 30.0), rel=1e-12, abs=0.0)

    unequal = _white_mixture_scenario(k, [0.6, 0.4], [1.0, 4.0], 30.0)
    auto = _bound_row(tmp_path, {"scenario": unequal}, "unequal")
    quad = _bound_row(tmp_path, {"scenario": unequal, "method": "quadrature"}, "unequal_quad")
    assert auto["method"] == quad["method"] == "independent"
    assert auto["value"] == quad["value"]

    preset = {"example": 3, "one_minus_omega1": 0.4, "k": k}
    row = _bound_row(tmp_path, {"scenario": preset, "method": "closed_form"}, "per_sample")
    assert row["method"] == "closed_form_q_linear"
    gamma = 0.5 * k / math.sqrt(0.6 * k + 0.4 * 625.0 * k)
    t_prior = build_example3(0.6, k).prior.axes[0].width
    assert float(row["value"]) == pytest.approx(zzb_closed_form_q_linear(gamma, t_prior), rel=1e-12, abs=0.0)


# "asymptotic" names no method, so it is refused at config.method on every
# scenario, these included.
@pytest.mark.parametrize("method", ["closed_form", "asymptotic"])
@pytest.mark.parametrize(
    "weights, variances, t",
    [
        ([0.5, 0.5], [0.1, 10.0], 10.0),
        ([0.9, 0.1], [0.01, 50.0], 10.0),
        ([0.9, 0.1], [0.01, 50.0], 2.0),
    ],
)
def test_bound_wide_mixture_has_no_closed_form(tmp_path, capsys, weights, variances, t, method):
    scenario = _white_mixture_scenario(4, weights, variances, t)
    assert _bound_row(tmp_path, {"scenario": scenario}, "auto")["method"] == "independent"
    cfg = _write_cfg(tmp_path, {"scenario": scenario, "method": method})
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "config.method: " in capsys.readouterr().err
    assert not os.path.exists(out)


# The README bound config, and a truth whose signal map differs from it.
_README_DIAG = [0.5, 0.6, 0.7, 0.8]
_README_ASSUMED = {
    "signal": {"type": "linear_vector", "hvec": [1.0] * 4},
    "cov": {"type": "scaled_identity", "sigma2": 0.5, "k": 4},
}
_README_NOISE = {"type": "gaussian", "cov": {"type": "diagonal", "diag": _README_DIAG}}
_README_MIXTURE = {
    "type": "mixture",
    "weights": [0.9, 0.1],
    "components": [
        {"cov": {"type": "scaled_identity", "sigma2": 0.5, "k": 4}},
        {"cov": {"type": "scaled_identity", "sigma2": 5.0, "k": 4}},
    ],
}
_OTHER_HVEC = [1.2, 1.0, 0.8, 1.1]


def _readme_config(assumed_signal=None, truth_signal=None, noise=None, **extra):
    # Deep copies: a test that edits a nested field must not edit the constants.
    assumed = copy.deepcopy(_README_ASSUMED)
    if assumed_signal is not None:
        assumed["signal"] = assumed_signal
    truth = {"noise": copy.deepcopy(noise or _README_NOISE)}
    if truth_signal is not None:
        truth["signal"] = truth_signal
    scenario = {"assumed": assumed, "truth": truth, "prior": {"type": "interval", "t": 10.0}}
    return {"scenario": scenario, **extra}


def _bound_row(tmp_path, payload, name):
    cfg = _write_cfg(tmp_path, payload, f"{name}.json")
    out = str(tmp_path / f"{name}.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    return _read_rows(out)[0]


_FOOTPRINT_SCRIPT = """
import json, sys
from pathlib import Path

import zzbound.cli

tmp = Path(sys.argv[1])
for command, cfg in json.loads(sys.argv[2]):
    path = tmp / f"{command}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert zzbound.cli.main([command, "--config", str(path), "--out", str(tmp / "out.csv")]) == 0
print("scipy.linalg" in sys.modules)

import numpy as np
from zzbound.models import DenseCov

DenseCov(np.eye(2))
print("scipy.linalg" in sys.modules)
try:
    DenseCov(np.array([[1.0, 2.0], [2.0, 1.0]]))
except ValueError as exc:
    print(exc)
"""


def test_only_a_dense_covariance_loads_scipy_linalg(tmp_path):
    # A fresh interpreter, so no other test's imports count.
    commands = [
        ("bound", _readme_config()),
        ("mc", _readme_config(trials=20)),
        ("pe", _readme_config(theta=[4.0], delta=[0.3], method="both", trials=2000)),
        ("sweep", {"example": 1, "grid": [0.1], "k": 10, "trials": 5}),
    ]
    src = str(Path(zzbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path), json.dumps(commands)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "True", "covariance is not positive definite"]


@pytest.mark.parametrize("extra", [{}, {"method": "quadrature"}, {"method": "closed_form"}])
def test_bound_one_column_matrix_matches_vector(tmp_path, extra):
    column = {"type": "linear_matrix", "matrix": [[1.0]] * 4}
    vector = _bound_row(tmp_path, _readme_config(**extra), "vector")
    matrix = _bound_row(tmp_path, _readme_config(column, column, **extra), "matrix")
    for key in ("method", "value", "converged"):
        assert matrix[key] == vector[key]


def _readme_models(truth_hvec):
    assumed = AssumedModel(LinearVectorMap(np.ones(4)), np.zeros(4), ScaledIdentityCov(0.5, 4))
    noise = GaussianNoise(np.zeros(4), DiagonalCov(np.array(_README_DIAG)))
    return assumed, TrueModel(LinearVectorMap(np.array(truth_hvec)), noise)


def test_bound_differing_truth_map_takes_general_route(tmp_path):
    truth_signal = {"type": "linear_vector", "hvec": _OTHER_HVEC}
    row = _bound_row(tmp_path, _readme_config(truth_signal=truth_signal), "general")
    assert row["method"] == "general"
    assert row["converged"] == "true"
    # Reference: (1/T) int_0^T h int_0^{T-h} pe(t, h) dt dh with the
    # pointwise Gaussian error probability, on a product Gauss-Legendre rule
    # of 24 nodes per axis mapped to the unit square.
    kernel = PeKernel(*_readme_models(_OTHER_HVEC))
    t = 10.0
    nodes, weights = np.polynomial.legendre.leggauss(24)
    u, w = 0.5 * (nodes + 1.0), 0.5 * weights
    h = t * u
    inner = [
        (t - hi) * sum(wj * pe_gaussian(kernel, (t - hi) * uj, hi) for uj, wj in zip(u, w)) for hi in h
    ]
    reference = float(np.dot(w, h * np.array(inner)))
    assert float(row["value"]) == pytest.approx(reference, rel=1e-6)


def test_bound_mixture_differing_map_is_not_pinned_at_zero(tmp_path):
    truth_signal = {"type": "linear_vector", "hvec": _OTHER_HVEC}
    payload = _readme_config(truth_signal=truth_signal, noise=_README_MIXTURE, method="quadrature")
    row = _bound_row(tmp_path, payload, "mixture_general")
    assert row["method"] == "general"
    # The location-free form with theta_o pinned at 0 misses the location term.
    assumed, _ = _readme_models(_OTHER_HVEC)
    mix = MixtureNoise(
        np.array([0.9, 0.1]),
        (
            GaussianNoise(np.zeros(4), ScaledIdentityCov(0.5, 4)),
            GaussianNoise(np.zeros(4), ScaledIdentityCov(5.0, 4)),
        ),
    )
    profile = linear_scalar_profile(
        PeKernel(assumed, TrueModel(LinearVectorMap(np.array(_OTHER_HVEC)), mix))
    )
    pinned = zzb_scalar_independent(
        ScalarBoundSpec(uniform_interval(10.0), partial(profile.pe, 0.0))
    ).value
    assert abs(float(row["value"]) - pinned) > 1e-2 * pinned


def test_bound_closed_form_needs_a_centered_profile(tmp_path, capsys):
    truth_signal = {"type": "linear_vector", "hvec": _OTHER_HVEC}
    cfg = _write_cfg(tmp_path, _readme_config(truth_signal=truth_signal, method="closed_form"))
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "config.method" in capsys.readouterr().err
    assert not os.path.exists(out)


_small = st.floats(-2.0, 2.0, allow_nan=False)
_mean = st.one_of(st.just(0.0), _small)
_variance = st.floats(0.1, 4.0, allow_nan=False)


@st.composite
def _bound_configs(draw):
    """Scalar-interval bound configs over every signal, covariance and noise
    kind the schema offers; about one in three has a non-finite number."""
    k = draw(st.integers(1, 4))

    def signal():
        hvec = draw(st.lists(_small, min_size=k, max_size=k))
        if draw(st.booleans()):
            return {"type": "linear_vector", "hvec": hvec}
        return {"type": "linear_matrix", "matrix": [[v] for v in hvec]}

    def cov():
        kind = draw(st.sampled_from(["scaled_identity", "diagonal", "dense"]))
        if kind == "scaled_identity":
            return {"type": kind, "sigma2": draw(_variance), "k": k}
        diag = draw(st.lists(_variance, min_size=k, max_size=k))
        if kind == "diagonal":
            return {"type": kind, "diag": diag}
        return {"type": kind, "matrix": np.diag(diag).tolist()}

    def gaussian():
        return {"cov": cov(), "mean": draw(_mean)}

    assumed = {"signal": signal(), "cov": cov(), "mean": draw(_mean)}
    truth = {}
    if draw(st.booleans()):
        truth["signal"] = signal()
    if draw(st.booleans()):
        truth["noise"] = {"type": "gaussian", **gaussian()}
    else:
        n = draw(st.integers(1, 3))
        truth["noise"] = {
            "type": "mixture",
            "weights": [1.0 / n] * n,
            "components": [gaussian() for _ in range(n)],
        }
    payload = {
        "scenario": {
            "assumed": assumed,
            "truth": truth,
            "prior": {"type": "interval", "t": draw(st.floats(0.5, 20.0))},
        },
        "method": draw(st.sampled_from(["auto", "closed_form", "quadrature"])),
    }
    if draw(st.integers(0, 5)) == 0:
        payload["pe_constant"] = draw(st.floats(0.0, 0.5))
    if draw(st.integers(0, 2)) == 0:
        # One number, integer fields included, made NaN or +-inf. The field
        # name is drawn first, so a long hvec does not crowd out the rest.
        fields = {}
        for path in _numeric_fields(payload):
            fields.setdefault([key for key in path if isinstance(key, str)][-1], []).append(path)
        *keys, last = draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)))]))
        node = payload
        for key in keys:
            node = node[key]
        node[last] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return payload


def _numeric_fields(node, path=()):
    """Key paths of every number in a JSON-like tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [p for key, child in items for p in _numeric_fields(child, path + (key,))]


def _is_finite(payload):
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError:
        return False
    return True


def _column(signal):
    if signal["type"] == "linear_vector":
        return signal["hvec"]
    return [row[0] for row in signal["matrix"]]


@settings(max_examples=90, deadline=None, derandomize=True)
@given(_bound_configs())
def test_fuzzed_bound_configs_exit_0_or_2(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        out = os.path.join(tmp, "out.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code = main(["bound", "--config", cfg, "--out", out])
        assert code in (0, 2)
        # A non-finite number is a config error wherever it appears.
        assert code == 2 or _is_finite(payload)
        if code != 0:
            return
        value = float(_read_rows(out)[0]["value"])
        scenario = payload["scenario"]
        t = scenario["prior"]["t"]
        # With equal maps pe <= 1/2, so the bound is at most the prior
        # variance T^2/12; a truth map that differs can make the assumed
        # rule err with pe > 1/2 (pe <= 1 caps the bound at T^2/6).
        truth_signal = scenario["truth"].get("signal", scenario["assumed"]["signal"])
        equal_maps = _column(truth_signal) == _column(scenario["assumed"]["signal"])
        cap = t * t / (12.0 if equal_maps or "pe_constant" in payload else 6.0)
        assert 0.0 <= value <= cap * (1.0 + 1e-9)


def _pulse_scenario(k=40, true_width=10, assumed_width=8, sigma2=2.0):
    """A spelled-out pulse scenario on the prior its route needs."""
    cov = {"type": "scaled_identity", "sigma2": sigma2, "k": k}
    return {
        "assumed": {"signal": {"type": "pulse", "width": assumed_width, "k": k}, "cov": cov},
        "truth": {
            "signal": {"type": "pulse", "width": true_width, "k": k},
            "noise": {"type": "gaussian", "cov": copy.deepcopy(cov)},
        },
        "prior": {
            "type": "axes",
            "axes": [{"type": "lattice", "count": k}, {"type": "interval", "lo": 0.5, "hi": 1.5}],
        },
    }


def _set(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_bound_pulse_config_matches_the_router(tmp_path, method):
    # A white noise given as a constant diagonal is the same scenario.
    k, sigma2 = 40, 2.0
    cov = ScaledIdentityCov(sigma2, k)
    assumed = AssumedModel(AmplitudePulseMap(8, k), np.zeros(k), cov)
    truth = TrueModel(AmplitudePulseMap(10, k), GaussianNoise(np.zeros(k), cov))
    prior = Prior((LatticeAxis(k), IntervalAxis(0.5, 1.5)))
    want = [bound(assumed, truth, prior, method, coord) for coord in (0, 1)]
    assert [r.form for r in want] == ["lattice_staircase", "continuous_profile"]
    payload = {"scenario": _pulse_scenario(k, sigma2=sigma2), "method": method}
    out = str(tmp_path / "out.csv")
    for cov_path in ((), ("assumed", "cov"), ("truth", "noise", "cov")):
        if cov_path:
            _set(payload["scenario"], cov_path, {"type": "diagonal", "diag": [sigma2] * k})
        assert main(["bound", "--config", _write_cfg(tmp_path, payload), "--out", out]) == 0
        _assert_rows_match(_read_rows(out), want)


_LINEAR_TRUTH = {"type": "linear_vector", "hvec": [1.0] * 40}
_MATRIX_TRUTH = {"type": "linear_matrix", "matrix": [[1.0, 0.0]] * 40}
_INTERVAL_AXIS = {"type": "interval", "lo": 0.0, "hi": 39.0}
_LATTICE_AXIS = {"type": "lattice", "count": 3}
_MIXTURE_TRUTH = {
    "type": "mixture",
    "weights": [0.5, 0.5],
    "components": [{"cov": {"type": "scaled_identity", "sigma2": 2.0, "k": 40}}] * 2,
}


@pytest.mark.parametrize(
    "path, value, field, message",
    [
        (("method",), "closed_form", "config.method", "closed_form has no pulse form"),
        (("method",), "asymptotic", "config.method", "expected one"),
        (("pe_constant",), 0.25, "config.pe_constant", "one-axis interval prior"),
        (("scenario", "truth", "signal"), _LINEAR_TRUTH, "config.scenario.truth", "dimension"),
        (("scenario", "truth", "noise"), _MIXTURE_TRUTH, "config.scenario", "Gaussian truth"),
        (("scenario", "truth", "noise", "mean"), 0.5, "config.scenario", "assumed mean"),
        (("scenario", "truth", "noise", "cov", "sigma2"), 3.0, "config.scenario", "white"),
        (
            ("scenario", "assumed", "cov"),
            {"type": "diagonal", "diag": [2.0] * 39 + [3.0]},
            "config.scenario",
            "white",
        ),
        (("scenario", "prior", "axes", 0, "count"), 39, "config.scenario", "count 40"),
        (("scenario", "prior", "axes", 0, "start"), 1.0, "config.scenario", "start 0"),
        (("scenario", "prior", "axes", 0), _INTERVAL_AXIS, "config.scenario", "lattice"),
        (("scenario", "prior", "axes", 1), _LATTICE_AXIS, "config.scenario", "amplitude interval"),
        (("scenario", "truth", "signal"), _MATRIX_TRUTH, "config.scenario", "pulse map for"),
    ],
)
def test_bound_pulse_off_its_route_exits_2(tmp_path, capsys, path, value, field, message):
    payload = {"scenario": _pulse_scenario()}
    _set(payload, path, value)
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", _write_cfg(tmp_path, payload), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and message in err
    assert not os.path.exists(out)


def test_bound_linear_map_on_a_vector_prior_exits_2(tmp_path, capsys):
    scenario = {
        "assumed": {
            "signal": {"type": "linear_matrix", "matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
            "cov": {"type": "scaled_identity", "sigma2": 1.0, "k": 3},
        },
        "truth": {"noise": {"type": "gaussian", "cov": {"type": "scaled_identity", "sigma2": 1.0, "k": 3}}},
        "prior": {"type": "axes", "axes": [{"type": "interval", "lo": 0, "hi": 1}] * 2},
    }
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", _write_cfg(tmp_path, {"scenario": scenario}), "--out", out]) == 2
    assert "config.scenario: scalar bounds require a one-axis interval prior" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, extra", [("bound", {}), ("mc", {"trials": 2}), ("pe", {"theta": [1.0], "delta": [0.5]})]
)
def test_models_that_disagree_on_dimension_exit_2(tmp_path, capsys, command, extra):
    # A pulse truth under a scalar linear model once exited 3 from mc and pe.
    payload = _readme_config(truth_signal={"type": "pulse", "width": 2, "k": 4}, **extra)
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", _write_cfg(tmp_path, payload), "--out", out]) == 2
    assert "config.scenario.truth: " in capsys.readouterr().err
    assert not os.path.exists(out)


_HUGE_COV = {"type": "scaled_identity", "sigma2": 0.5, "k": 10**12}


@pytest.mark.parametrize("command, extra", [("bound", {}), ("pe", {"theta": [1.0], "delta": [0.5]})])
@pytest.mark.parametrize(
    "path, value, field",
    [
        (("assumed", "cov"), _HUGE_COV, "assumed.cov.k"),
        (("truth", "noise", "cov"), _HUGE_COV, "truth.noise.cov.k"),
        (
            ("truth", "noise"),
            {**_README_MIXTURE, "components": [{"cov": _HUGE_COV}] * 2},
            "truth.noise.components[0].cov.k",
        ),
    ],
    ids=["assumed", "truth", "mixture"],
)
def test_covariance_k_off_the_record_exits_2(tmp_path, capsys, command, extra, path, value, field):
    # A covariance's k is compared with the record before the covariance,
    # of k entries, is built: a k of 10**12 allocates nothing.
    payload = _readme_config(**extra)
    _set(payload["scenario"], path, value)
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", _write_cfg(tmp_path, payload), "--out", out]) == 2
    message = f"config.scenario.{field}: dimension 1000000000000 != record length 4\n"
    assert capsys.readouterr().err == f"error: {message}"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("bound", {"scenario": _pulse_scenario(k=10**12)}),
        ("sweep", {"example": 2, "grid": [1.0], "k": 10**12, "trials": 1}),
    ],
    ids=["pulse_bound", "sweep"],
)
def test_a_record_too_long_to_allocate_exits_2(tmp_path, capsys, command, payload):
    # Numpy refuses the 8 TB record at once; that is the config's doing.
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", _write_cfg(tmp_path, payload), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not os.path.exists(out)


@st.composite
def _pulse_configs(draw):
    """(payload, on_route): pulse bound configs at small k with any amplitude
    interval, half of them moved by one or two edits of a width, prior axis,
    covariance, noise kind or mean, or pe_constant; some with a closed form."""
    k = draw(st.integers(1, 16))
    payload = {
        "scenario": _pulse_scenario(
            k, draw(st.integers(1, k)), draw(st.integers(1, k)), draw(_variance)
        ),
        "method": draw(st.sampled_from(["auto", "quadrature"])),
    }
    if draw(st.integers(0, 5)) == 0:
        payload["method"] = "closed_form"
    scenario = payload["scenario"]
    axes = scenario["prior"]["axes"]
    lo = draw(st.floats(-1.0, 2.0))
    axes[1].update(lo=lo, hi=lo + draw(st.floats(0.1, 2.0)))
    edits = [
        lambda: scenario[draw(st.sampled_from(["assumed", "truth"]))]["signal"].update(width=k + 1),
        lambda: axes[0].update(count=draw(st.integers(1, k + 2))),
        lambda: axes[0].update(
            start=draw(st.sampled_from([0.0, 1.0])), step=draw(st.sampled_from([1.0, 2.0]))
        ),
        lambda: axes.__setitem__(0, {"type": "interval", "lo": 0.0, "hi": float(k)}),
        lambda: axes.__setitem__(1, {"type": "lattice", "count": draw(st.integers(1, 4))}),
        lambda: scenario["assumed"].update(mean=draw(_mean)),
        lambda: scenario["truth"]["noise"].update(mean=draw(_mean)),
        lambda: scenario["truth"]["noise"]["cov"].update(sigma2=draw(_variance)),
        lambda: scenario["truth"]["noise"].update(
            cov={"type": "diagonal", "diag": draw(st.lists(_variance, min_size=k, max_size=k))}
        ),
        lambda: scenario["assumed"].update(cov={"type": "dense", "matrix": np.eye(k).tolist()}),
        lambda: scenario["truth"].update(
            noise={
                "type": "mixture",
                "weights": [0.5, 0.5],
                "components": [{"cov": scenario["assumed"]["cov"]}] * 2,
            }
        ),
        lambda: scenario["truth"].pop("signal"),
        lambda: payload.update(pe_constant=draw(st.floats(0.0, 0.5))),
    ]
    on_route = payload["method"] in ("auto", "quadrature")
    if draw(st.booleans()):
        on_route = False
        # In list order, so an edit of the truth's signal or noise fields
        # runs before an edit that removes or replaces them.
        picks = draw(st.lists(st.integers(0, len(edits) - 1), min_size=1, max_size=2, unique=True))
        for i in sorted(picks):
            edits[i]()
    return payload, on_route


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pulse_configs())
def test_fuzzed_pulse_bound_configs_exit_0_or_2(config):
    payload, on_route = config
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        out = os.path.join(tmp, "out.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code = main(["bound", "--config", cfg, "--out", out])
        assert code == 0 if on_route else code in (0, 2)
        if code != 0:
            return
        rows = _read_rows(out)
        assert [row["coord"] for row in rows] == ["0", "1"]
        for row in rows:
            value = float(row["value"])
            assert math.isfinite(value) and value >= 0.0


def test_bound_runtime_field_is_the_only_unstable_column(tmp_path):
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=6, t=10.0))
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    assert main(["bound", "--config", cfg, "--out", out1]) == 0
    assert main(["bound", "--config", cfg, "--out", out2]) == 0
    a, b = _read_rows(out1)[0], _read_rows(out2)[0]
    for key in ("method", "value", "converged"):
        assert a[key] == b[key]


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_bound_rejects_the_monte_carlo_flags(tmp_path, capsys, flag):
    # bound draws nothing, so a trial count or seed is a usage error.
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=6, t=10.0))
    out = str(tmp_path / "no.csv")
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--config", cfg, "--out", out, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_mc_linear_scenario(tmp_path):
    payload = dict(_scalar_scenario(k=16, t=10.0), theta_true=[2.0], trials=64)
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "mc.csv")
    assert main(["mc", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["coord"] == "0"
    assert row["trials"] == "64"
    assert row["failures"] == "0"
    assert row["valid"] == "true"
    # Matched WLS at K = 16: MSE near 1/16, generously bracketed.
    assert 0.2 / 16.0 < float(row["mse"]) < 5.0 / 16.0
    assert float(row["stderr"]) > 0.0


def test_mc_seed_and_trials_flags(tmp_path):
    payload = dict(_scalar_scenario(k=8, t=10.0), theta_true=[1.0], trials=32)
    cfg = _write_cfg(tmp_path, payload)
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    out3 = str(tmp_path / "s3.csv")
    assert main(["mc", "--config", cfg, "--out", out1]) == 0
    assert main(["mc", "--config", cfg, "--out", out2]) == 0
    assert main(["mc", "--config", cfg, "--out", out3, "--seed", "5"]) == 0
    bytes1 = open(out1, "rb").read()
    assert bytes1 == open(out2, "rb").read()
    assert bytes1 != open(out3, "rb").read()
    out4 = str(tmp_path / "s4.csv")
    assert main(["mc", "--config", cfg, "--out", out4, "--trials", "10"]) == 0
    assert _read_rows(out4)[0]["trials"] == "10"


def test_mc_example3_preset_median(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {"example": 3, "one_minus_omega1": 0.3, "k": 40},
            "estimator": "sample_median",
            "trials": 30,
            "theta_true": [4.0],
        },
    )
    out = str(tmp_path / "median.csv")
    assert main(["mc", "--config", cfg, "--out", out]) == 0
    row = _read_rows(out)[0]
    assert row["valid"] == "true"
    assert float(row["mse"]) > 0.0


@pytest.mark.parametrize(
    "estimator, message",
    [
        ("linear_closed_form", "requires a linear signal map"),
        ("sample_median", "requires a scalar parameter"),
    ],
)
def test_mc_rejects_an_estimator_the_scenario_cannot_serve(tmp_path, capsys, estimator, message):
    # Both once ran every trial and wrote a row of NaNs with exit 0.
    payload = {"scenario": {"example": 4, "snr": 10.0, "k": 600}, "estimator": estimator}
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["mc", "--config", cfg, "--out", out, "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert "config.estimator: " in err and message in err
    assert not os.path.exists(out)


def test_pe_both_methods_agree(tmp_path):
    payload = dict(
        _scalar_scenario(k=16, t=10.0),
        theta=[1.0],
        delta=[0.5],
        method="both",
        trials=4000,
    )
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "pe.csv")
    assert main(["pe", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert [r["method"] for r in rows] == ["analytic", "empirical"]
    analytic, empirical = rows
    assert analytic["stderr"] == "0" and analytic["trials"] == "0"
    assert empirical["trials"] == "4000"
    gap = abs(float(analytic["value"]) - float(empirical["value"]))
    assert gap <= 4.0 * float(empirical["stderr"]) + 1e-12


def test_pe_example3_preset_analytic_matches_empirical(tmp_path):
    # The analytic pe is the per-sample law's central-limit Q; the empirical
    # one draws that law.
    payload = {
        "scenario": {"example": 3, "one_minus_omega1": 0.3},
        "theta": [4.0],
        "delta": [0.3],
        "method": "both",
        "trials": 4000,
    }
    out = str(tmp_path / "pe.csv")
    assert main(["pe", "--config", _write_cfg(tmp_path, payload), "--out", out]) == 0
    analytic, empirical = _read_rows(out)
    gap = abs(float(analytic["value"]) - float(empirical["value"]))
    assert gap <= 4.0 * float(empirical["stderr"])


@pytest.mark.parametrize("command", ["mc", "pe"])
@pytest.mark.parametrize("payload, argv", [({"trials": 0}, []), ({}, ["--trials", "0"])])
def test_mc_and_pe_trials_below_one_exit_2(tmp_path, capsys, command, payload, argv):
    point = {"theta": [1.0], "delta": [0.5]} if command == "pe" else {}
    cfg = _write_cfg(tmp_path, {**_scalar_scenario(k=4), **point, **payload})
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", cfg, "--out", out, *argv]) == 2
    assert capsys.readouterr().err == "error: config.trials: expected a positive count, got 0\n"
    assert not os.path.exists(out)


def test_pe_requires_matching_delta_length(tmp_path, capsys):
    payload = dict(_scalar_scenario(k=4), theta=[1.0], delta=[0.5, 0.1])
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["pe", "--config", cfg, "--out", out]) == 2
    assert "config.delta" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_sweep_example2_and_worker_invariance(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {"example": 2, "grid": [0.0, 5.0], "k": 30, "trials": 5, "seed": 3},
    )
    out1 = str(tmp_path / "w1.csv")
    out4 = str(tmp_path / "w4.csv")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out4]) == 0
    assert open(out1, "rb").read() == open(out4, "rb").read()
    rows = _read_rows(out1)
    assert rows[0].keys() == {
        "sweep_var",
        "sweep_value",
        "quantity",
        "method",
        "value",
        "stderr",
        "flag",
    }
    assert [r["quantity"] for r in rows if r["sweep_value"] == "0"] == [
        "zzb_mismatched",
        "zzb_matched",
        "mse_mle",
    ]
    assert all(r["sweep_var"] == "mu_star" for r in rows)


def test_sweep_rejects_empty_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"example": 1, "grid": []})
    out = str(tmp_path / "no.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "nonempty" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_sweep_rejects_wrong_var(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"example": 1, "grid": [0.1], "var": "snr"})
    out = str(tmp_path / "no.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "config.var" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"example": 4, "grid": [math.nan], "k": 600, "trials": 5}, "config.grid[0]"),
        ({"example": 4, "grid": [-1.0], "k": 600, "trials": 5}, "config.grid[0]"),
        ({"example": 4, "grid": [1.0, math.inf], "k": 600, "trials": 5}, "config.grid[1]"),
        ({"example": 1, "grid": [math.nan]}, "config.grid[0]"),
        ({"example": 1, "grid": [0.1, -0.1]}, "config.grid[1]"),
        ({"example": 2, "grid": [-math.inf]}, "config.grid[0]"),
        ({"example": 3, "grid": [0.5, 1.5]}, "config.grid[1]"),
    ],
)
def test_sweep_rejects_grid_values_outside_the_domain(tmp_path, capsys, payload, field):
    # A grid value the study cannot take is a config error (exit 2) naming
    # its index, never a nan bound flagged ok or a numerical exit 3.
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "payload",
    [
        {"example": 4, "k": 100, "grid": [10.0], "trials": 5},
        {"example": 4, "k": 599, "grid": [10.0], "trials": 5},
        {"example": 1, "k": 1, "grid": [0.1], "trials": 5},
    ],
)
def test_sweep_rejects_k_below_the_study_minimum(tmp_path, capsys, payload):
    # Too short a record is a config error naming config.k, not exit 3.
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "config.k: k must be at least" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        ({"trials": 0}, [], "config.trials: expected a positive count, got 0"),
        ({}, ["--trials", "-3"], "config.trials: expected a positive count, got -3"),
        ({"grid": [0.2, 0.1]}, [], "config.grid: grid must be strictly increasing"),
        ({"grid": [0.1, 0.1]}, [], "config.grid: grid must be strictly increasing"),
    ],
    ids=["trials_0", "trials_flag_-3", "grid_decreasing", "grid_repeated"],
)
def test_sweep_trials_and_grid_errors_name_their_field(tmp_path, capsys, payload, argv, message):
    cfg = _write_cfg(tmp_path, {"example": 1, "grid": [0.1], "k": 10, **payload})
    out = str(tmp_path / "no.csv")
    assert main(["sweep", "--config", cfg, "--out", out, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf])
@pytest.mark.parametrize(
    "side, field",
    [
        (("assumed", "cov"), "config.scenario.assumed.cov"),
        (("truth", "noise", "cov"), "config.scenario.truth.noise.cov"),
    ],
)
def test_bound_rejects_non_finite_sigma2(tmp_path, capsys, side, field, sigma2):
    payload = _scalar_scenario(k=2, t=5.0)
    node = payload["scenario"]
    for key in side:
        node = node[key]
    node["sigma2"] = sigma2
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "finite and positive" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("bound", {}),
        ("bound", {"method": "quadrature"}),
        ("pe", {"theta": [1.0], "delta": [0.5]}),
    ],
)
def test_non_finite_mixture_weights_exit_2(tmp_path, capsys, command, extra):
    # NaN weights once passed the sum-to-one check and gave a NaN bound
    # reported as converged.
    noise = dict(_README_MIXTURE, weights=[math.nan, math.nan])
    cfg = _write_cfg(tmp_path, _readme_config(noise=noise, **extra))
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert "config.scenario.truth.noise: weights must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def _lattice_prior(**axis):
    return {"type": "axes", "axes": [{"type": "lattice", "count": 5, **axis}]}


@pytest.mark.parametrize(
    "command, scenario, extra, field",
    [
        ("mc", {"prior": _lattice_prior(step=math.nan)}, {}, "config.scenario.prior.axes[0]"),
        ("mc", {"prior": _lattice_prior(start=math.inf)}, {}, "config.scenario.prior.axes[0]"),
        ("mc", {}, {"theta_true": [math.nan]}, "config.theta_true"),
        ("pe", {}, {"theta": [math.nan], "delta": [0.5]}, "config.theta"),
        ("pe", {}, {"theta": [1.0], "delta": [-math.inf]}, "config.delta"),
    ],
)
def test_non_finite_coordinates_exit_2(tmp_path, capsys, command, scenario, extra, field):
    # Each once reached eval_signal and exited 3 with "theta must be finite".
    payload = _readme_config(trials=5, **extra)
    payload["scenario"].update(scenario)
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_json_output_format(tmp_path):
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=4, t=5.0))
    out = str(tmp_path / "bound.json")
    assert main(["bound", "--config", cfg, "--out", out, "--format", "json"]) == 0
    data = json.loads(open(out, encoding="utf-8").read())
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["converged"] is True
    assert data[0]["value"] > 0.0


def test_missing_config_file(tmp_path, capsys):
    out = str(tmp_path / "no.csv")
    code = main(["bound", "--config", str(tmp_path / "absent.json"), "--out", out])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["a_directory", "missing/out.csv"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    # An --out that names a directory, or lies in a missing one, once ended
    # in an OSError traceback with exit 1.
    (tmp_path / "a_directory").mkdir()
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=4, t=5.0))
    out = str(tmp_path / target)
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory", "cfg.json"]


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", str(path), "--out", out]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_error_reports_field_path(tmp_path, capsys):
    payload = _scalar_scenario(k=4)
    payload["scenario"]["assumed"]["signal"]["hvec"] = "oops"
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "config.scenario.assumed.signal.hvec" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_top_level_field(tmp_path, capsys):
    payload = dict(_scalar_scenario(k=4), extra=1)
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "unknown fields" in capsys.readouterr().err


def _edited(payload, path, value):
    """A deep copy of payload with the field at path (a tuple of keys) set to
    value, or deleted where value is _DELETE."""
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


_DELETE = object()
_INTERVAL = {"type": "interval", "lo": 0.0, "hi": 1.0}


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("scenario", "assumed", "signal"), _DELETE, "config.scenario.assumed"),
        (("scenario", "truth"), 3, "config.scenario.truth"),
        (("method",), 1, "config.method"),
        (("scenario", "prior", "t"), "10", "config.scenario.prior.t"),
        (("scenario", "assumed", "signal", "hvec"), [], "config.scenario.assumed.signal.hvec"),
        (
            ("scenario", "assumed", "signal"),
            {"type": "linear_matrix", "matrix": []},
            "config.scenario.assumed.signal.matrix",
        ),
        (
            ("scenario", "assumed", "signal"),
            {"type": "linear_matrix", "matrix": [[1.0], [1.0], [1.0], [1.0, 2.0]]},
            "config.scenario.assumed.signal.matrix",
        ),
        (("scenario", "assumed", "mean"), [0.0, 0.0], "config.scenario.assumed.mean"),
        (
            ("scenario", "truth", "noise"),
            {"type": "mixture", "weights": [1.0], "components": []},
            "config.scenario.truth.noise.components",
        ),
        (("scenario", "truth", "noise", "weights"), [0.5, 0.3, 0.2], "config.scenario.truth.noise"),
        (("scenario", "prior"), {"type": "axes", "axes": []}, "config.scenario.prior.axes"),
        (
            ("scenario", "prior"),
            {"type": "axes", "axes": [_INTERVAL, _INTERVAL]},
            "config.scenario.prior",
        ),
        (("pe_constant",), 0.7, "config.pe_constant"),
    ],
)
def test_schema_errors_name_their_field(tmp_path, capsys, path, value, field):
    payload = _readme_config(noise=_README_MIXTURE, method="auto")
    cfg = _write_cfg(tmp_path, _edited(payload, path, value))
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_list_mean_and_explicit_estimator_match_their_defaults(tmp_path):
    # A mean given as a list of k entries is the scalar mean, and the
    # linear_closed_form estimator named is the default one for a linear map.
    payload = _readme_config(theta_true=[2.0], trials=16)
    explicit = _edited(payload, ("scenario", "assumed", "mean"), [0.0] * 4)
    explicit["estimator"] = "linear_closed_form"
    written = []
    for name, cfg in (("default", payload), ("explicit", explicit)):
        path, out = _write_cfg(tmp_path, cfg, f"{name}.json"), tmp_path / f"{name}.csv"
        assert main(["mc", "--config", path, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def _misspell(payload, path, good, bad):
    payload = copy.deepcopy(payload)
    node = payload
    for key in path:
        node = node[key]
    node[bad] = node.pop(good, 0.3)
    return payload


@pytest.mark.parametrize(
    "path, good, bad, field",
    [
        (("scenario", "truth", "noise"), "mean", "maen", "config.scenario.truth.noise"),
        (("scenario", "truth"), "signal", "signl", "config.scenario.truth"),
        (("scenario", "assumed"), "mean", "mea", "config.scenario.assumed"),
    ],
)
def test_misspelt_field_exits_2(tmp_path, capsys, path, good, bad, field):
    # A misspelt optional field was once ignored: "maen" gave the zero-mean
    # closed form and "signl" reused the assumed map, both with exit 0.
    payload = _readme_config(truth_signal={"type": "linear_vector", "hvec": _OTHER_HVEC})
    cfg = _write_cfg(tmp_path, _misspell(payload, path, good, bad))
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert f"{field}: unknown fields ['{bad}']" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"example": 1, "sigma2": 0.1, "snr": 3.0}, "config.scenario"),
        (
            {
                "assumed": _README_ASSUMED,
                "truth": {
                    "noise": dict(
                        _README_MIXTURE,
                        components=[
                            dict(_README_MIXTURE["components"][0], type="mixture"),
                            _README_MIXTURE["components"][1],
                        ],
                    )
                },
                "prior": {"type": "interval", "t": 10.0},
            },
            "config.scenario.truth.noise.components[0]",
        ),
        (
            {
                "assumed": _README_ASSUMED,
                "truth": {"noise": _README_NOISE},
                "prior": {"type": "axes", "axes": [{"type": "interval", "lo": 0, "hi": 1, "step": 1}]},
            },
            "config.scenario.prior.axes[0]",
        ),
    ],
)
def test_field_of_another_kind_exits_2(tmp_path, capsys, scenario, field):
    # Each field is one that another kind of the same object reads.
    cfg = _write_cfg(tmp_path, {"scenario": scenario})
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert f"{field}: unknown fields" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_positive_definite_cov_exits_3(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {
                "assumed": {
                    "signal": {"type": "linear_vector", "hvec": [1.0, 1.0]},
                    "cov": {"type": "dense", "matrix": [[1.0, 2.0], [2.0, 1.0]]},
                },
                "truth": {
                    "noise": {
                        "type": "gaussian",
                        "cov": {"type": "scaled_identity", "sigma2": 1.0, "k": 2},
                    }
                },
                "prior": {"type": "interval", "t": 5.0},
            }
        },
    )
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 3
    assert "positive definite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_csv_uses_lf_line_endings(tmp_path):
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=4, t=5.0))
    out = str(tmp_path / "bound.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    raw = open(out, "rb").read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


_PULSE_PRESET = {"example": 4, "snr": 10.0, "k": 600}


def _pulse_prior(**lattice):
    """The k = 60 pulse scenario with its delay lattice edited."""
    scenario = _pulse_scenario(k=60)
    scenario["prior"]["axes"][0].update(lattice)
    return scenario


@pytest.mark.parametrize(
    "command, payload, field, message",
    [
        ("pe", {"theta": [-5.0, 1.0], "delta": [1.0, 0.0]}, "config.theta", "< 600, got -5.0"),
        ("pe", {"theta": [599.0, 1.0], "delta": [5.0, 0.0]}, "config.delta", "< 600, got 604.0"),
        ("mc", {"theta_true": [700.0, 1.0]}, "config.theta_true", "< 600, got 700.0"),
        ("mc", {"scenario": _pulse_prior(count=110)}, "config.scenario.prior", "< 60, got 109.0"),
        ("mc", {"scenario": _pulse_prior(start=-10.0)}, "config.scenario.prior", "< 60, got -10.0"),
    ],
    ids=["pe_theta", "pe_delta", "mc_theta_true", "mc_prior_count", "mc_prior_start"],
)
def test_pulse_positions_outside_the_record_exit_2(
    tmp_path, capsys, command, payload, field, message
):
    # Each once exited 3 from the pulse evaluator; the prior cases did so once
    # a trial drew a position past the record.
    cfg = _write_cfg(tmp_path, {"scenario": _PULSE_PRESET, "trials": 20, **payload})
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {field}: pulse position must satisfy 0 <= tau {message}\n"
    assert not os.path.exists(out)


def _readme_with_prior_width(t):
    payload = _readme_config()
    payload["scenario"]["prior"]["t"] = t
    return payload


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("bound", _readme_with_prior_width(1e308), "(34, 'Numerical result out of range')"),
        ("bound", {"scenario": {"example": 1, "sigma2": 1e300}}, "float division by zero"),
        ("sweep", {"example": 1, "grid": [1e300], "k": 10, "trials": 2}, "float division by zero"),
    ],
    ids=["overflow", "zero_division", "sweep_zero_division"],
)
def test_arithmetic_errors_exit_3(tmp_path, capsys, command, payload, message):
    # Valid configs whose closed form overflows, or whose gamma**3
    # underflows to a zero divisor; each once ended in a traceback.
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main([command, "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


# The fuzzers below cap their run time. quasi_mle on a map other than the
# pulse fast path scores 512^n_theta grid points of k samples each (in
# blocks, so its memory stays bounded), so n_theta <= 2 and k <= 10 there,
# and trials stay at most 20 (200 for pe's empirical draws). A pulse delay
# axis is a lattice that runs where it fits the record, or the interval
# over the whole record, which leaves the fast path for that grid (tens of
# milliseconds per trial). Each fuzzer draws a valid config, then about half
# the time edits one field to a value across the edge of its domain, and one
# time in three makes one number non-finite.
_STUDIES = {
    # var, values inside the domain, values outside it, variants, shortest k
    1: ("sigma2", [0.0, 0.05, 0.3], [-0.1], ["matched", "m1", "m2"], 2),
    2: ("mu_star", [-2.0, 0.0, 5.0], [], ["mismatched", "matched"], 2),
    3: ("one_minus_omega1", [0.0, 0.3, 1.0], [-0.1, 1.1], ["mismatched"], 2),
    4: ("snr", [10.0, 100.0], [0.0, -1.0], ["mismatched", "matched"], 600),
}


def _edit(draw, edits):
    """Apply one of edits about half the time."""
    if draw(st.booleans()):
        draw(st.sampled_from(edits))()


def _poison(draw, payload):
    """Make one number of payload NaN or +-inf, one time in three."""
    if draw(st.integers(0, 2)) < 2:
        return payload
    fields = {}
    for path in _numeric_fields(payload):
        fields.setdefault([key for key in path if isinstance(key, str)][-1], []).append(path)
    *keys, last = draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)))]))
    node = payload
    for key in keys:
        node = node[key]
    node[last] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return payload


@st.composite
def _mc_pe_scenarios(draw):
    """(scenario, k, n): a preset, or an explicit linear or pulse scenario,
    with n parameter coordinates; k is the record length of a pulse scenario
    and None otherwise. Edits move a preset's value, k or variant, or a pulse
    prior's positions, past an edge."""
    kind = draw(st.sampled_from(["preset", "pulse", "linear"]))
    if kind == "preset":
        example = draw(st.integers(1, 4))
        var, inside, outside, variants, min_k = _STUDIES[example]
        k = min_k + draw(st.sampled_from([0, 8]))
        scenario = {"example": example, var: draw(st.sampled_from(inside)), "k": k}
        scenario["variant"] = draw(st.sampled_from(variants))
        _edit(
            draw,
            [
                lambda: scenario.update({var: draw(st.sampled_from(outside or [math.inf]))}),
                lambda: scenario.update(k=min_k - 1),
                lambda: scenario.update(variant="m1", **{var: inside[0]}),
            ],
        )
        return scenario, k if example == 4 else None, 2 if example == 4 else 1
    if kind == "pulse":
        k = draw(st.integers(2, 10))
        widths = draw(st.integers(1, k)), draw(st.integers(1, k))
        scenario = _pulse_scenario(k, *widths, draw(_variance))
        axes = scenario["prior"]["axes"]
        edits = [
            lambda: axes[0].update(count=k + 1),
            lambda: axes[0].update(start=-1.0),
            lambda: axes[0].update(count=k - 1, start=1.0),
            lambda: axes.__setitem__(0, {"type": "interval", "lo": 0.0, "hi": float(k)}),
        ]
        if draw(st.booleans()):
            axes[0] = {"type": "interval", "lo": 0.0, "hi": k - 1.0}
            edits = [lambda: axes[0].update(hi=float(k)), lambda: axes[0].update(lo=-0.5)]
        _edit(draw, edits)
        return scenario, k, 2
    k, n = draw(st.integers(1, 10)), draw(st.integers(1, 2))
    cov = {"type": "scaled_identity", "sigma2": draw(_variance), "k": k}
    noise = {"type": "gaussian", "cov": {"type": "diagonal", "diag": [draw(_variance)] * k}}
    if draw(st.booleans()):
        noise = {"type": "mixture", "weights": [0.5, 0.5], "components": [{"cov": cov}] * 2}
    axes = []
    for _ in range(n):
        lo = draw(_small)
        axes.append(
            draw(
                st.sampled_from(
                    [
                        {"type": "interval", "lo": lo, "hi": lo + draw(st.floats(0.1, 4.0))},
                        {"type": "lattice", "count": draw(st.integers(1, 12)), "start": lo},
                    ]
                )
            )
        )
    prior = {"type": "axes", "axes": axes}
    if n == 1 and draw(st.booleans()):
        prior = {"type": "interval", "t": draw(st.floats(0.5, 20.0))}
    matrix = [draw(st.lists(_small, min_size=n, max_size=n)) for _ in range(k)]
    scenario = {
        "assumed": {
            "signal": {"type": "linear_matrix", "matrix": matrix},
            "cov": cov,
            "mean": draw(_mean),
        },
        "truth": {"noise": noise},
        "prior": prior,
    }
    return scenario, None, n


def _point(draw, k, n):
    """A parameter point inside the record; an edit moves a pulse position
    across the record's edge at 0 or k."""
    if k is None:
        return [draw(_small) for _ in range(n)]
    point = [draw(st.sampled_from([0.0, k / 2.0, k - 1.0, k - 0.5])), draw(st.floats(0.5, 1.5))]
    outside = st.sampled_from([-1.0, -0.5, float(k), k + 0.5])
    _edit(draw, [lambda: point.__setitem__(0, draw(outside))])
    return point


_ESTIMATORS = ["quasi_mle", "linear_closed_form", "sample_median"]


@st.composite
def _mc_configs(draw):
    scenario, k, n = draw(_mc_pe_scenarios())
    payload = {"scenario": scenario, "trials": draw(st.integers(1, 20))}
    payload["seed"] = draw(st.integers(0, 9))
    if draw(st.booleans()):
        payload["theta_true"] = _point(draw, k, n)
    _edit(
        draw,
        [
            lambda: payload.update(trials=0),
            lambda: payload.update(estimator=draw(st.sampled_from(_ESTIMATORS))),
        ],
    )
    return _poison(draw, payload)


@st.composite
def _pe_configs(draw):
    scenario, k, n = draw(_mc_pe_scenarios())
    theta = _point(draw, k, n)
    payload = {
        "scenario": scenario,
        "theta": theta,
        "delta": [draw(st.sampled_from([0.5, 0.0, -1.0, 2.0])) for _ in theta],
        "method": draw(st.sampled_from(["analytic", "empirical", "both"])),
        "trials": draw(st.integers(1, 200)),
    }
    _edit(
        draw,
        [
            lambda: payload.update(trials=0),
            lambda: payload["delta"].__setitem__(0, float(k or 1) - theta[0]),
            lambda: payload["delta"].__setitem__(0, -1.0 - theta[0]),
        ],
    )
    return _poison(draw, payload)


@st.composite
def _sweep_configs(draw):
    """Sweeps of every study over values inside its domain, at k from its
    shortest record; edits name no study, move a value outside the domain,
    break the grid's order, shorten k or zero the trials."""
    example = draw(st.integers(1, 4))
    var, inside, outside, _, min_k = _STUDIES[example]
    size = 1 if example == 4 else 2
    grid = sorted(set(draw(st.lists(st.sampled_from(inside), min_size=1, max_size=size))))
    payload = {
        "example": example,
        "grid": grid,
        "k": min_k + (0 if example == 4 else draw(st.sampled_from([0, 8]))),
        "trials": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 9)),
    }
    if draw(st.booleans()):
        payload["var"] = var
    _edit(
        draw,
        [
            lambda: payload.update(example=draw(st.sampled_from([0, 5]))),
            lambda: grid.__setitem__(-1, draw(st.sampled_from(outside or [math.inf]))),
            lambda: grid.extend(grid[-1:]),
            lambda: grid.clear(),
            lambda: payload.update(k=min_k - 1),
            lambda: payload.update(trials=0),
            lambda: payload.update(var="snr" if example != 4 else "sigma2"),
        ],
    )
    return _poison(draw, payload)


def _exit_code(command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return main([command, "--config", cfg, "--out", os.path.join(tmp, "out.csv")])


def _assert_exit_0_or_2(command, payload):
    code = _exit_code(command, payload)
    assert code in (0, 2)
    # A non-finite number is a config error wherever it appears.
    assert code == 2 or _is_finite(payload)


@pytest.mark.parametrize(
    "command, configs", [("mc", _mc_configs()), ("pe", _pe_configs())], ids=["mc", "pe"]
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_mc_and_pe_configs_exit_0_or_2(command, configs, data):
    _assert_exit_0_or_2(command, data.draw(configs))


# Fewer examples: a valid pulse sweep point takes about 0.4 s.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sweep_configs())
def test_fuzzed_sweep_configs_exit_0_or_2(payload):
    _assert_exit_0_or_2("sweep", payload)
