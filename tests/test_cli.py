"""End-to-end tests of the command line interface."""

import copy
import csv
import json
import math
import os
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzbound.cli import main
from zzbound.experiments import build_example1
from zzbound.models import (
    AssumedModel,
    DiagonalCov,
    GaussianNoise,
    LinearVectorMap,
    MixtureNoise,
    ScaledIdentityCov,
    TrueModel,
    uniform_interval,
)
from zzbound.pe_kernel import PeKernel, linear_scalar_profile, pe_gaussian
from zzbound.zzb import (
    QuadratureRule,
    ScalarBoundSpec,
    zzb_closed_form_q_linear,
    zzb_scalar_general,
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
    assert float(_read_rows(out5)[0]["value"]) == pytest.approx(36.0 / 12.0, rel=1e-9)


def test_bound_pe_constant_conflicts_with_closed_form(tmp_path):
    cfg = _write_cfg(
        tmp_path, dict(_scalar_scenario(k=4), pe_constant=0.1, method="closed_form")
    )
    out = str(tmp_path / "x.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_bound_example1_preset_asymptotic(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {"example": 1, "sigma2": 0.1, "variant": "m1", "k": 60},
            "method": "asymptotic",
        },
    )
    out = str(tmp_path / "m1.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    row = _read_rows(out)[0]
    g = build_example1(0.1, 60).gammas["m1"]
    assert row["method"] == "asymptotic_q_linear"
    assert float(row["value"]) == pytest.approx(1.0 / (4.0 * g * g), rel=1e-12)


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
    assert main([command, "--config", cfg, "--out", out, "--trials", "2"]) == 2
    assert "config.scenario: k must be >= 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bound_example4_preset_is_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": {"example": 4, "snr": 10.0}})
    out = str(tmp_path / "no.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 2
    assert "sweep" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bound_mixture_closed_form(tmp_path):
    k = 20
    cfg = _write_cfg(
        tmp_path,
        {
            "scenario": {
                "assumed": {
                    "signal": {"type": "linear_vector", "hvec": [1.0] * k},
                    "cov": {"type": "scaled_identity", "sigma2": 1.0, "k": k},
                },
                "truth": {
                    "noise": {
                        "type": "mixture",
                        "weights": [0.6, 0.4],
                        "components": [
                            {"cov": {"type": "scaled_identity", "sigma2": 1.0, "k": k}},
                            {"cov": {"type": "scaled_identity", "sigma2": 4.0, "k": k}},
                        ],
                    }
                },
                "prior": {"type": "interval", "t": 30.0},
            }
        },
    )
    out = str(tmp_path / "mix.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    row = _read_rows(out)[0]
    gamma = 0.5 * k / math.sqrt(0.6 * k + 0.4 * 4.0 * k)
    assert row["method"] == "closed_form_q_linear"
    assert float(row["value"]) == pytest.approx(
        zzb_closed_form_q_linear(gamma, 30.0), rel=1e-12
    )


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
    assumed = dict(_README_ASSUMED)
    if assumed_signal is not None:
        assumed["signal"] = assumed_signal
    truth = {"noise": noise or _README_NOISE}
    if truth_signal is not None:
        truth["signal"] = truth_signal
    scenario = {"assumed": assumed, "truth": truth, "prior": {"type": "interval", "t": 10.0}}
    return {"scenario": scenario, **extra}


def _bound_row(tmp_path, payload, name):
    cfg = _write_cfg(tmp_path, payload, f"{name}.json")
    out = str(tmp_path / f"{name}.csv")
    assert main(["bound", "--config", cfg, "--out", out]) == 0
    return _read_rows(out)[0]


@pytest.mark.parametrize("extra", [{}, {"method": "quadrature"}, {"method": "asymptotic"}])
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
    assert row["method"] == "general_tensor"
    assert row["converged"] == "true"
    # Reference: the pointwise Gaussian error probability, node by node,
    # through the same tensor driver from a coarser starting mesh.
    kernel = PeKernel(*_readme_models(_OTHER_HVEC))
    pe = np.vectorize(lambda theta_o, h: pe_gaussian(kernel, theta_o, h))
    spec = ScalarBoundSpec(uniform_interval(10.0), pe, QuadratureRule(tensor_points=65))
    reference = zzb_scalar_general(spec)
    assert reference.converged
    assert float(row["value"]) == pytest.approx(reference.value, rel=1e-6)


def test_bound_mixture_differing_map_is_not_pinned_at_zero(tmp_path):
    truth_signal = {"type": "linear_vector", "hvec": _OTHER_HVEC}
    payload = _readme_config(truth_signal=truth_signal, noise=_README_MIXTURE, method="quadrature")
    row = _bound_row(tmp_path, payload, "mixture_general")
    assert row["method"] == "general_tensor"
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
        "method": draw(st.sampled_from(["auto", "closed_form", "asymptotic", "quadrature"])),
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
        if code != 0 or payload["method"] == "asymptotic":
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


def test_bound_runtime_field_is_the_only_unstable_column(tmp_path):
    cfg = _write_cfg(tmp_path, _scalar_scenario(k=6, t=10.0))
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    assert main(["bound", "--config", cfg, "--out", out1]) == 0
    assert main(["bound", "--config", cfg, "--out", out2]) == 0
    a, b = _read_rows(out1)[0], _read_rows(out2)[0]
    for key in ("method", "value", "converged"):
        assert a[key] == b[key]


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


def test_pe_requires_matching_delta_length(tmp_path, capsys):
    payload = dict(_scalar_scenario(k=4), theta=[1.0], delta=[0.5, 0.1])
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "no.csv")
    assert main(["pe", "--config", cfg, "--out", out]) == 2
    assert "config.delta" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_sweep_example2_and_worker_invariance(tmp_path, monkeypatch):
    cfg = _write_cfg(
        tmp_path,
        {"example": 2, "grid": [0.0, 5.0], "k": 30, "trials": 5, "seed": 3},
    )
    out1 = str(tmp_path / "w1.csv")
    out4 = str(tmp_path / "w4.csv")
    monkeypatch.setenv("ZZBOUND_WORKERS", "1")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    monkeypatch.setenv("ZZBOUND_WORKERS", "4")
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
