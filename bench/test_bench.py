"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
import zzbound  # noqa: E402
from zzbound import experiments, special_math, zzb  # noqa: E402


def _span(sid, parent, start, end, layer="zzb"):
    s = spans.Span(sid, parent, "x", layer, "", 0, start)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, 0, 0.0, 10.0)
    a = _span(2, 1, 1.0, 4.0, "models")  # two children overlapping in time,
    b = _span(3, 1, 3.0, 6.0, "models")  # as on two worker threads
    own = spans.self_times([parent, a, b])
    assert own == {1: 5.0, 2: 3.0, 3: 3.0}


def _small_sweep():
    config = experiments.SweepConfig(1, "sigma2", (0.05, 0.2), {"k": 20, "trials": 30}, 7)
    return [dataclasses.astuple(r) for r in experiments.run_sweep(config)]


def test_tracing_keeps_outputs_and_restores_the_package():
    originals = (zzb.q_function, experiments.run_sweep, zzbound.models.GaussianNoise.draw)
    plain = _small_sweep()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert zzb.q_function is not originals[0]
        assert special_math.q_function is zzb.q_function
        traced = _small_sweep()
    tracer.finish()
    assert traced == plain
    assert (zzb.q_function, experiments.run_sweep, zzbound.models.GaussianNoise.draw) == originals
    metrics = spans.summarize(tracer.spans, 1.0)
    assert metrics["montecarlo.run_mse.calls"] == 6
    assert metrics["estimators.estimate.linear_closed_form.calls"] == 6 * 30
    assert metrics["models.noise_draw.calls"] == 6 * 30
    assert metrics["zzb.bound.calls"] > 0


def test_reference_check_tolerances():
    row = workloads.Row(
        "op|0",
        {
            "value": workloads.Cell(workloads.VALUE, "0.25", 0.0, 1.0),
            "mse": workloads.Cell(workloads.MC, "0.125"),
        },
    )
    reference = verify.to_json([row])

    def with_cells(value, mse):
        return [
            workloads.Row(
                "op|0",
                {
                    "value": workloads.Cell(workloads.VALUE, value, 0.0, 1.0),
                    "mse": workloads.Cell(workloads.MC, mse),
                },
            )
        ]

    assert verify.against_reference(with_cells("0.25000000001", "0.125"), reference, True) == []
    assert len(verify.against_reference(with_cells("0.2500001", "0.125"), reference, True)) == 1
    assert verify.against_reference(with_cells("0.25", "0.126"), reference, False) == []
    assert len(verify.against_reference(with_cells("0.25", "0.126"), reference, True)) == 1
    assert len(verify.invariants(with_cells("1.5", "nan"))) == 2
    assert len(verify.repeats(with_cells("0.25", "0.125"), with_cells("0.25", "0.1250"))) == 1


def test_smoke_mode_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1].startswith("smoke: ok")
