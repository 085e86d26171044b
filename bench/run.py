"""zzbound benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload pulse_bounds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload dc_montecarlo --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke               # all four workloads, tiny scale
    python3 bench/run.py --update-reference    # rewrite bench/reference.json

A run prints a table of its metrics and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end ones of BENCHMARK.json, measured with no tracing; with
--trace 1 they are the per_layer ones, taken from one traced batch that
follows the untraced batches. A run repeats its workload's batch until
--seconds is spent (at least once) and reports medians over batches.
setup_s is the median over fresh interpreters, each timed from start until
zzbound is imported and the workload's configs are made and validated.

The package is imported from src/ next to this directory and is never
edited: tracing replaces public entry points from outside (spans.py).
Results records and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 5


@dataclass
class Batch:
    wall_s: float
    op_s: dict[str, float]
    rows: list
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "zzbound").glob("*.py")))


def _metadata(workload: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "zzbound_workers": workers,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": _src_lines(),
    }


def _out_dir(name: str, seed: int, smoke: bool) -> Path:
    return OUT / f"{name}-{seed}{'-smoke' if smoke else ''}"


def _quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _setup_seconds(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    """Wall time of fresh interpreters until the workload is ready to run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe for {workload} failed with exit code {code}")
        times.append(elapsed)
    return times


def _one_batch(name: str, ops, tracer=None) -> Batch:
    import spans

    trials: list[tuple[int, int]] = []
    raws, op_s, errors = [], {}, []
    failed = 0
    with spans.observe_trials(trials), (spans.instrument(tracer) if tracer else nullcontext()):
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.run_id = f"{name}/{op.name}"
            t0 = time.perf_counter()
            try:
                raw = op.run()
                ok = op.ok(raw)
            except Exception:  # a failing call is counted, and the batch goes on
                errors.append(traceback.format_exc())
                raw, ok = None, False
            op_s[op.name] = time.perf_counter() - t0
            raws.append((op, raw, ok))
            failed += not ok
        wall = time.perf_counter() - start
    rows = [row for op, raw, ok in raws if ok for row in op.rows(raw)]
    attempted = len(ops) + sum(t for t, _ in trials)
    failed += sum(f for _, f in trials)
    return Batch(wall, op_s, rows, attempted, failed, errors)


def _run_batches(name: str, ops, budget_s: float) -> list[Batch]:
    """Untraced batches until the next one would end past budget_s."""
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(_one_batch(name, ops))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(b.wall_s for b in batches) > budget_s:
            return batches


def _check(name: str, seed: int, batches: list[Batch], smoke: bool) -> list[str]:
    import verify
    import workloads

    first = batches[0].rows
    bad = verify.invariants(first)
    if not smoke:
        reference = verify.load_reference(REFERENCE).get(name)
        if reference is None:
            bad.append(f"no reference for {name} in {REFERENCE.name}")
        else:
            bad += verify.against_reference(first, reference, seed == workloads.DEFAULT_SEED)
    for b in batches[1:]:
        bad += verify.repeats(first, b.rows)
    return bad


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run of one workload; returns its results record."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    os.environ["ZZBOUND_WORKERS"] = str(workload.workers)
    ops = workloads.prepare(name, seed, smoke, _out_dir(name, seed, smoke))
    setup = _setup_seconds(name, seed, smoke, 1 if smoke else SETUP_PROBES)

    budget = seconds / 2 if trace else seconds
    batches = [_one_batch(name, ops)] if smoke else _run_batches(name, ops, budget)
    untraced_wall = [b.wall_s for b in batches]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if trace:
        tracer = spans.Tracer()
        traced = _one_batch(name, ops, tracer)
        tracer.finish()
        batches.append(traced)
        per_layer = spans.summarize(tracer.spans, traced.wall_s)
        per_layer["trace_overhead_s"] = traced.wall_s - statistics.median(untraced_wall)
        OUT.mkdir(parents=True, exist_ok=True)
        spans.write_jsonl(tracer.spans, OUT / f"spans-{name}-{seed}.jsonl")

    mismatches = _check(name, seed, batches, smoke)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    record = {
        "metadata": _metadata(name, seed, workload.workers),
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced_wall),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": failed / attempted,
            "output_mismatch": len(mismatches),
        },
        "timings": {"setup_s": _quartiles(setup), "wall_s": _quartiles(untraced_wall)},
        "op_s": {op: statistics.median(b.op_s[op] for b in batches[: len(untraced_wall)]) for op in batches[0].op_s},
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:50],
        "errors": [e for b in batches for e in b.errors][:5],
    }
    if per_layer is not None:
        record["per_layer"] = per_layer
        record["layer_share"] = spans.layer_shares(per_layer)
    return record


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _print_table(record: dict, spec: dict) -> None:
    meta = record["metadata"]
    e2e = record["end_to_end"]
    print(
        f"workload {meta['workload']}  seed {meta['seed']}  ZZBOUND_WORKERS {meta['zzbound_workers']}"
        f"  nproc {meta['nproc']}  src_lines {meta['src_lines']}"
    )
    for key in ("setup_s", "wall_s"):
        t = record["timings"][key]
        print(f"  {key:<16} {t['median']:12.6f} s      q1 {t['q1']:.6f}  q3 {t['q3']:.6f}  n {t['n']}")
    print(f"  {'peak_rss_mb':<16} {e2e['peak_rss_mb']:12.3f} MB")
    print(f"  {'failed_frac':<16} {e2e['failed_frac']:12.6g} ratio  ({record['failed']} of {record['attempted']})")
    print(f"  {'output_mismatch':<16} {e2e['output_mismatch']:12d} count")
    if "per_layer" in record:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key, value in record["per_layer"].items():
            print(f"  {key:<48} {value:16.6g} {units.get(key, '')}")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in record["layer_share"].items())
        print(f"  layer share of self time: {shares}")
    for line in record["mismatches"][:10]:
        print(f"  mismatch: {line}")
    for err in record["errors"][:1]:
        print(err, file=sys.stderr)


def _result_line(record: dict, spec: dict) -> str:
    group, source = ("per_layer", record.get("per_layer")) if record["trace"] else ("end_to_end", record["end_to_end"])
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in spec[group]}
    return json.dumps(
        {
            "correct": record["end_to_end"]["output_mismatch"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _save(record: dict) -> None:
    meta = record["metadata"]
    OUT.mkdir(parents=True, exist_ok=True)
    tag = "smoke" if record["smoke"] else f"trace{int(record['trace'])}"
    path = OUT / f"result-{meta['workload']}-{meta['seed']}-{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def _smoke(spec: dict, seed: int) -> int:
    """Every workload at tiny scale, traced; every metric name must appear
    and every wrapper must have fired somewhere."""
    import spans
    import workloads

    problems = []
    fired: set[str] = set()
    for name in workloads.WORKLOADS:
        record = measure(name, seed, 0.0, trace=True, smoke=True)
        _save(record)
        _print_table(record, spec)
        for group, values in (("end_to_end", record["end_to_end"]), ("per_layer", record["per_layer"])):
            missing = [m["name"] for m in spec[group] if m["name"] not in values]
            problems += [f"{name}: metric {m} missing" for m in missing]
        problems += [f"{name}: {m}" for m in record["mismatches"]]
        if record["failed"]:
            problems.append(f"{name}: {record['failed']} failed operations")
        with open(OUT / f"spans-{name}-{seed}.jsonl", encoding="utf-8") as fh:
            fired |= {json.loads(line)["name"] for line in fh}
    problems += [f"wrapper {n} never fired" for n in spans.SPAN_NAMES if n not in fired]
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


def _update_reference(seed: int) -> int:
    import verify
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        os.environ["ZZBOUND_WORKERS"] = str(workload.workers)
        ops = workloads.prepare(name, seed, False, _out_dir(name, seed, False))
        batch = _one_batch(name, ops)
        if batch.failed:
            print(f"error: {name} had {batch.failed} failed operations", file=sys.stderr)
            return 1
        reference[name] = verify.to_json(batch.rows)
        print(f"{name}: {len(batch.rows)} rows in {batch.wall_s:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny scale")
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "zzbound" / "__init__.py").is_file():
        print(f"error: no zzbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        workloads.prepare(args.workload, seed, args.smoke, _out_dir(args.workload, seed, args.smoke))
        print("ready", flush=True)
        return 0

    nproc = _nproc()
    every = args.smoke or args.update_reference
    pinned = [w for w in workloads.WORKLOADS.values() if every or w.name == args.workload]
    too_many = [w.name for w in pinned if w.workers > nproc]
    if too_many:
        print(f"error: {too_many} pin more ZZBOUND_WORKERS than the {nproc} available CPUs", file=sys.stderr)
        return 2
    if args.update_reference:
        return _update_reference(workloads.DEFAULT_SEED)
    spec = _load_spec()
    if args.smoke:
        return _smoke(spec, seed)
    if args.workload is None:
        parser.error("--workload is required")

    record = measure(args.workload, seed, args.seconds, bool(args.trace), smoke=False)
    _save(record)
    _print_table(record, spec)
    print(_result_line(record, spec))
    return 0 if record["end_to_end"]["output_mismatch"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
