"""Outside-in tracing of the zzbound layers.

The benchmark never edits the package. For a traced batch, `instrument`
replaces each layer's public entry points by wrappers that record one span
per call: name, layer, start, end, parent span, thread, run id and counts.
A function imported by name into other modules is replaced in every zzbound
module that holds it, and methods are replaced on their class. Spans stay in
memory while the batch runs; `summarize` turns them into per-layer metrics
and `write_jsonl` stores them when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = (
    "special_math",
    "pe_kernel",
    "zzb",
    "experiments",
    "estimators",
    "montecarlo",
    "models",
    "cli",
)

# Routes a bound can report through BoundResult.form (or the closed form,
# which returns a bare float); each gets a zzb.bound.<form>.s metric.
BOUND_FORMS = (
    "closed_form_q_linear",
    "independent",
    "symmetric_split",
    "lattice_staircase",
    "continuous_profile",
)

ESTIMATOR_KINDS = {
    "LinearClosedForm": "linear_closed_form",
    "SampleMedian": "sample_median",
    "QuasiMLE": "quasi_mle",
}

# Every span name a wrapper can record. Smoke mode requires each one to fire
# somewhere across the four workloads, so a wrapper that is never reached
# fails loudly instead of reporting zeros.
SPAN_NAMES = (
    "special_math.q_function",
    "special_math.inc_gamma_reg",
    "pe_kernel.pe_gaussian",
    "pe_kernel.pe_mixture",
    "pe_kernel.single_q",
    "zzb.bound",
    "zzb.integrand",
    "experiments.build",
    "experiments.mixture_pe",
    "experiments.example4_bounds",
    "experiments.example3_matched_bound",
    "experiments.run_sweep",
    "montecarlo.run_mse",
    "montecarlo.trial_generator",
    "montecarlo.empirical_pe",
    "estimators.estimate",
    "models.noise_draw",
    "models.eval_signal",
    "cli.main",
)


class Span:
    __slots__ = ("id", "parent", "name", "layer", "run", "thread", "start", "end", "counts")

    def __init__(self, sid, parent, name, layer, run, thread, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.run = run
        self.thread = thread
        self.start = start
        self.end = start
        self.counts: dict[str, Any] = {}

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "run": self.run,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """In-memory span recorder with one open-span stack per thread.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the thread that created the
    tracer, which is the caller blocked on the worker pool (run_mse).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        # (span, integrand log) pairs whose distinct-offset count is taken by
        # finish(), after the batch, so np.unique stays out of every span.
        self.deferred: list[tuple[Span, _IntegrandLog]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = 0
        span = Span(
            next(self._ids), parent, name, layer, self.run_id, threading.get_ident(), 0.0
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def finish(self) -> None:
        for span, log in self.deferred:
            span.counts["distinct"] = log.distinct()
        self.deferred.clear()

    def call(self, name: str, layer: str, fn: Callable, args, kwargs):
        span = self.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.close(span)
            span.counts["error"] = 1
            raise
        self.close(span)
        return span, out


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _layer_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", "") or ""
    name = module.rpartition(".")[2]
    return name if name in LAYERS else "zzb"


def _timed(tracer: Tracer, name: str, layer: str, fn: Callable, counts=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, out = tracer.call(name, layer, fn, args, kwargs)
        if counts is not None:
            span.counts.update(counts(args, out))
        return out

    return wrapper


def _reentrant(tracer: Tracer, name: str, layer: str, fn: Callable, counts) -> Callable:
    """Like _timed, but a call made inside a span of the same name is not a
    new span (EmpiricalNoise.draw and MixtureNoise.draw call draw again)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = tracer.innermost()
        if inner is not None and inner.name == name:
            return fn(*args, **kwargs)
        span, out = tracer.call(name, layer, fn, args, kwargs)
        span.counts.update(counts(args, out))
        return out

    return wrapper


class _IntegrandLog:
    """Offsets one bound evaluation passed to its integrand."""

    def __init__(self) -> None:
        self.blocks: list[np.ndarray] = []
        self.rows = 0

    def add(self, args) -> int:
        """Keep a copy of one call's offsets; returns its row count.

        A single (M, n) argument is M vector offsets; otherwise every
        argument is elementwise and one row is one element of each.
        """
        cols = [np.array(a, dtype=float) for a in args]
        if len(cols) == 1 and cols[0].ndim == 2:
            block = cols[0]
        else:
            block = np.column_stack([c.ravel() for c in cols])
        self.blocks.append(block)
        self.rows += block.shape[0]
        return block.shape[0]

    def distinct(self) -> int:
        if not self.blocks:
            return 0
        return int(np.unique(np.concatenate(self.blocks), axis=0).shape[0])


def _counted_integrand(tracer: Tracer, pe: Callable, log: _IntegrandLog) -> Callable:
    layer = _layer_of(pe)

    @functools.wraps(pe)
    def integrand(*args):
        span, out = tracer.call("zzb.integrand", layer, pe, args, {})
        span.counts["rows"] = log.add(args)
        return out

    return integrand


def _bound(tracer: Tracer, fn: Callable) -> Callable:
    """Bound entry point: one zzb.bound span, with the spec's integrand
    swapped for a counting copy so rows and distinct offsets are known."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log = None
        spec = args[0] if args else None
        if dataclasses.is_dataclass(spec) and hasattr(spec, "pe"):
            log = _IntegrandLog()
            spec = dataclasses.replace(spec, pe=_counted_integrand(tracer, spec.pe, log))
            args = (spec, *args[1:])
        span, out = tracer.call("zzb.bound", "zzb", fn, args, kwargs)
        form = getattr(out, "form", "closed_form_q_linear")
        span.counts["form"] = form
        span.counts["not_converged"] = int(not getattr(out, "converged", True))
        if log is not None:
            span.counts["rows"] = log.rows
            tracer.deferred.append((span, log))
        return out

    return wrapper


def _mixture_factory(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        profile = fn(*args, **kwargs)
        return _timed(
            tracer,
            "experiments.mixture_pe",
            "experiments",
            profile,
            lambda a, out: {"offsets": int(np.size(a[0]))},
        )

    return factory


def _run_mse(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(plan):
        cpu0 = time.process_time()
        span, report = tracer.call("montecarlo.run_mse", "montecarlo", fn, (plan,), {})
        span.counts.update(
            trials=int(report.trials),
            failures=int(report.failures),
            cpu=time.process_time() - cpu0,
        )
        return report

    return wrapper


def _cli_main(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, code = tracer.call("cli.main", "cli", fn, args, kwargs)
        span.counts["exit_nonzero"] = int(code != 0)
        return code

    return wrapper


def _replace_everywhere(original: Callable, wrapped: Callable, undo: list) -> None:
    """Point every zzbound module attribute that holds original at wrapped."""
    hits = 0
    for name, mod in sorted(sys.modules.items()):
        if name != "zzbound" and not name.startswith("zzbound."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapped)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"no zzbound module holds {original.__qualname__}")


def _restore(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


@contextlib.contextmanager
def observe_trials(sink: list[tuple[int, int]]) -> Iterator[None]:
    """Append (trials, failures) of every run_mse report to sink.

    Untraced batches carry only this wrapper, one extra call per run_mse, so
    that Monte Carlo trial failures count against the trials attempted.
    """
    from zzbound import montecarlo

    original = montecarlo.run_mse

    @functools.wraps(original)
    def run_mse(plan):
        report = original(plan)
        sink.append((int(report.trials), int(report.failures)))
        return report

    undo: list[tuple[Any, str, Any]] = []
    try:
        _replace_everywhere(original, run_mse, undo)
        yield
    finally:
        _restore(undo)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block, then restore."""
    from zzbound import cli, estimators, experiments, models, montecarlo, pe_kernel, special_math, zzb

    undo: list[tuple[Any, str, Any]] = []

    def everywhere(original: Callable, wrapped: Callable) -> None:
        _replace_everywhere(original, wrapped, undo)

    def method(cls, attr: str, wrapped: Callable) -> None:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    t = tracer
    try:
        everywhere(
            special_math.q_function,
            _timed(
                t,
                "special_math.q_function",
                "special_math",
                special_math.q_function,
                lambda a, out: {"elems": int(np.size(a[0]))},
            ),
        )
        everywhere(
            special_math.inc_gamma_reg,
            _timed(t, "special_math.inc_gamma_reg", "special_math", special_math.inc_gamma_reg),
        )
        for name in ("pe_gaussian", "pe_mixture"):
            fn = getattr(pe_kernel, name)
            everywhere(fn, _timed(t, f"pe_kernel.{name}", "pe_kernel", fn))
        single_q = pe_kernel.EqualLinearScalarPe.single_q
        method(
            pe_kernel.EqualLinearScalarPe,
            "single_q",
            _timed(
                t,
                "pe_kernel.single_q",
                "pe_kernel",
                single_q,
                lambda a, out: {"elems": int(np.size(a[1]))},
            ),
        )
        for name in (
            "zzb_closed_form_q_linear",
            "zzb_scalar_independent",
            "zzb_scalar_symmetric",
            "zzb_scalar_general",
            "zzb_vector",
        ):
            fn = getattr(zzb, name)
            everywhere(fn, _bound(t, fn))
        for n in (1, 2, 3, 4):
            fn = getattr(experiments, f"build_example{n}")
            everywhere(fn, _timed(t, "experiments.build", "experiments", fn))
        everywhere(
            experiments.matched_mixture_pe,
            _mixture_factory(t, experiments.matched_mixture_pe),
        )
        for name in ("example4_bounds", "example3_matched_bound", "run_sweep"):
            fn = getattr(experiments, name)
            everywhere(fn, _timed(t, f"experiments.{name}", "experiments", fn))
        everywhere(montecarlo.run_mse, _run_mse(t, montecarlo.run_mse))
        everywhere(
            montecarlo.trial_generator,
            _timed(t, "montecarlo.trial_generator", "montecarlo", montecarlo.trial_generator),
        )
        everywhere(
            montecarlo.empirical_pe,
            _timed(
                t,
                "montecarlo.empirical_pe",
                "montecarlo",
                montecarlo.empirical_pe,
                lambda a, out: {"draws": 2 * int(out.trials)},
            ),
        )
        everywhere(
            estimators.estimate,
            _timed(
                t,
                "estimators.estimate",
                "estimators",
                estimators.estimate,
                lambda a, out: {"kind": ESTIMATOR_KINDS.get(type(a[0]).__name__, "other")},
            ),
        )
        everywhere(
            models.eval_signal,
            _timed(t, "models.eval_signal", "models", models.eval_signal),
        )
        for cls in (models.GaussianNoise, models.MixtureNoise, models.EmpiricalNoise):
            method(
                cls,
                "draw",
                _reentrant(
                    t,
                    "models.noise_draw",
                    "models",
                    cls.draw,
                    lambda a, out: {"elems": int(np.size(out))},
                ),
            )
        everywhere(cli.main, _cli_main(t, cli.main))
        yield tracer
    finally:
        _restore(undo)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on worker threads run concurrently, so their union (not their
    sum) is taken; a layer's self time therefore sums thread time and can
    exceed wall time when the pool runs two workers.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def summarize(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch whose wall time was wall_s."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def secs(name: str, pred=None) -> float:
        return float(sum(s.end - s.start for s in by_name.get(name, ()) if pred is None or pred(s)))

    def total(name: str, key: str, pred=None) -> float:
        return float(
            sum(s.counts.get(key, 0) for s in by_name.get(name, ()) if pred is None or pred(s))
        )

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den > 0 else 0.0

    m: dict[str, float] = {}
    q = "special_math.q_function"
    m[f"{q}.calls"] = calls(q)
    m[f"{q}.elems"] = total(q, "elems")
    m[f"{q}.s"] = secs(q)
    m[f"{q}.ns_per_elem"] = ratio(m[f"{q}.s"], m[f"{q}.elems"], 1e9)
    g = "special_math.inc_gamma_reg"
    m[f"{g}.calls"] = calls(g)
    m[f"{g}.s"] = secs(g)

    m["zzb.bound.calls"] = calls("zzb.bound")
    m["zzb.bound.s"] = secs("zzb.bound")
    for form in BOUND_FORMS:
        m[f"zzb.bound.{form}.s"] = secs("zzb.bound", lambda s, f=form: s.counts.get("form") == f)
    # One integrand call per grid pass on the 1-D quadrature routes; the
    # vector routes call it once per offset scan or refinement step.
    m["zzb.integrand.calls"] = calls("zzb.integrand")
    m["zzb.integrand.rows"] = total("zzb.integrand", "rows")
    m["zzb.integrand.s"] = secs("zzb.integrand")
    m["zzb.integrand.unique_ratio"] = ratio(total("zzb.bound", "distinct"), total("zzb.bound", "rows"))
    m["zzb.not_converged"] = total("zzb.bound", "not_converged")

    m["experiments.build.s"] = secs("experiments.build")
    mp = "experiments.mixture_pe"
    m[f"{mp}.offsets"] = total(mp, "offsets")
    m[f"{mp}.s"] = secs(mp)
    m[f"{mp}.us_per_offset"] = ratio(m[f"{mp}.s"], m[f"{mp}.offsets"], 1e6)
    for name in ("example4_bounds", "example3_matched_bound", "run_sweep"):
        m[f"experiments.{name}.s"] = secs(f"experiments.{name}")

    for name in ("pe_mixture", "pe_gaussian"):
        m[f"pe_kernel.{name}.calls"] = calls(f"pe_kernel.{name}")
        m[f"pe_kernel.{name}.s"] = secs(f"pe_kernel.{name}")
    m["pe_kernel.single_q.elems"] = total("pe_kernel.single_q", "elems")
    m["pe_kernel.single_q.s"] = secs("pe_kernel.single_q")

    r = "montecarlo.run_mse"
    m[f"{r}.calls"] = calls(r)
    m[f"{r}.s"] = secs(r)
    m["montecarlo.trials"] = total(r, "trials")
    m["montecarlo.trials_per_s"] = ratio(m["montecarlo.trials"], m[f"{r}.s"])
    m["montecarlo.trial_failures"] = total(r, "failures")
    m["montecarlo.cpu_per_wall"] = ratio(total(r, "cpu"), m[f"{r}.s"])
    tg = "montecarlo.trial_generator"
    m[f"{tg}.calls"] = calls(tg)
    m[f"{tg}.us_per_call"] = ratio(secs(tg), calls(tg), 1e6)
    ep = "montecarlo.empirical_pe"
    m[f"{ep}.draws"] = total(ep, "draws")
    m[f"{ep}.s"] = secs(ep)

    e = "estimators.estimate"
    m[f"{e}.calls"] = calls(e)
    m[f"{e}.us_per_call"] = ratio(secs(e), calls(e), 1e6)
    for kind in ESTIMATOR_KINDS.values():
        pred = lambda s, k=kind: s.counts.get("kind") == k  # noqa: E731
        n = sum(1 for s in by_name.get(e, ()) if pred(s))
        m[f"{e}.{kind}.calls"] = n
        m[f"{e}.{kind}.us_per_call"] = ratio(secs(e, pred), n, 1e6)

    d = "models.noise_draw"
    m[f"{d}.calls"] = calls(d)
    m[f"{d}.elems"] = total(d, "elems")
    m[f"{d}.s"] = secs(d)
    m["models.eval_signal.calls"] = calls("models.eval_signal")
    m["models.eval_signal.s"] = secs("models.eval_signal")

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.s"] = secs("cli.main")
    m["cli.exit_nonzero"] = total("cli.main", "exit_nonzero")

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(own[s.id] for s in spans if s.layer == layer))
    roots = [(s.start, s.end) for s in spans if s.parent == 0]
    m["harness.self_s"] = max(0.0, wall_s - _covered(roots, -np.inf, np.inf))
    return m


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's self time over the summed self time of all layers."""
    names = [*LAYERS, "harness"]
    whole = sum(metrics[f"{n}.self_s"] for n in names)
    return {n: (metrics[f"{n}.self_s"] / whole if whole > 0 else 0.0) for n in names}


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
