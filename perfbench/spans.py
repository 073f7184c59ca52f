"""In-memory span tracing of powersde's layers, installed from outside ``src/``.

``instrument(tracer)`` swaps each module attribute listed in ``_SPANS`` (and
a few counters and model wrappers) for a wrapper that records into the
tracer, and puts every original back on exit.  Nothing inside the package
changes.  A target that no longer exists is recorded in ``tracer.missing``
and skipped, so a later refactor shows up as a missing span instead of a
crashed run.

Spans carry a name, start, end, parent and a few computed attributes.  The
per-step coefficient calls are far too many to keep one record each, so
they are *leaves*: counted and timed into per-name totals and into the open
span's ``leaf_s``, which self-time accounting subtracts like a child span.

Pool workers are forked, so spans recorded inside batch tasks only reach
this process when the estimators run with one worker.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import multiprocessing.pool
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name); span names are "<layer>.<what>".
_SPANS = [
    ("powersde.cli", "main", "cli.main"),
    ("powersde.cli", "load_config", "config.load"),
    ("powersde.cli", "resolve_config", "config.resolve"),
    ("powersde.cli", "estimate_strong_error", "montecarlo.estimate_strong_error"),
    ("powersde.cli", "estimate_inverse_moment", "montecarlo.estimate_inverse_moment"),
    ("powersde.cli", "comparison_check", "montecarlo.comparison_check"),
    ("powersde.cli", "timechange_check", "montecarlo.timechange_check"),
    ("powersde.cli", "predict_rate", "criteria.predict_rate"),
    ("powersde.cli", "feller_test", "criteria.feller_test"),
    ("powersde.cli", "ito_criterion", "criteria.ito_criterion"),
    ("powersde.cli", "autonomous_from_prototype", "criteria.autonomous_from_prototype"),
    ("powersde.montecarlo", "build_timechange", "criteria.build_timechange"),
    ("powersde.montecarlo", "_run_batches", "montecarlo.dispatch"),
    ("powersde.montecarlo", "sample_increment_batch", "brownian.sample"),
    ("powersde.montecarlo", "coarsen_increments", "brownian.coarsen"),
    ("powersde.montecarlo", "euler_batch", "schemes.euler"),
    ("powersde.criteria", "build_cumulative", "quadrature.build_cumulative"),
]
# Constructors whose models get their drift and base_sigma wrapped as leaves.
_MODEL_BUILDERS = [
    ("powersde.config", "make_prototype", "models.make_prototype"),
    ("powersde.montecarlo", "make_prototype", "models.make_prototype"),
    ("powersde.montecarlo", "time_changed_model", "criteria.time_changed_model"),
]
ESTIMATORS = {name for _, _, name in _SPANS if name.startswith("montecarlo.") and name != "montecarlo.dispatch"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "leaf_s", "attrs")

    def __init__(self, id, name, start, parent):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.leaf_s = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans, leaf totals and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaf_s = defaultdict(float)
        self.leaf_n = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self.reports: list[object] = []
        self._last_sample = None

    def open(self, name) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def add_leaf(self, name, seconds) -> None:
        self.leaf_s[name] += seconds
        self.leaf_n[name] += 1
        if self.stack:
            self.stack[-1].leaf_s += seconds

    def dump(self, path) -> None:
        data = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "leaf_s": s.leaf_s, "attrs": s.attrs}
                for s in self.spans
            ],
            "leaf_s": dict(self.leaf_s),
            "leaf_calls": dict(self.leaf_n),
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's and its leaf time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - child[i] - s.leaf_s for i, s in enumerate(spans)]


def within(spans, roots) -> list[bool]:
    """Whether each span is one of, or nested under, a span named in roots."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents are always recorded before children
        inside[i] = s.name in roots or (s.parent is not None and inside[s.parent])
    return inside


def coarsen_bytes(shape, n_halvings) -> int:
    """Bytes one ``coarsen_increments`` call reads and writes, from shapes.

    Each halving reads the current float64 array once and writes half of it.
    A computed figure: it ignores cache behaviour and temporaries.
    """
    size = int(np.prod(shape))
    total = 0
    for _ in range(n_halvings):
        total += 8 * (size + size // 2)
        size //= 2
    return total


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(tracer, name, fn, on_call=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_call is not None:
            try:
                on_call(span, args, kwargs, result)
            except (IndexError, KeyError, AttributeError, TypeError):
                tracer.missing.append(f"{name} arguments")
        return result

    return wrapper


def _leaf_wrapper(tracer, name, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, perf_counter() - t0)

    return wrapper


def _wrap_model(tracer, model):
    if not dataclasses.is_dataclass(model):
        tracer.missing.append("models coefficients")
        return model
    fields = {}
    for role in ("drift", "base_sigma"):
        coef = getattr(model, role)
        if dataclasses.is_dataclass(coef):
            fields[role] = dataclasses.replace(coef, fn=_leaf_wrapper(tracer, "models.coef", coef.fn))
        else:
            fields[role] = _leaf_wrapper(tracer, "models.coef", coef)
    return dataclasses.replace(model, **fields)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _call_hooks(tracer):
    """Attribute recorders for the spans that carry computed work counts."""

    def sample(span, args, kwargs, result):
        span.attrs["draws"] = int(result.size)
        tracer._last_sample = result

    def coarsen(span, args, kwargs, result):
        inc = _arg(args, kwargs, 0, "increments")
        span.attrs["bytes"] = coarsen_bytes(inc.shape, _arg(args, kwargs, 1, "n_halvings"))

    def euler(span, args, kwargs, result):
        inc = np.atleast_2d(_arg(args, kwargs, 1, "increments"))
        span.attrs["steps"] = int(inc.shape[1])
        span.attrs["path_steps"] = int(inc.size)
        # increments straight from the sampler drive reference sweeps;
        # coarsened copies drive the per-level sweeps
        span.attrs["ref"] = _arg(args, kwargs, 1, "increments") is tracer._last_sample

    def dispatch(span, args, kwargs, result):
        span.attrs["batches"] = int(_arg(args, kwargs, 1, "n_batches"))

    def estimator(span, args, kwargs, result):
        tracer.reports.append(result)

    hooks = {
        "brownian.sample": sample,
        "brownian.coarsen": coarsen,
        "schemes.euler": euler,
        "montecarlo.dispatch": dispatch,
    }
    hooks.update({name: estimator for name in ESTIMATORS})
    return hooks


@contextmanager
def instrument(tracer: Tracer):
    """Patch powersde's layer boundaries to record into tracer; undo on exit."""
    import powersde.cli  # noqa: F401  (loads every module patched below)

    undo = []

    def patch(obj, attr, new):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def target(module, attr):
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):
            tracer.missing.append(f"{module}.{attr}")
            return None
        return mod

    hooks = _call_hooks(tracer)
    try:
        for module, attr, name in _SPANS:
            mod = target(module, attr)
            if mod is not None:
                patch(mod, attr, _span_wrapper(tracer, name, getattr(mod, attr), hooks.get(name)))

        for module, attr, name in _MODEL_BUILDERS:
            mod = target(module, attr)
            if mod is None:
                continue
            inner = _span_wrapper(tracer, name, getattr(mod, attr))

            def builder(*args, _inner=inner, **kwargs):
                return _wrap_model(tracer, _inner(*args, **kwargs))

            patch(mod, attr, builder)

        commands = getattr(powersde.cli, "_COMMANDS", None)
        if commands is None:
            tracer.missing.append("powersde.cli._COMMANDS")
        else:
            for cmd, fn in list(commands.items()):
                undo.append((commands, cmd, fn))
                commands[cmd] = _span_wrapper(tracer, f"cli.cmd_{cmd}", fn)

        table = target("powersde.quadrature", "CumulativeTable")
        if table is not None:
            inverse = table.CumulativeTable.inverse

            def counted_inverse(self, *args, **kwargs):
                tracer.counts["quadrature.inverse"] += 1
                return inverse(self, *args, **kwargs)

            patch(table.CumulativeTable, "inverse", counted_inverse)

        pool_init = multiprocessing.pool.Pool.__init__

        def counted_pool(self, *args, **kwargs):
            tracer.counts["montecarlo.pools"] += 1
            pool_init(self, *args, **kwargs)

        patch(multiprocessing.pool.Pool, "__init__", counted_pool)
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(w1: Tracer, w2: Tracer) -> dict:
    """Per-layer figures of one workload pass, as {name: (value, unit)}.

    w1 traced the pass with one worker, so batch-task spans are in it; w2
    traced it with two, for the parent-side spans (estimators, pools,
    criteria, config, cli).
    """
    self1, self2 = self_times(w1.spans), self_times(w2.spans)

    def spans(tracer, name):
        return [s for s in tracer.spans if s.name == name]

    def dur(tracer, name):
        return sum(s.duration for s in spans(tracer, name))

    est1 = sum(s.duration for s in w1.spans if s.name in ESTIMATORS)
    est2 = sum(s.duration for s in w2.spans if s.name in ESTIMATORS)

    sample = spans(w1, "brownian.sample")
    sample_s = dur(w1, "brownian.sample")
    draws = sum(s.attrs.get("draws", 0) for s in sample)
    coarsen = spans(w1, "brownian.coarsen")
    coarsen_s = dur(w1, "brownian.coarsen")
    moved = sum(s.attrs.get("bytes", 0) for s in coarsen)
    euler = spans(w1, "schemes.euler")
    ref_s = sum(s.duration for s in euler if s.attrs.get("ref"))
    level_s = sum(s.duration for s in euler if not s.attrs.get("ref"))
    steps = sum(s.attrs.get("steps", 0) for s in euler)

    # how much of the 1-worker estimator time the simulation layers explain;
    # leaf time is always models (coefficient calls)
    inside = within(w1.spans, ESTIMATORS)
    covered = sum(
        (self1[i] if _layer(s.name) in ("brownian", "schemes", "models", "montecarlo") else 0.0) + s.leaf_s
        for i, s in enumerate(w1.spans)
        if inside[i]
    )

    criteria = [s for s in w2.spans if _layer(s.name) == "criteria"]
    names2 = [s.name for s in w2.spans]
    criteria_s = sum(
        s.duration for s in criteria if s.parent is None or _layer(names2[s.parent]) != "criteria"
    )
    # only convergence reports carry both counts; with the default
    # on_explosion = abort a dropped path raises instead, so at the
    # benchmark's configs these read 0 dropped and a useful share of 1
    counted = [r for r in w2.reports if hasattr(r, "dropped") and hasattr(r, "paths")]
    dropped = sum(r.dropped for r in counted)
    paths = sum(r.paths for r in counted)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    return {
        "config.resolve_s": (dur(w2, "config.load") + dur(w2, "config.resolve"), "s"),
        "cli.calls": (len(spans(w2, "cli.main")), "count"),
        "cli.self_s": (sum(self2[i] for i, s in enumerate(w2.spans) if _layer(s.name) == "cli"), "s"),
        "brownian.sample_s": (sample_s, "s"),
        "brownian.sample_calls": (len(sample), "count"),
        "brownian.draws": (draws, "count"),
        "brownian.draws_per_s": (ratio(draws, sample_s), "1/s"),
        "brownian.coarsen_s": (coarsen_s, "s"),
        "brownian.coarsen_calls": (len(coarsen), "count"),
        "brownian.coarsen_bytes": (moved, "bytes-computed"),
        "brownian.coarsen_gbps": (ratio(moved, coarsen_s) / 1e9, "GB/s-computed"),
        "schemes.ref_sweep_s": (ref_s, "s"),
        "schemes.level_sweep_s": (level_s, "s"),
        "schemes.calls": (len(euler), "count"),
        "schemes.steps": (steps, "count"),
        "schemes.path_steps": (sum(s.attrs.get("path_steps", 0) for s in euler), "count"),
        "schemes.step_us": (ratio(ref_s + level_s, steps) * 1e6, "us"),
        "models.coef_calls": (w1.leaf_n["models.coef"], "count"),
        "models.coef_s": (w1.leaf_s["models.coef"], "s"),
        "quadrature.inverse_calls": (w1.counts["quadrature.inverse"], "count"),
        "montecarlo.estimator_s": (est2, "s"),
        "montecarlo.self_s": (sum(self1[i] for i, s in enumerate(w1.spans) if _layer(s.name) == "montecarlo"), "s"),
        "montecarlo.batches": (sum(s.attrs.get("batches", 0) for s in spans(w2, "montecarlo.dispatch")), "count"),
        "montecarlo.pools": (w2.counts["montecarlo.pools"], "count"),
        "montecarlo.parallel_eff": (ratio(est1, 2.0 * est2), "ratio"),
        "montecarlo.paths_dropped": (dropped, "count"),
        "montecarlo.paths_useful_frac": (ratio(paths - dropped, paths) if paths else 1.0, "ratio"),
        "montecarlo.span_coverage": (ratio(covered, est1), "ratio"),
        "criteria.s": (criteria_s, "s"),
        "criteria.calls": (len(criteria), "count"),
        "quadrature.build_s": (dur(w2, "quadrature.build_cumulative"), "s"),
        "trace.missing_targets": (len(set(w1.missing) | set(w2.missing)), "count"),
    }
