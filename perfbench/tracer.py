"""Outside-in tracing of cachegeo's layers.

The program is left untouched: every traced function is replaced, in each
module that binds it, by a wrapper that records a span (name, start, end,
parent, thread id, trial id, command index) in memory. ``from .simulate
import X`` binds X separately in ``cli``, ``sweep`` and ``simulate``, so
a stage is rebound in every module whose attribute *is* the original
function. Per-trial spans come from wrapping the ``fn`` that
``simulate._map_trials`` maps over trial indices.

Two seams have no public name: ``simulate._map_trials`` and
``simulate._cache_holds_requested``. Metrics bound to them are reported
as absent, not as a failure, once a refactor removes them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    tid: int
    trial: int | None
    cmd: int
    t0: float
    t1: float
    nbytes: int  # bytes of the arrays the call returned (computed, not measured traffic)
    points: int  # ``n`` of the returned object: points of a field, samples of an estimate
    value: float | None  # one call-specific reading, e.g. the window radius


def _nbytes(result) -> int:
    array = getattr(result, "xy", result)
    return int(getattr(array, "nbytes", 0))


class Tracer:
    """Collects spans in memory; ``install`` rebinds cachegeo's stages to record them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cmd = -1
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name, fn, args, kwargs=None, *, parent=None, trial=None, value_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span; the parent defaults to this thread's."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0] if parent is None else parent
            trial = stack[-1][1] if trial is None else trial
        span_id = next(self._ids)
        stack.append((span_id, trial))
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            value = value_of(args, result) if value_of is not None and result is not None else None
            self.spans.append(Span(span_id, parent, name, threading.get_ident(), trial, self.cmd,
                                   t0, t1, _nbytes(result), int(getattr(result, "n", 0)), value))

    def wrap(self, name, fn, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value_of=value_of)
        return traced

    def install(self, cli, sweep, simulate, analytic) -> None:
        """Rebind every traced stage in every cachegeo module that imports it."""
        modules = (cli, sweep, simulate, analytic)

        def rebind(origin, attr, name, value_of=None):
            original = getattr(origin, attr, None)
            if original is None:
                self.absent.append(f"{origin.__name__}.{attr}")
                return
            traced = self.wrap(name, original, value_of)
            for module in modules:
                for key, bound in list(vars(module).items()):
                    if bound is original:
                        setattr(module, key, traced)

        rebind(sweep, "run_sweep", "sweep.run_sweep")
        rebind(sweep, "emit_csv", "sweep.emit_csv")
        rebind(sweep, "emit_json", "sweep.emit_json")
        for attr in ("kappa", "cache_hit_prob", "content_outage", "optimal_density",
                     "replication_ratio_bounds", "hit_target_feasible"):
            rebind(analytic, attr, f"analytic.{attr}")
        for attr in ("estimate_content_outage", "estimate_physical", "estimate_cache_hit"):
            rebind(simulate, attr, "simulate.estimate")
        rebind(simulate, "trial_stream", "simulate.trial_stream")
        rebind(simulate, "sample_ppp", "simulate.sample_ppp",
               value_of=lambda args, result: float(args[1]))
        rebind(simulate, "draw_serving_distance", "simulate.serving_distance")
        rebind(simulate, "sir_sample", "simulate.sir_sample")
        rebind(simulate, "_cache_holds_requested", "simulate.cache_membership")
        rebind(simulate, "binomial_ci", "simulate.aggregate")
        simulate.PointSet.radii = self.wrap("simulate.radii", simulate.PointSet.radii)

        map_trials = getattr(simulate, "_map_trials", None)
        if map_trials is None:
            self.absent.append("cachegeo.simulate._map_trials")
            return

        def traced_map(n_trials, fn):
            pool_span = self.current()

            def trial(i):
                return self.call("simulate.trial", fn, (i,), parent=pool_span, trial=i)
            return map_trials(n_trials, trial)

        simulate._map_trials = self.wrap("simulate.map_trials", traced_map)

    def write(self, path) -> None:
        """Write every span as one gzipped CSV line, times in microseconds from the first span."""
        origin = min((s.t0 for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,parent,name,tid,trial,cmd,start_us,end_us,nbytes,points,value\n")
            for s in self.spans:
                out.write(f"{s.id},{'' if s.parent is None else s.parent},{s.name},{s.tid},"
                          f"{'' if s.trial is None else s.trial},{s.cmd},"
                          f"{(s.t0 - origin) * 1e6:.1f},{(s.t1 - origin) * 1e6:.1f},"
                          f"{s.nbytes},{s.points},{'' if s.value is None else s.value}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its children on the same thread."""
    tid_of = {s.id: s.tid for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and tid_of.get(s.parent) == s.tid:
            covered[s.parent] += s.t1 - s.t0
    return {s.id: (s.t1 - s.t0) - covered[s.id] for s in spans}


STAGES = {
    "trial_stream": "simulate.trial_stream",
    "sample_ppp": "simulate.sample_ppp",
    "radii": "simulate.radii",
    "serving_distance": "simulate.serving_distance",
    "sir_sample": "simulate.sir_sample",
    "cache_membership": "simulate.cache_membership",
}


def layer_metrics(spans: list[Span], trials: int, absent: list[str]) -> dict[str, float | None]:
    """Per-layer figures from the spans of a traced pass; None marks an absent seam.

    ``trials`` is the number of Monte Carlo trials the pass asked for, read
    from the program's outputs, so per-trial figures survive the loss of
    the ``_map_trials`` seam.
    """
    selfs = self_times(spans)
    commands = sorted({s.cmd for s in spans if s.name == "cli.main"})
    per_cmd_self: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    per_cmd_dur: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    total_self: dict[str, float] = defaultdict(float)
    for s in spans:
        group = "analytic" if s.name.startswith("analytic.") else s.name
        group = "sweep.emit" if group in ("sweep.emit_csv", "sweep.emit_json") else group
        per_cmd_self[group][s.cmd] += selfs[s.id]
        per_cmd_dur[group][s.cmd] += s.t1 - s.t0
        total_self[s.name] += selfs[s.id]

    def cmd_median(table, group, scale):
        return scale * statistics.median(table[group].get(c, 0.0) for c in commands)

    trial_spans = [s for s in spans if s.name == "simulate.trial"]
    samples = [s for s in spans if s.name == "simulate.sample_ppp"]
    out: dict[str, float | None] = {
        "cli.main.self_ms": cmd_median(per_cmd_self, "cli.main", 1e3),
        "analytic.self_ms": cmd_median(per_cmd_self, "analytic", 1e3),
        "sweep.run_sweep.self_ms": cmd_median(per_cmd_self, "sweep.run_sweep", 1e3),
        "sweep.emit_ms": cmd_median(per_cmd_dur, "sweep.emit", 1e3),
        "simulate.window_m": statistics.median(s.value for s in samples) if samples else 0.0,
        "simulate.points_per_trial": sum(s.points for s in samples) / trials,
        "simulate.bytes_computed_per_trial":
            sum(s.nbytes for s in spans if s.trial is not None) / trials,
        "simulate.aggregate.us_per_cmd": cmd_median(per_cmd_dur, "simulate.aggregate", 1e6),
    }
    for metric, name in STAGES.items():
        out[f"simulate.{metric}.us_per_trial"] = 1e6 * total_self[name] / trials
    if "cachegeo.simulate._cache_holds_requested" in absent:
        out["simulate.cache_membership.us_per_trial"] = None
    if "cachegeo.simulate._map_trials" in absent:
        # trial ids, and so the per-trial byte count, come from the same seam
        out.update({key: None for key in ("simulate.trial.self_us", "simulate.trial.us_p50",
                                          "simulate.trial.us_p99", "simulate.pool.workers",
                                          "simulate.bytes_computed_per_trial")})
        return out
    durations = sorted(1e6 * (s.t1 - s.t0) for s in trial_spans)
    threads_per_map: dict[int, set] = defaultdict(set)
    for s in trial_spans:
        threads_per_map[s.parent].add(s.tid)
    out.update({
        "simulate.trial.self_us": 1e6 * total_self["simulate.trial"] / max(1, len(trial_spans)),
        "simulate.trial.us_p50": statistics.median(durations) if durations else 0.0,
        "simulate.trial.us_p99": durations[int(0.99 * (len(durations) - 1))] if durations else 0.0,
        "simulate.pool.workers": float(max((len(t) for t in threads_per_map.values()), default=0)),
    })
    return out
