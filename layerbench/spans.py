"""Span wrappers installed from outside the library.

``Tracer.installed()`` replaces public functions at the module attributes
their callers look up (``pipeline.solve_feasibility``, ``gaussround.sample_round``
and so on) with wrappers that record one span per call: name, start, end and
parent span.  Spans stay in memory; ``layer_metrics`` turns them into self
times and counts when a pass ends.  Leaving the context restores every
attribute, so untraced passes run the library unmodified.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from lochroma import combround, evenset, gaussround, pipeline

# (module, attribute, span name).  pipeline looks up combround and gaussround
# functions through those modules, so they are wrapped there; everything else
# pipeline imported by name is wrapped on pipeline itself.
WRAPPED = (
    (pipeline, "solve_feasibility", "sdp.solve"),
    (pipeline, "gamma_profile", "sdp.gamma_profile"),
    (pipeline, "ortho_profile", "sdp.ortho_profile"),
    (pipeline, "make_linear", "hypercore.make_linear"),
    (pipeline, "induced", "hypercore.induced"),
    (pipeline, "check_lo", "hypercore.check_lo"),
    (combround, "check_lo", "hypercore.check_lo"),
    (pipeline, "color_balanced", "pipeline.color_balanced"),
    (pipeline, "extend_with_odd", "pipeline.extend"),
    (pipeline, "extend_with_even", "pipeline.extend"),
    (pipeline, "even_independent_set", "evenset.even_is"),
    (evenset, "brute_max_even_is", "oracle.brute"),
    (gaussround, "best_odd_is", "gaussround.odd_is"),
    (gaussround, "sample_round", "gaussround.sample"),
    (combround, "combinatorial_rounding", "combround.round"),
    (combround, "balanced_log_coloring", "combround.logn"),
    (combround, "perturb_gammas", "combround.perturb"),
)

ERROR_TYPES = ("SolverStalled", "ValueError", "ResampleBudgetExceeded", "PipelineError")

# Per-layer metric -> span names whose self time it sums.
SELF_TIME = {
    "sdp.solve_s": ("sdp.solve",),
    "sdp.profile_s": ("sdp.gamma_profile", "sdp.ortho_profile"),
    "combround.round_s": ("combround.round",),
    "combround.logn_s": ("combround.logn", "combround.perturb"),
    "evenset.even_is_s": ("evenset.even_is", "oracle.brute"),
    "gaussround.odd_is_s": ("gaussround.odd_is", "gaussround.sample"),
    "hypercore.induced_s": ("hypercore.induced",),
    "hypercore.check_lo_s": ("hypercore.check_lo",),
    "hypercore.make_linear_s": ("hypercore.make_linear",),
    "pipeline.color_balanced_self_s": ("pipeline.color_balanced", "pipeline.extend"),
}

# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "hypercore.induced_calls": "hypercore.induced",
    "combround.perturb_calls": "combround.perturb",
    "evenset.calls": "evenset.even_is",
    "oracle.brute_calls": "oracle.brute",
    "gaussround.calls": "gaussround.odd_is",
    "gaussround.draws": "gaussround.sample",
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    n: int = 0
    result_size: int = -1
    iters: int = 0
    error: str = ""


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, fn, name):
        solve = name == "sdp.solve"

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            if solve:
                span.n = args[0].n
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            # Only the solve reports CPU time; other spans skip the clock call.
            cpu0 = time.process_time() if solve else 0.0
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                # SolverStalled carries the iterations it spent.
                span.iters = getattr(exc, "iters", 0)
                raise
            finally:
                span.end = time.perf_counter()
                if solve:
                    span.cpu = time.process_time() - cpu0
                self._stack.pop()
            if solve:
                span.iters = out.iters
            elif isinstance(out, frozenset):
                span.result_size = len(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    @contextmanager
    def root(self, name: str):
        """Span around one pipeline call made by the benchmark itself."""
        span = Span(name, -1, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, c in zip(spans, child):
        out[s.name] += (s.end - s.start) - c
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) against log(n); 0 without two sizes."""
    pts = [(n, t) for n, t in points if n > 0 and t > 0]
    if len({n for n, _ in pts}) < 2:
        return 0.0
    xs = np.log([n for n, _ in pts])
    ys = np.log([t for _, t in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """(timings, counts) for one traced pass.

    Counts repeat exactly when the computation is deterministic, so the
    benchmark compares them across passes; timings are medians over passes.
    """
    st = self_times(spans)
    times = {metric: sum(st.get(n, 0.0) for n in names) for metric, names in SELF_TIME.items()}
    solves = [s for s in spans if s.name == "sdp.solve"]
    times["sdp.solve_cpu_s"] = sum((s.cpu for s in solves), 0.0)
    times["sdp.solve_loglog_slope"] = loglog_slope((s.n, s.end - s.start) for s in solves)

    calls = Counter(s.name for s in spans)
    counts = {metric: calls[name] for metric, name in CALLS.items()}
    counts["sdp.iters"] = sum(s.iters for s in solves)
    counts["sdp.stalls"] = sum(1 for s in solves if s.error == "SolverStalled")
    counts["evenset.size_sum"] = sum(
        max(s.result_size, 0) for s in spans if s.name == "evenset.even_is"
    )
    counts["gaussround.size_sum"] = sum(
        max(s.result_size, 0) for s in spans if s.name == "gaussround.odd_is"
    )
    # Each color_balanced loop iteration induces the uncolored part once
    # directly; the extend_* calls induce inside their own spans.
    balanced_spans = {i for i, s in enumerate(spans) if s.name == "pipeline.color_balanced"}
    counts["pipeline.rounds"] = sum(
        1 for s in spans if s.name == "hypercore.induced" and s.parent in balanced_spans
    )
    return times, counts


def unit_of(metric: str) -> str:
    if metric.endswith("_slope"):
        return "ratio"
    return "s" if metric.endswith("_s") else "count"
