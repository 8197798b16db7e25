"""Span tracing for the benchmark's traced run.

:class:`Tracer` replaces the program's public callables with wrappers in the
namespaces their callers look them up in, so ``tracerecon.cli.reconstruct``
is wrapped rather than ``tracerecon.engine.reconstruct``.  Each wrapped call
records a span (name, layer, parent, start, end) in memory; a few wrappers
also count work from the call's arguments and result.  ``restore`` puts every
original back.  A name that no longer exists is reported as absent instead
of failing the run, so the benchmark survives refactors of the program.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Self times over all layers add up to the root span, which
is the whole operation less the caller's own bookkeeping around it.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter
from typing import Any, Callable

# (module, attribute, layer).  Modules are the namespaces the callers look the
# name up in; the layer is the metric family the span's self time goes to.
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    ("tracerecon.cli", "main", "cli.main"),
    ("tracerecon.cli", "cmd_scan", "cli.command"),
    ("tracerecon.cli", "cmd_simulate", "cli.command"),
    ("tracerecon.cli", "load_metadata", "bodyfile.parse"),
    ("tracerecon.bodyfile", "parse_bodyfile", "bodyfile.parse"),
    ("tracerecon.cli", "write_bodyfile", "bodyfile.write"),
    ("tracerecon.cli", "parse_signature_pack", "signatures.load"),
    ("tracerecon.cli", "merge_packs", "signatures.load"),
    ("tracerecon.cli", "reconstruct", "engine.reconstruct"),
    ("tracerecon.engine", "analyze_action", "engine.analyze"),
    ("tracerecon.engine", "get_trace_states", "signatures.match"),
    ("tracerecon.engine", "match_by_category", "signatures.match"),
    ("tracerecon.engine", "match_patterns", "signatures.match"),
    ("tracerecon.signatures", "match_patterns", "signatures.match"),
    ("tracerecon.engine", "cluster_by_threshold", "engine.cluster"),
    ("tracerecon.engine", "core_test", "engine.cluster"),
    ("tracerecon.engine", "support_test", "engine.cluster"),
    ("tracerecon.engine", "shared_test", "engine.cluster"),
    ("tracerecon.engine", "shared_attributions", "engine.shared"),
    ("tracerecon.engine", "disambiguate_shared", "engine.shared"),
    ("tracerecon.cli", "parse_scenario", "simulator.parse"),
    ("tracerecon.cli", "simulate", "simulator.simulate"),
    ("tracerecon.simulator", "apply_instance", "simulator.apply"),
    ("tracerecon.cli", "derive_signatures", "simulator.derive"),
    ("tracerecon.cli", "always_updated_targets", "simulator.derive"),
    ("tracerecon.cli", "oracle_check", "simulator.oracle"),
)

# Wrapped without a span: called about once per (record, pattern) pair, so a
# span each would cost more than the search itself.
COUNT_POINTS: tuple[tuple[str, str, str], ...] = (
    ("tracerecon.signatures", "TracePattern.matches", "signatures.regex_searches"),
)

# Per-layer metrics: (name, unit, better).  Every ``_s`` metric is a self time
# and together they partition the traced operation's wall time.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("bodyfile.parse_s", "s", "lower"),
    ("bodyfile.us_per_line", "us", "lower"),
    ("bodyfile.lines", "count", "higher"),
    ("bodyfile.records", "count", "higher"),
    ("bodyfile.skipped", "count", "lower"),
    ("bodyfile.write_s", "s", "lower"),
    ("signatures.load_s", "s", "lower"),
    ("signatures.patterns", "count", "higher"),
    ("signatures.match_s", "s", "lower"),
    ("signatures.match_calls", "count", "lower"),
    ("signatures.record_visits", "count", "lower"),
    ("signatures.regex_searches", "count", "lower"),
    ("signatures.states", "count", "higher"),
    ("signatures.hit_ratio", "ratio", "higher"),
    ("engine.analyze_self_s", "s", "lower"),
    ("engine.cluster_s", "s", "lower"),
    ("engine.clusters", "count", "higher"),
    ("engine.shared_self_s", "s", "lower"),
    ("engine.shared_resolved_ratio", "ratio", "higher"),
    ("engine.reconstruct_self_s", "s", "lower"),
    ("engine.detections", "count", "higher"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("simulator.parse_s", "s", "lower"),
    ("simulator.simulate_s", "s", "lower"),
    ("simulator.apply_s", "s", "lower"),
    ("simulator.apply_calls", "count", "higher"),
    ("simulator.apply_us_per_instance", "us", "lower"),
    ("simulator.apply_growth", "ratio", "lower"),
    ("simulator.state_paths", "count", "higher"),
    ("simulator.derive_s", "s", "lower"),
    ("simulator.oracle_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
)

# Self-time metric for each layer of SPAN_POINTS.
LAYER_SELF_METRIC = {
    "cli.main": "cli.main_self_s",
    "cli.command": "cli.report_s",
    "bodyfile.parse": "bodyfile.parse_s",
    "bodyfile.write": "bodyfile.write_s",
    "signatures.load": "signatures.load_s",
    "signatures.match": "signatures.match_s",
    "engine.analyze": "engine.analyze_self_s",
    "engine.cluster": "engine.cluster_s",
    "engine.shared": "engine.shared_self_s",
    "engine.reconstruct": "engine.reconstruct_self_s",
    "simulator.parse": "simulator.parse_s",
    "simulator.simulate": "simulator.simulate_s",
    "simulator.apply": "simulator.apply_s",
    "simulator.derive": "simulator.derive_s",
    "simulator.oracle": "simulator.oracle_s",
}


def _count_records(tracer: "Tracer", args: tuple, result: Any) -> None:
    records, diagnostics = result
    tracer.counts["bodyfile.records"] = len(records)
    tracer.counts["bodyfile.skipped"] = len(diagnostics)


def _count_patterns(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["signatures.patterns"] = sum(len(sig.traces) for sig in result)


def _count_match(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["signatures.match_calls"] += 1
    tracer.counts["signatures.record_visits"] += len(args[1])
    tracer.counts["signatures.states"] += len(result)


def _count_clusters(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["engine.clusters"] += len(result)


def _count_shared(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["engine.shared_clusters"] += len(result)
    tracer.counts["engine.shared_resolved"] += sum(a.resolved is not None for a in result)


def _count_detections(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["engine.detections"] = len(result)


def _count_state(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["simulator.state_paths"] = len(result[0])


RESULT_COUNTERS: dict[tuple[str, str], Callable[["Tracer", tuple, Any], None]] = {
    ("tracerecon.bodyfile", "parse_bodyfile"): _count_records,
    ("tracerecon.cli", "merge_packs"): _count_patterns,
    ("tracerecon.cli", "derive_signatures"): _count_patterns,
    ("tracerecon.engine", "match_patterns"): _count_match,
    ("tracerecon.signatures", "match_patterns"): _count_match,
    ("tracerecon.engine", "cluster_by_threshold"): _count_clusters,
    ("tracerecon.engine", "disambiguate_shared"): _count_shared,
    ("tracerecon.cli", "reconstruct"): _count_detections,
    ("tracerecon.simulator", "apply_instance"): _count_state,
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory spans and counts for one traced operation at a time."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        """Wrap every span and count point; missing names go to ``absent``."""
        self.reset()
        self.absent = []
        for module_name, attr, layer in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            counter = RESULT_COUNTERS.get((module_name, attr))
            self._replace(owner, attr, self._span_wrapper(original, f"{module_name}.{attr}",
                                                          layer, counter))
        for module_name, dotted, metric in COUNT_POINTS:
            owner: Any = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{dotted}")
                continue
            self._replace(owner, attr, self._count_wrapper(original, metric))

    def restore(self) -> None:
        """Put back every original callable, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn: Callable, name: str, layer: str,
                      counter: Callable | None) -> Callable:
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), stack[-1] if stack else None, name, layer,
                        perf_counter())
            self.spans.append(span)
            stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, metric: str) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time per layer over the recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child[span.sid]
            out[span.layer] = out.get(span.layer, 0.0) + own
        return out

    def apply_growth(self) -> float:
        """Mean apply_instance time over the last tenth of the calls divided
        by the mean over the first tenth; 0 when fewer than ten calls."""
        durations = [s.end - s.start for s in self.spans if s.layer == "simulator.apply"]
        tenth = len(durations) // 10
        if tenth == 0:
            return 0.0
        first = statistics.fmean(durations[:tenth])
        return statistics.fmean(durations[-tenth:]) / first

    def operation_metrics(self, wall: float, lines_read: int,
                          output_bytes: int) -> dict[str, float]:
        """Per-layer metrics for the one operation traced since ``reset``;
        ``wall`` is the operation's wall time as the caller measured it."""
        selfs = self.self_times()
        m: dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}
        for layer, metric in LAYER_SELF_METRIC.items():
            m[metric] = selfs.get(layer, 0.0)
        c = self.counts
        parsed = any(s.layer == "bodyfile.parse" for s in self.spans)
        m["bodyfile.lines"] = lines_read if parsed else 0
        m["bodyfile.us_per_line"] = (
            m["bodyfile.parse_s"] / m["bodyfile.lines"] * 1e6 if m["bodyfile.lines"] else 0.0
        )
        for key in ("bodyfile.records", "bodyfile.skipped", "signatures.patterns",
                    "signatures.match_calls", "signatures.record_visits",
                    "signatures.regex_searches", "signatures.states", "engine.clusters",
                    "engine.detections", "simulator.state_paths"):
            m[key] = c[key]
        searches = c["signatures.regex_searches"]
        m["signatures.hit_ratio"] = c["signatures.states"] / searches if searches else 0.0
        shared = c["engine.shared_clusters"]
        m["engine.shared_resolved_ratio"] = c["engine.shared_resolved"] / shared if shared else 0.0
        m["cli.output_bytes"] = output_bytes
        apply_calls = sum(1 for s in self.spans if s.layer == "simulator.apply")
        m["simulator.apply_calls"] = apply_calls
        m["simulator.apply_us_per_instance"] = (
            m["simulator.apply_s"] / apply_calls * 1e6 if apply_calls else 0.0
        )
        m["simulator.apply_growth"] = self.apply_growth()
        m["trace.self_sum_ratio"] = sum(selfs.values()) / wall
        return m

    def dump(self) -> list[dict]:
        return [
            {"id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]
