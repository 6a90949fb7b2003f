"""Per-layer timing taken from outside the program.

A traced pass replaces, for its duration only, the module attributes through
which each layer is called with thin wrappers that record a span (layer,
start, end, details) in memory.  It also opens an in-memory telemetry
session and reads back the spans the program already emits around its
kernel passes and jobs.  Program spans carry only a duration, so a sink
stamps each on arrival; every span then lives on one ``perf_counter`` clock
and the span tree is rebuilt by interval containment.

Nothing here adds a span to the program: the wrappers call the original
functions unchanged, and are removed again when the pass ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.sim.experiment as experiment
import repro.sim.soa as soa
from repro.campaign.store import BaseResultStore
from repro.telemetry import MemorySink, telemetry
from repro.workloads.artifacts import ArtifactCache
from repro.workloads.trace import Trace

#: Program spans read back from telemetry, and the layer each one times.
PROGRAM_SPANS = {
    "job.execute": "campaign.execute",
    "kernel.pass1": "sim.pass1",
    "kernel.pass2": "sim.pass2",
}

#: Layers whose outermost spans partition the pass's wall time; whatever
#: they leave uncovered is reported as unattributed.  ``sim.kernel`` counts
#: only where no ``sim.replay`` encloses it (the CPU hierarchy calls the
#: kernel directly).
TOP_LEVEL = (
    "workloads.generate",
    "workloads.artifacts.lookup",
    "sim.replay",
    "sim.kernel",
    "sim.l1_filter",
    "campaign.store.put",
)

SCHEMES = ("conventional", "reap", "serial", "restore", "scrubbing")


#: ``(owner, attribute, layer, describe)`` for every wrapped call site;
#: ``describe(args, result)`` runs after the span's end time is taken and
#: returns the details the layer metrics need.
WRAPPED = (
    (
        experiment,
        "generate_l2_trace",
        "workloads.generate",
        lambda args, out: {"accesses": len(out)},
    ),
    (
        experiment,
        "run_l2_trace",
        "sim.replay",
        lambda args, out: {"scheme": args[0].scheme_name()},
    ),
    (
        soa,
        "replay_l2_soa",
        "sim.kernel",
        lambda args, out: {"scheme": args[0].scheme_name(), "accesses": len(args[1])},
    ),
    (
        soa,
        "filter_through_l1_soa",
        "sim.l1_filter",
        lambda args, out: {"refs": len(args[1]), "l2": len(out[0])},
    ),
    (
        # Keep the key columns; uniqueness is counted after the pass so
        # the counting is not timed inside ``kernel.pass2``.
        soa,
        "resolve_probability_keys",
        "reliability.resolve",
        lambda args, out: {"columns": args[1:4]},
    ),
    (
        ArtifactCache,
        "l2_trace",
        "workloads.artifacts.lookup",
        lambda args, out: {"hit": not isinstance(out, Trace)},
    ),
    (BaseResultStore, "put", "campaign.store.put", None),
)


@dataclass
class Span:
    layer: str
    start: float
    end: float
    details: dict | None = None
    children: list["Span"] = field(default_factory=list)
    top_level: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


class _StampedSink(MemorySink):
    """A memory sink that notes when each event arrives."""

    def emit(self, event):
        event["arrived"] = time.perf_counter()
        super().emit(event)


class Recorder:
    """Collects the spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def _wrap(self, original, layer, describe):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            out = original(*args, **kwargs)
            end = clock()
            spans.append(Span(layer, start, end, describe(args, out) if describe else None))
            return out

        return wrapper

    @contextmanager
    def recording(self):
        """Wrap every layer call site and open a telemetry session."""
        saved = []
        sink = _StampedSink()
        try:
            for owner, attribute, layer, describe in WRAPPED:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, layer, describe))
            with telemetry(sink):
                yield
        finally:
            for owner, attribute, original in saved:
                setattr(owner, attribute, original)
            for event in sink.events:
                layer = PROGRAM_SPANS.get(event.get("name"))
                if event.get("kind") == "span" and layer is not None:
                    end = event["arrived"]
                    self.spans.append(Span(layer, end - event["duration_s"], end))


def build_tree(spans: list[Span]) -> list[Span]:
    """Nest spans by interval containment; returns the roots.

    Also marks the outermost span of each :data:`TOP_LEVEL` layer.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    roots: list[Span] = []
    stack: list[Span] = []
    for span in ordered:
        span.children = []
        while stack and stack[-1].end <= span.start:
            stack.pop()
        (stack[-1].children if stack else roots).append(span)
        span.top_level = span.layer in TOP_LEVEL and not any(
            ancestor.layer in TOP_LEVEL for ancestor in stack
        )
        stack.append(span)
    return roots


@dataclass
class LayerRow:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_table(spans: list[Span]) -> dict[str, LayerRow]:
    """Calls, total and self time per layer (spans must be tree-built)."""
    rows: dict[str, LayerRow] = {}
    for span in spans:
        row = rows.setdefault(span.layer, LayerRow())
        row.calls += 1
        row.total_s += span.duration
        row.self_s += span.self_time
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _unique_keys(columns) -> int:
    kinds, ones, windows = (np.asarray(column, dtype=np.int64) for column in columns)
    return np.unique(np.stack([kinds, ones, windows]), axis=1).shape[1] if len(kinds) else 0


def pass_metrics(spans: list[Span], wall_s: float, store_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (every value is per pass)."""
    build_tree(spans)
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def seconds(layer: str) -> float:
        return sum((span.duration for span in by_layer.get(layer, ())), 0.0)

    generate = by_layer.get("workloads.generate", [])
    lookups = by_layer.get("workloads.artifacts.lookup", [])
    kernels = by_layer.get("sim.kernel", [])
    filters = by_layer.get("sim.l1_filter", [])
    resolves = by_layer.get("reliability.resolve", [])
    replay_spans = [
        span
        for span in by_layer.get("sim.replay", []) + kernels
        if span.top_level
    ]
    keys = sum(len(span.details["columns"][0]) for span in resolves)
    unique = sum(_unique_keys(span.details["columns"]) for span in resolves)
    for span in resolves:
        span.details = None  # release the key columns
    refs = sum(span.details["refs"] for span in filters)
    execute_s = seconds("campaign.execute")
    put_s = seconds("campaign.store.put")
    attributed_s = sum(span.duration for span in spans if span.top_level)

    metrics = {
        "workloads.generate.s": seconds("workloads.generate"),
        "workloads.generate.calls": float(len(generate)),
        "workloads.generate.accesses_per_s": _ratio(
            sum(span.details["accesses"] for span in generate),
            seconds("workloads.generate"),
        ),
        "workloads.artifacts.lookup.s": seconds("workloads.artifacts.lookup"),
        "workloads.artifacts.hit_ratio": _ratio(
            sum(span.details["hit"] for span in lookups), len(lookups)
        ),
        "sim.replay.s": sum(span.duration for span in replay_spans),
        "sim.kernel.s": seconds("sim.kernel"),
        "sim.pass1.s": seconds("sim.pass1"),
        "sim.pass2.s": seconds("sim.pass2"),
    }
    for scheme in SCHEMES:
        accesses = sum(
            span.details["accesses"]
            for span in kernels
            if span.details["scheme"] == scheme
        )
        replay_s = sum(
            span.duration
            for span in replay_spans
            if span.details["scheme"] == scheme
        )
        metrics[f"sim.replay.{scheme}.accesses_per_s"] = _ratio(accesses, replay_s)
    metrics.update(
        {
            "sim.l1_filter.s": seconds("sim.l1_filter"),
            "sim.l1_filter.refs_per_s": _ratio(refs, seconds("sim.l1_filter")),
            "sim.l1_filter.l2_per_ref": _ratio(
                sum(span.details["l2"] for span in filters), refs
            ),
            "reliability.resolve.s": seconds("reliability.resolve"),
            "reliability.resolve.keys": float(keys),
            "reliability.resolve.unique_ratio": _ratio(unique, keys),
            "campaign.execute.s": execute_s,
            "campaign.store.put.s": put_s,
            "campaign.store.put.calls": float(len(by_layer.get("campaign.store.put", []))),
            "campaign.store.bytes": float(store_bytes),
            "campaign.overhead.s": wall_s - execute_s - put_s if execute_s else 0.0,
            "unattributed.s": wall_s - attributed_s,
            "unattributed.share": _ratio(wall_s - attributed_s, wall_s),
        }
    )
    return metrics

