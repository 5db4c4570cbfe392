"""Observability: span tracing, a tagged metrics registry, JSONL export.

The paper's defining mechanism -- left-to-right name mapping with
*forwarding* of partially interpreted names between servers (Sec. 4-5) --
makes every resolution a multi-server graph walk.  This package makes those
walks visible:

- :mod:`repro.obs.span` -- ``Span``/``SpanContext`` trees.  The context is
  carried on kernel messages, so ``Send``/``Forward``/``Reply`` propagate
  causality across hops automatically.
- :mod:`repro.obs.registry` -- tagged counters, gauges, and fixed-bucket
  histograms with p99.
- :mod:`repro.obs.export` -- JSONL exporters and readers.
- :mod:`repro.obs.report` -- ``python -m repro.obs.report trace.jsonl``
  renders hop timelines, critical-path breakdowns, and a slowest-resolutions
  table.

Usage::

    from repro import Domain
    from repro.obs import Observability

    obs = Observability()
    domain = Domain(obs=obs)
    ...                      # build servers, run a workload
    obs.export_spans("trace.jsonl")
    obs.export_metrics("metrics.jsonl")

Tracing charges **zero simulated time**; a domain built with ``obs=None``
(the default) takes no observability branches at all.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.export import (
    TraceFile,
    read_spans_jsonl,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.obs.registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NoSamplesError,
)
from repro.obs.profile import FrameStats, Profiler
from repro.obs.span import Span, SpanContext, SpanNode, TraceCollector, build_tree


class Observability:
    """The bundle a :class:`~repro.kernel.domain.Domain` carries when
    observability is on: a span collector, a metrics registry, and a pid ->
    server-kind map used to label report output."""

    def __init__(self, spans: Optional[TraceCollector] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.spans = spans if spans is not None else TraceCollector()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.actors: Dict[int, str] = {}
        #: Run comparability facts, linked by Domain.__init__: the rng seed
        #: and the engine (for its event count at export time).  Two trace
        #: files are only comparable if these match.
        self.run_seed: Any = None
        self.engine: Any = None

    def register_actor(self, pid: Any, kind: str) -> None:
        """Label a process (by pid) with its server kind for reports."""
        self.actors[int(getattr(pid, "value", pid))] = kind

    def export_meta(self) -> dict:
        """Run-level metadata for span exports.

        Carries everything needed to judge whether two trace files are
        comparable: the rng seed and the engine's event count at export
        time.
        """
        meta: dict = {}
        if self.run_seed is not None:
            meta["seed"] = self.run_seed
        if self.engine is not None:
            meta["events_processed"] = int(self.engine.events_processed)
        return meta

    def export_spans(self, path: str | Path) -> int:
        return write_spans_jsonl(self.spans, path, actors=self.actors,
                                 meta=self.export_meta())

    def export_metrics(self, path: str | Path) -> int:
        return write_metrics_jsonl(self.registry, path)


__all__ = [
    "Observability",
    "Profiler",
    "FrameStats",
    "Span",
    "SpanContext",
    "SpanNode",
    "TraceCollector",
    "build_tree",
    "MetricsRegistry",
    "MetricsError",
    "NoSamplesError",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
    "TraceFile",
    "read_spans_jsonl",
    "write_spans_jsonl",
    "write_metrics_jsonl",
]
