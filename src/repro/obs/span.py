"""Causal span tracing for multi-hop name resolutions.

The paper's name-handling protocol turns a single ``Open("[bin]ls")`` into a
*walk*: client stub -> context prefix server -> (``Forward``) -> context
server -> (``Forward``) -> file server -> reply.  This module reconstructs
that walk as one request.

A :class:`SpanContext` is the propagation token -- ``(trace_id, span_id,
parent_id)`` -- carried on :class:`repro.kernel.messages.Message` so the
kernel's ``Send``/``Forward``/``Reply`` primitives extend causality across
hops automatically.  A :class:`Span` is one timed node in the tree (the
client stub, one IPC transaction, one server's handling of a delivery, one
frame on the wire).  The :class:`TraceCollector` hands out ids, gathers
finished spans, and rebuilds per-request trees.

Everything here is dependency-free and charges **zero simulated time**:
spans observe the discrete-event clock, they never advance it, so enabling
tracing does not perturb the calibrated latencies the benchmarks assert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class SpanContext:
    """The propagation token: who caused the work about to happen.

    ``trace_id`` names the whole request tree; ``span_id`` names one node;
    ``parent_id`` is the causing node (``None`` for a root).
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int] = None

    def child_of(self) -> "SpanContext":
        """What a child context would reference (same trace, us as parent)."""
        return self


@dataclass
class Span:
    """One timed node in a request tree."""

    name: str
    context: SpanContext
    start: float
    end: Optional[float] = None
    actor: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def parent_id(self) -> Optional[int]:
        return self.context.parent_id

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def append_attr(self, key: str, value: Any) -> None:
        """Accumulate ``value`` onto a list-valued attribute."""
        self.attrs.setdefault(key, []).append(value)


@dataclass
class SpanNode:
    """A span plus its children, as rebuilt by :meth:`TraceCollector.tree`."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterable[tuple[int, "SpanNode"]]:
        """Depth-first (depth, node) pairs, children in start order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    @property
    def total(self) -> float:
        return self.span.duration


class TraceCollector:
    """Allocates span ids and gathers every span a simulation produces.

    Ids are handed out from plain counters, so a given program produces the
    same trace ids on every run -- the same determinism contract as the
    simulation engine itself.
    """

    def __init__(self) -> None:
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.spans: List[Span] = []

    # ------------------------------------------------------------- recording

    def start(self, name: str, time: float,
              parent: Optional[SpanContext] = None, actor: str = "",
              **attrs: Any) -> Span:
        """Open a span.  With ``parent`` it joins that trace; else a new one."""
        if parent is not None:
            context = SpanContext(trace_id=parent.trace_id,
                                  span_id=next(self._span_ids),
                                  parent_id=parent.span_id)
        else:
            context = SpanContext(trace_id=next(self._trace_ids),
                                  span_id=next(self._span_ids),
                                  parent_id=None)
        span = Span(name=name, context=context, start=time, actor=actor,
                    attrs=dict(attrs))
        self.spans.append(span)
        return span

    def finish(self, span: Span, time: float, **attrs: Any) -> Span:
        span.end = time
        span.attrs.update(attrs)
        return span

    def emit(self, name: str, start: float, end: float,
             parent: Optional[SpanContext] = None, actor: str = "",
             **attrs: Any) -> Span:
        """Record an already-completed span in one call."""
        span = self.start(name, start, parent=parent, actor=actor, **attrs)
        span.end = end
        return span

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.spans)

    def trace_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def trace(self, trace_id: int) -> list[Span]:
        """All spans of one trace, in start order (ties: recording order)."""
        selected = [s for s in self.spans if s.trace_id == trace_id]
        return sorted(selected, key=lambda s: s.start)

    def unfinished(self) -> list[Span]:
        return [s for s in self.spans if not s.finished]

    def find(self, name_prefix: str, trace_id: Optional[int] = None) -> list[Span]:
        return [s for s in self.spans
                if s.name.startswith(name_prefix)
                and (trace_id is None or s.trace_id == trace_id)]

    def tree(self, trace_id: int) -> list[SpanNode]:
        """Rebuild the span tree; returns the roots (normally exactly one)."""
        return build_tree(self.trace(trace_id))


def build_tree(spans: Iterable[Span]) -> list[SpanNode]:
    """Link spans into parent/child trees.

    Spans whose parent is absent from ``spans`` (e.g. a truncated export)
    become roots, so a partial file still renders.
    """
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = node.span.parent_id
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start)
    roots.sort(key=lambda n: n.span.start)
    return roots
