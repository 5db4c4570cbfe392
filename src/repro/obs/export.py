"""JSONL export for spans and metric snapshots.

One JSON object per line, so traces from long runs stream without holding
the file in memory, concatenate across runs, and grep cleanly.  Two record
shapes share a file format via a ``"kind"`` discriminator:

- ``{"kind": "span", ...}`` -- one finished (or abandoned) span;
- ``{"kind": "actor", ...}`` -- pid -> server-kind labels for pretty reports;
- ``{"kind": "meta", ...}`` -- one optional leading record of run metadata
  (the rng seed and the engine's event count, so a reader can tell whether
  two trace files are comparable).

Metric snapshots use their own file (``write_metrics_jsonl``) with
``counter`` / ``gauge`` / ``histogram`` records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.span import Span, SpanContext, TraceCollector


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to something JSON can carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).decode("utf-8", errors="replace")
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def span_record(span: Span) -> dict:
    """The JSONL shape of one span."""
    return {
        "kind": "span",
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "actor": span.actor,
        "start": span.start,
        "end": span.end,
        "attrs": _jsonable(span.attrs),
    }


def write_spans_jsonl(
    source: Union[TraceCollector, Iterable[Span]],
    path: str | Path,
    actors: Optional[Dict[int, str]] = None,
    meta: Optional[dict] = None,
) -> int:
    """Write every span (and optional actor labels) to ``path``.

    Returns the number of span records written.  Unfinished spans are
    exported with ``"end": null`` so a report can flag them rather than
    silently losing work that was in flight when the run stopped.  ``meta``
    (if given and non-empty) becomes a single leading ``"kind": "meta"``
    record -- the exporter's place for run-level facts such as the seed.
    """
    spans = source.spans if isinstance(source, TraceCollector) else list(source)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        if meta:
            handle.write(json.dumps(
                {"kind": "meta", **_jsonable(meta)}) + "\n")
        for pid_value, kind in sorted((actors or {}).items()):
            handle.write(json.dumps(
                {"kind": "actor", "pid": pid_value, "server": kind}) + "\n")
        for span in spans:
            handle.write(json.dumps(span_record(span)) + "\n")
    return len(spans)


def write_metrics_jsonl(registry: MetricsRegistry, path: str | Path) -> int:
    """Write one record per instrument from a registry snapshot."""
    snap = registry.snapshot()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for kind in ("counters", "gauges", "histograms"):
            for record in snap[kind]:
                handle.write(json.dumps(
                    {"kind": kind.rstrip("s"), **record}) + "\n")
                written += 1
    return written


@dataclass
class TraceFile:
    """A parsed span JSONL file: spans plus actor labels."""

    spans: List[Span] = field(default_factory=list)
    actors: Dict[int, str] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def traces(self) -> Dict[int, List[Span]]:
        """trace_id -> spans in start order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: s.start)
        return grouped


def _span_from_record(record: dict) -> Span:
    context = SpanContext(trace_id=int(record["trace_id"]),
                          span_id=int(record["span_id"]),
                          parent_id=(int(record["parent_id"])
                                     if record.get("parent_id") is not None
                                     else None))
    return Span(name=str(record.get("name", "")),
                context=context,
                start=float(record["start"]),
                end=(float(record["end"])
                     if record.get("end") is not None else None),
                actor=str(record.get("actor", "")),
                attrs=dict(record.get("attrs") or {}))


def read_spans_jsonl(path: str | Path) -> TraceFile:
    """Parse a span JSONL file (tolerating blank lines)."""
    result = TraceFile()
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind", "span")
            if kind == "actor":
                result.actors[int(record["pid"])] = str(record["server"])
            elif kind == "meta":
                result.meta.update(
                    {k: v for k, v in record.items() if k != "kind"})
            elif kind == "span":
                result.spans.append(_span_from_record(record))
    return result
