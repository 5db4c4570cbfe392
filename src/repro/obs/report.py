"""Trace reporting: ``python -m repro.obs.report trace.jsonl``.

Loads a span JSONL file (written by :func:`repro.obs.export.write_spans_jsonl`)
and renders, per request:

- the **hop timeline** -- the span tree with offsets, durations, and a bar
  chart, so a forwarded ``Open`` reads as client stub -> prefix server ->
  (wire) -> context server -> (wire) -> file server;
- the **critical-path breakdown** -- exclusive time per actor, i.e. "where
  did the milliseconds go: prefix server CPU, forwarding on the wire, or the
  file server?";
- a **top-N slowest resolutions** table across the whole file.

All render functions are pure (list[str] in, strings out) so tests can
assert on them without capturing stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.export import TraceFile, read_spans_jsonl
from repro.obs.span import Span, SpanNode, build_tree

BAR_WIDTH = 28

#: Version of the ``--json`` report document.
REPORT_SCHEMA = 2


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _label(span: Span, actors: Dict[int, str]) -> str:
    name = span.name
    csname = span.attrs.get("csname")
    if csname and not name.startswith(("ipc.", "net.", "server:")):
        name = f"{name} {csname!r}"
    return name


def _bar(start: float, end: Optional[float], window_start: float,
         window_end: float) -> str:
    """A fixed-width bar locating [start, end] inside the trace window."""
    if end is None or window_end <= window_start:
        return "?" * 3
    scale = BAR_WIDTH / (window_end - window_start)
    left = int((start - window_start) * scale)
    width = max(1, round((end - start) * scale))
    left = min(left, BAR_WIDTH - 1)
    width = min(width, BAR_WIDTH - left)
    return "." * left + "#" * width + "." * (BAR_WIDTH - left - width)


def render_timeline(roots: Sequence[SpanNode],
                    actors: Optional[Dict[int, str]] = None) -> str:
    """The hop timeline: one line per span, indented by tree depth."""
    actors = actors or {}
    if not roots:
        return "(empty trace)"
    window_start = min(node.span.start for node in roots)
    window_end = max((node.span.end or node.span.start) for node in roots)
    for root in roots:
        for __, node in root.walk():
            if node.span.end is not None:
                window_end = max(window_end, node.span.end)
    lines = [f"{'offset ms':>9}  {'dur ms':>8}  {'|' + ' ' * (BAR_WIDTH - 2) + '|'}  span"]
    for root in roots:
        for depth, node in root.walk():
            span = node.span
            offset = span.start - window_start
            duration = _ms(span.duration) if span.finished else "open"
            bar = _bar(span.start, span.end, window_start, window_end)
            indent = "  " * depth
            actor = f"  [{span.actor}]" if span.actor else ""
            lines.append(f"{_ms(offset):>9}  {duration:>8}  {bar}  "
                         f"{indent}{_label(span, actors)}{actor}")
    return "\n".join(lines)


def critical_path(roots: Sequence[SpanNode]) -> List[tuple[str, float]]:
    """Exclusive time per actor: span duration minus its children's.

    This is the "time in prefix server vs. forwarding vs. file server"
    breakdown: a span's self-time is what *it* spent that no child span
    accounts for.  Returned sorted by time, descending.
    """
    totals: Dict[str, float] = {}
    for root in roots:
        for __, node in root.walk():
            span = node.span
            if not span.finished:
                continue
            child_time = sum(child.span.duration for child in node.children
                             if child.span.finished)
            exclusive = max(0.0, span.duration - child_time)
            key = span.actor or span.name
            totals[key] = totals.get(key, 0.0) + exclusive
    return sorted(totals.items(), key=lambda item: item[1], reverse=True)


def render_critical_path(roots: Sequence[SpanNode]) -> str:
    rows = critical_path(roots)
    total = sum(seconds for __, seconds in rows)
    lines = [f"{'actor':<28} {'exclusive ms':>12}  {'share':>6}"]
    for actor, seconds in rows:
        share = seconds / total * 100 if total else 0.0
        lines.append(f"{actor:<28} {_ms(seconds):>12}  {share:5.1f}%")
    lines.append(f"{'total':<28} {_ms(total):>12}  100.0%")
    return "\n".join(lines)


def _trace_summary(trace_id: int, spans: List[Span]) -> dict:
    roots = build_tree(spans)
    root = roots[0].span if roots else spans[0]
    hops = sum(1 for span in spans if span.name.startswith("server:"))
    forwards = sum(1 for span in spans
                   if span.attrs.get("forwarded_to") is not None)
    reply = root.attrs.get("reply_code")
    if reply is None:
        for span in spans:
            if span.attrs.get("reply_code") is not None:
                reply = span.attrs["reply_code"]
    return {
        "trace_id": trace_id,
        "root": root,
        "total": max((s.end or s.start) for s in spans) - root.start,
        "hops": hops,
        "forwards": forwards,
        "reply": reply if reply is not None else "?",
    }


def slowest_traces(tracefile: TraceFile, top: int = 10) -> List[dict]:
    """Per-trace summaries, slowest first."""
    summaries = [_trace_summary(trace_id, spans)
                 for trace_id, spans in tracefile.traces().items()]
    summaries.sort(key=lambda s: s["total"], reverse=True)
    return summaries[:top]


def render_slowest_table(tracefile: TraceFile, top: int = 10) -> str:
    rows = slowest_traces(tracefile, top)
    lines = [f"{'trace':>6}  {'total ms':>9}  {'hops':>4}  {'fwd':>3}  "
             f"{'reply':<12} root"]
    for row in rows:
        root = row["root"]
        name = _label(root, tracefile.actors)
        lines.append(f"{row['trace_id']:>6}  {_ms(row['total']):>9}  "
                     f"{row['hops']:>4}  {row['forwards']:>3}  "
                     f"{str(row['reply']):<12} {name}")
    return "\n".join(lines)


def render_trace(tracefile: TraceFile, trace_id: int) -> str:
    """Timeline + critical path for one trace."""
    spans = tracefile.traces().get(trace_id)
    if not spans:
        return f"trace {trace_id} not found"
    roots = build_tree(spans)
    root = roots[0].span
    out = [
        f"trace {trace_id}: {_label(root, tracefile.actors)} "
        f"({_ms(root.duration)} ms, {len(spans)} spans)",
        "",
        "hop timeline:",
        render_timeline(roots, tracefile.actors),
        "",
        "critical path (exclusive time per actor):",
        render_critical_path(roots),
    ]
    unfinished = [s for s in spans if not s.finished]
    if unfinished:
        out.append("")
        out.append(f"warning: {len(unfinished)} span(s) never finished "
                   f"({', '.join(s.name for s in unfinished[:5])})")
    return "\n".join(out)


def render_cache_summary(counters: Sequence[dict]) -> str:
    """The name-cache scoreboard, derived from ``namecache.*`` counters.

    Hits are broken out by binding source (full-name hint, cached prefix
    binding, generic service pid); fallbacks are hits that turned out stale
    and were re-resolved, so they are subtracted from the effective rate.
    """
    hits_by_source: Dict[str, int] = {}
    totals = {"hits": 0, "misses": 0, "fallbacks": 0, "invalidations": 0}
    invalidations_by_reason: Dict[str, int] = {}
    seen = False
    for record in counters:
        name = record.get("name", "")
        if not name.startswith("namecache."):
            continue
        seen = True
        value = int(record.get("value", 0))
        tags = record.get("tags") or {}
        kind = name[len("namecache."):]
        if kind in totals:
            totals[kind] += value
        if kind == "hits" and "source" in tags:
            source = str(tags["source"])
            hits_by_source[source] = hits_by_source.get(source, 0) + value
        if kind == "invalidations" and "reason" in tags:
            reason = str(tags["reason"])
            invalidations_by_reason[reason] = (
                invalidations_by_reason.get(reason, 0) + value)
    if not seen:
        return ""
    lookups = totals["hits"] + totals["misses"]
    effective = max(0, totals["hits"] - totals["fallbacks"])
    rate = effective / lookups if lookups else 0.0
    lines = [f"{'name cache':<28} {'value':>12}"]
    lines.append(f"{'lookups':<28} {lookups:>12}")
    for source in sorted(hits_by_source):
        lines.append(f"{'hits{source=%s}' % source:<28} "
                     f"{hits_by_source[source]:>12}")
    lines.append(f"{'misses':<28} {totals['misses']:>12}")
    lines.append(f"{'fallbacks (stale hits)':<28} {totals['fallbacks']:>12}")
    for reason in sorted(invalidations_by_reason):
        lines.append(f"{'invalidations{reason=%s}' % reason:<28} "
                     f"{invalidations_by_reason[reason]:>12}")
    lines.append(f"{'effective hit rate':<28} {rate:>11.1%}")
    return "\n".join(lines)


def render_coherence_summary(counters: Sequence[dict]) -> str:
    """The coherence scoreboard, derived from ``coherence.*`` counters.

    Present only in runs with an armed coherence probe
    (:func:`repro.obs.audit.enable_coherence`): invalidation/SYNC notice
    flow, lease churn by kind, and the two served-wrongness signals the
    auditor tracks (stale hits within TTL, negative-cache hits).
    """
    notices: Dict[str, int] = {}
    leases: Dict[str, int] = {}
    totals = {"lookups": 0, "stale_hits": 0, "negcache_hits": 0}
    seen = False
    for record in counters:
        name = record.get("name", "")
        if not name.startswith("coherence."):
            continue
        seen = True
        value = int(record.get("value", 0))
        tags = record.get("tags") or {}
        kind = name[len("coherence."):]
        if kind in totals:
            totals[kind] += value
        elif kind == "notices":
            phase = str(tags.get("phase", "?"))
            notices[phase] = notices.get(phase, 0) + value
        elif kind == "lease_events":
            lease_kind = str(tags.get("kind", "?"))
            leases[lease_kind] = leases.get(lease_kind, 0) + value
    if not seen:
        return ""
    lines = [f"{'coherence':<28} {'value':>12}"]
    for phase in sorted(notices):
        lines.append(f"{'notices{phase=%s}' % phase:<28} "
                     f"{notices[phase]:>12}")
    for lease_kind in sorted(leases):
        lines.append(f"{'leases{kind=%s}' % lease_kind:<28} "
                     f"{leases[lease_kind]:>12}")
    lines.append(f"{'shard lookups':<28} {totals['lookups']:>12}")
    lines.append(f"{'stale hits (within TTL)':<28} "
                 f"{totals['stale_hits']:>12}")
    lines.append(f"{'negative-cache hits':<28} "
                 f"{totals['negcache_hits']:>12}")
    return "\n".join(lines)


def load_metrics_records(path: str | Path) -> List[dict]:
    """Load export-shaped metric records from a metrics JSONL file."""
    records: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def render_metrics(path: str | Path, top: int = 20) -> str:
    """Summarize a metrics JSONL file (counters + histogram percentiles)."""
    return render_metrics_records(load_metrics_records(path), top)


def render_metrics_records(records: Sequence[dict], top: int = 20) -> str:
    """Summarize export-shaped metric records (from a file or a live read).

    The same record shapes come out of ``write_metrics_jsonl`` files and of
    a live ``[obs]/fleet/metrics`` read, so ``--live`` and file mode share
    this renderer.
    """
    counters: List[dict] = []
    histograms: List[dict] = []
    for record in records:
        if record.get("kind") == "counter":
            counters.append(dict(record))
        elif record.get("kind") == "histogram" and record.get("count"):
            histograms.append(record)
    lines: List[str] = []
    if counters:
        counters.sort(key=lambda r: r["value"], reverse=True)
        lines.append(f"{'counter':<44} {'value':>12}")
        for record in counters[:top]:
            tag = "".join(f"{{{k}={v}}}" for k, v in
                          sorted((record.get("tags") or {}).items()))
            lines.append(f"{record['name'] + tag:<44} {record['value']:>12}")
    if histograms:
        lines.append("")
        lines.append(f"{'histogram':<36} {'count':>7} {'mean':>9} "
                     f"{'p50':>9} {'p95':>9} {'p99':>9}")
        for record in histograms:
            tag = "".join(f"{{{k}={v}}}" for k, v in
                          sorted((record.get("tags") or {}).items()))
            lines.append(
                f"{record['name'] + tag:<36} {record['count']:>7} "
                f"{record['mean']:>9.6f} {record['p50']:>9.6f} "
                f"{record['p95']:>9.6f} {record['p99']:>9.6f}")
    cache_summary = render_cache_summary(counters)
    if cache_summary:
        lines.append("")
        lines.append(cache_summary)
    coherence_summary = render_coherence_summary(counters)
    if coherence_summary:
        lines.append("")
        lines.append(coherence_summary)
    return "\n".join(lines) if lines else "(no metrics)"


def timeline_records(roots: Sequence[SpanNode]) -> List[dict]:
    """The hop timeline as records: one dict per span, depth-annotated.

    The machine-readable twin of :func:`render_timeline`, used by
    ``--json``; offsets are relative to the window start, in ms.
    """
    if not roots:
        return []
    window_start = min(node.span.start for node in roots)
    records = []
    for root in roots:
        for depth, node in root.walk():
            span = node.span
            records.append({
                "name": span.name,
                "actor": span.actor,
                "depth": depth,
                "offset_ms": (span.start - window_start) * 1e3,
                "duration_ms": (span.duration * 1e3 if span.finished
                                else None),
                "attrs": span.attrs,
            })
    return records


def trace_document(tracefile: TraceFile, trace_id: int) -> Optional[dict]:
    """One trace as a JSON-ready document: timeline + critical path."""
    spans = tracefile.traces().get(trace_id)
    if not spans:
        return None
    roots = build_tree(spans)
    root = roots[0].span
    return {
        "trace_id": trace_id,
        "root": root.name,
        "actor": root.actor,
        "csname": root.attrs.get("csname"),
        "duration_ms": root.duration * 1e3 if root.finished else None,
        "span_count": len(spans),
        "timeline": timeline_records(roots),
        "critical_path": [
            {"actor": actor, "exclusive_ms": seconds * 1e3}
            for actor, seconds in critical_path(roots)],
        "unfinished_spans": [s.name for s in spans if not s.finished],
    }


def report_document(tracefile: TraceFile, top: int = 10,
                    trace_ids: Optional[Sequence[int]] = None,
                    metrics_records: Optional[Sequence[dict]] = None) -> dict:
    """The whole report, machine-readable (the ``--json`` output).

    ``trace_ids`` selects which traces get full timelines (default: the
    slowest one); the slowest-resolutions table and file meta are always
    included, and ``metrics_records`` adds the metrics scoreboard.
    """
    if trace_ids is None:
        slowest = slowest_traces(tracefile, 1)
        trace_ids = [slowest[0]["trace_id"]] if slowest else []
    document = {
        "schema": REPORT_SCHEMA,
        "meta": dict(tracefile.meta),
        "span_count": len(tracefile.spans),
        "trace_count": len(tracefile.traces()),
        "slowest": [
            {
                "trace_id": row["trace_id"],
                "total_ms": row["total"] * 1e3,
                "hops": row["hops"],
                "forwards": row["forwards"],
                "reply": row["reply"],
                "root": row["root"].name,
                "actor": row["root"].actor,
                "csname": row["root"].attrs.get("csname"),
            }
            for row in slowest_traces(tracefile, top)],
        "traces": [doc for doc in
                   (trace_document(tracefile, trace_id)
                    for trace_id in trace_ids)
                   if doc is not None],
    }
    if metrics_records is not None:
        document["metrics"] = [dict(record) for record in metrics_records]
    return document


def run_live(top: int = 10) -> int:
    """``--live``: read the ``[obs]`` name space instead of JSONL files.

    Builds a two-host session in-process (workstation + file server, stat
    servers on both), runs a small file workload to give the counters
    something to say, then a client program reads ``[obs]`` names through
    the full simulated protocol -- prefix server -> root obs server ->
    per-host stat servers -- and the renderers run on what came back.
    """
    from repro.kernel.domain import Domain
    from repro.obs import Observability
    from repro.obs.export import _span_from_record
    from repro.runtime import files
    from repro.runtime.workstation import setup_workstation, standard_prefixes
    from repro.servers import VFileServer, start_server
    from repro.servers.statserver import enable_obs_namespace

    obs = Observability()
    domain = Domain(obs=obs)
    workstation = setup_workstation(domain, "live", name="ws1",
                                    name_cache=True)
    fs_host = domain.create_host("fs1")
    fileserver = start_server(fs_host, VFileServer(user="live"))
    standard_prefixes(workstation, fileserver)
    enable_obs_namespace(domain, root_host=workstation.host)
    domain.enable_telemetry(interval=0.05)

    box: Dict[str, Dict[str, bytes]] = {}

    def client(session):
        for index in range(3):
            name = f"[home]live{index}.txt"
            yield from files.write_file(session, name, b"x" * 64)
            yield from files.read_file(session, name)
        reads: Dict[str, bytes] = {}
        reads["fleet"] = yield from session.read_file("[obs]/fleet/metrics")
        for host_name in ("ws1", "fs1"):
            reads[host_name] = yield from session.read_file(
                f"[obs]/hosts/{host_name}/metrics")
        reads["spans"] = yield from session.read_file(
            "[obs]/hosts/fs1/spans/recent")
        for host_name in ("ws1", "fs1"):
            reads[f"series:{host_name}"] = yield from session.read_file(
                f"[obs]/hosts/{host_name}/timeseries/resolutions")
        box["reads"] = reads

    workstation.host.spawn(client(workstation.session()), name="report-live")
    domain.run()
    domain.check_healthy()
    reads = box["reads"]

    print("live [obs] reads over a two-host session (ws1 + fs1):")
    for host_name in ("ws1", "fs1"):
        snap = json.loads(reads[host_name])
        counters = ", ".join(f"{k}={v}" for k, v in
                             sorted(snap["counters"].items()))
        print(f"  [obs]/hosts/{host_name}/metrics: "
              f"uptime {snap['uptime_seconds']:.3f}s, "
              f"{snap['process_count']} processes, {counters}")
    print()
    print("[obs]/fleet/metrics:")
    records = [json.loads(line) for line in
               reads["fleet"].decode().splitlines() if line.strip()]
    print(render_metrics_records(records, top))
    span_lines = [line for line in reads["spans"].decode().splitlines()
                  if line.strip()]
    tracefile = TraceFile(
        spans=[_span_from_record(json.loads(line)) for line in span_lines],
        actors=dict(obs.actors))
    print()
    print(f"[obs]/hosts/fs1/spans/recent: {len(tracefile.spans)} spans")
    if tracefile.spans:
        print(render_slowest_table(tracefile, top))
    print()
    print("telemetry sampling continuity "
          "([obs]/hosts/<h>/timeseries/resolutions):")
    for host_name in ("ws1", "fs1"):
        print("  " + describe_series_continuity(
            host_name, reads[f"series:{host_name}"]))
    return 0


def describe_series_continuity(host_name: str, payload: bytes) -> str:
    """One-line sampling-continuity verdict for a timeseries JSONL payload.

    A crashed-then-restarted host leaves explicit ``gap`` records on its
    series (see ``repro.obs.telemetry``); this renders them -- or says
    plainly that sampling was continuous / disabled -- so the gap is never
    left implicit in the ring buffer.
    """
    records = [json.loads(line)
               for line in payload.decode().splitlines() if line.strip()]
    meta = records[0] if records else {}
    if not meta.get("enabled"):
        return f"{host_name}: telemetry disabled"
    samples = sum(1 for r in records if r.get("kind") == "sample")
    gaps = [r for r in records if r.get("kind") == "gap"]
    if not gaps:
        return f"{host_name}: {samples} samples, no sampling gaps"
    spans = ", ".join(
        f"{gap['start']:.3f}s -> "
        + (f"{gap['end']:.3f}s" if gap["end"] is not None else "end of run")
        for gap in gaps)
    return (f"{host_name}: {samples} samples, "
            f"{len(gaps)} sampling gap(s) (host down): {spans}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render hop timelines and critical-path breakdowns "
                    "from a span JSONL trace file.")
    parser.add_argument("trace_file", nargs="?", default=None,
                        help="span JSONL file to load (omit with --live)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the slowest-resolutions table")
    parser.add_argument("--trace", type=int, default=None,
                        help="render one trace id in full (default: slowest)")
    parser.add_argument("--all", action="store_true",
                        help="render every trace in full")
    parser.add_argument("--metrics", default=None,
                        help="also summarize a metrics JSONL file")
    parser.add_argument("--live", action="store_true",
                        help="read live [obs] names from a simulated "
                             "two-host session instead of JSONL files")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as one JSON document (hop "
                             "timelines, slowest table, metrics) instead "
                             "of rendered text")
    args = parser.parse_args(argv)

    if args.live:
        if args.json:
            parser.error("--json works on trace files, not with --live")
        return run_live(args.top)
    if args.trace_file is None:
        parser.error("a trace file is required unless --live is given")

    try:
        tracefile = read_spans_jsonl(args.trace_file)
    except OSError as err:
        print(f"error: cannot read trace file {args.trace_file}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 2
    if not tracefile.spans:
        print(f"error: {args.trace_file} contains no spans -- nothing to "
              "report (was the run traced?)", file=sys.stderr)
        return 2

    if args.json:
        if args.all:
            trace_ids = [s["trace_id"] for s in
                         slowest_traces(tracefile, len(tracefile.traces()))]
        elif args.trace is not None:
            trace_ids = [args.trace]
        else:
            trace_ids = None
        metrics_records = None
        if args.metrics:
            try:
                metrics_records = load_metrics_records(args.metrics)
            except OSError as err:
                print(f"error: cannot read metrics file {args.metrics}: "
                      f"{err.strerror or err}", file=sys.stderr)
                return 2
        document = report_document(tracefile, args.top, trace_ids,
                                   metrics_records)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(f"{args.trace_file}: {len(tracefile.spans)} spans, "
          f"{len(tracefile.traces())} traces")
    print()
    print(f"slowest resolutions (top {args.top}):")
    print(render_slowest_table(tracefile, args.top))

    if args.all:
        targets = [s["trace_id"] for s in
                   slowest_traces(tracefile, len(tracefile.traces()))]
    elif args.trace is not None:
        targets = [args.trace]
    else:
        slowest = slowest_traces(tracefile, 1)
        targets = [slowest[0]["trace_id"]] if slowest else []
    for trace_id in targets:
        print()
        print(render_trace(tracefile, trace_id))

    if args.metrics:
        print()
        print(f"metrics ({args.metrics}):")
        try:
            print(render_metrics(args.metrics))
        except OSError as err:
            print(f"error: cannot read metrics file {args.metrics}: "
                  f"{err.strerror or err}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into `head` or a closed pager -- not an error.
        sys.exit(0)
