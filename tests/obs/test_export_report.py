"""Tests for the JSONL exporters, readers, and the report renderers."""

import json

import pytest

from repro.obs.export import (
    read_spans_jsonl,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.obs.__main__ import main
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    REPORT_SCHEMA,
    critical_path,
    render_critical_path,
    render_metrics,
    render_slowest_table,
    render_timeline,
    render_trace,
    report_document,
    slowest_traces,
    trace_document,
)
from repro.obs.span import TraceCollector, build_tree


def sample_collector() -> TraceCollector:
    """Two traces: a forwarded two-hop resolution and a quick local one."""
    collector = TraceCollector()
    root = collector.start("resolve:OPEN_FILE", 0.0, actor="client-stub",
                           csname="[bin]ls")
    txn = collector.start("ipc.txn:OPEN_FILE", 0.0005, parent=root.context,
                          actor="kernel")
    prefix = collector.start("server:prefix", 0.001, parent=txn.context,
                             actor="prefix")
    fs = collector.start("server:fileserver", 0.003, parent=prefix.context,
                         actor="fileserver")
    collector.finish(fs, 0.006, reply_code="OK")
    collector.finish(prefix, 0.004, forwarded_to="pid:9")
    collector.finish(txn, 0.007)
    collector.finish(root, 0.008, reply_code="OK", ok=True)
    quick = collector.start("resolve:DELETE_NAME", 1.0, actor="client-stub",
                            csname="tmp.txt")
    collector.finish(quick, 1.002, reply_code="NOT_FOUND", ok=False)
    return collector


class TestExportRoundTrip:
    def test_write_then_read_preserves_spans(self, tmp_path):
        collector = sample_collector()
        path = tmp_path / "trace.jsonl"
        written = write_spans_jsonl(collector, path, actors={3: "fileserver"})
        assert written == len(collector.spans)
        parsed = read_spans_jsonl(path)
        assert parsed.actors == {3: "fileserver"}
        assert len(parsed.spans) == len(collector.spans)
        for original, loaded in zip(collector.spans, parsed.spans):
            assert loaded.name == original.name
            assert loaded.trace_id == original.trace_id
            assert loaded.span_id == original.span_id
            assert loaded.parent_id == original.parent_id
            assert loaded.start == original.start
            assert loaded.end == original.end
            assert loaded.attrs == original.attrs

    def test_unfinished_span_exports_with_null_end(self, tmp_path):
        collector = TraceCollector()
        collector.start("ipc.txn", 0.5)
        path = tmp_path / "open.jsonl"
        write_spans_jsonl(collector, path)
        record = json.loads(path.read_text().strip())
        assert record["end"] is None
        parsed = read_spans_jsonl(path)
        assert not parsed.spans[0].finished

    def test_meta_record_round_trips(self, tmp_path):
        """The leading meta record (seed, event count) survives a re-read."""
        collector = sample_collector()
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(collector, path,
                          meta={"seed": 7, "events_processed": 4242})
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "meta"
        parsed = read_spans_jsonl(path)
        assert parsed.meta == {"seed": 7, "events_processed": 4242}
        assert len(parsed.spans) == len(collector.spans)

    def test_empty_meta_writes_no_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(sample_collector(), path, meta={})
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert "meta" not in kinds

    def test_metrics_jsonl_uses_kind_discriminator(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ipc.sends").incr(12)
        registry.gauge("servers").set(3)
        registry.histogram("lat").observe(0.002)
        path = tmp_path / "metrics.jsonl"
        written = write_metrics_jsonl(registry, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == len(records) == 3
        kinds = {record["kind"] for record in records}
        assert kinds == {"counter", "gauge", "histogram"}


class TestRenderers:
    def test_timeline_lists_every_span_with_indentation(self):
        collector = sample_collector()
        roots = collector.tree(collector.spans[0].trace_id)
        text = render_timeline(roots)
        assert "resolve:OPEN_FILE" in text
        assert "    server:prefix" in text
        assert "      server:fileserver" in text
        assert "[client-stub]" in text

    def test_timeline_of_nothing(self):
        assert render_timeline([]) == "(empty trace)"

    def test_critical_path_is_exclusive_time(self):
        collector = sample_collector()
        roots = collector.tree(collector.spans[0].trace_id)
        totals = dict(critical_path(roots))
        # The prefix hop ran 1ms..4ms with a 3ms..6ms child: its overlap is
        # subtracted whole, so the exclusive time never double-counts.
        assert totals["fileserver"] == pytest.approx(0.003)
        assert totals["prefix"] == pytest.approx(0.0, abs=1e-12)
        text = render_critical_path(roots)
        assert "total" in text and "100.0%" in text

    def test_slowest_table_orders_by_total(self, tmp_path):
        collector = sample_collector()
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(collector, path)
        tracefile = read_spans_jsonl(path)
        rows = slowest_traces(tracefile, top=10)
        assert [row["hops"] for row in rows] == [2, 0]
        assert rows[0]["forwards"] == 1
        assert rows[1]["reply"] == "NOT_FOUND"
        table = render_slowest_table(tracefile, top=10)
        assert "'[bin]ls'" in table
        assert "NOT_FOUND" in table

    def test_render_trace_includes_sections_and_handles_missing(self, tmp_path):
        collector = sample_collector()
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(collector, path)
        tracefile = read_spans_jsonl(path)
        text = render_trace(tracefile, tracefile.spans[0].trace_id)
        assert "hop timeline:" in text
        assert "critical path" in text
        assert render_trace(tracefile, 999) == "trace 999 not found"

    def test_render_metrics_summary(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ipc.sends").incr(2)
        registry.histogram("lat").observe(0.001)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, path)
        text = render_metrics(path)
        assert "ipc.sends" in text
        assert "lat" in text
        assert "name cache" not in text  # no namecache counters exported

    def test_render_metrics_cache_scoreboard(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("namecache.hits", source="hint").incr(7)
        registry.counter("namecache.hits", source="prefix").incr(2)
        registry.counter("namecache.misses").incr(1)
        registry.counter("namecache.fallbacks").incr(1)
        registry.counter("namecache.invalidations",
                         reason="stale-reply").incr(3)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, path)
        text = render_metrics(path)
        assert "name cache" in text
        assert "hits{source=hint}" in text
        assert "invalidations{reason=stale-reply}" in text
        # (7 + 2 hits - 1 stale fallback) / 10 lookups = 80%
        assert "80.0%" in text


class TestCli:
    def test_main_renders_slowest_and_one_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(sample_collector(), path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slowest resolutions" in out
        assert "hop timeline:" in out

    def test_main_with_explicit_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        collector = sample_collector()
        write_spans_jsonl(collector, trace_path)
        registry = MetricsRegistry()
        registry.counter("ipc.sends").incr(1)
        metrics_path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, metrics_path)
        target = collector.spans[-1].trace_id
        assert main(["report", str(trace_path), "--trace", str(target),
                     "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace {target}:" in out
        assert "ipc.sends" in out

    def test_main_reports_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 2
        assert "no spans" in capsys.readouterr().err


class TestJsonReport:
    def test_report_document_shape(self, tmp_path):
        collector = sample_collector()
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(collector, path,
                          meta={"seed": 0, "events_processed": 99})
        tracefile = read_spans_jsonl(path)
        document = report_document(tracefile)
        assert document["schema"] == REPORT_SCHEMA
        assert document["meta"] == {"seed": 0, "events_processed": 99}
        assert document["span_count"] == len(collector.spans)
        assert document["trace_count"] == 2
        # Slowest table: the forwarded trace outranks the quick local one.
        assert [row["hops"] for row in document["slowest"]] == [2, 0]
        assert document["slowest"][0]["csname"] == "[bin]ls"
        # Default trace selection: the single slowest, with full timeline.
        assert len(document["traces"]) == 1
        trace = document["traces"][0]
        assert trace["span_count"] == 4
        assert [r["depth"] for r in trace["timeline"]] == [0, 1, 2, 3]
        assert trace["unfinished_spans"] == []
        path_ms = {row["actor"]: row["exclusive_ms"]
                   for row in trace["critical_path"]}
        assert path_ms["fileserver"] == pytest.approx(3.0)

    def test_trace_document_missing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(sample_collector(), path)
        assert trace_document(read_spans_jsonl(path), 999) is None

    def test_main_json_emits_parseable_document(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        write_spans_jsonl(sample_collector(), trace_path)
        registry = MetricsRegistry()
        registry.counter("ipc.sends").incr(5)
        metrics_path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, metrics_path)
        assert main(["report", str(trace_path), "--json", "--all",
                     "--metrics", str(metrics_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == REPORT_SCHEMA
        assert len(document["traces"]) == 2  # --all: every trace expanded
        assert document["metrics"][0] == {"kind": "counter",
                                          "name": "ipc.sends", "tags": {},
                                          "value": 5}

    def test_main_json_rejects_live_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--live", "--json"])
