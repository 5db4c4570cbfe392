"""Golden-output tests for the report renderers and the CLI failure paths.

The renderers are pure functions, so their full output is pinned here
character-for-character against a deterministic five-hop fixture (the
``[obs]`` introspection chain: client stub -> kernel txn -> prefix server
-> root obs server -> remote stat server).  Formatting drift -- column
widths, bar scaling, percentage rounding -- fails loudly instead of
silently degrading every downstream report.
"""

from repro.obs.export import write_spans_jsonl
from repro.obs.report import (
    main,
    render_cache_summary,
    render_critical_path,
    render_metrics_records,
    render_timeline,
)
from repro.obs.span import TraceCollector


def obs_chain_collector() -> TraceCollector:
    """A forwarded ``[obs]`` read: five spans, fixed timestamps."""
    collector = TraceCollector()
    root = collector.start("resolve:OPEN_FILE", 0.0, actor="ws1/client",
                           csname="[obs]/hosts/vax1/metrics")
    txn = collector.start("ipc.txn:OPEN_FILE", 0.0005, parent=root.context,
                          actor="ws1/kernel")
    prefix = collector.start("server:prefix-server", 0.001,
                             parent=txn.context, actor="ws1/prefix-server")
    obsroot = collector.start("server:obsserver", 0.002,
                              parent=prefix.context, actor="ws1/obsserver")
    stat = collector.start("server:statserver", 0.004,
                           parent=obsroot.context, actor="vax1/statserver")
    collector.finish(stat, 0.006, reply_code="OK")
    collector.finish(obsroot, 0.003, forwarded_to="pid:12")
    collector.finish(prefix, 0.0015, forwarded_to="pid:11")
    collector.finish(txn, 0.007)
    collector.finish(root, 0.0075, reply_code="OK", ok=True)
    return collector


GOLDEN_TIMELINE = """\
offset ms    dur ms  |                          |  span
    0.000     7.500  ############################  resolve:OPEN_FILE '[obs]/hosts/vax1/metrics'  [ws1/client]
    0.500     6.500  .########################...    ipc.txn:OPEN_FILE  [ws1/kernel]
    1.000     0.500  ...##.......................      server:prefix-server  [ws1/prefix-server]
    2.000     1.000  .......####.................        server:obsserver  [ws1/obsserver]
    4.000     2.000  ..............#######.......          server:statserver  [vax1/statserver]"""

GOLDEN_CRITICAL_PATH = """\
actor                        exclusive ms   share
ws1/kernel                          6.000   66.7%
vax1/statserver                     2.000   22.2%
ws1/client                          1.000   11.1%
ws1/prefix-server                   0.000    0.0%
ws1/obsserver                       0.000    0.0%
total                               9.000  100.0%"""

GOLDEN_CACHE_SUMMARY = """\
name cache                          value
lookups                                11
hits{source=hint}                       6
hits{source=prefix}                     3
misses                                  2
fallbacks (stale hits)                  1
invalidations{reason=crash}             1
effective hit rate                 72.7%"""


class TestGoldenRenderers:
    def test_timeline_golden(self):
        collector = obs_chain_collector()
        roots = collector.tree(collector.spans[0].trace_id)
        assert render_timeline(roots) == GOLDEN_TIMELINE

    def test_timeline_empty_golden(self):
        assert render_timeline([]) == "(empty trace)"

    def test_critical_path_golden(self):
        collector = obs_chain_collector()
        roots = collector.tree(collector.spans[0].trace_id)
        assert render_critical_path(roots) == GOLDEN_CRITICAL_PATH

    def test_critical_path_empty_is_total_only(self):
        text = render_critical_path([])
        lines = text.splitlines()
        assert len(lines) == 2  # header + zero total
        assert lines[1].startswith("total")
        assert "0.000" in lines[1] and "100.0%" in lines[1]

    def test_cache_summary_golden(self):
        counters = [
            {"kind": "counter", "name": "namecache.hits",
             "tags": {"source": "hint"}, "value": 6},
            {"kind": "counter", "name": "namecache.hits",
             "tags": {"source": "prefix"}, "value": 3},
            {"kind": "counter", "name": "namecache.misses",
             "tags": {}, "value": 2},
            {"kind": "counter", "name": "namecache.fallbacks",
             "tags": {}, "value": 1},
            {"kind": "counter", "name": "namecache.invalidations",
             "tags": {"reason": "crash"}, "value": 1},
        ]
        assert render_cache_summary(counters) == GOLDEN_CACHE_SUMMARY

    def test_cache_summary_without_cache_counters_is_empty(self):
        assert render_cache_summary(
            [{"kind": "counter", "name": "ipc.sends", "value": 3}]) == ""

    def test_metrics_records_renderer_handles_no_records(self):
        assert render_metrics_records([]) == "(no metrics)"


class TestCliFailurePaths:
    """Satellite: missing/empty traces fail clearly with exit code 2."""

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main([str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read trace file" in err
        assert str(missing) in err

    def test_empty_trace_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "contains no spans" in err
        assert "was the run traced?" in err

    def test_missing_metrics_file_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_spans_jsonl(obs_chain_collector(), trace)
        assert main([str(trace), "--metrics",
                     str(tmp_path / "no-metrics.jsonl")]) == 2
        assert "cannot read metrics file" in capsys.readouterr().err
