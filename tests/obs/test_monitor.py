"""The monitor subcommand: sparklines, the monitor document, exit status."""

import json

import pytest

from repro.faults.chaos import run_chaos
from repro.obs import monitor
from repro.obs.__main__ import main
from repro.obs.monitor import monitor_document, sparkline
from repro.obs.telemetry import SERIES_METRICS

DURATION = 2.0


def monitored_document(duration: float = DURATION) -> dict:
    return monitor_document(run_chaos(duration=duration, watchdogs=True))


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_ramp_uses_the_full_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_long_series_buckets_to_width(self):
        line = sparkline([float(index) for index in range(400)], width=40)
        assert len(line) == 40
        assert line[0] == "▁" and line[-1] == "█"


class TestRunMonitored:
    def test_document_shape_and_delivery(self):
        document = monitored_document()
        assert document["kind"] == "obs-monitor"
        assert document["schema"] == monitor.MONITOR_SCHEMA
        assert set(document["hosts"]) == {"ws-mann", "vax1"}
        for metrics in document["hosts"].values():
            assert set(metrics) == set(SERIES_METRICS)
        # Every summarised number came back through [obs]; the workload
        # host must have sampled activity.
        resolutions = document["hosts"]["ws-mann"]["resolutions"]
        assert resolutions["samples"] > 0
        assert resolutions["max"] >= 1
        assert document["reads"]["ok"] > 0
        assert document["delivery"]["read_through_obs"] == \
            document["delivery"]["emitted"]

    def test_same_seed_same_document(self):
        assert monitored_document() == monitored_document()

    def test_read_back_leaves_the_run_untouched(self):
        # The series read runs after run_chaos returned: the run's own
        # report (what E15 pins) is the same with or without it.
        bare = run_chaos(duration=DURATION, watchdogs=True)
        read = run_chaos(duration=DURATION, watchdogs=True)
        monitor_document(read)
        assert bare.to_dict() == read.to_dict()

    def test_alert_tail_sees_fire_before_resolve(self, capsys):
        assert main(["monitor", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        tail = out[:out.index("\nscenario:")].splitlines()
        assert tail and "FIRE" in tail[0]
        assert any("RESOLVE" in line for line in tail[1:])


class TestCli:
    def test_json_mode_emits_the_document(self, capsys):
        code = main(["monitor", "--json", "--duration", str(DURATION)])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert code == 0
        assert document["kind"] == "obs-monitor"
        # The JSON document carries summaries, not raw sample arrays.
        for metrics in document["hosts"].values():
            assert all("values" not in summary
                       for summary in metrics.values())

    def test_text_mode_renders_tables_and_tail(self, capsys):
        code = main(["monitor", "--duration", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FIRE" in out                       # the alert tail
        assert "[obs]/hosts/ws-mann/timeseries/*" in out
        assert any(char in out for char in "▂▃▄▅▆▇█")
        assert "emitted, record for record" in out

    def test_takes_only_the_knobs_it_uses(self, capsys):
        # seed, duration and drop are all the monitor document records.
        for flag in ("--dup", "--delay-rate", "--no-crash"):
            with pytest.raises(SystemExit):
                main(["monitor", flag])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_delivery_mismatch_exits_nonzero(self, capsys, monkeypatch):
        # An alert log read back through [obs] that lost every record
        # fails run_chaos's delivery invariant, and the monitor with it.
        from repro.runtime import files

        monkeypatch.setattr(files, "read_files",
                            lambda workstation, names, process: {})
        assert main(["monitor", "--duration", "5"]) == 1
        assert "disagrees with the watchdog engine" in \
            capsys.readouterr().err
