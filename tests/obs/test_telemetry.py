"""Telemetry collector unit tests: series, rules, alerts, sampling.

The protocol-level behaviour (reading series through ``[obs]``) lives in
tests/servers/test_statserver.py and tests/faults/test_obs_under_chaos.py;
here the collector machinery is pinned directly: ring bounds, delta
sampling (including the restart clamp), watchdog hysteresis, parking, and
the per-transaction latency window.
"""

from types import SimpleNamespace

import pytest

from repro.kernel.domain import Domain
from repro.kernel.tap import COMPLETE, SEND
from repro.obs.telemetry import (
    FLEET,
    AlertEvent,
    AlertLog,
    SloRule,
    TelemetryCollector,
    TimeSeries,
    default_watchdogs,
)


class TestTimeSeries:
    def test_ring_drops_oldest_beyond_capacity(self):
        series = TimeSeries("h", "m", capacity=3)
        for index in range(5):
            series.record(float(index), float(index * 10))
        assert len(series) == 3
        assert series.samples() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert series.last() == 40.0

    def test_records_are_export_shaped(self):
        series = TimeSeries("h", "m")
        series.record(0.5, 7.0)
        assert series.to_records() == [
            {"kind": "sample", "t": 0.5, "value": 7.0}]


class TestSloRule:
    def test_unknown_kind_and_op_are_rejected(self):
        with pytest.raises(ValueError):
            SloRule("r", "m", kind="gradient")
        with pytest.raises(ValueError):
            SloRule("r", "m", op=">=")

    def test_invariants_are_promoted_to_critical(self):
        rule = SloRule("r", "m", kind="invariant", severity="warning")
        assert rule.severity == "critical"
        # An explicit severity on the other kinds is left alone.
        assert SloRule("r", "m", severity="warning").severity == "warning"

    def test_threshold_breaches(self):
        above = SloRule("r", "m", op=">", limit=5.0)
        assert above.breaches(5.1, None)
        assert not above.breaches(5.0, None)
        below = SloRule("r", "m", op="<", limit=5.0)
        assert below.breaches(4.9, None)
        assert not below.breaches(5.0, None)

    def test_comparator_agrees_with_breaches(self):
        rules = [SloRule("r", "m", op=">", limit=5.0),
                 SloRule("r", "m", op="<", limit=5),
                 SloRule("r", "m", kind="invariant", op=">", limit=256.0)]
        for rule in rules:
            compare = rule.comparator()
            for value in (0, 4.9, 5, 5.0, 5.1, 256, 300.5):
                assert compare(value) == rule.breaches(value, None)
        # The kinds that need more than the sample get no comparator.
        assert SloRule("r", "m", kind="rate_of_change").comparator() is None
        assert SloRule("r", "m", kind="invariant",
                       predicate=bool).comparator() is None

    def test_rate_of_change_needs_a_previous_sample(self):
        rule = SloRule("r", "m", kind="rate_of_change", limit=3.0)
        assert not rule.breaches(100.0, None)
        assert not rule.breaches(7.0, 4.0)      # |delta| == limit: ok
        assert rule.breaches(7.1, 4.0)
        assert rule.breaches(0.0, 4.0)          # a spike down counts too
        assert rule.breaches(-0.1, 3.0)

    def test_invariant_predicate_wins_over_the_comparison(self):
        rule = SloRule("r", "m", kind="invariant",
                       predicate=lambda value: value % 2 == 0)
        assert not rule.breaches(4.0, None)
        assert rule.breaches(3.0, None)


class TestAlertLog:
    def _event(self, t, event, rule="r", host="h"):
        return AlertEvent(t=t, event=event, rule=rule, kind="threshold",
                          severity="warning", host=host, metric="m",
                          value=1.0, limit=0.5)

    def test_fire_resolve_counts_and_active_set(self):
        log = AlertLog()
        log.emit(self._event(1.0, "fire"))
        assert log.fired == 1 and log.resolved == 0
        assert ("r", "h") in log.active
        log.emit(self._event(2.0, "resolve"))
        assert log.resolved == 1
        assert not log.active

    def test_bounded_history(self):
        log = AlertLog(capacity=2)
        for t in (1.0, 2.0, 3.0):
            log.emit(self._event(t, "fire", rule=f"r{t}"))
        assert [event.t for event in log.events()] == [2.0, 3.0]
        assert log.fired == 3                   # counters keep the truth

    def test_subscribers_see_every_emission(self):
        log = AlertLog()
        seen = []
        log.subscribe(seen.append)
        log.subscribe(seen.append)              # duplicate: registered once
        log.emit(self._event(1.0, "fire"))
        assert [event.t for event in seen] == [1.0]


class TestSampling:
    def _collector(self, rules=None, **kwargs):
        domain = Domain()
        host = domain.create_host("h1")
        collector = TelemetryCollector(domain, rules=rules or [], **kwargs)
        return domain, host, collector

    def test_deltas_not_cumulative_counts(self):
        __, host, collector = self._collector()
        host.counters["ipc.transactions"] = 3
        collector._tick()
        host.counters["ipc.transactions"] = 10
        collector._tick()
        assert collector.series_for("h1", "resolutions").values() == \
            [3.0, 7.0]

    def test_counter_reset_clamps_to_zero(self):
        # A host restart clears its counters; the next delta must not go
        # negative (it reads as "this much since the restart").
        __, host, collector = self._collector()
        host.counters["ipc.retransmits"] = 8
        collector._tick()
        host.counters["ipc.retransmits"] = 2    # reset + 2 new
        collector._tick()
        assert collector.series_for("h1", "retransmits").values() == \
            [8.0, 2.0]

    def test_crashed_hosts_leave_a_gap(self):
        domain, host, collector = self._collector()
        domain.create_host("h2")                # stays up throughout
        collector._tick()
        host.crashed = True
        collector._tick()
        host.crashed = False
        collector._tick()
        assert len(collector.series_for("h1", "resolutions")) == 2
        # The fleet series keeps ticking on the surviving host.
        assert len(collector.series_for(FLEET, "resolutions")) == 3

    def test_fleet_aggregates_sum_hosts(self):
        domain, host, collector = self._collector()
        other = domain.create_host("h2")
        host.counters["ipc.transactions"] = 4
        other.counters["ipc.transactions"] = 6
        collector._tick()
        assert collector.series_for(FLEET, "resolutions").values() == [10.0]
        assert collector.hosts_sampled() == ["h1", "h2"]

    def test_latency_window_feeds_p99_and_clears(self):
        __, host, collector = self._collector()
        waiting = SimpleNamespace()             # the still-waiting sender
        for ms in range(1, 101):
            # The clock reads 0.0: sent_at -ms is a latency of ms.
            txn = SimpleNamespace(sent_at=-ms / 1000.0)
            collector.on_event(COMPLETE, host, txn, None, waiting)
            # Not a latency: another kind, or a sender gone by the reply.
            collector.on_event(SEND, host, waiting, txn)
            collector.on_event(COMPLETE, host, txn, None, None)
        collector._tick()
        series = collector.series_for("h1", "p99_ms")
        assert series.values() == [pytest.approx(99.0)]
        # Window consumed: an idle tick records no p99 sample.
        collector._tick()
        assert len(series) == 1

    def test_summary_shape(self):
        __, host, collector = self._collector()
        host.counters["ipc.transactions"] = 2
        collector._tick()
        host.counters["ipc.transactions"] = 8
        collector._tick()
        summary = collector.summary("h1", "resolutions")
        assert summary == {"host": "h1", "metric": "resolutions",
                           "samples": 2, "min": 2.0, "mean": 4.0,
                           "max": 6.0, "last": 6.0}
        assert collector.summary("h1", "nope") is None


class TestHysteresis:
    def _collector(self, rule):
        domain = Domain()
        host = domain.create_host("h1")
        return host, TelemetryCollector(domain, rules=[rule])

    def test_for_ticks_then_clear_ticks(self):
        rule = SloRule("retx", "retransmits", op=">", limit=0.5,
                       for_ticks=2, clear_ticks=2)
        host, collector = self._collector(rule)
        bump = 0

        def tick(retransmits):
            nonlocal bump
            bump += retransmits
            host.counters["ipc.retransmits"] = bump
            collector._tick()

        tick(1)                                 # breach 1: below for_ticks
        assert collector.alerts.fired == 0
        tick(1)                                 # breach 2: fires
        assert collector.alerts.fired == 1
        assert ("retx", "h1") in collector.alerts.active
        tick(2)                                 # still breaching: no re-fire
        assert collector.alerts.fired == 1
        tick(0)                                 # healthy 1: still active
        assert collector.alerts.resolved == 0
        tick(0)                                 # healthy 2: resolves
        assert collector.alerts.resolved == 1
        assert not collector.alerts.active
        tick(1)
        tick(1)                                 # a fresh breach re-fires
        assert collector.alerts.fired == 2

    def test_invariant_fires_on_first_breach(self):
        rule = SloRule("backlog", "queue_depth", kind="invariant",
                       op=">", limit=2.0)
        host, collector = self._collector(rule)
        collector._tick()
        assert collector.alerts.fired == 0
        host._outstanding = {index: object() for index in range(3)}
        collector._tick()
        (event,) = collector.alerts.events()
        assert event.event == "fire"
        assert event.severity == "critical"
        assert event.value == 3.0

    def test_fleet_scoped_rules_see_only_the_aggregate(self):
        rule = SloRule("fleet-retx", "retransmits", op=">", limit=2.5,
                       scope="fleet")
        host, collector = self._collector(rule)
        other = host.domain.create_host("h2")
        host.counters["ipc.retransmits"] = 2    # each host under the limit
        other.counters["ipc.retransmits"] = 2
        collector._tick()
        (event,) = collector.alerts.events()    # the sum is over it
        assert event.host == FLEET
        assert event.value == 4.0


class TestLifecycle:
    def test_collector_parks_when_the_domain_quiesces(self):
        domain = Domain()
        domain.create_host("h1")
        collector = domain.enable_telemetry(interval=0.1)
        domain.engine.schedule(0.35, lambda: None)
        domain.run()
        assert collector.parked
        assert collector.ticks >= 3
        # start() re-arms a parked collector for the next run.
        ticks = collector.ticks
        collector.start()
        assert not collector.parked
        domain.engine.schedule(0.15, lambda: None)
        domain.run()
        assert collector.ticks > ticks

    def test_enable_telemetry_is_idempotent_and_armed_with_defaults(self):
        domain = Domain()
        collector = domain.enable_telemetry()
        assert domain.enable_telemetry() is collector
        assert domain.telemetry is collector
        assert [rule.name for rule in collector.rules] == \
            [rule.name for rule in default_watchdogs()]

    def test_bad_interval_is_rejected(self):
        with pytest.raises(ValueError):
            TelemetryCollector(Domain(), interval=0.0)


class TestCoherenceSeries:
    """The probe-fed coherence.* series and their fleet aggregation."""

    def _armed_collector(self):
        from repro.obs.audit import enable_coherence

        domain = Domain()
        probe = enable_coherence(domain)
        ns1 = domain.create_host("ns1")
        ns2 = domain.create_host("ns2")
        collector = TelemetryCollector(domain, rules=[])
        return domain, probe, collector, ns1, ns2

    def test_probe_buckets_land_in_the_series(self):
        __, probe, collector, __, __ = self._armed_collector()
        probe.lease_event("ns1", "grant")
        probe.shard_lookup("ns1", 0)
        probe.shard_lookup("ns1", 0)
        probe.negcache_hit("ns2")
        collector._tick()
        assert collector.series_for("ns1", "coherence.lease_churn") \
            .values() == [1.0]
        assert collector.series_for("ns1", "coherence.shard_hotness") \
            .values() == [2.0]
        assert collector.series_for("ns2", "coherence.negcache_hits") \
            .values() == [1.0]
        # Drained: the next tick samples dense zeros, not repeats.
        collector._tick()
        assert collector.series_for("ns1", "coherence.shard_hotness") \
            .values() == [2.0, 0.0]

    def test_unarmed_domain_has_no_coherence_series(self):
        domain = Domain()
        domain.create_host("h1")
        collector = TelemetryCollector(domain, rules=[])
        collector._tick()
        assert collector.series_for("h1", "coherence.lease_churn") is None
        assert collector.series_for("h1", "resolutions") is not None

    def test_fleet_takes_the_max_of_lag_and_staleness(self):
        # Worst-case metrics must not sum across hosts: a fleet of two
        # 40ms laggards is a 40ms fleet, not an 80ms one.  Count-like
        # coherence metrics still sum.
        __, probe, collector, __, __ = self._armed_collector()
        probe.notice_sent(b"p", 7, t=0.00)
        probe.notice_applied(b"p", 7, "ns1", t=0.04)
        probe.notice_sent(b"p", 8, t=0.01)
        probe.notice_applied(b"p", 8, "ns2", t=0.04)
        probe.stale_hit("ns1", 0.5)
        probe.stale_hit("ns2", 0.2)
        probe.lease_event("ns1", "grant")
        probe.lease_event("ns2", "refresh")
        collector._tick()
        assert collector.series_for(
            FLEET, "coherence.invalidation_lag").values() == \
            [pytest.approx(40.0)]
        assert collector.series_for(
            FLEET, "coherence.staleness_at_hit").values() == \
            [pytest.approx(500.0)]
        assert collector.series_for(
            FLEET, "coherence.lease_churn").values() == [2.0]

    def test_coherence_watchdog_fires_on_slow_propagation(self):
        from repro.obs.telemetry import coherence_watchdogs

        from repro.obs.audit import enable_coherence

        domain = Domain()
        probe = enable_coherence(domain)
        domain.create_host("ns1")
        collector = TelemetryCollector(domain, rules=coherence_watchdogs())
        # The rule has for_ticks=2 hysteresis: two consecutive breaching
        # ticks before the fire.
        for tick in range(2):
            base = float(tick)
            probe.notice_sent(b"p", 7, t=base)
            probe.notice_applied(b"p", 7, "ns1", t=base + 0.3)  # 300ms > SLO
            collector._tick()
        fired = [e for e in collector.alerts.events() if e.event == "fire"]
        assert [e.rule for e in fired] == ["invalidation-propagation-p99"]
        assert fired[0].severity == "critical"
