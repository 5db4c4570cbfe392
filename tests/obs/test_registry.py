"""Unit tests for the tagged metrics registry."""

import math

import pytest

from repro.kernel.domain import Domain
from repro.obs import Observability
from repro.obs.registry import (
    DEFAULT_BYTES_BUCKETS,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NoSamplesError,
)


class TestCounters:
    def test_incr_and_read_back(self):
        registry = MetricsRegistry()
        registry.counter("net.frames").incr()
        registry.counter("net.frames").incr(4)
        assert registry.counter_value("net.frames") == 5
        assert registry.counter_value("absent") == 0

    def test_incr_and_count_address_the_untagged_counter(self):
        registry = MetricsRegistry()
        registry.incr("net.frames")
        registry.incr("net.frames", 4)
        # incr(name) and counter(name) are one object, whichever came first.
        assert registry.counter("net.frames").value == 5
        registry.counter("net.frames").incr()
        registry.counter("ipc.sends").incr(2)
        registry.incr("ipc.sends")
        assert registry.count("net.frames") == 6
        assert registry.count("ipc.sends") == 3
        assert registry.count("absent") == 0

    def test_count_is_the_untagged_counter_value(self):
        registry = MetricsRegistry()
        registry.counter("plain").incr(3)
        registry.counter("split", shard="a").incr(10)
        assert registry.count("plain") == registry.counter_value("plain") == 3
        # A name counted only with tags has no untagged counter.
        assert registry.count("split") == 0
        assert registry.counter_value("split") == 0

    def test_domain_metrics_is_the_bundles_registry(self):
        obs = Observability()
        domain = Domain(obs=obs)
        assert domain.metrics is obs.registry
        assert domain.ethernet.metrics is obs.registry
        # Without a bundle the domain still counts into a registry of its own.
        bare = Domain()
        assert isinstance(bare.metrics, MetricsRegistry)
        assert bare.ethernet.metrics is bare.metrics

    def test_tags_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("requests", server="fileserver").incr(2)
        registry.counter("requests", server="prefix").incr(3)
        assert registry.counter_value("requests", server="fileserver") == 2
        assert registry.counter_value("requests", server="prefix") == 3
        assert registry.counter_value("requests") == 0

    def test_instruments_are_cached_by_name_and_tags(self):
        registry = MetricsRegistry()
        a = registry.counter("x", k="v")
        b = registry.counter("x", k="v")
        assert a is b
        assert registry.counter("x") is not a

    def test_counter_values_legacy_view_skips_tagged(self):
        registry = MetricsRegistry()
        registry.counter("plain").incr(1)
        registry.counter("split", shard="a").incr(10)
        assert registry.counter_values() == {"plain": 1}
        combined = registry.counter_values(untagged_only=False)
        assert combined == {"plain": 1, "split": 10}


class TestGauges:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue.depth")
        gauge.set(4)
        gauge.add(2)
        gauge.add(-1)
        assert registry.gauge("queue.depth").value == 5.0


class TestHistogram:
    def test_moments_are_exact(self):
        histogram = Histogram("lat")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.minimum == 0.001
        assert histogram.maximum == 0.003
        summary = histogram.summary()
        assert summary.mean == pytest.approx(0.002)
        assert summary.stddev == pytest.approx(
            math.sqrt(2 / 3) * 0.001, rel=1e-9)

    def test_quantiles_clamped_to_observed_range(self):
        histogram = Histogram("lat")
        histogram.observe(0.0021)
        assert histogram.quantile(0.0) == 0.0021
        assert histogram.quantile(0.99) == 0.0021

    def test_quantile_orders_buckets(self):
        histogram = Histogram("bytes", buckets=DEFAULT_BYTES_BUCKETS)
        for value in (10, 20, 30, 1000):
            histogram.observe(value)
        assert histogram.quantile(0.50) <= histogram.quantile(0.99)
        assert histogram.quantile(0.99) <= 1000

    def test_negative_observation_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("lat").observe(-0.1)
        # Backward compatibility: MetricsError is still a ValueError.
        with pytest.raises(ValueError):
            Histogram("lat").observe(-0.1)

    def test_empty_summary_raises_no_samples(self):
        histogram = Histogram("lat")
        with pytest.raises(NoSamplesError):
            histogram.summary()
        with pytest.raises(NoSamplesError):
            histogram.quantile(0.5)
        with pytest.raises(NoSamplesError):
            histogram.stddev()

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(MetricsError):
            Histogram("lat", buckets=())

    def test_bucket_rows_include_overflow(self):
        histogram = Histogram("bytes", buckets=(10, 100))
        histogram.observe(5)
        histogram.observe(1_000_000)
        rows = histogram.bucket_rows()
        assert rows[0] == (10, 1)
        assert rows[-1][0] == math.inf
        assert rows[-1][1] == 1


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").incr(7)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.004)
        registry.histogram("empty")
        snap = registry.snapshot()
        assert snap["counters"] == [
            {"name": "c", "tags": {"kind": "x"}, "value": 7}]
        assert snap["gauges"] == [{"name": "g", "tags": {}, "value": 1.5}]
        by_name = {record["name"]: record for record in snap["histograms"]}
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["p99"] == pytest.approx(0.004)
        # The +Inf bucket serializes as the string "inf" (JSON has no Inf).
        assert by_name["h"]["buckets"][-1]["le"] == "inf"
        # A histogram with no observations exports its count but no summary.
        assert by_name["empty"]["count"] == 0
        assert "buckets" not in by_name["empty"]
