"""A tagged metrics registry: counters, gauges, and fixed-bucket histograms.

Histograms are *fixed-bucket*, so their memory cost is constant regardless
of traffic, and tags let one metric name carry many series
(``csname.latency{server=fileserver}`` vs ``{server=prefix}``).

A :class:`~repro.kernel.domain.Domain`'s ``metrics`` (and its Ethernet's)
*is* one :class:`MetricsRegistry` -- the :class:`~repro.obs.Observability`
bundle's when one is attached -- so every counter the kernel and Ethernet
increment with ``metrics.incr(name)`` lands here and exports uniformly as
JSONL (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple


class MetricsError(ValueError):
    """Base class for measurement-domain errors.

    Subclasses ``ValueError`` for backward compatibility with callers that
    guarded the old bare-ValueError behaviour.
    """


class NoSamplesError(MetricsError):
    """A summary was requested over an empty sample set.

    A distinct type so benches can distinguish "no samples yet" (often
    benign: skip the table row) from genuinely bad input.
    """


#: Default histogram boundaries for latencies in seconds: 50 us .. 10 s.
#: Chosen so the paper's interesting range (0.77 ms .. ~8 ms Opens) spans
#: many buckets and a saturated workload still lands inside the table.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3, 5e-3, 7.5e-3,
    10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 5.0, 10.0,
)

#: Default boundaries for byte-sized observations (frames, segments).
DEFAULT_BYTES_BUCKETS: Tuple[float, ...] = (
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536,
)

TagKey = Tuple[Tuple[str, str], ...]


def _tag_key(tags: Dict[str, Any]) -> TagKey:
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    tags: TagKey = ()
    value: int = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (queue depth, servers running, ...)."""

    name: str
    tags: TagKey = ()
    value: float = 0.0
    _set_once: bool = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._set_once = True

    def add(self, delta: float = 1.0) -> None:
        self.value += delta
        self._set_once = True


@dataclass
class HistogramSummary:
    """Summary of a histogram: exact moments, bucket-estimated percentiles."""

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    stddev: float


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max moments.

    ``buckets`` are upper bounds; an implicit +Inf bucket catches overflow.
    Percentiles interpolate linearly within the winning bucket (clamped to
    the observed min/max), so memory stays O(buckets) no matter how many
    samples arrive -- the property raw-sample recorders lack.
    """

    def __init__(self, name: str, buckets: Iterable[float] | None = None,
                 tags: TagKey = ()) -> None:
        self.name = name
        self.tags = tags
        bounds = (DEFAULT_LATENCY_BUCKETS if buckets is None
                  else tuple(sorted(buckets)))
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        self.bounds: Tuple[float, ...] = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise MetricsError(
                f"negative observation for histogram {self.name!r}: {value}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    # ------------------------------------------------------------- summaries

    def quantile(self, fraction: float) -> float:
        """Bucket-interpolated quantile, clamped to observed min/max."""
        if self.count == 0:
            raise NoSamplesError(f"no observations in histogram {self.name!r}")
        target = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.maximum)
                if bucket_count == 0:
                    estimate = upper
                else:
                    inside = (target - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * inside
                return max(self.minimum, min(self.maximum, estimate))
            cumulative += bucket_count
        return self.maximum

    def stddev(self) -> float:
        if self.count == 0:
            raise NoSamplesError(f"no observations in histogram {self.name!r}")
        mean = self.total / self.count
        variance = max(0.0, self.sum_sq / self.count - mean * mean)
        return math.sqrt(variance)

    def summary(self) -> HistogramSummary:
        if self.count == 0:
            raise NoSamplesError(f"no observations in histogram {self.name!r}")
        return HistogramSummary(
            count=self.count,
            total=self.total,
            mean=self.total / self.count,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
            stddev=self.stddev(),
        )

    def bucket_rows(self) -> list[tuple[float, int]]:
        """(upper-bound, count) pairs including the +Inf bucket."""
        rows = [(bound, count)
                for bound, count in zip(self.bounds, self.counts)]
        rows.append((math.inf, self.counts[-1]))
        return rows


class MetricsRegistry:
    """The shared home of every metric a simulation produces.

    Instruments are created on first use and cached by ``(name, tags)``, so
    hot paths pay one dict lookup.  ``snapshot()`` is the export shape used
    by :func:`repro.obs.export.write_metrics_jsonl`.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, TagKey], Counter] = {}
        self._gauges: Dict[Tuple[str, TagKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, TagKey], Histogram] = {}
        #: Untagged counters interned by bare name: incr() runs once per
        #: kernel packet/frame, and counter()'s tag-key construction was a
        #: measurable slice of fleet-scale runs.  The objects are the ones
        #: counter(name) serves, so every view stays exactly in sync.
        self._untagged: Dict[str, Counter] = {}

    # ----------------------------------------------------------- instruments

    def counter(self, name: str, **tags: Any) -> Counter:
        key = (name, _tag_key(tags) if tags else ())
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, key[1])
            self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **tags: Any) -> Gauge:
        key = (name, _tag_key(tags))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1])
            self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  **tags: Any) -> Histogram:
        key = (name, _tag_key(tags))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(name, buckets=buckets, tags=key[1])
            self._histograms[key] = instrument
        return instrument

    def incr(self, name: str, amount: int = 1) -> None:
        """Add to the untagged counter ``name`` (``counter(name)``'s object)."""
        counter = self._untagged.get(name)
        if counter is None:
            counter = self._untagged[name] = self.counter(name)
        counter.value += amount

    # -------------------------------------------------------------- queries

    def count(self, name: str) -> int:
        """The untagged counter ``name``'s value; 0 if it never counted."""
        return self.counter_value(name)

    def counter_value(self, name: str, **tags: Any) -> int:
        instrument = self._counters.get((name, _tag_key(tags)))
        return instrument.value if instrument is not None else 0

    def counter_values(self, untagged_only: bool = True) -> dict[str, int]:
        """Plain name -> value mapping."""
        result: dict[str, int] = {}
        for (name, tags), instrument in self._counters.items():
            if untagged_only and tags:
                continue
            result[name] = result.get(name, 0) + instrument.value
        return result

    def counters(self) -> list[Counter]:
        return list(self._counters.values())

    def gauges(self) -> list[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> list[Histogram]:
        return list(self._histograms.values())

    # --------------------------------------------------------------- export

    def snapshot(self, prefix: str | None = None) -> dict:
        """A JSON-ready view of every instrument.

        With ``prefix`` set, only instruments whose name starts with it are
        included (the [obs] stat server uses this to serve focused files
        like the name-cache scoreboard without copying the whole registry).
        """
        def wanted(name: str) -> bool:
            return prefix is None or name.startswith(prefix)

        counters = [
            {"name": c.name, "tags": dict(c.tags), "value": c.value}
            for c in self._counters.values() if wanted(c.name)
        ]
        gauges = [
            {"name": g.name, "tags": dict(g.tags), "value": g.value}
            for g in self._gauges.values() if wanted(g.name)
        ]
        histograms = []
        for histogram in self._histograms.values():
            if not wanted(histogram.name):
                continue
            record: dict[str, Any] = {
                "name": histogram.name,
                "tags": dict(histogram.tags),
                "count": histogram.count,
            }
            if histogram.count:
                summary = histogram.summary()
                record.update(
                    sum=summary.total, mean=summary.mean,
                    min=summary.minimum, max=summary.maximum,
                    p50=summary.p50, p95=summary.p95, p99=summary.p99,
                    stddev=summary.stddev,
                )
                record["buckets"] = [
                    {"le": bound if math.isfinite(bound) else "inf",
                     "count": count}
                    for bound, count in histogram.bucket_rows()
                ]
            histograms.append(record)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
