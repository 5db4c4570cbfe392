"""Continuous telemetry: per-host time series and SLO watchdogs.

Everything the ``[obs]`` name space serves (PR 3) is a point-in-time
snapshot.  This module adds the *time* dimension: a domain-wide
:class:`TelemetryCollector` samples every host's kernel counters at a fixed
interval on the **simulated** clock into bounded ring-buffer time series,
and an SLO watchdog engine evaluates declarative rules
(:class:`SloRule` -- ``threshold``, ``rate_of_change``, ``invariant``) at
each sample tick, emitting typed :class:`AlertEvent` records (fire/resolve,
severity, offending host and metric) into a bounded :class:`AlertLog`.

Cost model, the V way (same split as the stat server):

- *capturing* a sample is plain memory reads inside an engine callback --
  zero simulated cost, no rng draws, so enabling telemetry never perturbs
  the simulated behaviour of the workload it watches;
- *reading* the series back happens through ``[obs]/hosts/<h>/timeseries/
  <metric>`` and ``[obs]/fleet/alerts`` -- ordinary, fully-charged traffic.

Transaction latencies arrive through the kernel event tap
(:mod:`repro.kernel.tap`), which telemetry disabled does not subscribe
to; E15 pins the armed hook at under 2% wall-clock overhead.

The sample tick is a self-rescheduling engine event.  So that ``run()``
(which drains the queue) still terminates, the tick *parks* itself when it
finds the rest of the event queue empty -- the simulation has quiesced and
there is nothing left to watch.  :meth:`TelemetryCollector.start` re-arms a
parked collector.

Sampled series, one ring buffer per (host, metric) and a ``fleet``
aggregate of each:

==============================  =========================================
``resolutions``                 completed IPC transactions this tick (delta)
``cache_hits``                  client name-cache hits this tick (delta)
``cache_misses``                client name-cache misses this tick (delta)
``retransmits``                 request retransmissions this tick (delta)
``drops``                       frames lost to injected faults (delta)
``queue_depth``                 queued deliveries + outstanding sends
``p99_ms``                      p99 transaction latency this tick (ms)
``coherence.invalidation_lag``  worst INVALIDATE/SYNC propagation lag
                                applied this tick (ms; probe-fed)
``coherence.staleness_at_hit``  oldest cached binding served this tick
                                (ms since install; probe-fed)
``coherence.lease_churn``       lease grants + refreshes + refusals this
                                tick (probe-fed)
``coherence.negcache_hits``     negative-cache hits this tick (probe-fed)
``coherence.shard_hotness``     shard lookups served by this host's
                                replica this tick (probe-fed)
==============================  =========================================

The five ``coherence.*`` series are fed by the :class:`CoherenceProbe`
(:mod:`repro.obs.audit`) rather than kernel counters: the shard layer calls
the probe's bookkeeping hooks (pure memory writes, no events, no rng) and
the collector drains the probe's per-host tick buckets here.  With no probe
armed the keys are simply absent from each sample, so nothing downstream
changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from operator import add, attrgetter, gt, is_not, itemgetter, lt, sub
from typing import TYPE_CHECKING, Callable, Optional

from repro.kernel.tap import COMPLETE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.domain import Domain
    from repro.kernel.host import Host

#: Metric names every host's ``timeseries/`` context serves, in order.
#: The ``coherence.*`` series sample only while a coherence probe is armed
#: (:func:`repro.obs.audit.enable_coherence`); without one the names exist
#: uniformly but their rings stay empty, like every other disabled leaf.
SERIES_METRICS: tuple[str, ...] = (
    "resolutions", "cache_hits", "cache_misses", "retransmits", "drops",
    "queue_depth", "p99_ms",
    "coherence.invalidation_lag", "coherence.staleness_at_hit",
    "coherence.lease_churn", "coherence.negcache_hits",
    "coherence.shard_hotness",
)

#: Metrics whose fleet aggregate is the per-host *max*, not the sum -- a
#: latency-like quantity summed across hosts means nothing.  Everything
#: else aggregates by sum.
FLEET_MAX_METRICS = frozenset({
    "p99_ms", "coherence.invalidation_lag", "coherence.staleness_at_hit",
})

#: Pseudo-host key for domain-wide aggregate series (fleet-scope rules).
FLEET = "fleet"

#: Default sampling interval, simulated seconds.
DEFAULT_INTERVAL = 0.05

#: Default ring capacity per series (samples kept per (host, metric)).
DEFAULT_CAPACITY = 512

#: Cap on latencies buffered between ticks for the p99 window -- guards
#: memory when the collector is enabled with an interval longer than the
#: run (the E15 hook-cost measurement does exactly that).
LATENCY_WINDOW_MAX = 4096

#: Alert events kept (fire + resolve records; oldest dropped first).
ALERT_LOG_CAPACITY = 1024


class TimeSeries:
    """A bounded (time, value) ring buffer for one host's one metric.

    The ring holds ``(time, row)`` pairs and the series is one column of
    the rows, where it is not None: a host's dense series share one ring,
    so a tick stores the host's whole row with one append.
    """

    __slots__ = ("host", "metric", "_ring", "_column")

    def __init__(self, host: str, metric: str,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.host = host
        self.metric = metric
        self._ring: deque = deque(maxlen=capacity)
        self._column = 0

    def record(self, t: float, value: float) -> None:
        """Append one sample (a series with a ring of its own only)."""
        self._ring.append((t, (value,)))

    def __len__(self) -> int:
        return len(self.samples())

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def samples(self) -> list[tuple[float, float]]:
        column = self._column
        return [(t, float(row[column])) for t, row in self._ring
                if row[column] is not None]

    def values(self) -> list[float]:
        return [value for __, value in self.samples()]

    def last(self) -> Optional[float]:
        samples = self.samples()
        return samples[-1][1] if samples else None

    def to_records(self) -> list[dict]:
        """Export-shaped sample records (``kind`` discriminator)."""
        return [{"kind": "sample", "t": t, "value": value}
                for t, value in self.samples()]


# ------------------------------------------------------------------ rules


@dataclass
class SloRule:
    """One declarative service-level objective, checked every tick.

    ``kind`` selects the evaluation:

    - ``threshold`` -- breach while ``value <op> limit``;
    - ``rate_of_change`` -- breach while ``|value - previous| > limit``
      (first sample never breaches: there is no previous);
    - ``invariant`` -- ``predicate(value)`` must hold (or, with no
      predicate, ``value <op> limit`` must *not*); fires immediately and
      defaults to ``critical`` -- an invariant has no grace period.

    ``for_ticks`` consecutive breaching samples fire the alert;
    ``clear_ticks`` consecutive healthy samples resolve it (hysteresis, so
    a metric oscillating around its limit does not flap).  A tick with no
    sample for the metric (e.g. ``p99_ms`` on an idle host) counts as
    healthy.
    """

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"                       # ">" or "<"
    limit: float = 0.0
    severity: str = "warning"           # "warning" | "critical"
    for_ticks: int = 1
    clear_ticks: int = 2
    scope: str = "host"                 # "host" | "fleet"
    predicate: Optional[Callable[[float], bool]] = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "rate_of_change", "invariant"):
            raise ValueError(f"unknown SLO rule kind {self.kind!r}")
        if self.op not in (">", "<"):
            raise ValueError(f"unknown SLO comparison {self.op!r}")
        if self.kind == "invariant" and self.severity == "warning":
            self.severity = "critical"

    def _compare(self, value: float) -> bool:
        return value > self.limit if self.op == ">" else value < self.limit

    def breaches(self, value: float, previous: Optional[float]) -> bool:
        """Does this sample breach the objective?  (Pure.)"""
        if self.kind == "threshold":
            return self._compare(value)
        if self.kind == "rate_of_change":
            if previous is None:
                return False
            return abs(value - previous) > self.limit
        if self.predicate is not None:
            return not self.predicate(value)
        return self._compare(value)

    def comparator(self) -> Optional[Callable[[float], bool]]:
        """:meth:`breaches` as one C call; None if it needs more than the
        sample (the previous one, or a predicate)."""
        if self.kind == "rate_of_change" or self.predicate is not None:
            return None
        return partial(lt if self.op == ">" else gt, self.limit)


def default_watchdogs() -> list[SloRule]:
    """The stock rule set the chaos harness and monitor arm.

    Limits are per-tick deltas (so they scale with the sampling interval);
    the retransmit rule is the one the E14 acceptance gate watches: any
    sustained retransmission activity fires it, and a clean wire resolves
    it.
    """
    return [
        SloRule("retransmit-rate", "retransmits", kind="threshold",
                op=">", limit=0.5, severity="warning",
                for_ticks=2, clear_ticks=3),
        SloRule("drop-spike", "drops", kind="rate_of_change",
                limit=5.0, severity="warning", clear_ticks=3),
        SloRule("resolution-p99", "p99_ms", kind="threshold",
                op=">", limit=250.0, severity="critical",
                for_ticks=2, clear_ticks=3),
        SloRule("queue-backlog", "queue_depth", kind="invariant",
                op=">", limit=256.0),
    ]


def coherence_watchdogs() -> list[SloRule]:
    """SLO rules over the probe-fed ``coherence.*`` series.

    Kept separate from :func:`default_watchdogs` so existing harnesses keep
    their exact rule set; arm with ``default_watchdogs() +
    coherence_watchdogs()`` when a coherence probe is live.  Fleet scope for
    the latency-like series (their fleet aggregate is the per-host max, so
    one rule covers the worst host); host scope for lease churn, which is a
    per-replica symptom.
    """
    return [
        SloRule("invalidation-propagation-p99", "coherence.invalidation_lag",
                kind="threshold", op=">", limit=250.0, severity="critical",
                for_ticks=2, clear_ticks=3, scope="fleet"),
        SloRule("staleness-at-hit", "coherence.staleness_at_hit",
                kind="threshold", op=">", limit=5000.0, severity="warning",
                for_ticks=2, clear_ticks=3, scope="fleet"),
        SloRule("lease-churn-spike", "coherence.lease_churn",
                kind="rate_of_change", limit=50.0, severity="warning",
                clear_ticks=3),
    ]


# ------------------------------------------------------------------ alerts


@dataclass(frozen=True)
class AlertEvent:
    """One typed alert transition: a rule fired or resolved."""

    t: float
    event: str          # "fire" | "resolve"
    rule: str
    kind: str
    severity: str
    host: str
    metric: str
    value: float
    limit: float

    def to_record(self) -> dict:
        return {"kind": "alert", "t": self.t, "event": self.event,
                "rule": self.rule, "rule_kind": self.kind,
                "severity": self.severity, "host": self.host,
                "metric": self.metric, "value": self.value,
                "limit": self.limit}

    def describe(self) -> str:
        head = (f"[t={self.t:8.3f}] {self.event.upper():7s} "
                f"{self.severity:8s} {self.rule} host={self.host}")
        if self.event == "fire":
            return f"{head} {self.metric}={self.value:g} limit={self.limit:g}"
        return head


class AlertLog:
    """Bounded alert history plus the currently-active set."""

    def __init__(self, capacity: int = ALERT_LOG_CAPACITY) -> None:
        self._events: deque[AlertEvent] = deque(maxlen=capacity)
        #: (rule, host) -> the firing event, while active.
        self.active: dict[tuple[str, str], AlertEvent] = {}
        self.fired = 0
        self.resolved = 0
        self._subscribers: list[Callable[[AlertEvent], None]] = []

    def subscribe(self, callback: Callable[[AlertEvent], None]) -> None:
        """Call ``callback(event)`` on every future fire/resolve."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def emit(self, event: AlertEvent) -> None:
        self._events.append(event)
        key = (event.rule, event.host)
        if event.event == "fire":
            self.fired += 1
            self.active[key] = event
        else:
            self.resolved += 1
            self.active.pop(key, None)
        for callback in list(self._subscribers):
            callback(event)

    def events(self) -> list[AlertEvent]:
        return list(self._events)

    def to_records(self) -> list[dict]:
        return [event.to_record() for event in self._events]


# --------------------------------------------------------------- collector


class _RuleState:
    """Watchdog bookkeeping for one (rule, host) pair."""

    __slots__ = ("breaching", "healthy", "active", "previous")

    def __init__(self) -> None:
        self.breaching = 0
        self.healthy = 0
        self.active = False
        self.previous: Optional[float] = None


#: Index of each sampled metric in a sample row; a row carries one extra
#: trailing slot, always None, that rules over unsampled metrics read.
_INDEX = {metric: index for index, metric in enumerate(SERIES_METRICS)}
_ABSENT = len(SERIES_METRICS)
_ROW = range(_ABSENT)
#: Row indexes the fleet aggregate sums (the coherence ones read only
#: while a probe is armed, and then on every live host) and maximizes.
_SUMS = tuple(index for index in _ROW
              if SERIES_METRICS[index] not in FLEET_MAX_METRICS)
_SUMS_BARE = tuple(index for index in _SUMS
                   if not SERIES_METRICS[index].startswith("coherence."))
_MAXES = tuple(index for index in _ROW
               if SERIES_METRICS[index] in FLEET_MAX_METRICS)
#: The one sparse metric (read only on a tick with completed transactions).
_P99 = _INDEX["p99_ms"]
#: The counter readings a host row starts with, as per-tick deltas.
_DELTAS = 5
_msg_queue = attrgetter("msg_queue")
_NONE = repeat(None)
_ZERO = repeat(0.0)


class _Sampler:
    """One subject's sampler state, built once: its dense series' ring, the
    row indexes with an open series, the p99 series, the previous counter
    readings, the drop counter's name and the watchdog rule tuples."""

    __slots__ = ("host", "name", "drops", "previous", "ring", "columns",
                 "p99", "rules")

    def __init__(self, host: Optional["Host"], name: str, capacity: int,
                 rules: list) -> None:
        self.host = host
        self.name = name
        self.drops = (f"net.drops_from.{host.host_id}"
                      if host is not None else None)
        self.previous = (0.0,) * _DELTAS
        self.ring: deque = deque(maxlen=capacity)
        self.columns: set[int] = set()
        self.p99: Optional[TimeSeries] = None
        self.rules = rules


class TelemetryCollector:
    """Samples every host into time series and runs the watchdogs.

    Created via :meth:`repro.kernel.domain.Domain.enable_telemetry`; the
    stat server serves its series and alert log through ``[obs]``.
    """

    #: The one kernel-tap kind it hears.
    KINDS = frozenset({COMPLETE})

    def __init__(self, domain: "Domain", interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY,
                 rules: Optional[list[SloRule]] = None) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.domain = domain
        self.interval = interval
        self.capacity = capacity
        #: Fixed at construction: each subject's rule triples are built
        #: from it once.
        self.rules: list[SloRule] = list(rules or [])
        self.alerts = AlertLog()
        self.series: dict[tuple[str, str], TimeSeries] = {}
        self.ticks = 0
        #: host_id -> transaction latencies (s) since the last tick.
        self._lat_windows: dict[int, list[float]] = {}
        self._states: dict[tuple[str, str], _RuleState] = {}
        #: host name -> tick time at which the collector first found it
        #: down (an open sampling gap, closed at the first healthy tick).
        self._open_gaps: dict[str, float] = {}
        #: host name -> closed (start, end) sampling gaps, in time order.
        self._gaps: dict[str, list[tuple[float, float]]] = {}
        #: host_id -> its sampler, and the samplers in host_id order (None
        #: when a host was created since the last tick sorted them).
        self._samplers: dict[int, _Sampler] = {}
        self._order: Optional[list[_Sampler]] = None
        for host in domain.hosts.values():
            self._host_created(host)
        self._fleet = _Sampler(None, FLEET, capacity,
                               self._rule_triples(FLEET))
        domain.on_host_created(self._host_created)
        self._event = None
        self.parked = False

    def _rule_triples(self, subject: str) -> list:
        """``(rule, state, row index, comparator)`` per rule of ``subject``'s
        scope; the state is shared by every subject of one name."""
        fleet = subject == FLEET
        return [(rule,
                 self._states.setdefault((rule.name, subject), _RuleState()),
                 _INDEX.get(rule.metric, _ABSENT), rule.comparator())
                for rule in self.rules if (rule.scope == "fleet") == fleet]

    # ------------------------------------------------------------- control

    def start(self) -> None:
        """Arm (or re-arm, after parking) the sample tick."""
        if self._event is None:
            self.parked = False
            self._event = self.domain.engine.schedule(self.interval,
                                                      self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _host_created(self, host: "Host") -> None:
        self._samplers[host.host_id] = _Sampler(
            host, host.name, self.capacity, self._rule_triples(host.name))
        self._order = None

    # ------------------------------------------------------- kernel hooks

    def on_event(self, kind, host: "Host", a, b=None, c=None) -> None:
        """Tap subscriber (``COMPLETE``): a reply reaching its waiting sender
        adds ``now - sent_at`` to the host's latency window (bounded, so a
        huge interval -- E15's hook-cost run -- cannot grow it unboundedly)."""
        if c is None:
            return
        window = self._lat_windows.get(host.host_id)
        if window is None:
            window = self._lat_windows[host.host_id] = []
        if len(window) < LATENCY_WINDOW_MAX:
            window.append(host.engine._now - a.sent_at)

    # ------------------------------------------------------------ sampling

    def series_for(self, host: str, metric: str) -> Optional[TimeSeries]:
        return self.series.get((host, metric))

    def gaps_for(self, host: str) -> list[dict]:
        """Sampling gaps for ``host``: closed ones plus any still open.

        Each gap is ``{"start": t, "end": t-or-None}`` in tick time; ``end``
        is None while the host is still down (no healthy tick yet).  Gaps
        are a property of the *host* (sampling stopped wholesale), so every
        one of its series carries the same list.
        """
        gaps = [{"start": start, "end": end}
                for start, end in self._gaps.get(host, ())]
        open_start = self._open_gaps.get(host)
        if open_start is not None:
            gaps.append({"start": open_start, "end": None})
        return gaps

    def hosts_sampled(self) -> list[str]:
        return sorted({host for host, __ in self.series if host != FLEET})

    @staticmethod
    def _p99_ms(window: list[float]) -> float:
        ordered = sorted(window)
        index = max(0, int(0.99 * len(ordered)) - (len(ordered) >= 100))
        index = min(index, len(ordered) - 1)
        return ordered[index] * 1000.0

    def _row(self, sampler: _Sampler) -> list:
        """One host's sample row in SERIES_METRICS order (None: no reading)
        plus the absent slot.  Counters become per-tick deltas; one reset by
        a restart clamps to its new reading rather than going negative."""
        domain = self.domain
        host = sampler.host
        counters = host.counters
        cache = domain.name_caches.get(host.host_id)
        stats = cache.stats if cache is not None else None
        readings = (counters.get("ipc.transactions", 0),
                    stats.hits if stats is not None else 0,
                    stats.misses if stats is not None else 0,
                    counters.get("ipc.retransmits", 0),
                    domain.metrics.count(sampler.drops))
        row = list(map(sub, readings, sampler.previous))
        if min(row) < 0:
            row = [current - previous if current >= previous else current
                   for current, previous in zip(readings, sampler.previous)]
        sampler.previous = readings
        row.append(float(
            sum(map(len, map(_msg_queue, host.processes.values())))
            + len(host._outstanding)))
        window = self._lat_windows.pop(host.host_id, None)
        row.append(self._p99_ms(window) if window else None)
        probe = domain.coherence
        if probe is not None:
            row += probe.drain_tick(host.name).values()
        else:
            row += (None,) * (_ABSENT - len(row))
        row.append(None)
        return row

    def _record(self, sampler: _Sampler, row: list, present: list,
                t: float) -> None:
        """Store ``row``, with readings at the indexes ``present`` (in
        series-opening order), in ``sampler``'s series: one append to the
        shared ring, and one to the p99 ring when it has a reading."""
        if not sampler.columns.issuperset(present):
            for index in present:
                if index not in sampler.columns:
                    sampler.columns.add(index)
                    key = (sampler.name, SERIES_METRICS[index])
                    series = self.series[key] = TimeSeries(*key,
                                                           self.capacity)
                    if index == _P99:
                        sampler.p99 = series
                    else:       # a column of the host's shared ring
                        series._ring, series._column = sampler.ring, index
        if present:
            sampler.ring.append((t, row))
        if row[_P99] is not None:
            sampler.p99.record(t, row[_P99])

    def _tick(self) -> None:
        t = self.domain.engine.now
        order = self._order
        if order is None:
            order = self._order = [self._samplers[host_id]
                                   for host_id in sorted(self._samplers)]
        sums_at = (_SUMS if self.domain.coherence is not None
                   else _SUMS_BARE)
        pick = itemgetter(*sums_at)
        sums = None
        maxima: dict[int, float] = {}      # in first-reading order
        for sampler in order:
            name = sampler.name
            if sampler.host.crashed:
                # A down machine produces no samples.  The silence alone is
                # ambiguous to a reader of the ring buffer (idle vs dead),
                # so the gap is tracked explicitly: opened at the first tick
                # that finds the host down, closed at the first healthy one,
                # and exported on every one of the host's series.
                if name not in self._open_gaps:
                    self._open_gaps[name] = t
                continue
            gap_start = self._open_gaps.pop(name, None)
            if gap_start is not None:
                self._gaps.setdefault(name, []).append((gap_start, t))
            row = self._row(sampler)
            self._record(sampler, row,
                         list(compress(_ROW, map(is_not, row, _NONE))), t)
            sums = list(map(add, _ZERO if sums is None else sums, pick(row)))
            for index in _MAXES:
                value = row[index]
                if value is not None and (index not in maxima
                                          or value > maxima[index]):
                    maxima[index] = value
            self._evaluate(sampler, row, t)
        fleet = [None] * (_ABSENT + 1)
        # Sums first, then maxima, each in first-reading order.
        indexes = [*(sums_at if sums is not None else ()), *maxima]
        for index, value in zip(indexes, [*(sums or ()),
                                          *maxima.values()]):
            fleet[index] = value
        self._record(self._fleet, fleet, indexes, t)
        self._evaluate(self._fleet, fleet, t)
        self.ticks += 1
        engine = self.domain.engine
        if engine.pending == 0:
            # Quiesced: nothing left to watch.  Parking (instead of
            # rescheduling forever) is what lets domain.run() drain.
            self._event = None
            self.parked = True
            return
        self._event = engine.schedule(self.interval, self._tick)

    # ----------------------------------------------------------- watchdogs

    def _evaluate(self, sampler: _Sampler, row: list, t: float) -> None:
        subject = sampler.name
        for rule, state, index, compare in sampler.rules:
            value = row[index]
            if value is None:
                breach = False          # no reading this tick = healthy
            else:
                breach = (compare(value) if compare is not None
                          else rule.breaches(value, state.previous))
                state.previous = value
            if breach:
                state.breaching += 1
                state.healthy = 0
                if not state.active and state.breaching >= rule.for_ticks:
                    state.active = True
                    self.alerts.emit(AlertEvent(
                        t=t, event="fire", rule=rule.name, kind=rule.kind,
                        severity=rule.severity, host=subject,
                        metric=rule.metric, value=float(value),
                        limit=rule.limit))
            elif state.active:
                # (The healthy streak only matters to an active alert.)
                state.healthy += 1
                state.breaching = 0
                if state.healthy >= rule.clear_ticks:
                    state.active = False
                    self.alerts.emit(AlertEvent(
                        t=t, event="resolve", rule=rule.name,
                        kind=rule.kind, severity=rule.severity,
                        host=subject, metric=rule.metric,
                        value=float(value) if value is not None else 0.0,
                        limit=rule.limit))
            else:
                state.breaching = 0

    # ---------------------------------------------------------- summaries

    def summary(self, host: str, metric: str) -> Optional[dict]:
        """min/mean/max/last over one series (None when never sampled)."""
        series = self.series.get((host, metric))
        if series is None or not len(series):
            return None
        values = series.values()
        return {"host": host, "metric": metric, "samples": len(values),
                "min": min(values), "mean": sum(values) / len(values),
                "max": max(values), "last": values[-1]}
