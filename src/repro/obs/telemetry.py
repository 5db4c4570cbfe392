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
    """A bounded (time, value) ring buffer for one host's one metric."""

    __slots__ = ("host", "metric", "_samples")

    def __init__(self, host: str, metric: str,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.host = host
        self.metric = metric
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def record(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def capacity(self) -> int:
        return self._samples.maxlen or 0

    def samples(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def values(self) -> list[float]:
        return [value for __, value in self._samples]

    def last(self) -> Optional[float]:
        return self._samples[-1][1] if self._samples else None

    def to_records(self) -> list[dict]:
        """Export-shaped sample records (``kind`` discriminator)."""
        return [{"kind": "sample", "t": t, "value": value}
                for t, value in self._samples]


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


class TelemetryCollector:
    """Samples every host into time series and runs the watchdogs.

    Created via :meth:`repro.kernel.domain.Domain.enable_telemetry`; the
    stat server serves its series and alert log through ``[obs]``.
    """

    def __init__(self, domain: "Domain", interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY,
                 rules: Optional[list[SloRule]] = None) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.domain = domain
        self.interval = interval
        self.capacity = capacity
        #: Fixed at construction: the per-subject evaluation lists below
        #: are split from it once.
        self.rules: list[SloRule] = list(rules or [])
        self._fleet_rules = [rule for rule in self.rules
                             if rule.scope == "fleet"]
        self._host_rules = [rule for rule in self.rules
                            if rule.scope != "fleet"]
        self.alerts = AlertLog()
        self.series: dict[tuple[str, str], TimeSeries] = {}
        self.ticks = 0
        #: (host_id, source_key) -> last cumulative reading, for deltas.
        self._prev: dict[tuple[int, str], float] = {}
        #: host_id -> transaction latencies (s) since the last tick.
        self._lat_windows: dict[int, list[float]] = {}
        self._states: dict[tuple[str, str], _RuleState] = {}
        #: host name -> tick time at which the collector first found it
        #: down (an open sampling gap, closed at the first healthy tick).
        self._open_gaps: dict[str, float] = {}
        #: host name -> closed (start, end) sampling gaps, in time order.
        self._gaps: dict[str, list[tuple[float, float]]] = {}
        #: The domain's hosts in host_id order, or None when a host was
        #: created since the last tick sorted them.
        self._host_order: Optional[list["Host"]] = None
        domain.on_host_created(self._host_created)
        self._event = None
        self.parked = False

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
        self._host_order = None

    # ------------------------------------------------------- kernel hooks

    def on_event(self, kind, host: "Host", a, b=None, c=None) -> None:
        """Kernel-tap subscriber: a reply reaching its waiting sender adds
        ``now - sent_at`` to the host's latency window (bounded, so a huge
        interval -- E15's hook-cost run -- cannot grow it without limit)."""
        if kind != COMPLETE or c is None:
            return
        window = self._lat_windows.get(host.host_id)
        if window is None:
            window = self._lat_windows[host.host_id] = []
        if len(window) < LATENCY_WINDOW_MAX:
            window.append(host.engine.now - a.sent_at)

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

    def _record(self, host: str, metric: str, t: float,
                value: float) -> None:
        key = (host, metric)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = TimeSeries(host, metric,
                                                   self.capacity)
        series.record(t, float(value))

    def _delta(self, host_id: int, source: str, current: float) -> float:
        """Per-tick delta of a cumulative counter (restart-safe: a counter
        reset by a host restart clamps to zero rather than going negative).
        """
        key = (host_id, source)
        previous = self._prev.get(key, 0.0)
        self._prev[key] = current
        return current - previous if current >= previous else current

    @staticmethod
    def _p99_ms(window: list[float]) -> float:
        ordered = sorted(window)
        index = max(0, int(0.99 * len(ordered)) - (len(ordered) >= 100))
        index = min(index, len(ordered) - 1)
        return ordered[index] * 1000.0

    def _sample_host(self, host: "Host", t: float) -> dict[str, float]:
        domain = self.domain
        counters = host.counters
        cache = domain.name_caches.get(host.host_id)
        sample: dict[str, float] = {
            "resolutions": self._delta(
                host.host_id, "ipc.transactions",
                counters.get("ipc.transactions", 0)),
            "cache_hits": self._delta(
                host.host_id, "cache.hits",
                cache.stats.hits if cache is not None else 0),
            "cache_misses": self._delta(
                host.host_id, "cache.misses",
                cache.stats.misses if cache is not None else 0),
            "retransmits": self._delta(
                host.host_id, "ipc.retransmits",
                counters.get("ipc.retransmits", 0)),
            "drops": self._delta(
                host.host_id, "net.drops",
                domain.metrics.count(f"net.drops_from.{host.host_id}")),
            "queue_depth": float(
                sum(len(proc.msg_queue) for proc in host.processes.values())
                + len(host._outstanding)),
        }
        window = self._lat_windows.pop(host.host_id, None)
        if window:
            sample["p99_ms"] = self._p99_ms(window)
        probe = getattr(domain, "coherence", None)
        if probe is not None:
            sample.update(probe.drain_tick(host.name))
        return sample

    def _tick(self) -> None:
        t = self.domain.engine.now
        fleet_totals: dict[str, float] = {}
        fleet_maxima: dict[str, float] = {}
        hosts = self._host_order
        if hosts is None:
            hosts = self._host_order = sorted(
                self.domain.hosts.values(), key=lambda h: h.host_id)
        for host in hosts:
            if host.crashed:
                # A down machine produces no samples.  The silence alone is
                # ambiguous to a reader of the ring buffer (idle vs dead),
                # so the gap is tracked explicitly: opened at the first tick
                # that finds the host down, closed at the first healthy one,
                # and exported on every one of the host's series.
                if host.name not in self._open_gaps:
                    self._open_gaps[host.name] = t
                continue
            gap_start = self._open_gaps.pop(host.name, None)
            if gap_start is not None:
                self._gaps.setdefault(host.name, []).append((gap_start, t))
            sample = self._sample_host(host, t)
            for metric, value in sample.items():
                self._record(host.name, metric, t, value)
                if metric in FLEET_MAX_METRICS:
                    fleet_maxima[metric] = max(
                        fleet_maxima.get(metric, value), value)
                else:
                    fleet_totals[metric] = fleet_totals.get(metric, 0.0) \
                        + value
            self._evaluate(host.name, sample)
        fleet_totals.update(fleet_maxima)
        for metric, value in fleet_totals.items():
            self._record(FLEET, metric, t, value)
        self._evaluate(FLEET, fleet_totals)
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

    def _evaluate(self, subject: str, sample: dict[str, float]) -> None:
        t = self.domain.engine.now
        rules = self._fleet_rules if subject == FLEET else self._host_rules
        for rule in rules:
            key = (rule.name, subject)
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _RuleState()
            value = sample.get(rule.metric)
            if value is None:
                breach = False          # no reading this tick = healthy
            else:
                breach = rule.breaches(value, state.previous)
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
            else:
                state.healthy += 1
                state.breaching = 0
                if state.active and state.healthy >= rule.clear_ticks:
                    state.active = False
                    self.alerts.emit(AlertEvent(
                        t=t, event="resolve", rule=rule.name,
                        kind=rule.kind, severity=rule.severity,
                        host=subject, metric=rule.metric,
                        value=float(value) if value is not None else 0.0,
                        limit=rule.limit))

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
