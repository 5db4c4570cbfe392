"""The shared-bus Ethernet model.

Transmissions serialize on the bus: a frame occupies the wire for its
transmission time (from the :class:`~repro.net.latency.LatencyModel`), and a
frame offered while the bus is busy waits its turn.  Collisions are not
modelled -- the paper's measurements are uncontended -- but serialization
means saturating workloads (E2, E11) see correct queueing behaviour.

Delivery is by callback per attached host.  Broadcast reaches every attached
host; multicast reaches exactly the members of the destination group.  The
distinction matters for E10: broadcast name lookup interrupts every host on
the wire, multicast only the interested ones.

Fault injection hooks: links can be taken down per host, drop predicates
(any number, each added and removed on its own) support network
partitions, and a seeded
:class:`~repro.net.latency.WireFaultModel` injects probabilistic per-frame
drop/duplicate/delay faults (``set_fault_model``) -- the substrate the
kernel's retransmission protocol and the E14 loss sweep are measured
against.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.latency import LatencyModel, WireFaultModel
from repro.net.packet import Frame, GroupAddress, _Broadcast
from repro.obs.registry import DEFAULT_BYTES_BUCKETS, MetricsRegistry
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

DeliverFn = Callable[[Frame], None]
DropFn = Callable[[Frame, int], bool]


class NetworkError(RuntimeError):
    """Raised on misconfiguration (duplicate attach, unknown host, ...)."""


class Ethernet:
    """A single shared segment connecting all hosts in a V domain."""

    def __init__(
        self,
        engine: Engine,
        latency: LatencyModel,
        metrics: MetricsRegistry | None = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.engine = engine
        self.latency = latency
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = obs
        self._interfaces: dict[int, DeliverFn] = {}
        #: host -> deliver callback, for hosts that are attached AND whose
        #: link is up.  Maintained by attach/detach/set_link so the per-frame
        #: path answers "can this host receive right now" with one dict get.
        self._live_iface: dict[int, DeliverFn] = {}
        self._groups: dict[int, set[int]] = {}
        self._busy_until = 0.0
        #: Drop rules (partitions); empty on the per-frame fast path.
        self._drop_predicates: list[DropFn] = []
        self._faults: Optional[WireFaultModel] = None
        self._fault_rng: Optional[random.Random] = None
        #: Pre-resolved "net.delivered_to.<host>" counters (hot path).
        self._delivered_counters: dict = {}
        #: Pre-resolved registry counters: transmit/deliver run per frame,
        #: and even the cached-by-name incr() is measurable there.  These
        #: are the registry's own Counter objects, so every other view
        #: (count(), telemetry, [obs]) sees the same numbers.
        registry = self.metrics
        self._c_frames = registry.counter("net.frames")
        self._c_bytes = registry.counter("net.bytes")
        self._c_broadcast = registry.counter("net.broadcast_frames")
        self._c_multicast = registry.counter("net.multicast_frames")
        #: Bound once: transmit() computes one wire time per frame, and
        #: posts one delivery callback -- pre-binding skips the per-frame
        #: bound-method allocation.
        self._wire_time = latency.wire_time
        self._deliver = self._deliver
        self._deliver_one = self._deliver_one
        #: Memoized wire times keyed by payload size.  Traffic concentrates
        #: on a handful of distinct sizes (short messages plus a few segment
        #: lengths), so the cache turns a method call plus float arithmetic
        #: into one dict probe; values are exactly what wire_time returns.
        self._wire_time_cache: dict[int, float] = {}

    # ------------------------------------------------------------------ hosts

    def attach(self, host_id: int, deliver: DeliverFn) -> None:
        """Connect a host's receive callback to the segment."""
        if host_id in self._interfaces:
            raise NetworkError(f"host {host_id} already attached")
        self._interfaces[host_id] = deliver
        self._live_iface[host_id] = deliver

    def detach(self, host_id: int) -> None:
        """Remove a host entirely (e.g. permanent failure)."""
        self._interfaces.pop(host_id, None)
        self._live_iface.pop(host_id, None)
        for members in self._groups.values():
            members.discard(host_id)

    def attached_hosts(self) -> list[int]:
        return sorted(self._interfaces)

    def is_attached(self, host_id: int) -> bool:
        return host_id in self._interfaces

    def set_link(self, host_id: int, up: bool) -> None:
        """Take a host's link down/up without forgetting its attachment."""
        if host_id not in self._interfaces:
            raise NetworkError(f"host {host_id} is not attached")
        if up:
            self._live_iface[host_id] = self._interfaces[host_id]
        else:
            self._live_iface.pop(host_id, None)

    def add_drop_predicate(self, predicate: DropFn) -> DropFn:
        """Also drop each frame copy for which ``predicate(frame, dst_host)``
        (rules run in install order until one drops); returns ``predicate``.
        """
        self._drop_predicates.append(predicate)
        return predicate

    def remove_drop_predicate(self, predicate: DropFn) -> None:
        """Remove one rule :meth:`add_drop_predicate` installed."""
        self._drop_predicates.remove(predicate)

    def set_fault_model(self, faults: Optional[WireFaultModel],
                        rng: Optional[random.Random] = None) -> None:
        """Install (or clear, with None) probabilistic per-frame faults.

        ``rng`` must be a seeded stream (normally
        ``domain.rng.stream("net.faults")``) so runs stay deterministic; it
        is required whenever ``faults`` can actually fire.
        """
        if faults is not None and not faults.is_null and rng is None:
            raise NetworkError("a fault model with nonzero rates needs a "
                               "seeded rng stream")
        self._faults = faults
        if rng is not None:
            self._fault_rng = rng

    @property
    def fault_model(self) -> Optional[WireFaultModel]:
        return self._faults

    # ----------------------------------------------------------------- groups

    def join_group(self, host_id: int, group: GroupAddress) -> None:
        if host_id not in self._interfaces:
            raise NetworkError(f"host {host_id} is not attached")
        self._groups.setdefault(group.group_id, set()).add(host_id)

    def leave_group(self, host_id: int, group: GroupAddress) -> None:
        members = self._groups.get(group.group_id)
        if members is not None:
            members.discard(host_id)

    def group_members(self, group: GroupAddress) -> set[int]:
        return set(self._groups.get(group.group_id, set()))

    # ------------------------------------------------------------- transmit

    def transmit(self, frame: Frame) -> float:
        """Offer ``frame`` to the bus; returns its arrival time.

        The frame is delivered by callback at the arrival instant.  A frame
        from a host whose link is down is silently lost (the sender finds out
        the way real senders do: by timeout at a higher layer).
        """
        # Private-attribute read: engine.now is a property, and transmit
        # runs once per frame.
        now = self.engine._now
        busy = self._busy_until
        start = now if now >= busy else busy
        payload_bytes = frame.payload_bytes
        cache = self._wire_time_cache
        wire = cache.get(payload_bytes)
        if wire is None:
            wire = cache[payload_bytes] = self._wire_time(payload_bytes)
        arrival = start + wire
        self._busy_until = arrival

        self._c_frames.value += 1
        self._c_bytes.value += payload_bytes
        dst_type = type(frame.dst)
        if dst_type is not int:
            if dst_type is _Broadcast:
                self._c_broadcast.value += 1
            elif dst_type is GroupAddress:
                self._c_multicast.value += 1

        if self.obs is not None:
            self.obs.registry.histogram(
                "net.frame_bytes",
                buckets=DEFAULT_BYTES_BUCKETS).observe(frame.payload_bytes)
            message = getattr(frame.payload, "message", None)
            trace = getattr(message, "trace", None)
            if trace is not None:
                # Time on the wire for a traced message, including any wait
                # for the bus -- this is the "forwarding cost" leg of a
                # resolution's critical path.
                kind = getattr(frame.payload, "kind", None)
                self.obs.spans.emit(
                    "net.wire", start, arrival, parent=trace,
                    actor="ethernet",
                    kind=getattr(kind, "value", str(kind)),
                    bytes=frame.payload_bytes, src_host=frame.src_host,
                    dst=str(frame.dst), queued=start - now)

        if frame.src_host not in self._live_iface:
            self.metrics.incr("net.frames_lost")
            return arrival

        self.engine.post_at(arrival, self._deliver, frame)
        return arrival

    def _deliver(self, frame: Frame) -> None:
        faults = self._faults
        inject = faults is not None and not faults.is_null
        host_id = frame.dst
        if not inject and type(host_id) is int and not self._drop_predicates:
            # Unicast on a healthy wire: the overwhelmingly common case at
            # fleet scale -- skip the destination-list build entirely, with
            # _deliver_one's link/attachment check and count inlined.
            deliver = self._live_iface.get(host_id)
            if deliver is None:
                self.metrics.incr("net.frames_lost")
            else:
                counter = self._delivered_counters.get(host_id)
                if counter is None:
                    counter = self.metrics.counter(f"net.delivered_to.{host_id}")
                    self._delivered_counters[host_id] = counter
                counter.value += 1
                deliver(frame)
            return
        self._fan_out(frame, faults, inject)

    def _fan_out(self, frame: Frame, faults, inject: bool) -> None:
        for host_id in self._destinations(frame):
            if host_id not in self._live_iface:
                self.metrics.incr("net.frames_lost")
                continue
            drops = self._drop_predicates
            if drops and any(drop(frame, host_id) for drop in drops):
                self.metrics.incr("net.frames_dropped")
                continue
            if not inject:
                self._deliver_one(frame, host_id)
                continue
            # Probabilistic faults, one independent draw set per
            # destination.  Destinations iterate in sorted order and the rng
            # stream is seeded, so the loss pattern is a pure function of
            # the seed and the traffic -- runs stay reproducible.
            rng = self._fault_rng
            if rng.random() < faults.drop_rate:
                self.metrics.incr("net.drops")
                # Attributed to the *sender* (its frame was lost), keyed by
                # host id like net.delivered_to -- the telemetry collector
                # samples this into each host's "drops" series.
                self.metrics.incr(f"net.drops_from.{frame.src_host}")
                continue
            self._deliver_faulted(frame, host_id, faults, rng)
            if rng.random() < faults.dup_rate:
                self.metrics.incr("net.dups")
                self._deliver_faulted(frame, host_id, faults, rng)

    def _deliver_faulted(self, frame: Frame, host_id: int,
                         faults: WireFaultModel, rng: random.Random) -> None:
        """Deliver one (possibly duplicated) copy, maybe with extra delay."""
        if faults.delay_rate > 0.0 and rng.random() < faults.delay_rate:
            extra = rng.uniform(faults.delay_min, faults.delay_max)
            self.metrics.incr("net.delayed_frames")
            if self.obs is not None:
                self.obs.registry.histogram(
                    "net.injected_delay_seconds").observe(extra)
            self.engine.post(extra, self._deliver_one, frame, host_id)
        else:
            self._deliver_one(frame, host_id)

    def _deliver_one(self, frame: Frame, host_id: int) -> None:
        """Hand one frame copy to one destination host, if still possible."""
        deliver = self._live_iface.get(host_id)
        if deliver is None:
            # Detached, or attached with the link down: lost either way.
            self.metrics.incr("net.frames_lost")
            return
        counter = self._delivered_counters.get(host_id)
        if counter is None:
            counter = self.metrics.counter(f"net.delivered_to.{host_id}")
            self._delivered_counters[host_id] = counter
        counter.value += 1
        deliver(frame)

    def _destinations(self, frame: Frame) -> list[int]:
        if frame.is_broadcast:
            return [h for h in sorted(self._interfaces) if h != frame.src_host]
        if frame.is_multicast:
            assert isinstance(frame.dst, GroupAddress)
            members = self._groups.get(frame.dst.group_id, set())
            return [h for h in sorted(members) if h != frame.src_host]
        assert isinstance(frame.dst, int)
        return [frame.dst]
