"""A V domain: hosts, the Ethernet, and the simulated clock (paper Sec. 4.1).

"A V domain is a set of logical hosts running the distributed V kernel,
usually machines connected by one local network, over which kernel operations
are transparent with respect to machine boundaries.  A V domain is basically
one V-System installation."

:class:`Domain` is the top-level simulation object benchmarks and examples
build: it owns the engine, metrics, RNG, the Ethernet, the group registry,
and the hosts.  Convenience helpers create hosts and run the clock.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.kernel import tap
from repro.kernel.config import DEFAULT_CONFIG, KernelConfig
from repro.kernel.groups import GroupRegistry
from repro.kernel.host import Host
from repro.kernel.pids import Pid
from repro.kernel.process import Process, Transaction
from repro.net.ethernet import Ethernet
from repro.net.latency import STANDARD_3MBIT, LatencyModel, WireFaultModel
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.profile import Profiler


class Domain:
    """One V-System installation, fully simulated."""

    def __init__(
        self,
        latency: LatencyModel = STANDARD_3MBIT,
        seed: int = 0,
        config: KernelConfig = DEFAULT_CONFIG,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.engine = self._make_engine()
        #: Observability bundle (span collector + metrics registry), or None.
        #: With obs attached a span tree is built per message transaction
        #: (repro.obs.kernel_spans, a kernel-tap subscriber).
        self.obs = obs
        #: Every counter of the run; the bundle's registry when one is
        #: attached, so kernel counts and span-side instruments export as one.
        self.metrics = obs.registry if obs is not None else MetricsRegistry()
        self.rng = DeterministicRng(seed)
        self.latency = latency
        self.config = config
        if obs is not None:
            # Run-level comparability facts for JSONL meta records: the rng
            # seed and (via the engine link) the event count at export time.
            # A bundle shared across domains reports its newest domain.
            obs.run_seed = seed
            obs.engine = self.engine
        #: Domain-lifetime attribution profiler (see enable_profiler), or
        #: None.  Scoped profiles via profile() work regardless.
        self.profiler: Optional["Profiler"] = None
        #: Continuous-telemetry collector (see enable_telemetry), or None.
        self.telemetry = None
        #: Flight recorder (see repro.obs.flight.enable_flight_recorder), or
        #: None.
        self.flight = None
        #: Coherence probe (see repro.obs.audit.enable_coherence), or None.
        #: Name-state code (shard servers/resolvers) gates on this to emit
        #: invalidation-lag / staleness / lease-churn samples; the disabled
        #: path is one attribute read, and the armed probe is pure
        #: bookkeeping -- no events, no rng -- so simulated time is
        #: identical either way.
        self.coherence = None
        #: host_id -> ShardResolver, registered by ``ShardCluster.resolver
        #: (host=...)`` so the stat server can serve
        #: ``[obs]/hosts/<h>/coherence`` and the auditor can walk the fleet.
        self.shard_resolvers: dict[int, object] = {}
        #: Every ShardCluster built over this domain (authoritative shard
        #: state for the coherence auditor's cross-checks).
        self.shard_clusters: list = []
        #: Per-domain transaction / getpid-waiter id streams.  Domain-local
        #: (not process-global) so ids are pure functions of the run: two
        #: same-seed domains allocate identical txn ids, which is what makes
        #: flight records comparable across runs (repro.obs.flight).
        self._txn_counter = itertools.count(1)
        self._waiter_counter = itertools.count(1)
        self.ethernet = self._make_ethernet()
        #: The IPC counters every host bumps, resolved once per domain.
        self._ipc_counters = tuple(map(self.metrics.counter, (
            "ipc.sends", "ipc.deliveries", "ipc.replies", "ipc.transactions",
            "ipc.probes")))
        self.groups = GroupRegistry()
        self.hosts: dict[int, Host] = {}
        self._next_host_id = 1
        #: The [obs] namespace manager once enable_obs_namespace() ran, else
        #: None.  Kept here so enabling twice is idempotent.
        self.obs_namespace = None
        #: host_id -> client NameCache, registered by the runtime layer so
        #: the stat server can serve [obs]/hosts/<h>/namecache.
        self.name_caches: dict[int, object] = {}
        #: Callbacks fired with each newly created Host (the obs namespace
        #: uses this to cover late-created machines with stat servers).
        self._host_created_listeners: list[Callable[[Host], None]] = []
        #: Callbacks fired when a crashed Host restarts.  A crash kills the
        #: machine's servers, so anything that keeps a per-host service
        #: running (the obs namespace's stat servers) must respawn it here.
        self._host_restarted_listeners: list[Callable[[Host], None]] = []
        #: Callbacks fired the instant a Host fail-stops (:meth:`Host.crash`).
        #: Anything holding domain-level references on the dead machine's
        #: behalf -- its name cache's subscription on the pid-removal hub,
        #: a shard cluster's replica membership -- must sever them here, or
        #: notices keep flowing to dead state forever.
        self._host_crashed_listeners: list[Callable[[Host], None]] = []
        #: (task name, exception) for every process that died with an error.
        self.failures: list[tuple[str, BaseException]] = []
        #: Domain-wide registration-removal listeners: every host's service
        #: registry reports removals here (see Host), so a binding cache can
        #: watch one hub instead of every kernel table.
        self._pid_removal_listeners: list[Callable[[Pid], None]] = []
        #: Kernel-tap subscriber -> the kinds it hears, in attach order,
        #: and the per-kind tap attributes every host carries (attach_tap).
        self._tap_subscribers: dict[Callable[..., None], frozenset] = {}
        self._bind_tap()
        if obs is not None:
            from repro.obs.kernel_spans import KernelSpans

            spans = KernelSpans(obs)
            self.attach_tap(spans.on_event, spans.KINDS)

    # The driver seam (the clock and the wire every Host uses); the
    # real-socket AsyncDomain (repro.net.asyncio_transport) overrides both.
    def _make_engine(self) -> Engine:
        return Engine()

    def _make_ethernet(self) -> Ethernet:
        return Ethernet(self.engine, self.latency, self.metrics, obs=self.obs)

    # ------------------------------------------------------------ wire faults

    def set_wire_faults(self, faults: Optional[WireFaultModel]) -> None:
        """Install (or clear) probabilistic frame faults on the Ethernet.

        The fault draws come from this domain's seeded rng (its own
        ``net.faults`` sub-stream), so two runs with the same seed see the
        same frames dropped, duplicated, and delayed.
        """
        self.ethernet.set_fault_model(faults, self.rng.stream("net.faults"))

    # -------------------------------------------------- registration removal

    def on_pid_removed(self, callback: Callable[[Pid], None]) -> None:
        """Subscribe to service-registration removals anywhere in the domain."""
        if callback not in self._pid_removal_listeners:
            self._pid_removal_listeners.append(callback)

    def off_pid_removed(self, callback: Callable[[Pid], None]) -> None:
        """Unsubscribe a removal listener (no-op when not subscribed).

        The client name cache subscribes here for its host's lifetime; the
        crash hook calls this so a dead machine's cache stops hearing
        notices (the subscription leak the chaos harness pins).
        """
        try:
            self._pid_removal_listeners.remove(callback)
        except ValueError:
            pass

    def _notify_pid_removed(self, pid: Pid) -> None:
        for callback in list(self._pid_removal_listeners):
            callback(pid)

    def on_host_created(self, callback: Callable[[Host], None]) -> None:
        """Subscribe to future :meth:`create_host` calls."""
        if callback not in self._host_created_listeners:
            self._host_created_listeners.append(callback)

    def on_host_restarted(self, callback: Callable[[Host], None]) -> None:
        """Subscribe to crashed hosts coming back up (:meth:`Host.restart`)."""
        if callback not in self._host_restarted_listeners:
            self._host_restarted_listeners.append(callback)

    def _notify_host_restarted(self, host: Host) -> None:
        for callback in list(self._host_restarted_listeners):
            callback(host)

    def on_host_crashed(self, callback: Callable[[Host], None]) -> None:
        """Subscribe to hosts fail-stopping (:meth:`Host.crash`).

        Fires after the dead kernel's own tables are cleared (so listeners
        see the post-crash state) and synchronously within the crash event,
        which is what lets a shard cluster promote a replacement owner
        before any in-flight lookup times out against the corpse.
        """
        if callback not in self._host_crashed_listeners:
            self._host_crashed_listeners.append(callback)

    def _notify_host_crashed(self, host: Host) -> None:
        for callback in list(self._host_crashed_listeners):
            callback(host)

    # ------------------------------------------------------------ kernel tap

    def attach_tap(self, subscriber: Callable[..., None],
                   kinds: Iterable[int] = tap.ALL) -> None:
        """Subscribe an instrument to the ``kinds`` it hears of every
        host's kernel event tap (:mod:`repro.kernel.tap`), hosts created
        later included."""
        if subscriber not in self._tap_subscribers:
            self._tap_subscribers[subscriber] = frozenset(kinds)
            self._bind_tap()

    def detach_tap(self, subscriber: Callable[..., None]) -> None:
        if self._tap_subscribers.pop(subscriber, None) is not None:
            self._bind_tap()

    def _bind_tap(self) -> None:
        """Hand every host one tap per kind: None when no subscriber hears
        it, the sole subscriber, or a fan-out over those that do."""
        def bind(code: int):
            hearing = tuple(subscriber for subscriber, kinds
                            in self._tap_subscribers.items() if code in kinds)
            if len(hearing) < 2:
                return hearing[0] if hearing else None

            def fan_out(*event) -> None:
                for subscriber in hearing:
                    subscriber(*event)
            return fan_out

        taps = {slot: bind(code) for code, slot in tap.SLOTS.items()}
        taps["_tap_packet"] = {kind: fire for kind, code in tap.PACKET.items()
                               if (fire := bind(code)) is not None} or None
        self._taps = taps
        for host in self.hosts.values():
            for slot, fire in taps.items():
                setattr(host, slot, fire)

    # ----------------------------------------------------------------- hosts

    def create_host(self, name: str | None = None) -> Host:
        """Add a machine to the domain."""
        host_id = self._next_host_id
        self._next_host_id += 1
        host = Host(self, host_id, name or f"host{host_id}")
        self.hosts[host_id] = host
        for callback in list(self._host_created_listeners):
            callback(host)
        return host

    def create_hosts(self, count: int, prefix: str = "host") -> list[Host]:
        return [self.create_host(f"{prefix}{i + 1}") for i in range(count)]

    def host_of(self, pid: Pid) -> Optional[Host]:
        return self.hosts.get(pid.logical_host)

    def find_process(self, pid: Pid) -> Optional[Process]:
        host = self.host_of(pid)
        return host.find_process(pid) if host is not None else None

    def find_transaction(self, txn_id: int, sender: Pid) -> Optional[Transaction]:
        """Locate an outstanding transaction at its sender's kernel.

        Used by the bulk-move validation path, on both drivers: every kernel
        of a domain lives in one process, so the mover's kernel reads the
        sender's table directly.
        """
        host = self.host_of(sender)
        if host is None:
            return None
        return host._outstanding.get(txn_id)

    # ------------------------------------------------------------- profiling

    def profile(self) -> "Profiler":
        """A scoped attribution profiler: ``with domain.profile() as prof:``.

        Attaches on enter, detaches on exit; zero simulated cost (see
        :mod:`repro.obs.profile`).  Multiple scoped profilers (and the
        domain-lifetime one) can be active at once.
        """
        from repro.obs.profile import Profiler

        return Profiler(engine=self.engine)

    def enable_profiler(self) -> "Profiler":
        """Attach a domain-lifetime profiler (idempotent).

        The ``[obs]`` name space serves its totals live as
        ``hosts/<host>/profile``; :func:`repro.servers.statserver.
        enable_obs_namespace` calls this so those names are never empty.
        """
        if self.profiler is None:
            from repro.obs.profile import Profiler

            # Attach before publishing: a refused attach (first sink from
            # inside run()) must not leave a dead sink behind.
            profiler = Profiler(engine=self.engine)
            self.engine.attach_profiler(profiler)
            self.profiler = profiler
        return self.profiler

    def enable_telemetry(self, interval: float | None = None,
                         rules=None, capacity: int | None = None):
        """Attach and arm a continuous-telemetry collector (idempotent).

        Samples every host's counters into ring-buffer time series at
        ``interval`` simulated seconds and evaluates the SLO watchdog
        ``rules`` at each tick (default: :func:`repro.obs.telemetry.
        default_watchdogs`).  The ``[obs]`` name space serves the series as
        ``hosts/<host>/timeseries/<metric>`` and the alert log as
        ``fleet/alerts``.  Sampling is zero simulated cost; the collector
        parks itself once the event queue quiesces so ``run()`` still
        drains.
        """
        if self.telemetry is None:
            from repro.obs.telemetry import (
                DEFAULT_CAPACITY,
                DEFAULT_INTERVAL,
                TelemetryCollector,
                default_watchdogs,
            )

            self.telemetry = TelemetryCollector(
                self,
                interval=DEFAULT_INTERVAL if interval is None else interval,
                capacity=DEFAULT_CAPACITY if capacity is None else capacity,
                rules=default_watchdogs() if rules is None else rules)
            self.attach_tap(self.telemetry.on_event, self.telemetry.KINDS)
            self.telemetry.start()
        return self.telemetry

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        return self.engine.now

    def run(self, until: float | None = None,
            max_events: int | None = 5_000_000) -> None:
        """Run the simulation until the event queue drains (or ``until``)."""
        self.engine.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> None:
        self.engine.run_for(duration)

    def check_healthy(self) -> None:
        """Raise if any process died with an exception (test helper)."""
        if self.failures:
            name, exc = self.failures[0]
            raise AssertionError(
                f"{len(self.failures)} process(es) failed; first: {name}: {exc!r}"
            ) from exc
