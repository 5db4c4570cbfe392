"""Composable chaos schedules and invariant checks (E14 harness).

A :class:`ChaosSchedule` arranges *when* faults happen: probabilistic wire
loss phases (:class:`~repro.net.latency.WireFaultModel` installed and
removed at scheduled times), fail-stop crash/restart windows
(:mod:`repro.faults.crash`), and network partitions
(:mod:`repro.faults.partition`) compose on one simulated timeline.  Because
every fault source draws from the domain's seeded rng streams, a chaos run
is a pure function of its seed: a failing schedule replays exactly.

The invariant checks are the point.  Retransmission machinery is easy to
get *almost* right; these assertions pin the ways it tends to be wrong:

- **timer leaks** -- no live scheduled event may reference a dead process
  (a cancelled-but-forgotten probe or retransmission timer keeps kernel
  state reachable and can resurrect a transaction);
- **stuck transactions** -- once the event queue drains, no kernel may
  still hold an outstanding send transaction (every Send either completed
  or failed within its probe/retry budget);
- **explained timeouts** -- a send may only time out if the run actually
  injected loss, cut a link, or crashed a host; a TIMEOUT on a healthy
  quiet wire means the protocol dropped a reply on the floor itself;
- **cache accounting** -- every stale-hint fallback must have invalidated
  at least one cached binding (a fallback that leaves the bad binding in
  place loops forever on it).

``python -m repro.obs chaos --seed 7 --duration 5 --drop 0.1`` runs a
short seeded workload (a workstation client reading through the prefix
server and its name cache while the wire loses frames and the file server
crashes and comes back) and exits nonzero if any invariant fails --
``--require-retransmits`` additionally fails the run if the retransmission
path was never exercised, which is the CI gate against silently disabling
the machinery.

``--watchdogs`` arms the telemetry collector and the default SLO watchdog
rules (:mod:`repro.obs.telemetry`) over the same run, serving them through
the ``[obs]`` name space, and adds one more invariant: after quiescence the
alert log read *through the protocol* (``[obs]/fleet/alerts``, so the read
itself crossed the recovering wire) must agree record-for-record with what
the watchdog engine emitted -- alert delivery must not be lossy even when
the wire is.  ``--require-alert-cycle`` fails the run unless at least one
alert both fired and resolved (the CI gate that the watchdogs actually
watch).  ``python -m repro.obs storm`` runs :func:`run_replica_storm`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.resolver import NameError_
from repro.faults.crash import CrashSchedule
from repro.faults.partition import heal_partition, partition_between
from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.kernel.ipc import Delay, Now
from repro.kernel.process import Process
from repro.net.latency import WireFaultModel
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers.base import start_server
from repro.servers.fileserver.server import VFileServer
from repro.sim.engine import ScheduledEvent
from repro.vio.client import IoError


class InvariantViolation(AssertionError):
    """One or more chaos invariants failed; the message lists them all."""

    #: The run's flight recorder when it flew with one (``--flight``):
    #: finalized at the moment of failure so the black boxes can be dumped.
    flight = None

    def __init__(self, problems: list[str]) -> None:
        super().__init__("chaos invariants violated:\n- " +
                         "\n- ".join(problems))
        self.problems = problems


# --------------------------------------------------------------- scheduling


@dataclass
class ChaosSchedule:
    """Faults composed on one timeline: loss phases, crashes, partitions."""

    domain: Domain
    events: list[ScheduledEvent] = field(default_factory=list)
    crashes: list[CrashSchedule] = field(default_factory=list)

    def loss_between(self, start: float, end: float,
                     faults: WireFaultModel) -> "ChaosSchedule":
        """Install ``faults`` on the wire at ``start``, remove at ``end``."""
        if end <= start:
            raise ValueError("loss phase must end after it starts")
        self.events.append(self.domain.engine.schedule_at(
            start, self.domain.set_wire_faults, faults))
        self.events.append(self.domain.engine.schedule_at(
            end, self.domain.set_wire_faults, None))
        return self

    def crash_between(self, host: Host, start: float, end: float,
                      respawn=None) -> "ChaosSchedule":
        """Fail-stop ``host`` for [start, end); ``respawn(host)`` on restart."""
        self.crashes.append(CrashSchedule(self.domain, host).down_between(
            start, end, respawn))
        return self

    def partition_between(self, start: float, end: float,
                          group_a: Iterable[int],
                          group_b: Iterable[int]) -> "ChaosSchedule":
        """Cut the wire between two host-id sets for [start, end)."""
        side_a, side_b = list(group_a), list(group_b)
        self.events.append(self.domain.engine.schedule_at(
            start, partition_between, self.domain, side_a, side_b))
        self.events.append(self.domain.engine.schedule_at(
            end, heal_partition, self.domain))
        return self

    def cancel(self) -> None:
        for event in self.events:
            event.cancel()
        self.events.clear()
        for plan in self.crashes:
            plan.cancel()
        self.crashes.clear()


# --------------------------------------------------------------- invariants


def check_no_timer_leaks(domain: Domain) -> list[str]:
    """No live scheduled event may reference a dead process.

    Kernel timers (probe, retransmission, delay wakeups) hold their subject
    in the event's args; terminating a process must cancel them.  A leaked
    timer is latent corruption: it can step a closed generator or revive a
    transaction the kernel already forgot.
    """
    problems = []
    for time, callback, args in domain.engine.pending_events():
        for arg in args:
            if isinstance(arg, Process) and not arg.alive:
                problems.append(
                    f"event {callback.__qualname__} at "
                    f"t={time:.4f} references dead process "
                    f"{arg.name!r} ({arg.pid!r})")
    return problems


def check_no_stuck_transactions(domain: Domain) -> list[str]:
    """After the queue drains, no kernel may still hold an outstanding Send.

    Every transaction must complete (reply, NACK) or fail (TIMEOUT within
    the probe budget); an entry left in ``_outstanding`` is a sender
    blocked forever.
    """
    problems = []
    for host in domain.hosts.values():
        if host._outstanding:
            txns = ", ".join(f"txn {t.txn_id} -> {t.dst!r}"
                             for t in host._outstanding.values())
            problems.append(f"host {host.name!r} still holds outstanding "
                            f"transactions after quiescence: {txns}")
    return problems


def check_timeouts_explained(domain: Domain) -> list[str]:
    """A send timeout requires metered loss, a cut link, or a crash."""
    metrics = domain.metrics
    timeouts = metrics.count("ipc.send_timeouts")
    if timeouts == 0:
        return []
    injected = (metrics.count("net.drops")
                + metrics.count("net.frames_lost")
                + metrics.count("net.frames_dropped"))
    crashes = metrics.count("kernel.crashes")
    if injected == 0 and crashes == 0:
        return [f"{timeouts} send timeout(s) on a healthy wire: no frame "
                "was dropped, no link was down, no host crashed -- the "
                "protocol lost a reply by itself"]
    return []


def check_cache_accounting(cache) -> list[str]:
    """Every stale-hint fallback must have invalidated a cached binding."""
    stats = cache.stats
    if stats.invalidations < stats.fallbacks:
        return [f"name cache fell back {stats.fallbacks} time(s) but only "
                f"invalidated {stats.invalidations} binding(s): a stale "
                "binding survived its own fallback"]
    return []


def check_lease_coherence(cluster) -> list[str]:
    """No replica -- live or crashed -- may ever have served a resolution
    from an expired lease.

    The shard coherence rule (:mod:`repro.core.shard`) is that a non-owner
    replica either holds a fresh lease on a binding or *refuses* with a
    RETRY redirect; ``expired_served`` counts the forbidden third option.
    Checked across every replica the cluster ever spawned, because the
    violation we care most about is a replica serving stale state in the
    window right around its own crash or rejoin.
    """
    problems = []
    for server in cluster.all_servers():
        if server.expired_served:
            problems.append(
                f"shard replica {server.replica_id} served "
                f"{server.expired_served} resolution(s) from an expired "
                "lease -- coherence rule violated")
    return problems


def check_invariants(domain: Domain, cache=None) -> None:
    """Run every applicable check; raise :class:`InvariantViolation`."""
    problems = (check_no_timer_leaks(domain)
                + check_no_stuck_transactions(domain)
                + check_timeouts_explained(domain))
    if cache is not None:
        problems += check_cache_accounting(cache)
    if problems:
        raise InvariantViolation(problems)


def assert_retransmission_exercised(domain: Domain) -> None:
    """CI gate: under injected loss the retransmission path must fire."""
    retransmits = domain.metrics.count("ipc.retransmits")
    if retransmits == 0:
        raise InvariantViolation(
            ["loss was injected but ipc.retransmits == 0: the "
             "retransmission machinery never ran (disabled, or the fault "
             "model is not reaching the wire)"])


# ------------------------------------------------------------ the harness


@dataclass
class ChaosReport:
    """What one seeded chaos run did and observed."""

    seed: int
    duration: float
    drop_rate: float
    reads_ok: int = 0
    reads_failed: int = 0
    reads_wrong: int = 0
    metrics: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    #: Watchdog summary (``--watchdogs`` only): fired/resolved counts, the
    #: alert records, and how many came back through the [obs] read.
    alerts: dict = field(default_factory=dict)
    #: Flight-recorder summary (``flight=True`` only): per-host record and
    #: digest-window counts plus postmortem tally -- all deterministic.
    flight: dict = field(default_factory=dict)
    #: The live recorder object itself (not serialized); replay and the
    #: CLI's postmortem dumper read lanes and chains off it.
    recorder: object = None
    #: The client workstation, its domain quiescent (not serialized); the
    #: monitor reads every host's time series back through it.
    workstation: object = None

    @property
    def reads(self) -> int:
        return self.reads_ok + self.reads_failed + self.reads_wrong

    @property
    def success_rate(self) -> float:
        return self.reads_ok / self.reads if self.reads else 0.0

    def to_dict(self) -> dict:
        document = {
            "seed": self.seed,
            "duration": self.duration,
            "drop_rate": self.drop_rate,
            "reads": self.reads,
            "reads_ok": self.reads_ok,
            "reads_failed": self.reads_failed,
            "reads_wrong": self.reads_wrong,
            "success_rate": round(self.success_rate, 4),
            "metrics": self.metrics,
            "cache": self.cache_stats,
        }
        if self.alerts:
            document["alerts"] = self.alerts
        if self.flight:
            document["flight"] = self.flight
        return document


_PAYLOAD = b"chaos-payload"

_METRIC_KEYS = (
    "ipc.retransmits", "ipc.dup_suppressed", "ipc.reply_resends",
    "ipc.send_timeouts", "ipc.probes", "net.drops", "net.dups",
    "net.delayed_frames", "net.frames_lost", "net.frames_dropped",
    "kernel.crashes", "services.getpid_retries", "services.getpid_timeouts",
)


def populated_fileserver() -> VFileServer:
    """A file server holding the one file every chaos client reads."""
    server = VFileServer(user="mann")
    node = server.store.make_path("data/f0.dat", directory=False)
    node.data[:] = _PAYLOAD
    return server


def build_chaos_world(domain: Domain):
    """Workstation ``mann`` (name cache on) reading from a populated file
    server on ``vax1`` through the standard prefixes.

    Returns ``(workstation, fileserver handle)``.
    """
    workstation = setup_workstation(domain, "mann")
    handle = start_server(domain.create_host("vax1"), populated_fileserver())
    standard_prefixes(workstation, handle)
    workstation.enable_name_cache()
    return workstation, handle


def schedule_chaos_faults(domain: Domain, workstation, fs_host: Host,
                          duration: float, faults: WireFaultModel,
                          crash: bool = True) -> None:
    """``faults`` on the wire for the middle 80 % of the run (clean at both
    ends, so the cache warms up honestly and the run can quiesce) and,
    with ``crash``, ``fs_host`` down from 40 % to 50 %."""
    schedule = ChaosSchedule(domain)
    schedule.loss_between(0.1 * duration, 0.9 * duration, faults)
    if crash:
        def respawn(host):
            # The respawned server has a new pid: re-register its services
            # (the generic [storage] binding re-resolves via GetPid on its
            # own) and rebind the fixed prefixes, as the workstation's boot
            # script would.  The prefix server notifies attached caches of
            # each rebinding.
            standard_prefixes(workstation,
                              start_server(host, populated_fileserver()))

        schedule.crash_between(fs_host, 0.4 * duration, 0.5 * duration,
                               respawn=respawn)


def chaos_targets(session) -> list:
    """The two names every round reads: one through the fixed ``[root]``
    prefix binding, one through the generic ``[storage]`` binding."""
    return [(session, "[root]data/f0.dat"), (session, "[storage]data/f0.dat")]


def chaos_reads(duration: float, targets, tally):
    """The client body: every 20 ms until ``duration``, read each
    ``(session, name)`` of ``targets(round)`` and hand ``tally`` the bytes
    read, or None when the read failed."""
    round_number = 0
    while True:
        now = yield Now()
        if now >= duration:
            break
        for session, name in targets(round_number):
            try:
                data = yield from files.read_file(session, name)
            except (NameError_, IoError):
                tally(None)
            else:
                tally(data)
        round_number += 1
        yield Delay(0.02)


def run_chaos(seed: int = 7, duration: float = 5.0, drop: float = 0.10,
              dup: float = 0.02, delay_rate: float = 0.05,
              crash: bool = True, watchdogs: bool = False,
              flight: bool = False) -> ChaosReport:
    """One seeded chaos run; returns the report after checking invariants.

    A workstation client reads two names (:func:`chaos_targets`) in a
    tight loop while the wire drops/duplicates/delays frames for most of
    the run and (optionally) the file server crashes and respawns in the
    middle of it (:func:`schedule_chaos_faults`).

    With ``watchdogs=True``, the ``[obs]`` name space and the telemetry
    collector (default SLO rules) run over the same timeline; after the
    run, the alert log is read back through ``[obs]/fleet/alerts`` and
    must match the engine's emitted events exactly (see module docstring).

    With ``flight=True``, a flight recorder (:mod:`repro.obs.flight`) flies
    with the run: every kernel Send/Reply/Forward/packet lands in per-host
    ring buffers with digest chains, the mid-run crash freezes vax1's black
    box into a postmortem dump, and ``report.recorder`` exposes the lanes
    for replay/divergence tooling.  If an invariant fails, the finalized
    recorder is attached to the raised :class:`InvariantViolation` so the
    caller can dump the black boxes from the wreck.
    """
    domain = Domain(seed=seed)
    recorder = None
    if flight:
        from repro.obs.flight import enable_flight_recorder

        recorder = enable_flight_recorder(domain)
    workstation, handle = build_chaos_world(domain)
    cache = workstation.name_cache

    telemetry = None
    if watchdogs:
        from repro.servers.statserver import enable_obs_namespace

        enable_obs_namespace(domain, workstation.host)
        telemetry = domain.enable_telemetry(interval=0.1)

    schedule_chaos_faults(
        domain, workstation, handle.host, duration,
        WireFaultModel(drop_rate=drop, dup_rate=dup, delay_rate=delay_rate),
        crash=crash)

    report = ChaosReport(seed=seed, duration=duration, drop_rate=drop,
                         workstation=workstation)

    def tally(data) -> None:
        if data is None:
            report.reads_failed += 1
        elif data == _PAYLOAD:
            report.reads_ok += 1
        else:
            report.reads_wrong += 1

    targets = chaos_targets(workstation.session())
    workstation.host.spawn(
        chaos_reads(duration, lambda round_number: targets, tally),
        name="chaos-client")
    domain.run()
    domain.check_healthy()

    report.metrics = {key: domain.metrics.count(key) for key in _METRIC_KEYS}
    report.cache_stats = {
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "fallbacks": cache.stats.fallbacks,
        "invalidations": cache.stats.invalidations,
    }
    if recorder is not None:
        recorder.finalize()
        report.recorder = recorder
        report.flight = {
            "hosts": {
                name: {
                    "records_seen": recorder.stats(name)["records_seen"],
                    "windows": len(recorder.chain(name)),
                }
                for name in recorder.hosts()
            },
            "postmortems": {name: len(dumps)
                            for name, dumps in
                            sorted(recorder.postmortems.items())},
        }
    try:
        check_invariants(domain, cache=cache)
    except InvariantViolation as violation:
        # Attach the black boxes to the wreck: the caller can dump every
        # lane's postmortem without re-running the scenario.
        violation.flight = recorder
        raise
    if telemetry is not None:
        alerts = telemetry.alerts
        report.alerts = {
            "fired": alerts.fired,
            "resolved": alerts.resolved,
            "active": sorted(f"{rule}@{host}"
                             for rule, host in alerts.active),
            "events": alerts.to_records(),
        }
        delivered = read_alerts_via_obs(workstation)
        report.alerts["delivered"] = len(delivered)
        check_alert_delivery(delivered, alerts.to_records())
    return report


# ------------------------------------------------- the replica-crash storm


@dataclass
class ShardStormReport:
    """What one seeded replica-crash storm did and observed."""

    seed: int
    duration: float
    n_replicas: int
    n_prefixes: int
    n_clients: int
    reads_ok: int = 0
    reads_failed: int = 0
    reads_wrong: int = 0
    promotions: int = 0
    rejoins: int = 0
    map_version: int = 0
    metrics: dict = field(default_factory=dict)
    resolvers: list = field(default_factory=list)
    replicas: list = field(default_factory=list)
    #: Post-quiescence coherence audit document (repro.obs.audit): via the
    #: ``[obs]`` protocol walk when ``watchdogs=True``, direct otherwise.
    audit: dict = field(default_factory=dict)
    #: Watchdog summary (``watchdogs=True`` only), same shape as run_chaos.
    alerts: dict = field(default_factory=dict)

    @property
    def reads(self) -> int:
        return self.reads_ok + self.reads_failed + self.reads_wrong

    @property
    def success_rate(self) -> float:
        return self.reads_ok / self.reads if self.reads else 0.0

    def to_dict(self) -> dict:
        document = {
            "seed": self.seed,
            "duration": self.duration,
            "n_replicas": self.n_replicas,
            "n_prefixes": self.n_prefixes,
            "n_clients": self.n_clients,
            "reads": self.reads,
            "reads_ok": self.reads_ok,
            "reads_failed": self.reads_failed,
            "reads_wrong": self.reads_wrong,
            "success_rate": round(self.success_rate, 4),
            "promotions": self.promotions,
            "rejoins": self.rejoins,
            "map_version": self.map_version,
            "metrics": self.metrics,
            "resolvers": self.resolvers,
            "replicas": self.replicas,
        }
        if self.audit:
            document["audit"] = self.audit
        if self.alerts:
            document["alerts"] = self.alerts
        return document


def run_replica_storm(seed: int = 11, duration: float = 6.0,
                      n_replicas: int = 3, n_prefixes: int = 48,
                      n_clients: int = 2, lease_ttl: float = 0.8,
                      crash: bool = True,
                      retry_budget: int = 4,
                      watchdogs: bool = False,
                      audit_every: Optional[float] = None,
                      on_audit=None) -> ShardStormReport:
    """Crash every shard replica in turn under live Zipf read traffic.

    A :class:`~repro.core.shard.ShardCluster` of ``n_replicas`` serves
    ``n_prefixes`` seeded prefix bindings (all pointing into one file
    server, which stays up -- this storm is about the *name service*
    failing, not the data).  Each client runs its own
    :class:`~repro.core.shard.ShardResolver` and reads Zipf-popular
    ``[pK]`` names in a loop while staggered crash windows take each
    replica down and bring it back; the cluster's failover hook promotes
    by consistent hashing and the restarted replica rejoins by pulling a
    live peer's table.

    Invariants, on top of the standard chaos set: every resolver's cache
    accounting must balance, and :func:`check_lease_coherence` must find
    zero resolutions served from expired leases -- across every replica
    incarnation the storm ever spawned.  With ``n_replicas >= 2`` the
    storm additionally expects **zero failed reads**: some live replica
    can always answer (after at most a probe-budget timeout against the
    corpse), so every name must resolve during and after failover.

    ``n_replicas=1`` is the degenerate "the prefix server itself crashes
    and restarts" configuration: reads may fail while the only replica is
    down (there is nobody to fail over to), but the accounting and lease
    invariants must still hold, and the respawn re-seeds the table the way
    a workstation boot script would.

    After quiescence, every storm additionally runs the **coherence
    audit** (:func:`repro.obs.audit.audit_direct` -- pure memory reads):
    any entry the auditor classifies incoherent is an invariant failure.
    With ``watchdogs=True``, a watcher workstation, the ``[obs]`` name
    space, the coherence probe, and the telemetry collector (default +
    coherence SLO rules) ride along; the post-run audit then walks the
    fleet *through the protocol* (``audit_via_obs``) and the alert log is
    checked for lossless delivery, as in :func:`run_chaos`.
    ``audit_every`` schedules additional in-run direct audit sweeps every
    that many simulated seconds, each passed to ``on_audit(document)``.
    """
    from repro.core.context import ContextPair, WellKnownContext
    from repro.core.shard import ShardCluster
    from repro.runtime.session import Session

    domain = Domain(seed=seed)
    fs_host = domain.create_host("vax1")
    fs_handle = start_server(fs_host, populated_fileserver())
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))

    replica_hosts = domain.create_hosts(n_replicas, prefix="ns")
    cluster = ShardCluster(domain, replica_hosts, lease_ttl=lease_ttl)
    for index in range(n_prefixes):
        cluster.seed_binding(f"p{index}", pair)

    from repro.obs.audit import audit_direct

    watcher = None
    telemetry = None
    if watchdogs:
        from repro.obs.audit import enable_coherence
        from repro.obs.telemetry import coherence_watchdogs, default_watchdogs
        from repro.servers.statserver import enable_obs_namespace

        watcher = setup_workstation(domain, "watch")
        standard_prefixes(watcher, fs_handle)
        enable_obs_namespace(domain, fs_host)
        enable_coherence(domain)
        telemetry = domain.enable_telemetry(
            interval=0.1, rules=default_watchdogs() + coherence_watchdogs())

    report = ShardStormReport(seed=seed, duration=duration,
                              n_replicas=n_replicas, n_prefixes=n_prefixes,
                              n_clients=n_clients)

    resolvers = []

    def client(session, stream: str):
        while True:
            now = yield Now()
            if now >= duration:
                break
            index = domain.rng.zipf_index(stream, n_prefixes, 1.1)
            try:
                data = yield from files.read_file(
                    session, f"[p{index}]data/f0.dat")
            except (NameError_, IoError):
                report.reads_failed += 1
            else:
                if data == _PAYLOAD:
                    report.reads_ok += 1
                else:
                    report.reads_wrong += 1
            yield Delay(0.03)

    for number in range(n_clients):
        client_host = domain.create_host(f"client{number + 1}")
        # host= registers the resolver for the coherence audit (and the
        # [obs] coherence leaf); pure bookkeeping, zero simulated cost.
        resolver = cluster.resolver(host=client_host)
        session = Session(current=pair, prefix_server=cluster.primary_pid(),
                          latency=domain.latency, cache=resolver)
        session.env.retry_budget = retry_budget
        resolvers.append(resolver)
        client_host.spawn(client(session, f"storm.client{number}"),
                          name=f"storm-client-{number}")

    schedule = ChaosSchedule(domain)
    if crash:
        if n_replicas == 1:
            # The only copy of the prefix table dies with its host; the
            # respawn re-seeds it, as the workstation boot script would.
            def reseed(host):
                for index in range(n_prefixes):
                    cluster.seed_binding(f"p{index}", pair)

            schedule.crash_between(replica_hosts[0], 0.4 * duration,
                                   0.5 * duration, respawn=reseed)
        else:
            # Staggered non-overlapping windows: every replica dies once,
            # and at least n-1 replicas are alive at every instant.
            for index, host in enumerate(replica_hosts):
                start = (0.25 + index * 0.18) * duration
                schedule.crash_between(host, start, start + 0.10 * duration)

    if audit_every is not None and audit_every > 0:
        # Periodic direct audit sweeps: pure memory reads on the simulated
        # timeline (no sends, no rng), bounded by the storm window so the
        # run can still quiesce.  The bound must be the *clock*, not the
        # queue: a pending-count check would deadlock-by-politeness with
        # the telemetry tick (each sees the other's next event as pending
        # work and reschedules forever).  The quiescent audit after
        # domain.run() covers everything past the last sweep.
        def sweep():
            document = audit_direct(domain)
            if on_audit is not None:
                on_audit(document)
            if domain.now + audit_every < duration:
                domain.engine.schedule(audit_every, sweep)

        domain.engine.schedule(audit_every, sweep)

    domain.run()
    domain.check_healthy()

    report.promotions = cluster.promotions
    report.rejoins = cluster.rejoins
    report.map_version = cluster.map.version
    report.metrics = {key: domain.metrics.count(key) for key in _METRIC_KEYS}
    report.resolvers = [resolver.snapshot() for resolver in resolvers]
    report.replicas = [server.snapshot_shard()
                       for server in cluster.all_servers()]

    # The coherence audit invariant: at quiescence, no cached entry
    # anywhere in the fleet may classify incoherent.  Direct (zero-cost)
    # always; through the [obs] protocol walk as well when it is deployed.
    direct_audit = audit_direct(domain)
    report.audit = direct_audit
    if watchdogs and watcher is not None:
        from repro.obs.audit import audit_via_obs

        report.audit = audit_via_obs(watcher)

    problems = (check_no_timer_leaks(domain)
                + check_no_stuck_transactions(domain)
                + check_timeouts_explained(domain)
                + check_lease_coherence(cluster))
    for resolver in resolvers:
        problems += check_cache_accounting(resolver)
    if crash and n_replicas >= 2 and report.reads_failed:
        problems.append(
            f"{report.reads_failed} read(s) failed with {n_replicas} "
            "replicas: failover must keep every name resolvable")
    if report.reads_wrong:
        problems.append(f"{report.reads_wrong} read(s) returned wrong data")
    audits = ([direct_audit] if report.audit is direct_audit
              else [direct_audit, report.audit])
    for source in audits:
        for finding in source["findings"]["incoherent"]:
            problems.append(
                f"coherence audit ({source['via']}): {finding['tier']} "
                f"entry [{finding.get('prefix', finding.get('name'))}] on "
                f"{finding['host']} is incoherent (stamp "
                f"({finding['epoch']},{finding['source']}) vs owner "
                f"{finding['owner']})")
    if telemetry is not None:
        alerts = telemetry.alerts
        report.alerts = {
            "fired": alerts.fired,
            "resolved": alerts.resolved,
            "active": sorted(f"{rule}@{host}"
                             for rule, host in alerts.active),
            "events": alerts.to_records(),
        }
        delivered = read_alerts_via_obs(watcher)
        report.alerts["delivered"] = len(delivered)
        try:
            check_alert_delivery(delivered, alerts.to_records())
        except InvariantViolation as violation:
            problems += violation.problems
    if problems:
        raise InvariantViolation(problems)
    return report


def read_alerts_via_obs(workstation) -> list[dict]:
    """Read ``[obs]/fleet/alerts`` through the protocol; the alert records.

    Spawned after quiescence, so the read travels the full Sec. 5.4
    forwarding chain (prefix server -> obs root -> fleet leaf) over the
    now-healed wire -- the same path a live operator's monitor would use.
    """
    payloads: list[bytes] = []

    def reader(session):
        data = yield from files.read_file(session, "[obs]/fleet/alerts")
        payloads.append(data)

    workstation.host.spawn(reader(workstation.session()), name="alert-reader")
    workstation.host.domain.run()
    if not payloads:
        return []
    records = [json.loads(line)
               for line in payloads[0].splitlines() if line.strip()]
    return [record for record in records if record.get("kind") == "alert"]


def check_alert_delivery(delivered: list[dict],
                         emitted: list[dict]) -> None:
    """The alert log served through ``[obs]`` must match what was emitted.

    Alerts ride the same retransmitting transport as everything else, so a
    lossy wire may delay the read but must never lose or reorder records.
    """
    if delivered != emitted:
        raise InvariantViolation(
            [f"alert log read through [obs]/fleet/alerts disagrees with "
             f"the watchdog engine: {len(delivered)} record(s) delivered "
             f"vs {len(emitted)} emitted"])
