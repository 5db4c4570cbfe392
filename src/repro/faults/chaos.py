"""One scenario runner over composable chaos schedules (E14 harness).

A :class:`ChaosSchedule` arranges *when* faults happen: probabilistic wire
loss phases (:class:`~repro.net.latency.WireFaultModel` installed and
removed at scheduled times), fail-stop crash/restart windows
(:mod:`repro.faults.crash`), and any number of concurrent network
partitions (:mod:`repro.faults.partition`) compose on one simulated
timeline.  Because every fault source draws from the domain's seeded rng
streams, a chaos run is a pure function of its seed: a failing schedule
replays exactly.

:func:`run_scenario` runs a world to quiescence and checks it.  It has two
builders: :func:`run_chaos`, the file-server world (a workstation client
reading through the prefix server and its name cache while the wire loses
frames and the file server crashes and comes back), and
:func:`run_replica_storm`, the shard world (every replica of a shard
cluster crashes in turn under Zipf reads).  Both spawn :func:`reads` and
tally into a :class:`ScenarioReport`.

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
  place loops forever on it);
- **right bytes** -- no read returns anything but the file's contents.

The shard world adds lease coherence, the coherence audit and, with two or
more replicas, zero failed reads.  Every problem is collected before one
:class:`InvariantViolation` raises.

``python -m repro.obs chaos --seed 7 --duration 5 --drop 0.1`` runs the
file-server world and exits nonzero if any invariant fails --
``--require-retransmits`` additionally fails the run if the retransmission
path was never exercised, which is the CI gate against silently disabling
the machinery.  ``python -m repro.obs storm`` runs the shard world.

``--watchdogs`` arms the telemetry collector and the default SLO watchdog
rules (:mod:`repro.obs.telemetry`) over the same run, serving them through
the ``[obs]`` name space, and adds one more invariant: after quiescence the
alert log read *through the protocol* (``[obs]/fleet/alerts``, so the read
itself crossed the recovering wire) must agree record-for-record with what
the watchdog engine emitted -- alert delivery must not be lossy even when
the wire is.  ``--require-alert-cycle`` fails the run unless at least one
alert both fired and resolved (the CI gate that the watchdogs actually
watch).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Optional

from repro.core.resolver import NameError_
from repro.faults.crash import CrashSchedule
from repro.faults.partition import cut_between, heal_partition
from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.kernel.ipc import Delay, Now
from repro.kernel.process import Process
from repro.net.latency import WireFaultModel
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers.base import start_server
from repro.servers.fileserver.server import VFileServer
from repro.servers.statserver import enable_obs_namespace
from repro.sim.engine import ScheduledEvent
from repro.vio.client import IoError


class InvariantViolation(AssertionError):
    """One or more chaos invariants failed; the message lists them all."""

    def __init__(self, problems: list[str], flight=None) -> None:
        super().__init__("chaos invariants violated:\n- " +
                         "\n- ".join(problems))
        self.problems = problems
        #: The run's flight recorder when it flew with one (``--flight``):
        #: finalized at the moment of failure so the black boxes can be
        #: dumped.
        self.flight = flight


# --------------------------------------------------------------- scheduling


@dataclass
class ChaosSchedule:
    """Faults composed on one timeline: loss phases, crashes, partitions."""

    domain: Domain
    events: list[ScheduledEvent] = field(default_factory=list)

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
        self.events += CrashSchedule(self.domain, host).down_between(
            start, end, respawn).events
        return self

    def partition_between(self, start: float, end: float,
                          group_a: Iterable[int],
                          group_b: Iterable[int]) -> "ChaosSchedule":
        """Cut the wire between two host-id sets for [start, end).

        The heal at ``end`` removes this cut only: other cuts, and any drop
        rule installed outside the schedule, stay in force.
        """
        cut = cut_between(group_a, group_b)
        self.events.append(self.domain.engine.schedule_at(
            start, self.domain.ethernet.add_drop_predicate, cut))
        self.events.append(self.domain.engine.schedule_at(
            end, heal_partition, self.domain, cut))
        return self

    def cancel(self) -> None:
        for event in self.events:
            event.cancel()
        self.events.clear()


# --------------------------------------------------------------- invariants


def check_no_timer_leaks(domain: Domain) -> list[str]:
    """No live queued event may reference a dead process.

    A Delay wakeup or a busy replier's resume holds its process in the
    event's args; one left queued for a dead process is latent corruption:
    it would step a closed generator.  A transaction's probe, retransmit
    and GroupSend-reply times are deadlines (``DeadlineLane``), listed by
    ``pending_events`` only while the transaction is outstanding, so
    whatever ends a transaction retires them with nothing to cancel; this
    check sees one only if the kernel forgot to end it.
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


def standard_problems(domain: Domain, caches: Iterable = ()) -> list[str]:
    """The kernel invariants, plus cache accounting for each of ``caches``."""
    problems = (check_no_timer_leaks(domain)
                + check_no_stuck_transactions(domain)
                + check_timeouts_explained(domain))
    for cache in caches:
        problems += check_cache_accounting(cache)
    return problems


def check_invariants(domain: Domain, cache=None) -> None:
    """Run every applicable check; raise :class:`InvariantViolation`."""
    problems = standard_problems(domain, [] if cache is None else [cache])
    if problems:
        raise InvariantViolation(problems)


# ------------------------------------------------------------- the runner


@dataclass(kw_only=True)
class ScenarioReport:
    """What one seeded scenario run did and observed: the part every world
    shares.  A world's report adds its own fields and ``to_dict`` layout."""

    seed: int
    duration: float
    reads_ok: int = 0
    reads_failed: int = 0
    reads_wrong: int = 0
    metrics: dict = field(default_factory=dict)
    #: Watchdog summary (``watchdogs=True`` only): fired/resolved counts,
    #: the alert records, and how many came back through the [obs] read.
    alerts: dict = field(default_factory=dict)

    #: ``to_dict`` layout: the fields before the read tally, the
    #: ``(key, field)`` pairs after it, and the fields written only when set.
    _HEAD: ClassVar[tuple] = ()
    _TAIL: ClassVar[tuple] = ()
    _IF_SET: ClassVar[tuple] = ()

    @property
    def reads(self) -> int:
        return self.reads_ok + self.reads_failed + self.reads_wrong

    @property
    def success_rate(self) -> float:
        return self.reads_ok / self.reads if self.reads else 0.0

    def to_dict(self) -> dict:
        document = {name: getattr(self, name) for name in self._HEAD}
        document.update(reads=self.reads, reads_ok=self.reads_ok,
                        reads_failed=self.reads_failed,
                        reads_wrong=self.reads_wrong,
                        success_rate=round(self.success_rate, 4))
        document.update((key, getattr(self, name)) for key, name in self._TAIL)
        document.update((name, getattr(self, name)) for name in self._IF_SET
                        if getattr(self, name))
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


def reads(report: ScenarioReport, session, duration: float, period: float,
          names):
    """A reader's body: every ``period`` s until ``duration``, read each
    name ``names()`` returns through ``session``, and tally the outcome."""
    while (yield Now()) < duration:
        for name in names():
            try:
                data = yield from files.read_file(session, name)
            except (NameError_, IoError):
                report.reads_failed += 1
            else:
                if data == _PAYLOAD:
                    report.reads_ok += 1
                else:
                    report.reads_wrong += 1
        yield Delay(period)


def run_scenario(domain: Domain, report: ScenarioReport, caches, finish,
                 watcher=None) -> ScenarioReport:
    """Run a built world to quiescence and check it; returns ``report``.

    ``finish()`` runs first (it may run the domain again) and fills the
    world's own report fields and returns its own problems; the standard
    invariants over ``domain`` and ``caches`` and the wrong-bytes check join
    them.  With a ``watcher`` workstation (watchdogs armed), the alert log
    read back through ``[obs]`` must match the engine's record for record.
    One :class:`InvariantViolation` carries every problem, and the domain's
    flight recorder if it has one.
    """
    domain.run()
    domain.check_healthy()
    report.metrics = {key: domain.metrics.count(key) for key in _METRIC_KEYS}
    problems = finish() + standard_problems(domain, caches)
    if report.reads_wrong:
        problems.append(f"{report.reads_wrong} read(s) returned wrong data")
    if watcher is not None:
        alerts = domain.telemetry.alerts
        report.alerts = {
            "fired": alerts.fired,
            "resolved": alerts.resolved,
            "active": sorted(f"{rule}@{host}"
                             for rule, host in alerts.active),
            "events": alerts.to_records(),
        }
        path = "[obs]/fleet/alerts"
        payload = files.read_files(watcher, [path], "alert-reader")
        delivered = [record for record in
                     (json.loads(line) for line in
                      payload.get(path, b"").splitlines() if line.strip())
                     if record.get("kind") == "alert"]
        report.alerts["delivered"] = len(delivered)
        emitted = alerts.to_records()
        if delivered != emitted:
            problems.append(
                f"alert log read through {path} disagrees with the "
                f"watchdog engine: {len(delivered)} record(s) delivered "
                f"vs {len(emitted)} emitted")
    if problems:
        raise InvariantViolation(problems, flight=domain.flight)
    return report


# ------------------------------------------------- the file-server world


@dataclass(kw_only=True)
class ChaosReport(ScenarioReport):
    """What one seeded run of the file-server world did and observed."""

    drop_rate: float
    cache_stats: dict = field(default_factory=dict)
    #: Flight-recorder summary (``flight=True`` only): per-host record and
    #: digest-window counts plus postmortem tally -- all deterministic.
    flight: dict = field(default_factory=dict)
    #: The live recorder object itself (not serialized); replay and the
    #: CLI's postmortem dumper read lanes and chains off it.
    recorder: object = None
    #: The client workstation, its domain quiescent (not serialized); the
    #: monitor reads every host's time series back through it.
    workstation: object = None

    _HEAD = ("seed", "duration", "drop_rate")
    _TAIL = (("metrics", "metrics"), ("cache", "cache_stats"))
    _IF_SET = ("alerts", "flight")


def run_chaos(seed: int = 7, duration: float = 5.0, drop: float = 0.10,
              dup: float = 0.02, delay_rate: float = 0.05,
              crash: bool = True, watchdogs: bool = False,
              flight: bool = False) -> ChaosReport:
    """One seeded run of the file-server world; returns the checked report.

    Workstation ``mann`` (name cache on) reads two names every 20 ms: one
    through the fixed ``[root]`` prefix binding, one through the generic
    ``[storage]`` binding, both landing on a populated file server on
    ``vax1``.  The wire drops/duplicates/delays frames for the middle 80 %
    of the run (clean at both ends, so the cache warms up honestly and the
    run can quiesce) and, with ``crash``, the file server is down from
    40 % to 50 % of it.

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
    workstation = setup_workstation(domain, "mann")
    handle = start_server(domain.create_host("vax1"), populated_fileserver())
    standard_prefixes(workstation, handle)
    cache = workstation.enable_name_cache()

    if watchdogs:
        enable_obs_namespace(domain, workstation.host)
        domain.enable_telemetry(interval=0.1)

    schedule = ChaosSchedule(domain).loss_between(
        0.1 * duration, 0.9 * duration,
        WireFaultModel(drop_rate=drop, dup_rate=dup, delay_rate=delay_rate))
    if crash:
        def respawn(host):
            # The respawned server has a new pid: re-register its services
            # (the generic [storage] binding re-resolves via GetPid on its
            # own) and rebind the fixed prefixes, as the workstation's boot
            # script would.  The prefix server notifies attached caches of
            # each rebinding.
            standard_prefixes(workstation,
                              start_server(host, populated_fileserver()))

        schedule.crash_between(handle.host, 0.4 * duration, 0.5 * duration,
                               respawn=respawn)

    report = ChaosReport(seed=seed, duration=duration, drop_rate=drop,
                         workstation=workstation)
    names = ("[root]data/f0.dat", "[storage]data/f0.dat")
    workstation.host.spawn(
        reads(report, workstation.session(), duration, 0.02, lambda: names),
        name="chaos-client")

    def finish() -> list[str]:
        report.cache_stats = {key: getattr(cache.stats, key) for key in
                              ("hits", "misses", "fallbacks", "invalidations")}
        if recorder is not None:
            recorder.finalize()
            report.recorder = recorder
            report.flight = {
                "hosts": {name: {key: recorder.stats(name)[key]
                                 for key in ("records_seen", "windows")}
                          for name in recorder.hosts()},
                "postmortems": {name: len(dumps) for name, dumps in
                                sorted(recorder.postmortems.items())},
            }
        return []

    return run_scenario(domain, report, [cache], finish,
                        watcher=workstation if watchdogs else None)


# ------------------------------------------------------- the shard world


@dataclass(kw_only=True)
class ShardStormReport(ScenarioReport):
    """What one seeded replica-crash storm did and observed."""

    n_replicas: int
    n_prefixes: int
    n_clients: int
    promotions: int = 0
    rejoins: int = 0
    map_version: int = 0
    resolvers: list = field(default_factory=list)
    replicas: list = field(default_factory=list)
    #: Post-quiescence coherence audit document (repro.obs.audit): via the
    #: ``[obs]`` protocol walk when ``watchdogs=True``, direct otherwise.
    audit: dict = field(default_factory=dict)

    _HEAD = ("seed", "duration", "n_replicas", "n_prefixes", "n_clients")
    _TAIL = tuple((name, name) for name in (
        "promotions", "rejoins", "map_version", "metrics", "resolvers",
        "replicas"))
    _IF_SET = ("audit", "alerts")


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

    Invariants, on top of the standard set (every resolver's cache
    accounting among them): :func:`check_lease_coherence` must find zero
    resolutions served from expired leases -- across every replica
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
    from repro.obs.audit import audit_direct, audit_via_obs, enable_coherence
    from repro.runtime.session import Session

    domain = Domain(seed=seed)
    fs_handle = start_server(domain.create_host("vax1"),
                             populated_fileserver())
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))

    replica_hosts = domain.create_hosts(n_replicas, prefix="ns")
    cluster = ShardCluster(domain, replica_hosts, lease_ttl=lease_ttl)

    def seed_table(host=None):
        for index in range(n_prefixes):
            cluster.seed_binding(f"p{index}", pair)

    seed_table()

    watcher = None
    if watchdogs:
        from repro.obs.telemetry import coherence_watchdogs, default_watchdogs

        watcher = setup_workstation(domain, "watch")
        standard_prefixes(watcher, fs_handle)
        enable_obs_namespace(domain, fs_handle.host)
        enable_coherence(domain)
        domain.enable_telemetry(
            interval=0.1, rules=default_watchdogs() + coherence_watchdogs())

    report = ShardStormReport(seed=seed, duration=duration,
                              n_replicas=n_replicas, n_prefixes=n_prefixes,
                              n_clients=n_clients)

    resolvers = []
    for number in range(n_clients):
        client_host = domain.create_host(f"client{number + 1}")
        # host= registers the resolver for the coherence audit (and the
        # [obs] coherence leaf); pure bookkeeping, zero simulated cost.
        resolver = cluster.resolver(host=client_host)
        session = Session(current=pair, prefix_server=cluster.primary_pid(),
                          cache=resolver)
        session.env.retry_budget = retry_budget
        resolvers.append(resolver)

        def zipf_name(stream=f"storm.client{number}"):
            index = domain.rng.zipf_index(stream, n_prefixes, 1.1)
            return (f"[p{index}]data/f0.dat",)

        client_host.spawn(reads(report, session, duration, 0.03, zipf_name),
                          name=f"storm-client-{number}")

    schedule = ChaosSchedule(domain)
    if crash:
        if n_replicas == 1:
            # The only copy of the prefix table dies with its host; the
            # respawn re-seeds it, as the workstation boot script would.
            schedule.crash_between(replica_hosts[0], 0.4 * duration,
                                   0.5 * duration, respawn=seed_table)
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
        # the run covers everything past the last sweep.
        def sweep():
            document = audit_direct(domain)
            if on_audit is not None:
                on_audit(document)
            if domain.now + audit_every < duration:
                domain.engine.schedule(audit_every, sweep)

        domain.engine.schedule(audit_every, sweep)

    def finish() -> list[str]:
        report.promotions = cluster.promotions
        report.rejoins = cluster.rejoins
        report.map_version = cluster.map.version
        report.resolvers = [resolver.snapshot() for resolver in resolvers]
        report.replicas = [server.snapshot_shard()
                           for server in cluster.all_servers()]
        # The coherence audit invariant: at quiescence, no cached entry
        # anywhere in the fleet may classify incoherent.  Direct (zero-cost)
        # always; through the [obs] protocol walk as well when it is
        # deployed, and then that walk is the report's audit.
        audits = [audit_direct(domain)]
        if watcher is not None:
            audits.append(audit_via_obs(watcher))
        report.audit = audits[-1]

        problems = check_lease_coherence(cluster)
        if crash and n_replicas >= 2 and report.reads_failed:
            problems.append(
                f"{report.reads_failed} read(s) failed with {n_replicas} "
                "replicas: failover must keep every name resolvable")
        for source in audits:
            for finding in source["findings"]["incoherent"]:
                problems.append(
                    f"coherence audit ({source['via']}): {finding['tier']} "
                    f"entry [{finding.get('prefix', finding.get('name'))}] "
                    f"on {finding['host']} is incoherent (stamp "
                    f"({finding['epoch']},{finding['source']}) vs owner "
                    f"{finding['owner']})")
        return problems

    return run_scenario(domain, report, resolvers, finish, watcher)
