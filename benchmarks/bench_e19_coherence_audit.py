"""E19: coherence observability -- propagation lag, staleness, audit cost.

PR 10 stamps every authoritative binding mutation with ``(epoch, source)``
provenance, traces SYNC/INVALIDATE fan-out through a passive
:class:`~repro.obs.audit.CoherenceProbe`, and adds a fleet auditor that
walks ``[obs]/hosts/<host>/coherence`` and classifies every cached entry
against the shard owner.  This experiment pins four properties:

- **invalidation propagation**: a pinned mutation storm (rebinds and
  deletes through the live protocol, forwarded to shard owners) yields a
  deterministic notice count and p50/p99 owner-to-replica lag;
- **staleness at hit**: the E18-shaped Zipf read mix, probe armed, yields
  a deterministic distribution of binding age at cache-hit time -- every
  sample TTL-bounded by construction;
- **audit sweep cost**: one full fleet walk over the wire (every host's
  coherence document read through the Sec. 5.4 forwarding chain) has a
  deterministic simulated price;
- **audit under failover**: the pinned E18 replica-crash storm, audited
  through ``[obs]`` at quiescence, classifies **zero** entries incoherent
  -- and arming the probe costs zero simulated time (the bare and armed
  mutation storms end at the identical simulated instant).
"""

from conftest import report_table

#: The pinned mutation storm: rebinds + deletes through the protocol.
MUT = dict(seed=19, n_replicas=3, n_prefixes=24, rounds=40, lease_ttl=1.0)

#: The pinned replica-crash storm (identical to E18's, audited here).
STORM = dict(seed=11, duration=6.0, n_replicas=3, n_prefixes=48,
             n_clients=2, lease_ttl=0.8)

#: Zipf staleness section: the E18 geometry, shrunk; the counts are pinned
#: because the staleness distribution is round-count sensitive.
ZIPF_PREFIXES = 512
ZIPF_FILES = 8
ZIPF_READS = 600
ZIPF_SKEW = 1.1
ZIPF_LEASE_TTL = 2.0

_PAYLOAD = b"e19-coherence-payload"


def _sharded_system(seed: int, n_replicas: int, n_prefixes: int,
                    lease_ttl: float, armed: bool = True):
    """Domain + cluster + file server; probe armed unless ``armed=False``."""
    from repro.core.context import ContextPair, WellKnownContext
    from repro.core.shard import ShardCluster
    from repro.kernel.domain import Domain
    from repro.obs.audit import enable_coherence
    from repro.servers.base import start_server
    from repro.servers.fileserver.server import VFileServer

    domain = Domain(seed=seed)
    if armed:
        enable_coherence(domain)
    fs_host = domain.create_host("vax1")
    fileserver = VFileServer(user="mann")
    for index in range(ZIPF_FILES):
        node = fileserver.store.make_path(f"data/f{index}.dat",
                                          directory=False)
        node.data[:] = _PAYLOAD
    fs_handle = start_server(fs_host, fileserver)
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))
    cluster = ShardCluster(domain, domain.create_hosts(n_replicas,
                                                       prefix="ns"),
                           lease_ttl=lease_ttl)
    for index in range(n_prefixes):
        cluster.seed_binding(f"p{index}", pair)
    return domain, cluster, pair, fs_host, fs_handle


# ------------------------------------------------- invalidation propagation


def run_mutation_storm(armed: bool = True) -> dict:
    """The pinned rebind/delete storm; returns probe digest + end time.

    Every 5th round deletes and re-adds its prefix (INVALIDATE + SYNC
    fan-out); the rest rebind in place (SYNC fan-out).  Mutations go to
    the primary replica and forward to the shard owner over the wire, so
    the measured lag includes the real forwarding path.
    """
    from repro.kernel.ipc import Delay
    from repro.runtime.session import Session

    domain, cluster, pair, __, __ = _sharded_system(
        MUT["seed"], MUT["n_replicas"], MUT["n_prefixes"],
        MUT["lease_ttl"], armed=armed)
    session = Session(current=pair, prefix_server=cluster.primary_pid(),
                      latency=domain.latency)

    def mutator(session):
        for round_no in range(MUT["rounds"]):
            index = round_no % MUT["n_prefixes"]
            if round_no % 5 == 4:
                yield from session.delete_prefix(f"p{index}")
                yield from session.add_prefix(f"p{index}", pair)
            else:
                yield from session.add_prefix(f"p{index}", pair,
                                              replace=True)
            yield Delay(0.02)

    host = domain.create_host("mutator")
    host.spawn(mutator(session), name="e19-mutator")
    domain.run()
    domain.check_healthy()
    probe = domain.coherence
    return {
        "end_t": domain.now,
        "summary": probe.summary() if probe is not None else None,
    }


def measure_propagation() -> dict:
    run = run_mutation_storm(armed=True)
    digest = run["summary"]
    lag = digest["invalidation_lag_ms"]
    return {
        "rounds": MUT["rounds"],
        "notices_sent": digest["notices_sent"],
        "notices_applied": digest["notices_applied"],
        "notices_in_flight": digest["notices_in_flight"],
        "propagation_p50_ms": lag["p50"],
        "propagation_p99_ms": lag["p99"],
        "propagation_max_ms": lag["max"],
        "end_t": run["end_t"],
    }


def test_e19_invalidation_propagation(benchmark):
    prop = benchmark(measure_propagation)
    report_table(
        "E19  invalidation propagation (pinned mutation storm, 3 replicas)",
        [("notices sent", prop["notices_sent"]),
         ("notices applied", prop["notices_applied"]),
         ("owner->replica lag p50 (ms)", prop["propagation_p50_ms"]),
         ("owner->replica lag p99 (ms)", prop["propagation_p99_ms"])],
        headers=("quantity", "value"),
    )
    # Every fan-out notice lands (no peer is down in this scenario)...
    assert prop["notices_applied"] == prop["notices_sent"]
    assert prop["notices_in_flight"] == 0
    # ...and the lag is a real wire time: positive, bounded.
    assert 0.0 < prop["propagation_p50_ms"] <= prop["propagation_p99_ms"]
    assert prop["propagation_p99_ms"] < 250.0  # the SLO rule's limit


def test_e19_probe_observer_effect():
    """Arming the probe must not move the simulated timeline at all."""
    armed = run_mutation_storm(armed=True)
    bare = run_mutation_storm(armed=False)
    assert bare["summary"] is None
    assert armed["end_t"] == bare["end_t"]


# --------------------------------------------------------- staleness at hit


def measure_zipf_staleness() -> dict:
    """E18-shaped Zipf reads, probe armed: binding age at cache-hit time."""
    from repro.core.resolver import NameError_
    from repro.kernel.ipc import Delay, Now
    from repro.runtime import files
    from repro.runtime.session import Session

    domain, cluster, pair, __, __ = _sharded_system(
        5, 4, ZIPF_PREFIXES, ZIPF_LEASE_TTL)
    client_host = domain.create_host("client")
    resolver = cluster.resolver(negative_ttl=2.0, host=client_host)
    session = Session(current=pair, prefix_server=cluster.primary_pid(),
                      latency=domain.latency, cache=resolver)
    tally = {"ok": 0, "miss": 0}
    population = ZIPF_PREFIXES * ZIPF_FILES

    def reader(session):
        for number in range(ZIPF_READS):
            rank = domain.rng.zipf_index("e19.zipf", population, ZIPF_SKEW)
            prefix = rank % ZIPF_PREFIXES
            name = (f"[p{prefix}]data/"
                    f"f{(rank // ZIPF_PREFIXES) % ZIPF_FILES}.dat")
            try:
                yield from files.read_file(session, name)
            except NameError_:
                tally["miss"] += 1
            else:
                tally["ok"] += 1
            yield Delay(0.005)

    client_host.spawn(reader(session), name="e19-zipf-reader")
    domain.run()
    domain.check_healthy()
    digest = domain.coherence.summary()
    staleness = digest["staleness_at_hit_ms"]
    return {
        "reads": ZIPF_READS,
        "reads_ok": tally["ok"],
        "hits_sampled": staleness["samples"],
        "staleness_p50_ms": staleness["p50"],
        "staleness_p99_ms": staleness["p99"],
        "staleness_max_ms": staleness["max"],
    }


def test_e19_zipf_staleness(benchmark):
    zipf = benchmark(measure_zipf_staleness)
    report_table(
        "E19  staleness at hit (Zipf reads through the shard resolver)",
        [("reads", zipf["reads"]),
         ("cache hits sampled", zipf["hits_sampled"]),
         ("staleness p50 (ms)", zipf["staleness_p50_ms"]),
         ("staleness p99 (ms)", zipf["staleness_p99_ms"]),
         ("staleness max (ms)", zipf["staleness_max_ms"]),
         ("TTL bound (ms)", ZIPF_LEASE_TTL * 1000)],
        headers=("quantity", "value"),
    )
    assert zipf["hits_sampled"] > 0
    # The served-staleness contract: no hit older than the binding TTL.
    assert zipf["staleness_max_ms"] <= ZIPF_LEASE_TTL * 1000


# ----------------------------------------------------------- audit sweep


def measure_audit_walk() -> dict:
    """Simulated cost of one full fleet coherence walk through [obs]."""
    from repro.obs.audit import audit_via_obs
    from repro.runtime.workstation import setup_workstation, standard_prefixes
    from repro.servers.statserver import enable_obs_namespace

    domain, cluster, pair, fs_host, fs_handle = _sharded_system(
        7, MUT["n_replicas"], MUT["n_prefixes"], MUT["lease_ttl"])
    watcher = setup_workstation(domain, "watch")
    standard_prefixes(watcher, fs_handle)
    enable_obs_namespace(domain, fs_host)
    resolver = cluster.resolver(host=watcher.host)
    del resolver  # registered; audited as part of the walk
    start = domain.now
    report = audit_via_obs(watcher)
    walk_ms = (domain.now - start) * 1000.0
    entries = sum(tier.get("entries", 0)
                  for tier in report["tiers"].values())
    return {
        "hosts_walked": len(report["hosts"]),
        "entries_classified": entries,
        "incoherent": len(report["findings"]["incoherent"]),
        "unreachable": len(report["unreachable"]),
        "audit_walk_ms": round(walk_ms, 4),
        "ok": report["ok"],
    }


def test_e19_audit_walk(benchmark):
    walk = benchmark(measure_audit_walk)
    report_table(
        "E19  fleet coherence walk through [obs] (5 hosts + watcher)",
        [("hosts walked", walk["hosts_walked"]),
         ("entries classified", walk["entries_classified"]),
         ("incoherent", walk["incoherent"]),
         ("simulated walk cost (ms)", walk["audit_walk_ms"])],
        headers=("quantity", "value"),
    )
    assert walk["ok"] and walk["incoherent"] == 0
    assert walk["unreachable"] == 0
    assert walk["entries_classified"] > 0
    # The walk is real traffic: it costs simulated time, bounded.
    assert 0.0 < walk["audit_walk_ms"] < 1000.0


# ----------------------------------------------------- audit under failover


def measure_storm_audit() -> dict:
    """The pinned replica-crash storm, audited through [obs] at quiescence."""
    from repro.faults.chaos import run_replica_storm

    report = run_replica_storm(**STORM, watchdogs=True)
    audit = report.audit
    tiers = audit["tiers"]
    drift = audit["findings"]["map_drift"]
    return {
        "reads_ok": report.reads_ok,
        "reads_failed": report.reads_failed,
        "audit_incoherent": len(audit["findings"]["incoherent"]),
        "audit_stale": len(audit["findings"]["stale"]),
        "audit_replica_entries": tiers["replica"]["entries"],
        "audit_resolver_entries": tiers["resolver"]["entries"],
        "audit_map_drift": len(drift),
        "audit_replica_drift": sum(1 for finding in drift
                                   if finding["tier"] == "replica"),
        "alerts_fired": report.alerts.get("fired", 0),
        "audit_ok": audit["ok"],
    }


def test_e19_storm_audit(benchmark):
    storm = benchmark(measure_storm_audit)
    report_table(
        "E19  replica-crash storm audited at quiescence (via [obs])",
        [("reads ok", storm["reads_ok"]),
         ("replica entries audited", storm["audit_replica_entries"]),
         ("resolver entries audited", storm["audit_resolver_entries"]),
         ("incoherent (servable wrongness)", storm["audit_incoherent"]),
         ("map drift at quiescence", storm["audit_map_drift"])],
        headers=("quantity", "value"),
    )
    # The forbidden state never survives quiescence...
    assert storm["audit_ok"] and storm["audit_incoherent"] == 0
    # ...every *replica* converged on one map (resolvers catch up lazily,
    # on their next routed lookup, so idle clients may trail by design)...
    assert storm["audit_replica_drift"] == 0
    assert storm["audit_map_drift"] <= STORM["n_clients"]
    # ...and the storm itself still behaves exactly as E18 pinned it.
    assert storm["reads_failed"] == 0


# ---------------------------------------------------------------- trajectory


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Propagation, storm-audit and Zipf staleness counts are functions of
    pinned seeds -- byte-identical across runs and machines.
    """
    prop = measure_propagation()
    walk = measure_audit_walk()
    storm = measure_storm_audit()
    zipf = measure_zipf_staleness()
    bare = run_mutation_storm(armed=False)
    return {
        "propagation_p50_ms": prop["propagation_p50_ms"],
        "propagation_p99_ms": prop["propagation_p99_ms"],
        "notices_sent": prop["notices_sent"],
        "notices_applied": prop["notices_applied"],
        "audit_walk_ms": walk["audit_walk_ms"],
        "audit_entries_classified": walk["entries_classified"],
        "storm_audit_incoherent": storm["audit_incoherent"],
        "storm_audit_replica_entries": storm["audit_replica_entries"],
        "staleness_p50_ms": zipf["staleness_p50_ms"],
        "staleness_p99_ms": zipf["staleness_p99_ms"],
        "staleness_samples": zipf["hits_sampled"],
        # 0.0 by the zero-observer-effect rule: the armed and bare
        # mutation storms end at the identical simulated instant.
        "probe_observer_effect_s": round(
            abs(prop["end_t"] - bare["end_t"]), 9),
    }
