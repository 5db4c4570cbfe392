"""E18: sharded replicated prefix serving -- balance, Zipf reads, failover.

PR 9 partitions the context prefix directory across replicated servers
(:mod:`repro.core.shard`): a versioned consistent-hash shard map, leased
bindings with an inclusive expiry boundary, owner fan-out of binding
changes, and a per-host resolver daemon that layers negative caching and
hierarchical lookup on the PR-2 ``BindingCache``.  This experiment pins
the three properties the design is for:

- **shard balance**: 10^5 prefixes over 8 replicas x 64 vnodes must spread
  evenly (max/min owned-count ratio), and dropping one replica must move
  only ~1/8 of the keys -- both pure functions of crc32, byte-stable;
- **Zipf resolution**: a client reading from a 10^5-name Zipf population
  through its shard resolver; the popular head lives in the TTL-bound
  binding cache and hot *missing* names are answered from the negative
  cache without a message leaving the machine;
- **failover**: the pinned replica-crash storm (every replica dies once
  under live traffic) must finish with zero failed reads, one promotion
  and one rejoin per crash, and zero resolutions served from an expired
  lease -- all deterministic counts the trajectory tracks.
"""

from conftest import report_table

#: The balance section's geometry: 10^5 prefixes over 8 replicas.
BALANCE_PREFIXES = 100_000
BALANCE_REPLICAS = 8
BALANCE_VNODES = 64

#: The pinned storm scenario (same as ``repro.faults.chaos --storm``).
STORM = dict(seed=11, duration=6.0, n_replicas=3, n_prefixes=48,
             n_clients=2, lease_ttl=0.8)

#: The Zipf section: a 10^5-name population (prefixes x shared paths),
#: read with skew 1.0 -- the heavy head is what the resolver caches.
ZIPF_PREFIXES = 4096
ZIPF_FILES = 25
ZIPF_POPULATION = ZIPF_PREFIXES * ZIPF_FILES   # 102_400 distinct names
ZIPF_READS = 2000
ZIPF_SKEW = 1.1
ZIPF_MISS_EVERY = 40
#: The client-side binding TTL for this scenario: long enough that the
#: Zipf head stays warm, still bounded (nothing outlives its lease rule).
ZIPF_LEASE_TTL = 5.0


# ------------------------------------------------------------ shard balance


def measure_shard_balance() -> dict:
    """Partition quality and failover movement, straight off the ring."""
    from repro.core.shard import ShardMap

    shard_map = ShardMap(
        version=1,
        replicas=tuple((rid, 1000 + rid) for rid in range(BALANCE_REPLICAS)),
        vnodes=BALANCE_VNODES)
    prefixes = [b"p%06d" % index for index in range(BALANCE_PREFIXES)]
    counts = shard_map.assignment_counts(prefixes)
    dropped = shard_map.without(0)
    moved = sum(1 for prefix in prefixes
                if dropped.owner_of(prefix) != shard_map.owner_of(prefix))
    return {
        "prefixes": BALANCE_PREFIXES,
        "replicas": BALANCE_REPLICAS,
        "balance_ratio": round(max(counts.values()) / min(counts.values()), 4),
        "moved_share": round(moved / BALANCE_PREFIXES, 4),
    }


def test_e18_shard_balance(benchmark):
    balance = benchmark(measure_shard_balance)
    report_table(
        "E18  consistent-hash partition (10^5 prefixes, 8 replicas, "
        "64 vnodes)",
        [("max/min owned ratio", balance["balance_ratio"]),
         ("keys moved on 1-replica drop", balance["moved_share"]),
         ("ideal moved share (1/8)", 0.125)],
        headers=("quantity", "value"),
    )
    # A well-mixed ring: no replica owns 2x another's share, and dropping
    # one replica moves roughly its own share of the keys, nothing more.
    assert balance["balance_ratio"] < 2.0
    assert 0.05 < balance["moved_share"] < 0.25


# ---------------------------------------------------------- Zipf resolution


def measure_zipf_resolution() -> dict:
    """10^5-name Zipf population read through a shard resolver."""
    from repro.core.context import ContextPair, WellKnownContext
    from repro.core.resolver import NameError_
    from repro.core.shard import ShardCluster
    from repro.kernel.domain import Domain
    from repro.kernel.ipc import Delay, Now
    from repro.runtime import files
    from repro.runtime.session import Session
    from repro.servers.base import start_server
    from repro.servers.fileserver.server import VFileServer

    domain = Domain(seed=5)
    fs_host = domain.create_host("vax1")
    fileserver = VFileServer(user="mann")
    for index in range(ZIPF_FILES):
        node = fileserver.store.make_path(f"data/f{index}.dat",
                                          directory=False)
        node.data[:] = b"e18-zipf-payload"
    fs_handle = start_server(fs_host, fileserver)
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))

    cluster = ShardCluster(domain, domain.create_hosts(4, prefix="ns"),
                           lease_ttl=ZIPF_LEASE_TTL)
    for index in range(ZIPF_PREFIXES):
        cluster.seed_binding(f"p{index}", pair)

    client_host = domain.create_host("client")
    resolver = cluster.resolver(negative_ttl=2.0)
    session = Session(current=pair, prefix_server=cluster.primary_pid(),
                      latency=domain.latency, cache=resolver)
    tally = {"ok": 0, "miss": 0, "failed": 0}
    stamps = []

    def reader(session):
        for number in range(ZIPF_READS):
            rank = domain.rng.zipf_index("e18.zipf", ZIPF_POPULATION,
                                         ZIPF_SKEW)
            prefix = rank % ZIPF_PREFIXES
            if number % ZIPF_MISS_EVERY == 0:
                # One hot *missing* name: the first ask stores a negative
                # entry, repeats are answered locally while it is fresh.
                name = "[p0]data/missing.dat"
            else:
                name = f"[p{prefix}]data/f{(rank // ZIPF_PREFIXES) % ZIPF_FILES}.dat"
            start = yield Now()
            try:
                yield from files.read_file(session, name)
            except NameError_:
                tally["miss"] += 1
            except Exception:
                tally["failed"] += 1
            else:
                tally["ok"] += 1
            end = yield Now()
            stamps.append(end - start)
            yield Delay(0.005)

    client_host.spawn(reader(session), name="e18-zipf-reader")
    domain.run()
    domain.check_healthy()

    stats = resolver.stats
    return {
        "population": ZIPF_POPULATION,
        "reads": ZIPF_READS,
        "reads_ok": tally["ok"],
        "reads_missing": tally["miss"],
        "reads_failed": tally["failed"],
        "hit_rate": round(stats.hit_rate, 4),
        "negative_hits": resolver.negative_hits,
        "negative_stores": resolver.negative_stores,
        "mean_read_ms": round(sum(stamps) / len(stamps) * 1000, 4),
    }


def test_e18_zipf_resolution(benchmark):
    zipf = benchmark(measure_zipf_resolution)
    report_table(
        "E18  Zipf reads (10^5-name population) through the shard resolver",
        [("reads", zipf["reads"]),
         ("resolver hit rate", zipf["hit_rate"]),
         ("negative-cache hits", zipf["negative_hits"]),
         ("mean read latency (ms)", zipf["mean_read_ms"])],
        headers=("quantity", "value"),
    )
    assert zipf["reads_failed"] == 0
    # The Zipf head keeps the binding cache warm...
    assert zipf["hit_rate"] > 0.4
    # ...and hot missing names are answered locally at least once.
    assert zipf["negative_hits"] > 0
    assert zipf["negative_stores"] > 0


# ------------------------------------------------------------------ failover


def measure_failover_storm() -> dict:
    """The pinned replica-crash storm; raises if any invariant fails."""
    from repro.faults.chaos import run_replica_storm

    report = run_replica_storm(**STORM)
    refusals = sum(entry["lease_refusals"] for entry in report.replicas)
    refreshes = sum(entry["lease_refreshes"] for entry in report.replicas)
    redirects = sum(entry["redirects_followed"] for entry in report.resolvers)
    return {
        "reads": report.reads,
        "reads_ok": report.reads_ok,
        "reads_failed": report.reads_failed,
        "promotions": report.promotions,
        "rejoins": report.rejoins,
        "map_version": report.map_version,
        "lease_refusals": refusals,
        "lease_refreshes": refreshes,
        "redirects_followed": redirects,
    }


def test_e18_failover_storm(benchmark):
    storm = benchmark(measure_failover_storm)
    report_table(
        "E18  replica-crash storm (3 replicas, every one dies once)",
        [("reads ok / total", f"{storm['reads_ok']}/{storm['reads']}"),
         ("reads failed", storm["reads_failed"]),
         ("promotions", storm["promotions"]),
         ("rejoins", storm["rejoins"]),
         ("final map version", storm["map_version"]),
         ("lease refusals (served stale: never)", storm["lease_refusals"])],
        headers=("quantity", "value"),
    )
    # Every name resolves during and after owner failover...
    assert storm["reads_failed"] == 0 and storm["reads_ok"] == storm["reads"]
    # ...every crash was failed over and every restart rejoined...
    assert storm["promotions"] == STORM["n_replicas"]
    assert storm["rejoins"] == STORM["n_replicas"]
    # ...and the map version counted every membership change.
    assert storm["map_version"] == 1 + 2 * STORM["n_replicas"]


# ---------------------------------------------------------------- trajectory


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Balance, storm and Zipf counts are pure functions of pinned seeds and
    crc32 -- byte-identical across runs and machines.
    """
    balance = measure_shard_balance()
    storm = measure_failover_storm()
    return {
        "shard_balance_ratio": balance["balance_ratio"],
        "shard_moved_share": balance["moved_share"],
        "storm_reads_ok": storm["reads_ok"],
        "storm_reads_failed": storm["reads_failed"],
        "storm_promotions": storm["promotions"],
        "storm_rejoins": storm["rejoins"],
        "storm_map_version": storm["map_version"],
        "zipf_hit_rate": measure_zipf_resolution()["hit_rate"],
        "storm_lease_refusals": storm["lease_refusals"],
        "storm_redirects": storm["redirects_followed"],
    }
