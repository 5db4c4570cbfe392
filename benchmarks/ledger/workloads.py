"""The seven ledger workloads, built through the public API only.

Every workload is closed-loop (a V ``Send`` blocks for its reply) and is
driven from one process, one client thread / one asyncio loop.  A workload
is a ``build(seed, scale)`` that generates its inputs from the seed and
brings the system up to its first timed operation, and a ``run(state)`` that
times the operations, checks their outputs and returns an :class:`Outcome`.

``scale`` shrinks the operation counts (``--smoke`` runs at 1/20, the
instrument-tax probes at 1/2); at ``scale=1.0`` each workload does at least
one second of timed work on the reference box and at least 1000 operations,
so ten samples lie beyond every reported p99.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.core.resolver import NameError_
from repro.core.shard import ShardCluster
from repro.faults.chaos import InvariantViolation, run_replica_storm
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, Now, Receive, Reply, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.net.asyncio_transport import AsyncDomain
from repro.net.latency import STANDARD_3MBIT
from repro.obs import Observability
from repro.obs.audit import audit_direct, enable_coherence
from repro.obs.flight import enable_flight_recorder
from repro.runtime import files
from repro.runtime.session import Session
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.vio.client import IoError

ZIPF_SKEW = 1.1
HOME = int(WellKnownContext.HOME)
DEFAULT = int(WellKnownContext.DEFAULT)

#: instrument -> its public switch, for the tax probes that turn each on
#: alone (see layers.instrument_tax).  Spans are switched at construction.
INSTRUMENTS = {
    "spans": lambda domain: None,
    "telemetry": Domain.enable_telemetry,
    "flight": enable_flight_recorder,
    "profiler": Domain.enable_profiler,
    "coherence": enable_coherence,
}


@dataclass
class Outcome:
    """What one timed run of a workload did and observed."""

    timed_s: float
    attempted: int
    failed: int = 0
    #: Human-readable reasons behind ``failed`` and any failed output check.
    problems: list = field(default_factory=list)
    #: Deterministic facts of the seed: simulated-time metrics and counts.
    #: Must be bit-identical across repeats of one seed.
    sim: dict = field(default_factory=dict)
    #: Host-time diagnostics beyond the harness's own timing.
    wall: dict = field(default_factory=dict)


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted list."""
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def zipf_table(population: int) -> list:
    """Cumulative Zipf(1.1) weights over ranks ``[0, population)``."""
    return list(accumulate(1.0 / (rank ** ZIPF_SKEW)
                           for rank in range(1, population + 1)))


def zipf_ranks(rng: random.Random, table: list, count: int) -> list:
    """``count`` ranks drawn from ``rng`` with the popularity of ``table``."""
    total = table[-1]
    return [min(len(table) - 1, bisect_left(table, rng.random() * total))
            for _ in range(count)]


def make_domain(seed: int, instrument: str | None = None) -> Domain:
    """A Domain with at most one instrument switched on, through that
    instrument's public entry point."""
    domain = Domain(seed=seed,
                    obs=Observability() if instrument == "spans" else None)
    if instrument is not None:
        INSTRUMENTS[instrument](domain)
    return domain


def sim_latency_metrics(latencies: list, ops: int, sim_elapsed: float) -> dict:
    ordered = sorted(latencies)
    return {
        "e2e.op_sim_ms_p50": percentile(ordered, 0.50) * 1e3,
        "e2e.op_sim_ms_p99": percentile(ordered, 0.99) * 1e3,
        "e2e.sim_elapsed_s": sim_elapsed,
        "e2e.ops_per_sim_s": ops / sim_elapsed,
    }


def kernel_count_metrics(domain: Domain, ops: int) -> dict:
    count = domain.metrics.count
    return {
        "kernel.sends_per_op": count("ipc.sends") / ops,
        "kernel.forwards_per_op": count("ipc.forwards") / ops,
        "kernel.retransmits_per_op": count("ipc.retransmits") / ops,
        "net.ethernet.frames_per_op": count("net.frames") / ops,
        "net.ethernet.bytes_per_op": count("net.bytes") / ops,
    }


def timed(call, profiler=None):
    """Run ``call()`` as a workload's timed region, under ``profiler`` when
    the traced pass supplies one; returns ``(result, seconds)``."""
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        result = call()
    finally:
        seconds = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    return result, seconds


def des_outcome(state, timed_s: float, latencies: list) -> Outcome:
    """The outcome of a DES workload whose clients append one simulated
    latency per completed operation and count failures into ``state``."""
    domain = state["domain"]
    done = len(latencies)
    outcome = Outcome(timed_s, state["attempted"], failed=state["failed"],
                      problems=state["problems"][:5])
    if done != state["attempted"] and not outcome.failed:
        outcome.failed = state["attempted"] - done
        outcome.problems.append(f"{done}/{state['attempted']} ops completed")
    if done:
        outcome.sim.update(sim_latency_metrics(latencies, done, domain.now))
        outcome.sim.update(kernel_count_metrics(domain, done))
    return outcome


def run_domain(domain: Domain, outcome_of, profiler=None) -> Outcome:
    """Time ``domain.run()`` and nothing else, then build the outcome and
    apply the health check every DES workload shares."""
    _, timed_s = timed(domain.run, profiler)
    outcome = outcome_of(timed_s)
    try:
        domain.check_healthy()
    except AssertionError as error:
        outcome.problems.append(f"check_healthy: {error}")
    return outcome


def file_payloads(rng: random.Random, count: int, size: int) -> dict:
    return {f"f{index}.dat": rng.randbytes(size) for index in range(count)}


def populated_fileserver(payloads: dict, directory: str) -> VFileServer:
    server = VFileServer(user="mann")
    for name, data in payloads.items():
        node = server.store.make_path(f"{directory}/{name}", directory=False)
        node.data[:] = data
    return server


class Workload:
    """``build(seed, scale)`` -> state, ``run(state, profiler)`` -> Outcome,
    ``close(state)`` releases what build opened."""

    def close(self, state) -> None:
        return None


# ------------------------------------------------------------------ fleet_send


def responder():
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


class FleetSend(Workload):
    name = "fleet_send"
    clients = 200
    why = ("DES, 200 hosts x 100 bare 32-byte Send/Reply, Zipf-1.1 targets, "
           "200 clients: sim+kernel+net.ethernet do all the work, core/obs "
           "none, so per-event cost dominates")

    HOSTS = 200
    SENDS = 100

    def build(self, seed: int, scale: float, instrument: str | None = None):
        rng = random.Random(seed)
        sends = scaled(self.SENDS, scale, floor=5)
        domain = make_domain(seed, instrument)
        hosts = domain.create_hosts(self.HOSTS, prefix="fleet")
        responders = [host.spawn(responder(), name="responder").pid
                      for host in hosts]
        state = {"domain": domain, "latencies": [], "failed": 0,
                 "problems": [], "attempted": self.HOSTS * sends}
        popularity = zipf_table(self.HOSTS)
        for host in hosts:
            targets = [responders[rank]
                       for rank in zipf_ranks(rng, popularity, sends)]
            host.spawn(self._client(targets, state), name="client")
        return state

    @staticmethod
    def _client(targets, state):
        latencies = state["latencies"]
        before = yield Now()
        for target in targets:
            reply = yield Send(target,
                               Message.request(RequestCode.QUERY_NAME))
            after = yield Now()
            if reply.ok:
                latencies.append(after - before)
            else:
                state["failed"] += 1
                state["problems"].append(f"send refused: {reply!r}")
            before = after

    def run(self, state, profiler=None) -> Outcome:
        return run_domain(
            state["domain"],
            lambda timed_s: des_outcome(state, timed_s, state["latencies"]),
            profiler)


# ------------------------------------------------------------------- open_path


class OpenPath(Workload):
    name = "open_path"
    clients = 1
    why = ("DES, workstation + remote and local VFileServer, 1 client, 2000 "
           "each of direct/cold/warm Open and Open+read+Close: the paper's "
           "Sec. 6 table; core.csnh/prefix/cache and servers dominate, no "
           "core.shard")

    ROUNDS = 2000
    FILES = 32
    PREFIXES = 8
    FILE_BYTES = 2048

    def build(self, seed: int, scale: float):
        rng = random.Random(seed)
        rounds = scaled(self.ROUNDS, scale, floor=50)
        payloads = file_payloads(rng, self.FILES, self.FILE_BYTES)
        domain = make_domain(seed)
        workstation = setup_workstation(domain, "mann")
        remote = start_server(domain.create_host("vax1"),
                              populated_fileserver(payloads, "users/mann"))
        local = start_server(workstation.host,
                             populated_fileserver(payloads, "users/mann"))
        standard_prefixes(workstation, remote)
        homes = {"remote": ContextPair(remote.pid, HOME),
                 "local": ContextPair(local.pid, HOME)}
        for where, pair in homes.items():
            for index in range(self.PREFIXES):
                workstation.prefix_server.define_prefix(
                    f"{where}{index}", pair)
        cache = workstation.enable_name_cache()
        names = list(payloads)
        plan = [("remote" if number % 2 == 0 else "local",
                 rng.randrange(self.PREFIXES),
                 [rng.choice(names) for _ in range(4)])
                for number in range(rounds)]
        state = {"domain": domain, "payloads": payloads, "cache": cache,
                 "attempted": 4 * rounds, "failed": 0, "problems": [],
                 "latencies": {kind: [] for kind in
                               ("direct", "cold", "warm", "read",
                                "remote-direct", "remote-cold",
                                "remote-warm")}}
        prefixed = workstation.session()
        direct = {where: workstation.session(pair)
                  for where, pair in homes.items()}
        workstation.host.spawn(
            self._client(plan, prefixed, direct, state), name="client")
        return state

    @staticmethod
    def _client(plan, prefixed, direct, state):
        latencies = state["latencies"]
        cache = state["cache"]
        payloads = state["payloads"]

        def timed_open(kind, where, session, name):
            start = yield Now()
            try:
                stream = yield from session.open(name, "r")
            except (NameError_, IoError) as error:
                state["failed"] += 1
                state["problems"].append(f"{kind} open {name}: {error}")
                return
            elapsed = (yield Now()) - start
            yield from stream.close()
            latencies[kind].append(elapsed)
            if where == "remote":
                latencies[f"remote-{kind}"].append(elapsed)

        for where, prefix, (first, second, third, fourth) in plan:
            yield from timed_open("direct", where, direct[where], first)
            # Cold: nothing cached, so the request goes through the prefix
            # server; warm: the sibling name rides the binding just learned.
            cache.clear()
            yield from timed_open("cold", where, prefixed,
                                  f"[{where}{prefix}]{second}")
            yield from timed_open("warm", where, prefixed,
                                  f"[{where}{prefix}]{third}")
            start = yield Now()
            try:
                data = yield from files.read_file(direct[where], fourth)
            except (NameError_, IoError) as error:
                state["failed"] += 1
                state["problems"].append(f"read {fourth}: {error}")
                continue
            latencies["read"].append((yield Now()) - start)
            if data != payloads[fourth]:
                state["failed"] += 1
                state["problems"].append(f"read {fourth}: wrong bytes")

    def run(self, state, profiler=None) -> Outcome:
        def outcome_of(timed_s):
            latencies = state["latencies"]
            everything = [value for kind in ("direct", "cold", "warm", "read")
                          for value in latencies[kind]]
            outcome = des_outcome(state, timed_s, everything)
            for kind in ("direct", "cold", "warm"):
                samples = sorted(latencies[f"remote-{kind}"])
                if samples:
                    outcome.sim[f"e2e.open_{kind}_sim_ms_p50"] = (
                        percentile(samples, 0.50) * 1e3)
            if everything:
                outcome.sim["core.cache.hit_rate"] = (
                    state["cache"].stats.hit_rate)
            return outcome

        return run_domain(state["domain"], outcome_of, profiler)


# ------------------------------------------------------- shard_zipf / _mutate


def sharded_system(seed: int, n_prefixes: int, payloads: dict,
                   lease_ttl: float, instrument: str | None = None):
    """Domain + file server + 4-replica shard cluster, bindings seeded."""
    domain = make_domain(seed, instrument)
    fs_handle = start_server(domain.create_host("vax1"),
                             populated_fileserver(payloads, "data"))
    pair = ContextPair(fs_handle.pid, DEFAULT)
    cluster = ShardCluster(domain, domain.create_hosts(4, prefix="ns"),
                           lease_ttl=lease_ttl)
    for index in range(n_prefixes):
        cluster.seed_binding(f"p{index}", pair)
    return domain, cluster, pair


def shard_reader(session, names, payloads, think, state):
    """Read ``names`` in order; a ``None`` payload means the name is missing
    and the only correct outcome is NOT_FOUND."""
    latencies = state["latencies"]
    for name, leaf in names:
        expected = payloads.get(leaf)
        start = yield Now()
        try:
            data = yield from files.read_file(session, name)
        except NameError_ as error:
            if expected is not None or error.code is not ReplyCode.NOT_FOUND:
                state["failed"] += 1
                state["problems"].append(f"read {name}: {error}")
        except IoError as error:
            state["failed"] += 1
            state["problems"].append(f"read {name}: {error}")
        else:
            if data != expected:
                state["failed"] += 1
                state["problems"].append(f"read {name}: wrong bytes")
        latencies.append((yield Now()) - start)
        yield Delay(think)


def resolver_metrics(resolvers, cluster, ops: int) -> dict:
    hits = sum(max(0, resolver.stats.hits - resolver.stats.fallbacks)
               for resolver in resolvers)
    lookups = sum(resolver.stats.lookups for resolver in resolvers)
    negative = sum(resolver.negative_hits for resolver in resolvers)
    replicas = [server.snapshot_shard() for server in cluster.all_servers()]
    return {
        "core.cache.hit_rate": hits / lookups if lookups else 0.0,
        "core.cache.negative_hit_share": negative / hits if hits else 0.0,
        "core.shard.lease_refusals_per_op":
            sum(entry["lease_refusals"] for entry in replicas) / ops,
        "core.shard.redirects_per_op":
            sum(resolver.redirects_followed for resolver in resolvers) / ops,
        "core.shard.promotions": cluster.promotions,
        "core.shard.rejoins": cluster.rejoins,
    }


def shard_outcome(state, timed_s: float) -> Outcome:
    outcome = des_outcome(state, timed_s, state["latencies"])
    if state["latencies"]:
        outcome.sim.update(resolver_metrics(
            state["resolvers"], state["cluster"], len(state["latencies"])))
    return outcome


class ShardZipf(Workload):
    name = "shard_zipf"
    clients = 1
    why = ("DES, 4 replicas, 10^5 names, 1 client, 6000 Zipf-1.1 reads via "
           "ShardResolver, 1 in 40 missing, no faults or mutations: the read "
           "path of core.shard/core.cache, where a cache or resolver gain "
           "shows")

    PREFIXES = 4096
    FILES = 25
    READS = 6000
    MISS_EVERY = 40
    LEASE_TTL = 5.0
    THINK = 0.005

    def build(self, seed: int, scale: float):
        rng = random.Random(seed)
        prefixes = scaled(self.PREFIXES, scale, floor=64)
        reads = scaled(self.READS, scale, floor=200)
        payloads = file_payloads(rng, self.FILES, 16)
        domain, cluster, pair = sharded_system(
            seed, prefixes, payloads, self.LEASE_TTL)
        names = []
        for number, rank in enumerate(
                zipf_ranks(rng, zipf_table(prefixes * self.FILES), reads)):
            prefix = rank % prefixes
            if number % self.MISS_EVERY == 0:
                leaf = "missing.dat"
            else:
                leaf = f"f{(rank // prefixes) % self.FILES}.dat"
            names.append((f"[p{prefix}]data/{leaf}", leaf))
        client_host = domain.create_host("client")
        resolver = cluster.resolver(negative_ttl=2.0, host=client_host)
        session = Session(current=pair, prefix_server=cluster.primary_pid(),
                          latency=domain.latency, cache=resolver)
        state = {"domain": domain, "cluster": cluster,
                 "resolvers": [resolver], "latencies": [], "failed": 0,
                 "problems": [], "attempted": reads}
        client_host.spawn(
            shard_reader(session, names, payloads, self.THINK, state),
            name="reader")
        return state

    def run(self, state, profiler=None) -> Outcome:
        return run_domain(state["domain"],
                          lambda timed_s: shard_outcome(state, timed_s),
                          profiler)


class ShardMutate(Workload):
    name = "shard_mutate"
    clients = 3
    why = ("DES, same fleet, 512 prefixes, 2 Zipf readers + 1 mutator (4/5 "
           "rebind, 1/5 delete+re-add), audit at quiescence: the write side "
           "of core.shard, so a read-path gain that taxes mutations shows")

    PREFIXES = 512
    #: Readers draw from the first READ_PREFIXES; delete+re-add cycles over
    #: the rest, so no read can land in the window where its prefix is
    #: legitimately absent and every read has exactly one correct outcome.
    READ_PREFIXES = 384
    FILES = 8
    READS_PER_READER = 2000
    MUTATION_ROUNDS = 700
    MUTATION_PERIOD = 0.03
    LEASE_TTL = 2.0
    THINK = 0.004

    def build(self, seed: int, scale: float, instrument: str | None = None):
        rng = random.Random(seed)
        reads = scaled(self.READS_PER_READER, scale, floor=100)
        rounds = scaled(self.MUTATION_ROUNDS, scale, floor=35)
        payloads = file_payloads(rng, self.FILES, 16)
        domain, cluster, pair = sharded_system(
            seed, self.PREFIXES, payloads, self.LEASE_TTL, instrument)
        state = {"domain": domain, "cluster": cluster, "resolvers": [],
                 "latencies": [], "failed": 0, "problems": [],
                 "mutations": 0}
        popularity = zipf_table(self.READ_PREFIXES * self.FILES)
        for number in range(2):
            names = []
            for rank in zipf_ranks(rng, popularity, reads):
                leaf = f"f{(rank // self.READ_PREFIXES) % self.FILES}.dat"
                names.append((f"[p{rank % self.READ_PREFIXES}]data/{leaf}",
                              leaf))
            host = domain.create_host(f"reader{number + 1}")
            resolver = cluster.resolver(host=host)
            state["resolvers"].append(resolver)
            session = Session(current=pair,
                              prefix_server=cluster.primary_pid(),
                              latency=domain.latency, cache=resolver)
            host.spawn(shard_reader(session, names, payloads, self.THINK,
                                    state), name=f"reader-{number}")
        rebinds = zipf_ranks(rng, zipf_table(self.READ_PREFIXES), rounds)
        scratch = self.PREFIXES - self.READ_PREFIXES
        plan = [("cycle", self.READ_PREFIXES + round_no % scratch)
                if round_no % 5 == 4 else ("rebind", rebinds[round_no])
                for round_no in range(rounds)]
        requests = sum(2 if kind == "cycle" else 1 for kind, _ in plan)
        state["attempted"] = 2 * reads + requests
        mutator = Session(current=pair, prefix_server=cluster.primary_pid(),
                          latency=domain.latency)
        domain.create_host("mutator").spawn(
            self._mutator(mutator, plan, pair, state), name="mutator")
        return state

    def _mutator(self, session, plan, pair, state):
        latencies = state["latencies"]

        def timed(request):
            start = yield Now()
            try:
                yield from request
            except NameError_ as error:
                state["failed"] += 1
                state["problems"].append(f"mutation: {error}")
            latencies.append((yield Now()) - start)
            state["mutations"] += 1

        for kind, index in plan:
            if kind == "cycle":
                yield from timed(session.delete_prefix(f"p{index}"))
                yield from timed(session.add_prefix(f"p{index}", pair))
            else:
                yield from timed(session.add_prefix(f"p{index}", pair,
                                                    replace=True))
            yield Delay(self.MUTATION_PERIOD)

    def run(self, state, profiler=None) -> Outcome:
        def outcome_of(timed_s):
            outcome = shard_outcome(state, timed_s)
            notices = sum(entry["syncs_seen"] + entry["invalidations_seen"]
                          for entry in (server.snapshot_shard() for server in
                                        state["cluster"].all_servers()))
            if state["mutations"]:
                outcome.sim["core.shard.notices_per_mutation"] = (
                    notices / state["mutations"])
            audit = audit_direct(state["domain"])
            if not audit["ok"]:
                outcome.failed += 1
                outcome.problems.append(
                    f"audit_direct: {len(audit['findings']['incoherent'])} "
                    "incoherent entries at quiescence")
            return outcome

        return run_domain(state["domain"], outcome_of, profiler)


# ----------------------------------------------------------------- the storms


class ShardStorm(Workload):
    name = "shard_storm"
    clients = 2
    watchdogs = False
    why = ("DES, run_replica_storm(duration=120, 3 replicas, 48 prefixes, 2 "
           "clients), ~5.8k reads while every replica dies once: failover, "
           "lease refusal, redirect, SHARD_PULL rejoin; instruments off")

    DURATION = 120.0
    SHAPE = dict(n_replicas=3, n_prefixes=48, n_clients=2, lease_ttl=0.8)

    def _storm(self, seed: int, duration: float, crash: bool = True):
        extra = (dict(watchdogs=True, audit_every=1.0)
                 if self.watchdogs else {})
        return run_replica_storm(seed=seed, duration=duration, crash=crash,
                                 **self.SHAPE, **extra)

    def build(self, seed: int, scale: float):
        # The harness builds its fleet inside the one call that also runs
        # it; a zero-length, crash-free call is that build (plus the
        # post-run audit) with no reads, which is what set-up means here.
        self._storm(seed, 0.0, crash=False)
        return {"seed": seed, "duration": self.DURATION * scale}

    def run(self, state, profiler=None) -> Outcome:
        def storm():
            try:
                return self._storm(state["seed"], state["duration"])
            except InvariantViolation as violation:
                return violation

        report, timed_s = timed(storm, profiler)
        if isinstance(report, InvariantViolation):
            return Outcome(timed_s, attempted=1, failed=1,
                           problems=[f"chaos invariants: {report}"])
        reads = report.reads
        outcome = Outcome(timed_s, attempted=reads,
                          failed=report.reads_failed + report.reads_wrong)
        if outcome.failed:
            outcome.problems.append(
                f"{report.reads_failed} reads failed, "
                f"{report.reads_wrong} returned wrong bytes")
        if not report.audit.get("ok", False):
            outcome.failed += 1
            outcome.problems.append("coherence audit not ok at quiescence")
        expired = sum(entry["expired_served"] for entry in report.replicas)
        if expired:
            outcome.failed += 1
            outcome.problems.append(f"{expired} reads served from an "
                                    "expired lease")
        if reads:
            lookups = sum(entry["stats"]["hits"] + entry["stats"]["misses"]
                          for entry in report.resolvers)
            hits = sum(max(0, entry["stats"]["hits"]
                           - entry["stats"]["fallbacks"])
                       for entry in report.resolvers)
            negative = sum(entry["negative_hits"]
                           for entry in report.resolvers)
            outcome.sim.update({
                "e2e.sim_elapsed_s": state["duration"],
                "e2e.ops_per_sim_s": reads / state["duration"],
                "kernel.retransmits_per_op":
                    report.metrics["ipc.retransmits"] / reads,
                "core.cache.hit_rate": hits / lookups if lookups else 0.0,
                "core.cache.negative_hit_share":
                    negative / hits if hits else 0.0,
                "core.shard.lease_refusals_per_op":
                    sum(entry["lease_refusals"]
                        for entry in report.replicas) / reads,
                "core.shard.redirects_per_op":
                    sum(entry["redirects_followed"]
                        for entry in report.resolvers) / reads,
                "core.shard.promotions": report.promotions,
                "core.shard.rejoins": report.rejoins,
            })
        return outcome


class ShardStormObs(ShardStorm):
    name = "shard_storm_obs"
    watchdogs = True
    why = ("the same storm with watchdogs=True, audit_every=1.0 (telemetry, "
           "[obs], coherence probe, in-run audits): obs does the extra work "
           "here, none in shard_storm; the pair is the instrumentation tax")


# ---------------------------------------------------------------- udp_loopback


class UdpLoopback(Workload):
    name = "udp_loopback"
    clients = 1
    why = ("real loopback UDP sockets via AsyncDomain, 1 client, 2000 bare "
           "echoes then 500 Opens via the prefix server: the only workload "
           "where net.wire and net.asyncio run, so a codec/driver gain shows "
           "only here")

    ECHOES = 2000
    OPENS = 500
    FILE_BYTES = 2048
    TIMEOUT = 150.0

    def build(self, seed: int, scale: float):
        rng = random.Random(seed)
        state = {"loop": asyncio.new_event_loop(),
                 "echoes": scaled(self.ECHOES, scale, floor=100),
                 "opens": scaled(self.OPENS, scale, floor=25),
                 "file": f"bench{rng.randrange(10 ** 6)}.dat",
                 "payload": rng.randbytes(self.FILE_BYTES)}
        try:
            state["loop"].run_until_complete(self._bring_up(state))
        except BaseException:
            self.close(state)
            raise
        return state

    async def _bring_up(self, state) -> None:
        domain = state["domain"] = AsyncDomain()
        workstation = state["workstation"] = await domain.create_host("ws")
        server_host = await domain.create_host("fs")
        fileserver = populated_fileserver(
            {state["file"]: state["payload"]}, "users/mann")
        fs_pid = server_host.spawn(fileserver.body(), "fileserver")
        state["echo_pid"] = server_host.spawn(responder(), "echo")
        prefix = ContextPrefixServer(user="mann")
        prefix_pid = workstation.spawn(prefix.body(), "prefix")
        # One loop turn, so both servers have registered before the client
        # runs; bindings are installed the way a boot script would.
        await asyncio.sleep(0)
        home = ContextPair(fs_pid, HOME)
        prefix.define_prefix("home", home)
        state["session"] = Session(home, prefix_pid, STANDARD_3MBIT)

    def run(self, state, profiler=None) -> Outcome:
        # The loop's own turn-taking is part of what this workload measures,
        # so the profiled region is the whole run_until_complete; the
        # reported seconds are taken inside, from first Send to last reply.
        outcome, _ = timed(
            lambda: state["loop"].run_until_complete(self._run(state)),
            profiler)
        return outcome

    async def _run(self, state) -> Outcome:
        done = asyncio.Event()
        clock = time.perf_counter
        echo_us: list = []
        open_ms: list = []
        problems: list = []
        session = state["session"]
        name = f"[home]{state['file']}"

        def client():
            for _ in range(state["echoes"]):
                start = clock()
                reply = yield Send(state["echo_pid"],
                                   Message.request(RequestCode.QUERY_NAME))
                if reply.ok:
                    echo_us.append((clock() - start) * 1e6)
                else:
                    problems.append(f"echo refused: {reply!r}")
            for _ in range(state["opens"]):
                start = clock()
                try:
                    stream = yield from session.open(name, "r")
                except (NameError_, IoError) as error:
                    problems.append(f"open {name}: {error}")
                    continue
                open_ms.append((clock() - start) * 1e3)
                yield from stream.close()
            # One read at the end, outside the latency samples: the bytes
            # that come back over the socket are the bytes stored.
            data = yield from files.read_file(session, name)
            if data != state["payload"]:
                problems.append(f"read {name}: wrong bytes")
            done.set()

        attempted = state["echoes"] + state["opens"]
        start = clock()
        state["workstation"].spawn(client(), "client")
        try:
            await asyncio.wait_for(done.wait(), self.TIMEOUT)
        except asyncio.TimeoutError:
            problems.append(f"client did not finish in {self.TIMEOUT}s")
        timed_s = clock() - start
        completed = len(echo_us) + len(open_ms)
        outcome = Outcome(timed_s, attempted, failed=attempted - completed,
                          problems=problems[:5])
        if problems and not outcome.failed:
            outcome.failed = len(problems)
        try:
            state["domain"].check_healthy()
        except AssertionError as error:
            outcome.problems.append(f"check_healthy: {error}")
        for label, samples in (("e2e.echo_wall_us", sorted(echo_us)),
                               ("e2e.open_wall_ms", sorted(open_ms))):
            if samples:
                outcome.wall[f"{label}_p50"] = percentile(samples, 0.50)
                outcome.wall[f"{label}_p99"] = percentile(samples, 0.99)
        return outcome

    def close(self, state) -> None:
        loop = state["loop"]
        try:
            loop.run_until_complete(self._shut_down(state.get("domain")))
        finally:
            loop.close()

    @staticmethod
    async def _shut_down(domain) -> None:
        if domain is not None:
            await domain.shutdown()
        pending = [task for task in asyncio.all_tasks()
                   if task is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)


WORKLOADS = {workload.name: workload for workload in (
    FleetSend(), OpenPath(), ShardZipf(), ShardMutate(), ShardStorm(),
    ShardStormObs(), UdpLoopback())}
