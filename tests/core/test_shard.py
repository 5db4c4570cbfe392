"""Tests for sharded replicated prefix serving (repro.core.shard)."""

import json
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.context import ContextPair, WellKnownContext
from repro.core.resolver import NameError_
from repro.core.shard import (
    DEFAULT_VNODES,
    ShardCluster,
    ShardMap,
    ShardMapError,
    ShardReplicaServer,
    ShardResolver,
    binding_fields,
)
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.kernel.messages import ReplyCode
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers import VFileServer, start_server
from tests.helpers import run_on

PAYLOAD = b"shard-payload"


# ---------------------------------------------------------------- the map


class TestShardMap:
    def map_of(self, n, vnodes=DEFAULT_VNODES):
        return ShardMap(version=1,
                        replicas=tuple((rid, 100 + rid) for rid in range(n)),
                        vnodes=vnodes)

    def test_owner_is_deterministic(self):
        # crc32, never the salted builtin hash: two maps built separately
        # must agree on every assignment.
        a, b = self.map_of(5), self.map_of(5)
        for index in range(500):
            prefix = b"p%d" % index
            assert a.owner_of(prefix) == b.owner_of(prefix)

    def test_ownership_spreads_over_replicas(self):
        shard_map = self.map_of(4, vnodes=64)
        counts = shard_map.assignment_counts(
            [b"p%d" % index for index in range(4000)])
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 0
        assert max(counts.values()) / min(counts.values()) < 2.5

    def test_dropping_a_replica_moves_only_its_own_share(self):
        shard_map = self.map_of(4, vnodes=64)
        prefixes = [b"p%d" % index for index in range(4000)]
        dropped = shard_map.without(2)
        moved = [prefix for prefix in prefixes
                 if shard_map.owner_of(prefix) != dropped.owner_of(prefix)]
        # Exactly the prefixes replica 2 owned move, nothing else.
        assert all(shard_map.owner_of(prefix) == 2 for prefix in moved)
        assert 0 < len(moved) / len(prefixes) < 0.5

    def test_replicas_for_starts_at_the_owner(self):
        shard_map = self.map_of(3)
        for index in range(50):
            prefix = b"p%d" % index
            order = shard_map.replicas_for(prefix)
            assert order[0] == shard_map.owner_of(prefix)
            assert sorted(order) == [0, 1, 2]

    def test_membership_changes_bump_the_version(self):
        shard_map = self.map_of(3)
        assert shard_map.without(0).version == 2
        assert shard_map.with_replica(7, 999).version == 2
        assert shard_map.pid_of(1).value == 101
        assert shard_map.without(1).pid_of(1) is None

    def test_wire_codec_round_trips(self):
        shard_map = self.map_of(3, vnodes=32)
        assert ShardMap.decode(shard_map.encode()) == shard_map

    def test_empty_map_has_no_owners(self):
        empty = ShardMap(version=1, replicas=())
        with pytest.raises(ValueError):
            empty.owner_of(b"p")
        assert empty.replicas_for(b"p") == []


def full_ring_walk(shard_map, prefix):
    """Distinct replica ids met walking the whole ring clockwise from
    ``prefix``'s hash, rebuilt here from the crc32 definition."""
    ring = sorted((zlib.crc32(b"replica-%d/%d" % (rid, vnode)), rid)
                  for rid, __ in shard_map.replicas
                  for vnode in range(shard_map.vnodes))
    point = zlib.crc32(prefix)
    start = next((number for number, (at, __) in enumerate(ring)
                  if at > point), 0)
    order = []
    for at, rid in ring[start:] + ring[:start]:
        if rid not in order:
            order.append(rid)
    return order


_PREFIXES = st.text(alphabet="abcdefgh0123456789-_.", min_size=1,
                    max_size=12).map(str.encode)


class TestRingProperties:
    @given(st.sets(st.integers(min_value=0, max_value=50), min_size=1,
                   max_size=8),
           st.integers(min_value=1, max_value=64),
           st.lists(_PREFIXES, min_size=1, max_size=8))
    def test_owner_and_walk_agree_with_the_full_ring(self, ids, vnodes,
                                                     prefixes):
        shard_map = ShardMap(version=3, replicas=tuple(
            (rid, 1000 + rid) for rid in sorted(ids)), vnodes=vnodes)
        resolver = ShardResolver(shard_map)
        for prefix in prefixes:
            order = shard_map.replicas_for(prefix)
            assert order == full_ring_walk(shard_map, prefix)
            assert order[0] == shard_map.owner_of(prefix)
            assert len(order) == len(ids)
            # Attempt 0 trusts the map copy: straight to the owner, with
            # no message sent (the generator finishes on its first step).
            step = resolver.fallback_route(b"[" + prefix + b"]f", 0)
            with pytest.raises(StopIteration) as done:
                next(step)
            assert done.value.value == (
                shard_map.pid_of(shard_map.owner_of(prefix)),
                int(WellKnownContext.DEFAULT), 0)


# ------------------------------------------------------------ codec fuzzing

#: One payload per way a map can be malformed: empty, wrong top-level type
#: (x2), wrong replica shape, missing fields, not UTF-8, wrong field type,
#: and an out-of-range ``vnodes`` (0 would build an empty ring).
GARBAGE_MAPS = [
    b"", b"[]", b"null", b'{"replicas":[1]}', b"{}", b"\xff",
    b'{"version":"x","replicas":[]}',
    b'{"version":1,"replicas":[[0,100]],"vnodes":0}',
]

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)

_BYTE_FLIPS = st.lists(st.tuples(st.integers(min_value=0),
                                 st.integers(min_value=0, max_value=255)),
                       max_size=3)


def mutated(payload: bytes, cut: int, flips: list) -> bytes:
    data = bytearray(payload)
    for position, byte in flips:
        data[position % len(data)] = byte
    return bytes(data[: len(data) - cut % len(data)])


def replaced(payload: bytes, path: list, value) -> bytes:
    """``payload`` with the node that ``path`` walks to replaced by ``value``."""
    doc = json.loads(payload)
    parent, key, node = None, None, doc
    for step in path:
        if isinstance(node, dict) and node:
            parent, key = node, sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            parent, key = node, step % len(node)
        else:
            break
        node = parent[key]
    if parent is None:
        return json.dumps(value).encode()
    parent[key] = value
    return json.dumps(doc).encode()


class TestShardMapFuzz:
    """``decode`` returns a map or raises ShardMapError -- nothing else."""

    VALID = ShardMap(version=7, replicas=((0, 100), (1, 101), (2, 102)),
                     vnodes=32).encode()

    @staticmethod
    def decodes_or_rejects(payload: bytes) -> None:
        try:
            decoded = ShardMap.decode(payload)
        except ShardMapError:
            return
        assert decoded.vnodes >= 1
        assert ShardMap.decode(decoded.encode()) == decoded

    @pytest.mark.parametrize("payload", GARBAGE_MAPS)
    def test_known_garbage_is_a_shard_map_error(self, payload):
        with pytest.raises(ShardMapError):
            ShardMap.decode(payload)

    @given(data=st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        self.decodes_or_rejects(data)

    @given(cut=st.integers(min_value=0), flips=_BYTE_FLIPS)
    def test_truncated_and_byte_flipped_valid_maps(self, cut, flips):
        self.decodes_or_rejects(mutated(self.VALID, cut, flips))

    @given(path=st.lists(st.integers(min_value=0), max_size=3), value=_JSON)
    def test_valid_maps_with_one_node_replaced(self, path, value):
        self.decodes_or_rejects(replaced(self.VALID, path, value))


TABLE_MAP = ShardMap(version=1, replicas=((0, 100), (1, 101)))


def exporting_replica() -> ShardReplicaServer:
    """Replica 0 of ``TABLE_MAP`` holding one fixed and one generic binding."""
    server = ShardReplicaServer(0, TABLE_MAP)
    server.install_table(json.dumps({"bindings": [
        {"prefix": "data", "target_pid": 65537, "target_context": 2,
         "lease_remaining": 0.5},
        {"prefix": "svc", "service_id": 9, "target_context": 1,
         "lease_remaining": 0},
    ]}).encode(), now=1.0)
    return server


class TestInstallTableFuzz:
    """``install_table`` installs or raises ShardMapError, never half of it."""

    VALID = exporting_replica().export_table(now=1.0)

    def installs_or_rejects(self, payload: bytes) -> None:
        server = ShardReplicaServer(1, TABLE_MAP)
        try:
            installed = server.install_table(payload, now=2.0)
        except ShardMapError:
            assert not server.table.bindings and not server._leases
            return
        assert installed == len(server.table.bindings)

    def test_export_round_trips_through_install(self):
        puller = ShardReplicaServer(1, TABLE_MAP)
        assert puller.install_table(self.VALID, now=2.0) == 2
        assert {key: binding_fields(binding)
                for key, binding in puller.table.bindings.items()} == {
            b"data": {"target_pid": 65537, "target_context": 2},
            b"svc": {"service_id": 9, "target_context": 1}}
        # "data" travels with lease time either way (owned: a full ttl;
        # held: the 0.5 s that remained), so the puller holds it leased.
        assert puller._leases[b"data"] > 2.0

    @pytest.mark.parametrize("payload", GARBAGE_MAPS[:3] + [
        b"\xff", b'{"bindings":1}', b'{"bindings":[1]}',
        b'{"bindings":[{"prefix":"p"}]}',
        b'{"bindings":[{"prefix":7,"target_pid":1}]}',
        b'{"bindings":[{"prefix":"p","target_pid":"1"}]}',
        b'{"bindings":[{"prefix":"p","target_pid":4294967296}]}',
        b'{"bindings":[{"prefix":"p","target_pid":1,"target_context":65536}]}',
        b'{"bindings":[{"prefix":"\\ud800","target_pid":1}]}',
        b'{"bindings":[{"prefix":"p","target_pid":1,"lease_remaining":NaN}]}',
        b'{"bindings":[{"prefix":"p","target_pid":1,"lease_remaining":-1}]}',
    ])
    def test_known_garbage_is_a_shard_map_error(self, payload):
        with pytest.raises(ShardMapError):
            ShardReplicaServer(1, TABLE_MAP).install_table(payload, now=2.0)

    def test_a_bad_record_leaves_the_table_untouched(self):
        payload = json.loads(self.VALID)
        payload["bindings"].append({"prefix": "late", "target_pid": -1})
        server = ShardReplicaServer(1, TABLE_MAP)
        with pytest.raises(ShardMapError, match="target_pid"):
            server.install_table(json.dumps(payload).encode(), now=2.0)
        assert not server.table.bindings and not server._leases

    @given(data=st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        self.installs_or_rejects(data)

    @given(cut=st.integers(min_value=0), flips=_BYTE_FLIPS)
    def test_truncated_and_byte_flipped_valid_tables(self, cut, flips):
        self.installs_or_rejects(mutated(self.VALID, cut, flips))

    @given(path=st.lists(st.integers(min_value=0), max_size=4), value=_JSON)
    def test_valid_tables_with_one_node_replaced(self, path, value):
        self.installs_or_rejects(replaced(self.VALID, path, value))


# ---------------------------------------------------------- cluster fixture


def sharded_system(n_replicas=3, lease_ttl=0.5, seed=3):
    domain = Domain(seed=seed)
    fs_host = domain.create_host("vax1")
    fileserver = VFileServer(user="mann")
    node = fileserver.store.make_path("data/f0.dat", directory=False)
    node.data[:] = PAYLOAD
    fs_handle = start_server(fs_host, fileserver)
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))
    hosts = domain.create_hosts(n_replicas, prefix="ns")
    cluster = ShardCluster(domain, hosts, lease_ttl=lease_ttl)
    cluster.seed_binding("data", pair)
    client_host = domain.create_host("client")
    return domain, cluster, pair, client_host, hosts


def session_for(domain, pair, server_pid, cache=None):
    return Session(current=pair, prefix_server=server_pid,
                   latency=domain.latency, cache=cache)


# --------------------------------------------------------- lease discipline


class TestLeaseDiscipline:
    def test_owner_always_serves(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        owner_pid = cluster.map.pid_of(owner_rid)
        session = session_for(domain, pair, owner_pid)

        def client(session):
            # Well past every lease: the owner needs no lease on its own
            # bindings.
            yield Delay(10 * cluster.lease_ttl)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD

    def test_nonowner_serves_within_lease(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))

        def client(session):
            # seed_binding granted a lease from t=0; read inside it.
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD

    def test_nonowner_refuses_after_lease_expiry(self):
        # The coherence rule: an expired lease is *refused* with RETRY,
        # never served.  A budget-0 client sees the refusal verbatim.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))
        session.env.retry_budget = 0

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            try:
                yield from files.read_file(session, "[data]data/f0.dat")
            except NameError_ as err:
                return err.code

        assert run_on(domain, client_host,
                      client(session)) is ReplyCode.RETRY
        server = cluster.servers[other]
        assert server.lease_refusals >= 1
        assert server.expired_served == 0

    def test_refused_client_follows_the_owner_redirect(self):
        # With a shard resolver, the RETRY's owner_pid redirect makes the
        # refusal invisible: the retry lands at the authority.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        resolver = cluster.resolver()
        # Mis-aim the resolver's first attempt at the non-owner replica.
        resolver.map = cluster.map.with_replica(
            owner_rid, cluster.map.pid_of(other).value)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert resolver.redirects_followed >= 1

    def test_refusal_kicks_async_refresh(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))
        session.env.retry_budget = 0

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            try:
                yield from files.read_file(session, "[data]data/f0.dat")
            except NameError_:
                pass
            # Give the background refresh time to round-trip the owner,
            # then the same non-owner serves under its fresh lease.
            yield Delay(0.2)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert cluster.servers[other].lease_refreshes >= 1


# ------------------------------------------------------- fan-out and rebinds


class TestBindingFanOut:
    def test_add_prefix_reaches_every_replica(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.add_prefix("proj", pair)
            yield Delay(0.2)    # let the fan-out land

        run_on(domain, client_host, client(session))
        for server in cluster.servers.values():
            assert server.binding("proj") is not None
        # The non-owners learned it via SHARD_SYNC, not shared memory.
        owner_rid = cluster.map.owner_of(b"proj")
        synced = [server for rid, server in cluster.servers.items()
                  if rid != owner_rid]
        assert all(server.syncs_seen >= 1 for server in synced)

    def test_mutations_forward_to_the_owner(self):
        # ADD sent to a non-owner must land at the owner (Sec. 5.4
        # forwarding) and fan out from there.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"proj")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))

        def client(session):
            yield from session.add_prefix("proj", pair)
            yield Delay(0.2)

        run_on(domain, client_host, client(session))
        assert cluster.servers[owner_rid].binding("proj") is not None

    def test_delete_prefix_invalidates_every_replica(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.delete_prefix("data")
            yield Delay(0.2)

        run_on(domain, client_host, client(session))
        for server in cluster.servers.values():
            assert server.binding("data") is None


# ----------------------------------------------------------- the resolver


class TestShardResolver:
    def test_positive_cache_skips_the_replica_hop(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            yield from files.read_file(session, "[data]data/f0.dat")
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert resolver.stats.hits_by_source.get("shard", 0) >= 1

    def test_negative_cache_answers_hot_missing_names_locally(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            codes = []
            for __ in range(3):
                try:
                    yield from files.read_file(session, "[ghost]x")
                except NameError_ as err:
                    codes.append(err.code)
            return codes

        codes = run_on(domain, client_host, client(session))
        assert codes == [ReplyCode.NOT_FOUND] * 3
        assert resolver.negative_stores == 1
        assert resolver.negative_hits == 2

    def test_negative_entry_expires(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver(negative_ttl=0.1)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            try:
                yield from files.read_file(session, "[ghost]x")
            except NameError_:
                pass
            yield Delay(0.2)
            try:
                yield from files.read_file(session, "[ghost]x")
            except NameError_:
                pass

        run_on(domain, client_host, client(session))
        assert resolver.negative_stores == 2
        assert resolver.negative_hits == 0

    def test_cache_accounting_invariant_holds(self):
        from repro.faults.chaos import check_cache_accounting

        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            for __ in range(5):
                yield from files.read_file(session, "[data]data/f0.dat")
                yield Delay(0.3)

        run_on(domain, client_host, client(session))
        assert check_cache_accounting(resolver) == []


# ------------------------------------------------------ failover and rejoin


class TestFailoverAndRejoin:
    def test_crash_promotes_and_reads_keep_resolving(self):
        domain, cluster, pair, client_host, hosts = sharded_system(
            lease_ttl=0.5)
        owner_rid = cluster.map.owner_of(b"data")
        owner_host = cluster.servers[owner_rid].host
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        session.env.retry_budget = 4
        version_before = cluster.map.version

        def client(session):
            yield from files.read_file(session, "[data]data/f0.dat")
            yield Delay(1.0)    # outlive the client-side binding TTL
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        domain.engine.schedule_at(0.5, owner_host.crash)
        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert cluster.promotions == 1
        assert cluster.map.version == version_before + 1
        assert owner_rid not in cluster.servers
        # The resolver caught up over the wire, not via shared memory.
        assert resolver.map.version == cluster.map.version

    def test_restart_rejoins_with_a_pulled_table(self):
        domain, cluster, pair, client_host, hosts = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        owner_host = cluster.servers[owner_rid].host

        domain.engine.schedule_at(0.5, owner_host.crash)
        domain.engine.schedule_at(1.0, owner_host.restart)
        domain.run()
        domain.check_healthy()

        assert cluster.promotions == 1
        assert cluster.rejoins == 1
        rejoined = cluster.servers[owner_rid]
        # The table came back over SHARD_PULL, including the seeded binding.
        assert rejoined.binding("data") is not None
        assert rejoined.shard_map.version == cluster.map.version
        assert cluster.map.pid_of(owner_rid) == rejoined.pid


# ------------------------------------------- negative-cache reconciliation


class TestNegativeCacheInvalidation:
    """A create must kill cached NOT_FOUNDs for names under its prefix.

    ADD_CONTEXT_NAME bypasses the resolver cache on the way out, so
    without ``note_mutation`` a client that just bound ``[extra]`` would
    keep answering NOT_FOUND for ``[extra]...`` names from its own
    negative cache until the TTL lapsed -- self-inflicted staleness the
    coherence auditor classifies as a stale negative entry.
    """

    def test_create_kills_negative_entries_under_the_prefix(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        # Negative TTL far longer than the test: only invalidation (never
        # expiry) can explain the post-ADD read succeeding.
        resolver = cluster.resolver(negative_ttl=30.0)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        outcome = {}

        def client(session):
            for attempt in ("first", "second"):
                try:
                    yield from files.read_file(session, "[extra]data/f0.dat")
                except NameError_:
                    outcome[attempt] = "not-found"
                else:
                    outcome[attempt] = "ok"
            outcome["negcache_len"] = resolver.footprint()["negative"]
            yield from session.add_prefix("extra", pair)
            outcome["negcache_after_add"] = resolver.footprint()["negative"]
            outcome["after_add"] = (
                yield from files.read_file(session, "[extra]data/f0.dat"))

        run_on(domain, client_host, client(session))
        # The unbound prefix NOT_FOUND was negative-cached and the repeat
        # was answered locally...
        assert outcome["first"] == "not-found"
        assert outcome["second"] == "not-found"
        assert outcome["negcache_len"] == 1
        assert resolver.negative_hits == 1
        # ...and the ADD reconciled it: entry gone, read serves, well
        # inside the 30s negative TTL.
        assert outcome["negcache_after_add"] == 0
        assert outcome["after_add"] == PAYLOAD

    def test_delete_under_a_different_prefix_leaves_negatives_alone(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver(negative_ttl=30.0)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        held = {}

        def client(session):
            try:
                yield from files.read_file(session, "[extra]data/f0.dat")
            except NameError_:
                pass
            # An unrelated mutation must not disturb [extra]'s entry.
            yield from session.add_prefix("other", pair)
            held["negcache_len"] = resolver.footprint()["negative"]

        run_on(domain, client_host, client(session))
        assert held["negcache_len"] == 1
