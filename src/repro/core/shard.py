"""Sharded, replicated context prefix serving with lease/TTL coherence.

The paper's context prefix server is per-workstation state: one table, one
machine, one failure domain.  This module scales that design out the way
the V-System's successors did -- partition the prefix directory across N
replicated servers and let every replica answer for every prefix, bounded
by leases:

- :class:`ShardMap` -- a small *versioned* map assigning each prefix to an
  owner replica by consistent hashing (a crc32 vnode ring, so membership
  changes move only ~1/N of the keys).  The map is served over CSNH
  (``SHARD_MAP``) like any other datum, so clients discover membership
  changes through the protocol, not through shared memory.
- :class:`ShardReplicaServer` -- a :class:`~repro.core.prefix_server.
  ContextPrefixServer` subclass.  The *owner* of a prefix is authoritative:
  it serves its binding unconditionally and re-grants itself a lease on
  every use.  A *non-owner* replica may serve a binding only while its
  lease is fresh (expiry is inclusive, matching
  :class:`~repro.core.namecache.BindingCache`); an expired lease is
  *refused* with ``RETRY`` plus an owner redirect, never served --
  ``expired_served`` counts violations of that rule and the chaos harness
  asserts it stays zero.  Binding changes at the owner fan out to peers as
  ``SHARD_SYNC``/``SHARD_INVALIDATE`` notices carried by helper processes,
  so a server's request loop never blocks on another server (two replica
  loops Send-ing at each other is a deadlock the probe protocol cannot
  break, because both processes are alive).
- :class:`ShardCluster` -- spawns the replicas, bootstraps bindings, and
  drives *failover*: when the chaos harness crashes an owner, the cluster
  (standing in for V's kernel-resident membership service, at zero
  simulated cost) bumps the map version, drops the dead replica, and
  installs the new map into the survivors.  A restarted replica re-joins by
  bulk-pulling a live peer's table (``SHARD_PULL``) *before* it is put back
  in the map -- a rejoiner that claimed ownership with an empty table would
  answer authoritative NOT_FOUNDs for names it merely has not learned yet.
- :class:`ShardResolver` -- the per-host resolver daemon.  It duck-types
  the :class:`~repro.core.namecache.NameCache` contract used by
  :func:`repro.core.resolver.send_csname_request` and layers three things
  on the PR-2 :class:`~repro.core.namecache.BindingCache` substrate:
  TTL-bound positive prefix bindings, *negative* caching of authoritative
  NOT_FOUNDs (returning :data:`~repro.core.namecache.NEGATIVE_ROUTE`), and
  hierarchical lookup -- route straight to the shard owner per its map
  copy, and on failure walk the replica ring, refreshing the map over the
  wire, instead of re-sending to the same corpse.

Clients never learn about failover out of band: a resolver holds a map
*copy* and catches up only through ``SHARD_MAP`` replies and ``RETRY``
redirects, which is what the E18 storm scenario measures.
"""

from __future__ import annotations

import bisect
import json
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Generator, Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.core.csnh import BAD_FIELD
from repro.core.mapping import ForwardName, MappingFault
from repro.core.namecache import (
    CACHE_BYPASS_OPS,
    NEGATIVE_ROUTE,
    BindingCache,
    CachedRoute,
    CacheStats,
    _STALE_CODE_INTS,
    read_binding_advice,
)
from repro.core.names import BadName, as_text, has_prefix, parse_prefix, validate_component
from repro.core.prefix_server import ContextPrefixServer, PrefixBinding, _as_prefix
from repro.core.protocol import CSNameHeader, read_binding_provenance
from repro.kernel.ipc import Delivery, GetPid, Now, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId

Gen = Generator[Any, Any, Any]

#: Vnodes per replica on the hash ring.  More vnodes smooth the partition
#: (E18 measures the max/min owned-prefix ratio); the count is part of the
#: map and travels with it, so every party builds the identical ring.
DEFAULT_VNODES = 16

#: Ceiling on a decoded map's vnodes per replica: the ring is built from
#: wire input, so its size must be bounded (E18's largest map uses 64).
MAX_VNODES = 1024


class ShardMapError(ValueError):
    """A SHARD_MAP or SHARD_PULL payload the codec could not have written."""


def _json_object(payload: bytes, what: str) -> dict:
    try:
        doc = json.loads(payload)
    except (ValueError, RecursionError) as error:
        raise ShardMapError(f"{what} is not JSON: {error}") from None
    if not isinstance(doc, dict):
        raise ShardMapError(
            f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _wire_int(value: Any, what: str, low: int = 0,
              high: int = 0xFFFFFFFF) -> int:
    # type(), not isinstance(): JSON true/false are ints to Python.
    if type(value) is not int or not low <= value <= high:
        raise ShardMapError(
            f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return value


# ----------------------------------------------------------------- the map


@dataclass(frozen=True)
class ShardMap:
    """A versioned assignment of prefixes to replicas (consistent hashing).

    Immutable: membership changes produce a *new* map with ``version + 1``
    (:meth:`without`, :meth:`with_replica`), so "is yours newer than mine"
    is one integer compare -- the whole coherence story between cluster,
    replicas, and resolvers rides on that monotonic version.

    Hashing uses ``zlib.crc32`` exclusively: Python's builtin ``hash`` is
    salted per process and would assign prefixes differently on every run.
    """

    version: int
    #: Sorted ``(replica_id, pid_value)`` pairs.  Pid *values* (ints), not
    #: Pid objects, so the map JSON-encodes for the SHARD_MAP wire reply.
    replicas: tuple = ()
    vnodes: int = DEFAULT_VNODES

    @cached_property
    def _ring(self) -> tuple:
        """``(points, owners)``: the sorted vnode hashes, and the replica id
        at each (ties between replicas broken by id)."""
        pairs = sorted(
            (zlib.crc32(b"replica-%d/%d" % (replica_id, vnode)), replica_id)
            for replica_id, __ in self.replicas
            for vnode in range(self.vnodes))
        return (tuple(point for point, __ in pairs),
                tuple(replica_id for __, replica_id in pairs))

    def _start(self, prefix: bytes) -> int:
        """Index of the first ring point clockwise of ``prefix``'s hash."""
        points = self._ring[0]
        index = bisect.bisect_right(points, zlib.crc32(bytes(prefix)))
        return 0 if index == len(points) else index

    def owner_of(self, prefix: bytes) -> int:
        """The replica id owning ``prefix`` (first ring point clockwise)."""
        owners = self._ring[1]
        if not owners:
            raise ValueError("empty shard map has no owners")
        return owners[self._start(prefix)]

    def replicas_for(self, prefix: bytes) -> list:
        """Distinct replica ids in ring order starting at the owner.

        This is the candidate order a resolver walks on failover: drop the
        first entry (the dead owner) and the second is exactly the replica
        consistent hashing promotes, so client and cluster agree on the
        successor without talking.
        """
        owners = self._ring[1]
        if not owners:
            return []
        index = self._start(prefix)
        order: list = []
        for replica_id in owners[index:] + owners[:index]:
            if replica_id not in order:
                order.append(replica_id)
        return order

    def pid_of(self, replica_id: int) -> Optional[Pid]:
        for rid, pid_value in self.replicas:
            if rid == replica_id:
                return Pid(pid_value)
        return None

    def without(self, replica_id: int) -> "ShardMap":
        kept = tuple((rid, pv) for rid, pv in self.replicas
                     if rid != replica_id)
        return ShardMap(version=self.version + 1, replicas=kept,
                        vnodes=self.vnodes)

    def with_replica(self, replica_id: int, pid_value: int) -> "ShardMap":
        kept = [(rid, pv) for rid, pv in self.replicas if rid != replica_id]
        kept.append((int(replica_id), int(pid_value)))
        return ShardMap(version=self.version + 1,
                        replicas=tuple(sorted(kept)), vnodes=self.vnodes)

    def assignment_counts(self, prefixes) -> dict:
        """How many of ``prefixes`` each replica owns (E18 balance metric)."""
        counts = {rid: 0 for rid, __ in self.replicas}
        for prefix in prefixes:
            counts[self.owner_of(bytes(prefix))] += 1
        return counts

    def encode(self) -> bytes:
        return json.dumps({
            "version": self.version,
            "replicas": [list(pair) for pair in self.replicas],
            "vnodes": self.vnodes,
        }, sort_keys=True).encode()

    @classmethod
    def decode(cls, payload: bytes) -> "ShardMap":
        """Rebuild a map from :meth:`encode` output.

        Raises :class:`ShardMapError`, and nothing else, on any payload
        that is not a well-formed map with every field in range.
        """
        doc = _json_object(payload, "shard map")
        pairs = doc.get("replicas")
        if not isinstance(pairs, list):
            raise ShardMapError(f"replicas must be a list, got {pairs!r}")
        replicas = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ShardMapError(
                    f"a replica must be an [id, pid] pair, got {pair!r}")
            replicas.append((_wire_int(pair[0], "replica id"),
                             _wire_int(pair[1], "replica pid")))
        return cls(version=_wire_int(doc.get("version"), "version"),
                   replicas=tuple(replicas),
                   vnodes=_wire_int(doc.get("vnodes", DEFAULT_VNODES),
                                    "vnodes", 1, MAX_VNODES))


# ------------------------------------------------------- binding wire codec


def binding_fields(binding: PrefixBinding) -> dict:
    """A binding as SHARD_SYNC/SHARD_FETCH reply fields."""
    if binding.is_generic:
        return {"service_id": int(binding.generic_service),
                "target_context": int(binding.generic_context)}
    assert binding.fixed is not None
    return {"target_pid": int(binding.fixed.server.value),
            "target_context": int(binding.fixed.context_id)}


def binding_from_fields(key: bytes, message: Message) -> Optional[PrefixBinding]:
    """Rebuild a binding from the same fields ADD_CONTEXT_NAME uses."""
    return ContextPrefixServer._binding_from_request(key, message)


#: The binding fields a SHARD_PULL record may carry, with their ceilings
#: (pids and service ids are 32-bit, context ids 16-bit).
_BINDING_FIELD_MAX = {"service_id": 0xFFFFFFFF, "target_pid": 0xFFFFFFFF,
                      "target_context": 0xFFFF}
#: One pulled record's provenance (epoch, source), as a SHARD_PULL reply's
#: ``epochs`` bytes field packs it: one per record, in the records' order.
_STAMP = struct.Struct("<qq")


# ------------------------------------------------------------- the replica


class ShardReplicaServer(ContextPrefixServer):
    """One replica of the sharded prefix service.

    Everything the base server does still works (ADD/DELETE, forwarding,
    generic GetPid bindings, directory listing); what changes is *who may
    answer*: :meth:`lookup_binding` enforces the lease rule, and binding
    mutations at the owner fan out to peers.
    """

    server_name = "shard"
    service_id = int(ServiceId.SHARD)
    #: Replicas serve the whole domain, not one workstation.
    service_scope = Scope.BOTH

    def __init__(self, replica_id: int, shard_map: ShardMap,
                 lease_ttl: float = 1.0, parse_cpu: float = 0.0,
                 user: str = "shard") -> None:
        super().__init__(parse_cpu=parse_cpu, user=user)
        self.replica_id = int(replica_id)
        self.shard_map = shard_map
        self.lease_ttl = float(lease_ttl)
        #: The host this replica runs on; set by the cluster at spawn time.
        #: Needed to hand fan-out work to helper processes -- the server
        #: loop itself must never block on a Send to a peer (see module
        #: docstring).
        self.host = None
        #: prefix -> absolute expiry (simulated seconds).  Inclusive expiry:
        #: a lease is dead at exactly ``now == expiry``, the same boundary
        #: BindingCache uses.
        self._leases: dict = {}
        #: Prefixes with an async refresh already in flight (dedup).
        self._refreshing: set = set()
        # Deterministic counters the storm and E18 read off the object.
        self.lease_refusals = 0
        self.lease_refreshes = 0
        self.syncs_seen = 0
        self.invalidations_seen = 0
        #: Resolutions served from an expired non-owner lease.  Must stay 0
        #: forever -- the refusal path above is the only legal handling --
        #: and the chaos harness (check_lease_coherence) asserts exactly
        #: that across every replica the storm ever spawned.
        self.expired_served = 0
        self.register_request_op(RequestCode.SHARD_FETCH, self.op_shard_fetch)
        self.register_request_op(RequestCode.SHARD_SYNC, self.op_shard_sync)
        self.register_request_op(RequestCode.SHARD_INVALIDATE,
                                 self.op_shard_invalidate)
        self.register_request_op(RequestCode.SHARD_MAP, self.op_shard_map)
        self.register_request_op(RequestCode.SHARD_PULL, self.op_shard_pull)

    # ------------------------------------------------------------- ownership

    def is_owner(self, prefix: bytes) -> bool:
        try:
            return self.shard_map.owner_of(prefix) == self.replica_id
        except ValueError:
            return False

    def owner_pid(self, prefix: bytes) -> Optional[Pid]:
        try:
            return self.shard_map.pid_of(self.shard_map.owner_of(prefix))
        except ValueError:
            return None

    def lease_fresh(self, prefix: bytes, now: float) -> bool:
        expiry = self._leases.get(prefix)
        return expiry is not None and now < expiry

    def _probe(self):
        """The domain's coherence probe when armed, else None.

        Duck-typed through ``domain.coherence`` (see repro.obs.audit) so
        the core layer never imports the obs layer; the disabled path is
        one attribute read.  Probe callbacks are pure bookkeeping -- no
        events, no rng draws -- so an armed run stays simulated-time
        identical to a bare one.
        """
        host = self.host
        if host is None:
            return None
        return getattr(host.domain, "coherence", None)

    # ----------------------------------------------------- the coherence rule

    def lookup_binding(self, prefix: bytes) -> Gen:
        """Serve only what the lease discipline allows.

        Owner: authoritative, always serves, re-grants its own lease (so a
        hot prefix's lease never lapses at the replicas that keep hearing
        SYNCs).  Non-owner: serves iff the lease is fresh; otherwise kicks
        an async refresh and *refuses* with RETRY + the owner's pid, which
        the shard resolver follows directly on its next attempt.
        """
        binding = self.table.bindings.get(prefix)
        now = yield Now()
        probe = self._probe()
        if probe is not None:
            probe.shard_lookup(self.host.name, self.replica_id)
        if self.is_owner(prefix):
            if binding is not None:
                self._leases[prefix] = now + self.lease_ttl
                if probe is not None:
                    probe.lease_event(self.host.name, "grant")
            return binding
        if binding is not None:
            if self.lease_fresh(prefix, now):
                return binding
            # The one forbidden move would be returning ``binding`` here.
            # (expired_served stays 0; the refusal below is the legal path.)
        self.lease_refusals += 1
        if probe is not None:
            probe.lease_event(self.host.name, "refusal")
        self._spawn_refresh(prefix)
        owner = self.owner_pid(prefix)
        extra = {"owner_pid": int(owner.value)} if owner is not None else None
        return MappingFault(
            ReplyCode.RETRY,
            f"replica {self.replica_id}: no fresh lease on "
            f"[{as_text(prefix)}]; ask the owner",
            extra_fields=extra)

    def _spawn_refresh(self, prefix: bytes) -> None:
        """Refresh one lease from the owner, off the request loop."""
        if self.host is None or self.host.crashed:
            return
        if prefix in self._refreshing:
            return
        owner = self.owner_pid(prefix)
        if owner is None or owner == self.pid:
            return
        self._refreshing.add(prefix)
        self.host.spawn(self._refresh_task(prefix, owner),
                        name=f"shard-refresh-{as_text(prefix)}")

    def _refresh_task(self, prefix: bytes, owner: Pid) -> Gen:
        reply = yield Send(owner, Message.request(
            RequestCode.SHARD_FETCH, prefix=as_text(prefix)))
        self._refreshing.discard(prefix)
        if reply.ok:
            binding = binding_from_fields(prefix, reply)
            if binding is not None:
                now = yield Now()
                rebound = prefix in self.table.bindings
                binding.epoch = int(reply.get("epoch", 0))
                binding.source = int(reply.get("source", 0))
                self.table.bindings[prefix] = binding
                self._leases[prefix] = now + float(
                    reply.get("lease", self.lease_ttl))
                self.lease_refreshes += 1
                probe = self._probe()
                if probe is not None:
                    probe.lease_event(self.host.name, "refresh")
                if rebound:
                    self._notify_invalidate(prefix)
        elif reply.code == int(ReplyCode.NOT_FOUND):
            # Authoritatively unbound at the owner: drop our stale copy.
            if self.table.bindings.pop(prefix, None) is not None:
                self._notify_invalidate(prefix)
            self._leases.pop(prefix, None)
        # TIMEOUT / RETRY: owner dead or map in motion -- the failover hook
        # rebuilds state from a live table, nothing to do here.

    # -------------------------------------------- table mutations and fan-out

    def map_request(self, delivery: Delivery, header: CSNameHeader) -> Gen:
        """Route binding *mutations* to the shard owner before resolving.

        ADD/DELETE_CONTEXT_NAME must land at the owner (only the owner may
        fan a change out); a non-owner forwards with the standard Sec. 5.4
        rewrite -- same name index, so the owner re-parses the prefix --
        and the client never notices.  Live replicas always share one map
        (the cluster installs updates into all of them in the same event),
        so forwarding cannot loop.
        """
        name, index = header.name, header.name_index
        if (delivery.message.code in (int(RequestCode.ADD_CONTEXT_NAME),
                                      int(RequestCode.DELETE_CONTEXT_NAME))
                and index < len(name)):
            try:
                prefix, __ = parse_prefix(name, index)
            except BadName:
                prefix = None
            if prefix is not None and not self.is_owner(prefix):
                owner = self.owner_pid(prefix)
                if owner is not None and owner != self.pid:
                    return ForwardName(
                        ContextPair(owner, int(WellKnownContext.DEFAULT)),
                        index)
        return (yield from super().map_request(delivery, header))

    def bound_prefix(self, delivery: Delivery, key: bytes,
                     binding: PrefixBinding, rebound: bool) -> Gen:
        now = yield Now()
        self._leases[key] = now + self.lease_ttl
        probe = self._probe()
        if probe is not None:
            probe.lease_event(self.host.name, "grant")
        if self.is_owner(key):
            self._fan_out(RequestCode.SHARD_SYNC, key, binding)

    def unbound_prefix(self, key: bytes) -> Gen:
        self._leases.pop(key, None)
        if self.is_owner(key):
            self._fan_out(RequestCode.SHARD_INVALIDATE, key, None)
        yield from ()

    def _fan_out(self, code: int, key: bytes,
                 binding: Optional[PrefixBinding]) -> None:
        """Notify every peer of a binding change, via a helper process."""
        if self.host is None or self.host.crashed:
            return
        peers = [Pid(pv) for rid, pv in self.shard_map.replicas
                 if rid != self.replica_id]
        if not peers:
            return
        self.host.spawn(self._fan_out_task(code, key, binding, peers),
                        name=f"shard-fanout-{as_text(key)}")

    def _fan_out_task(self, code: int, key: bytes,
                      binding: Optional[PrefixBinding], peers: list) -> Gen:
        fields: dict = {"prefix": as_text(key), "lease": self.lease_ttl}
        if binding is not None:
            fields.update(binding_fields(binding))
            # The binding's provenance rides as explicit notice fields (NOT
            # inside binding_fields: that codec also feeds export_table's
            # *charged* JSON segment, and epochs must stay wire-neutral).
            fields["epoch"] = int(binding.epoch)
            fields["source"] = int(binding.source)
        else:
            # An invalidation carries the deletion's tombstone epoch.
            fields["epoch"] = int(self.tombstones.get(key, 0))
            fields["source"] = int(self.pid.value) if self.pid else 0
        probe = self._probe()
        for peer in peers:
            if probe is not None:
                probe.notice_sent(key, int(peer.value),
                                  self.host.domain.now)
            yield Send(peer, Message.request(code, **fields))
            # A dead peer times out after the probe budget; it will pull a
            # fresh table when it rejoins, so the notice owes it nothing.

    # --------------------------------------------------------- shard protocol

    @staticmethod
    def _prefix_of(message: Message) -> bytes:
        return str(message.get("prefix", "")).encode()

    def op_shard_fetch(self, delivery: Delivery) -> Gen:
        """Owner side of a replica's lease refresh."""
        prefix = self._prefix_of(delivery.message)
        if not self.is_owner(prefix):
            owner = self.owner_pid(prefix)
            yield from self.reply_error(
                delivery, ReplyCode.RETRY,
                shard_version=self.shard_map.version,
                **({"owner_pid": int(owner.value)} if owner else {}))
            return
        binding = self.table.bindings.get(prefix)
        if binding is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND,
                                        shard_version=self.shard_map.version)
            return
        now = yield Now()
        self._leases[prefix] = now + self.lease_ttl
        yield from self.reply_ok(delivery, lease=self.lease_ttl,
                                 shard_version=self.shard_map.version,
                                 epoch=int(binding.epoch),
                                 source=int(binding.source),
                                 **binding_fields(binding))

    def op_shard_sync(self, delivery: Delivery) -> Gen:
        """Owner -> replica: install a (re)bound binding under a lease."""
        message = delivery.message
        key = self._prefix_of(message)
        binding = binding_from_fields(key, message)
        try:
            epoch = int(message.get("epoch", 0))
            source = int(message.get("source", 0))
            lease = float(message.get("lease", self.lease_ttl))
        except BAD_FIELD:
            binding = None
        if not key or binding is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        now = yield Now()
        rebound = key in self.table.bindings
        binding.epoch, binding.source = epoch, source
        self.table.bindings[key] = binding
        self._leases[key] = now + lease
        self.syncs_seen += 1
        probe = self._probe()
        if probe is not None:
            probe.notice_applied(key, int(self.pid.value) if self.pid else 0,
                                 self.host.name, now)
        if rebound:
            self._notify_invalidate(key)
        yield from self.reply_ok(delivery,
                                 shard_version=self.shard_map.version)

    def op_shard_invalidate(self, delivery: Delivery) -> Gen:
        """Owner -> replica: a binding was deleted."""
        key = self._prefix_of(delivery.message)
        try:
            notice_epoch = int(delivery.message.get("epoch", 0))
        except BAD_FIELD:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        existed = self.table.bindings.pop(key, None) is not None
        self._leases.pop(key, None)
        self.invalidations_seen += 1
        # Remember the deletion's epoch so an audit can tell "recently
        # unbound" from "never existed" at this replica too.
        if notice_epoch:
            self.tombstones[key] = notice_epoch
        probe = self._probe()
        if probe is not None:
            probe.notice_applied(key, int(self.pid.value) if self.pid else 0,
                                 self.host.name, self.host.domain.now)
        if existed:
            self._notify_invalidate(key)
        yield from self.reply_ok(delivery,
                                 shard_version=self.shard_map.version)

    def op_shard_map(self, delivery: Delivery) -> Gen:
        """Serve the current shard map (resolvers catch up through this)."""
        yield from self.reply_ok(delivery, segment=self.shard_map.encode(),
                                 shard_version=self.shard_map.version)

    def op_shard_pull(self, delivery: Delivery) -> Gen:
        """Bulk table transfer for a rejoining replica.

        Provenance stamps ride as a reply *field* (flat-charged), never in
        the segment: growing the charged JSON payload would change the
        transfer's simulated timing, and epochs are bookkeeping, not data.
        """
        now = yield Now()
        yield from self.reply_ok(delivery, segment=self.export_table(now),
                                 shard_version=self.shard_map.version,
                                 epochs=self.export_epochs())

    # ----------------------------------------------------------- bulk state

    def export_table(self, now: float) -> bytes:
        """The full table with per-entry remaining lease, JSON-encoded.

        Entries this replica *owns* export a full ``lease_ttl`` (we are the
        authority; the puller holds them under a lease from us); entries we
        merely hold under lease export only what remains of it -- a rejoin
        must not launder a nearly-dead lease into a fresh one.
        """
        records = []
        for key in sorted(self.table.bindings):
            binding = self.table.bindings[key]
            if self.is_owner(key):
                remaining = self.lease_ttl
            else:
                remaining = max(0.0, self._leases.get(key, 0.0) - now)
            record = {"prefix": as_text(key), "lease_remaining": remaining}
            record.update(binding_fields(binding))
            records.append(record)
        return json.dumps({"bindings": records}, sort_keys=True).encode()

    def export_epochs(self) -> bytes:
        """Each :meth:`export_table` record's (epoch, source), packed in
        record order: a bytes field the UDP wire can carry."""
        bindings = self.table.bindings
        return b"".join(_STAMP.pack(int(bindings[key].epoch),
                                    int(bindings[key].source))
                        for key in sorted(bindings))

    def install_table(self, payload: bytes, now: float,
                      epochs: bytes = b"") -> int:
        """Install a pulled table; returns how many bindings landed.

        ``epochs`` is the PULL reply's sideband provenance, one packed
        (epoch, source) per record in record order; without it every
        binding installs as (0, 0) -- unknown -- which the auditor treats
        as unverifiable rather than incoherent.  Raises
        :class:`ShardMapError`, and nothing else, on a payload or epochs
        the puller's peer could not have written; nothing is installed in
        that case.
        """
        doc = _json_object(payload, "pulled table")
        records = doc.get("bindings", [])
        if not isinstance(records, list):
            raise ShardMapError(f"bindings must be a list, got {records!r}")
        # Validate the whole payload before touching the table: a record
        # that is garbage must not leave the ones before it half-installed.
        parsed = []
        for record in records:
            if not isinstance(record, dict):
                raise ShardMapError(
                    f"a binding record must be an object, got {record!r}")
            prefix = record.get("prefix")
            try:
                key = prefix.encode() if isinstance(prefix, str) else b""
            except UnicodeEncodeError:      # a lone surrogate escape
                key = b""
            binding = ContextPrefixServer._binding_from_request(
                key, Message.request(0, **{
                    field: _wire_int(record[field], field, high=high)
                    for field, high in _BINDING_FIELD_MAX.items()
                    if field in record}))
            if not key or binding is None:
                raise ShardMapError(
                    f"record names no prefix or no target: {record!r}")
            remaining = record.get("lease_remaining", 0.0)
            # NaN fails the range test; Infinity is excluded by it.
            if type(remaining) not in (int, float) \
                    or not 0 <= remaining < float("inf"):
                raise ShardMapError(
                    f"lease_remaining must be a finite number >= 0, "
                    f"got {remaining!r}")
            parsed.append((key, binding, remaining))
        if type(epochs) is not bytes \
                or len(epochs) not in (0, _STAMP.size * len(parsed)):
            raise ShardMapError(f"epochs must pack {len(parsed)} stamps, "
                                f"got {epochs!r:.40}")
        stamps = _STAMP.iter_unpack(epochs or bytes(_STAMP.size
                                                    * len(parsed)))
        for (key, binding, remaining), stamp in zip(parsed, stamps):
            binding.epoch, binding.source = stamp
            self.table.bindings[key] = binding
            if remaining > 0:
                self._leases[key] = now + remaining
        return len(parsed)

    # ------------------------------------------------------------ inspection

    def snapshot_shard(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "map_version": self.shard_map.version,
            "bindings": len(self.table.bindings),
            "leases": len(self._leases),
            "lease_refusals": self.lease_refusals,
            "lease_refreshes": self.lease_refreshes,
            "syncs_seen": self.syncs_seen,
            "invalidations_seen": self.invalidations_seen,
            "expired_served": self.expired_served,
        }

    def coherence_entries(self, now: float) -> list[dict]:
        """Every table entry with its provenance and lease state.

        Plain memory reads (zero simulated cost) for the coherence payload
        at ``[obs]/hosts/<host>/coherence`` and the direct auditor; the
        simulated price of *reading* it over the wire is paid by the
        introspection messages, as with every other [obs] leaf.
        """
        entries = []
        for key in sorted(self.table.bindings):
            binding = self.table.bindings[key]
            expiry = self._leases.get(key)
            owner = self.is_owner(key)
            entries.append({
                "prefix": as_text(key),
                "epoch": int(binding.epoch),
                "source": int(binding.source),
                "is_owner": owner,
                "lease_expiry": expiry,
                "lease_fresh": owner or (expiry is not None and now < expiry),
            })
        return entries


# ------------------------------------------------------------- the cluster


class ShardCluster:
    """N replicas, one versioned map, and the failover/rejoin machinery.

    The cluster object is the membership service.  V kept equivalent state
    kernel-resident and reachable at zero cost from every machine's kernel;
    we keep the same modelling shortcut the prefix-notice channel uses: map
    installs into *live servers* are shared-memory writes (zero simulated
    cost, synchronous within the crash/restart event).  Resolvers get no
    such favour -- they hold map copies and catch up strictly over the
    wire, which is the part failover latency actually depends on.
    """

    def __init__(self, domain, hosts, lease_ttl: float = 1.0,
                 vnodes: int = DEFAULT_VNODES, parse_cpu: float = 0.0) -> None:
        from repro.servers.base import start_server

        if not hosts:
            raise ValueError("a shard cluster needs at least one host")
        self.domain = domain
        self.lease_ttl = float(lease_ttl)
        self.vnodes = int(vnodes)
        self.parse_cpu = float(parse_cpu)
        self.servers: dict = {}        # replica id -> live ShardReplicaServer
        self.handles: dict = {}
        self.retired: list = []        # crashed server objects (accounting)
        self._rid_by_host: dict = {}
        self.promotions = 0
        self.rejoins = 0
        self.map = ShardMap(version=0, replicas=(), vnodes=self.vnodes)
        replicas = []
        for replica_id, host in enumerate(hosts):
            server = self._spawn_replica(replica_id, host)
            replicas.append((replica_id, server.pid_value))
        self.map = ShardMap(version=1, replicas=tuple(sorted(replicas)),
                            vnodes=self.vnodes)
        self._install_map()
        #: Seed-time mutation counter: boot-time installs get provenance
        #: stamps too (source 0 = pre-kernel), so a seeded binding audits
        #: the same way a run-time one does.
        self._seed_epoch = 0
        domain.on_host_crashed(self._on_host_crashed)
        domain.on_host_restarted(self._on_host_restarted)
        # Registered so the coherence auditor (repro.obs.audit) can find
        # every cluster's authoritative state without being handed refs.
        if hasattr(domain, "shard_clusters"):
            domain.shard_clusters.append(self)

    def _spawn_replica(self, replica_id: int, host) -> "_SpawnedReplica":
        from repro.servers.base import start_server

        server = ShardReplicaServer(replica_id, self.map,
                                    lease_ttl=self.lease_ttl,
                                    parse_cpu=self.parse_cpu)
        handle = start_server(host, server, name=f"shard-replica-{replica_id}")
        server.host = host
        self.servers[replica_id] = server
        self.handles[replica_id] = handle
        self._rid_by_host[host.host_id] = replica_id
        return _SpawnedReplica(server, handle.pid.value)

    # ------------------------------------------------------------- bootstrap

    def seed_binding(self, name: str | bytes, pair: ContextPair = None,
                     service: Optional[int] = None,
                     context_id: int = int(WellKnownContext.DEFAULT)) -> None:
        """Install one binding into every live replica, leased from now.

        Boot-time bulk load, the cluster analogue of ``standard_prefixes``:
        zero simulated cost, shared-memory installs.  Run-time binds go
        through ADD_CONTEXT_NAME and the owner's fan-out instead.
        """
        key = validate_component(_as_prefix(name))
        if service is not None:
            binding = PrefixBinding(name=key, generic_service=int(service),
                                    generic_context=int(context_id))
        else:
            if pair is None:
                raise ValueError("seed_binding needs a pair or a service")
            binding = PrefixBinding(name=key, fixed=pair)
        self._seed_epoch += 1
        binding.epoch = self._seed_epoch
        expiry = self.domain.now + self.lease_ttl   # one float, shared
        for server in self.servers.values():
            server.table.bindings[key] = binding
            server._leases[key] = expiry

    def primary_pid(self) -> Pid:
        """A stable entry-point pid (lowest live replica id)."""
        if not self.map.replicas:
            raise ValueError("no live replicas")
        return Pid(self.map.replicas[0][1])

    def resolver(self, binding_ttl: Optional[float] = None,
                 negative_ttl: float = 0.25, max_entries: int = 2048,
                 registry=None, host=None) -> "ShardResolver":
        """A per-host resolver daemon wired to the current map.

        Pass ``host`` to register the resolver for coherence observability:
        the auditor and the ``[obs]/hosts/<host>/coherence`` leaf find it
        through ``domain.shard_resolvers``.
        """
        return ShardResolver(self.map,
                             binding_ttl=binding_ttl or self.lease_ttl,
                             negative_ttl=negative_ttl,
                             max_entries=max_entries, registry=registry,
                             host=host)

    # ------------------------------------------------------------- membership

    def _install_map(self) -> None:
        for server in self.servers.values():
            server.shard_map = self.map

    def _on_host_crashed(self, host) -> None:
        replica_id = self._rid_by_host.get(host.host_id)
        if replica_id is None:
            return
        server = self.servers.pop(replica_id, None)
        self.handles.pop(replica_id, None)
        if server is not None:
            self.retired.append(server)
        if self.map.pid_of(replica_id) is None:
            return
        # Failover: drop the dead replica; every prefix it owned hashes to
        # the next live replica on the ring.  Synchronous within the crash
        # event, so survivors answer for the moved prefixes before any
        # in-flight lookup even times out.
        self.map = self.map.without(replica_id)
        if self.map.replicas:
            self.promotions += 1
        self._install_map()

    def _on_host_restarted(self, host) -> None:
        replica_id = self._rid_by_host.get(host.host_id)
        if replica_id is None or replica_id in self.servers:
            return
        peers = [(rid, pv) for rid, pv in self.map.replicas
                 if rid != replica_id]
        spawned = self._spawn_replica(replica_id, host)
        host.spawn(self._rejoin_task(replica_id, spawned.server,
                                     spawned.pid_value, peers),
                   name=f"shard-rejoin-{replica_id}")

    def _rejoin_task(self, replica_id: int, server: ShardReplicaServer,
                     pid_value: int, peers: list) -> Gen:
        for __, peer_pid_value in peers:
            reply = yield Send(Pid(peer_pid_value),
                               Message.request(RequestCode.SHARD_PULL))
            if reply.ok and reply.segment:
                now = yield Now()
                server.install_table(reply.segment, now,
                                     epochs=reply.get("epochs", b""))
                break
        # Adopt into the map only after the warm-up: a rejoined replica
        # that claimed ownership over an empty table would answer
        # authoritative NOT_FOUNDs for names it simply has not learned yet.
        if server.host is None or server.host.crashed:
            return
        self.map = self.map.with_replica(replica_id, pid_value)
        self.rejoins += 1
        self._install_map()

    # ------------------------------------------------------------ inspection

    def live_replicas(self) -> list:
        return sorted(self.servers)

    def all_servers(self) -> list:
        """Every replica server the cluster ever ran, live and retired."""
        return list(self.servers.values()) + list(self.retired)

    def snapshot(self) -> dict:
        return {
            "map_version": self.map.version,
            "live": self.live_replicas(),
            "promotions": self.promotions,
            "rejoins": self.rejoins,
            "replicas": [server.snapshot_shard()
                         for server in self.all_servers()],
        }


@dataclass
class _SpawnedReplica:
    server: ShardReplicaServer
    pid_value: int


# ------------------------------------------------------------ the resolver


class ShardResolver:
    """Per-host resolver daemon over the shard cluster.

    Duck-types the cache contract of :func:`repro.core.resolver.
    send_csname_request` (``should_route`` / ``route`` / ``learn`` /
    ``is_stale_reply`` / ``invalidate_route``) plus the ``fallback_route``
    hook, which is where the hierarchy lives: positive binding cache first,
    then the mapped shard owner, then the replica ring.
    """

    def __init__(self, shard_map: ShardMap, binding_ttl: float = 1.0,
                 negative_ttl: float = 0.25, max_entries: int = 2048,
                 registry=None, host=None) -> None:
        self.map = shard_map
        #: prefix -> ContextPair, TTL-bound: a client must not keep using a
        #: binding longer than the replicas' own lease discipline would.
        self._bindings = BindingCache(max_entries=max_entries,
                                     ttl=binding_ttl)
        #: full name -> True, short-TTL: authoritative NOT_FOUNDs answered
        #: locally (NEGATIVE_ROUTE) while fresh.
        self._negative = BindingCache(max_entries=max_entries,
                                      ttl=negative_ttl)
        self.stats = CacheStats()
        self.registry = registry
        #: The host this resolver serves, when known: names the resolver in
        #: coherence samples and registers it for the auditor's fleet walk.
        self.host = host
        if host is not None and hasattr(host.domain, "shard_resolvers"):
            host.domain.shard_resolvers[host.host_id] = self
        self._last_dst: Optional[Pid] = None
        self.negative_hits = 0
        self.negative_stores = 0
        self.redirects_followed = 0
        self.map_refreshes = 0

    def _probe(self):
        """The domain's coherence probe when armed and a host is known."""
        if self.host is None:
            return None
        return getattr(self.host.domain, "coherence", None)

    # -------------------------------------------------------------- counters

    def _hit(self, source: str) -> None:
        self.stats.hits += 1
        by = self.stats.hits_by_source
        by[source] = by.get(source, 0) + 1
        if self.registry is not None:
            self.registry.counter("namecache.hits", source=source).incr()

    def _miss(self) -> None:
        self.stats.misses += 1
        if self.registry is not None:
            self.registry.counter("namecache.misses").incr()

    # --------------------------------------------------------------- routing

    def should_route(self, data: bytes, code: int) -> bool:
        return int(code) not in CACHE_BYPASS_OPS and has_prefix(data)

    def route(self, data: bytes) -> Gen:
        now = yield Now()
        if self._negative.get(data, now) is not None:
            self.negative_hits += 1
            self._hit("negative")
            probe = self._probe()
            if probe is not None:
                probe.negcache_hit(self.host.name)
            return NEGATIVE_ROUTE
        try:
            prefix, rest_index = parse_prefix(data)
        except BadName:
            return None
        entry = self._bindings.get(prefix, now)
        if entry is None:
            self._miss()
            return None
        probe = self._probe()
        if probe is not None:
            meta = self._bindings.meta(prefix)
            if meta is not None:
                # How old the entry being served is, in simulated seconds:
                # staleness at hit, the quantity TTLs merely bound.
                probe.stale_hit(self.host.name, now - meta[1])
        self._hit("shard")
        return CachedRoute(entry.server, entry.context_id, rest_index,
                           "shard", prefix=prefix)

    def fallback_route(self, data: bytes, attempt: int,
                       reply=None) -> Gen:
        """Full resolution, shard-style: aim at whoever owns the prefix.

        Attempt 0 trusts the local map copy.  A RETRY reply carrying an
        ``owner_pid`` redirect is followed verbatim.  Any other failed
        attempt means the map copy may be stale (owner crashed): refresh
        it over the wire from the first live replica that answers, then
        aim at the refreshed map's owner -- which is exactly the replica
        the cluster promoted, because both sides hash the same ring.
        """
        try:
            prefix, __ = parse_prefix(data)
        except BadName:
            return None
        if reply is not None:
            redirect = reply.get("owner_pid")
            if redirect is not None:
                self.redirects_followed += 1
                return self._aim(Pid(int(redirect)))
        refreshed = False
        if attempt > 0:
            refreshed = yield from self._refresh_map()
        shard_map = self.map
        if not shard_map._ring[1]:
            return None
        if refreshed or attempt == 0:
            candidate = shard_map.owner_of(prefix)
        else:
            # Could not refresh (everyone we asked was dead or silent):
            # walk the ring past the corpse rather than re-sending to it.
            order = shard_map.replicas_for(prefix)
            candidate = order[min(attempt, len(order) - 1)]
        pid = shard_map.pid_of(candidate)
        if pid is None:
            return None
        return self._aim(pid)

    def _aim(self, pid: Pid) -> tuple:
        self._last_dst = pid
        return pid, int(WellKnownContext.DEFAULT), 0

    def _refresh_map(self) -> Gen:
        """Fetch the current map over the wire; True if anyone answered.

        The replica the last attempt died against goes to the back of the
        candidate list -- no point asking the corpse first.  If *every*
        pid in the stale map copy is dead (a restarted replica runs under
        a fresh pid the old map never heard of), fall back to a kernel
        GetPid broadcast on the SHARD service -- the paper's "GetPid at
        time of use" rule, reused here as the bootstrap of last resort.
        """
        candidates = [Pid(pv) for __, pv in self.map.replicas]
        last = self._last_dst
        ordered = ([pid for pid in candidates if pid != last]
                   + [pid for pid in candidates if pid == last])
        for pid in ordered:
            if (yield from self._adopt_map_from(pid)):
                return True
        found = yield GetPid(int(ServiceId.SHARD), Scope.ANY)
        if found is not None and found not in ordered:
            return (yield from self._adopt_map_from(found))
        return False

    def _adopt_map_from(self, pid: Pid) -> Gen:
        reply = yield Send(pid, Message.request(RequestCode.SHARD_MAP))
        if reply.ok and reply.segment:
            fresh = ShardMap.decode(reply.segment)
            if fresh.version > self.map.version:
                self.map = fresh
                self.map_refreshes += 1
            return True
        return False

    # -------------------------------------------------------------- learning

    def learn(self, data: bytes, reply: Message,
              now: Optional[float] = None) -> None:
        if reply.code == int(ReplyCode.NOT_FOUND):
            if now is not None and not reply.get("negative_cached"):
                self._negative.put(bytes(data), True, now)
                self.negative_stores += 1
            return
        if not reply.ok:
            return
        self._negative.invalidate(bytes(data))
        advice = read_binding_advice(reply)
        if advice is None:
            return
        pair, index, service = advice
        try:
            prefix, rest_index = parse_prefix(data)
        except BadName:
            return
        if index != rest_index or service is not None:
            # Multi-hop consumption, or a generic binding whose pid must be
            # re-resolved per use: the prefix-level binding is unknowable.
            return
        if now is not None:
            provenance = read_binding_provenance(reply) or (0, 0)
            self._bindings.put(prefix, pair, now,
                               epoch=provenance[0], source=provenance[1])

    def note_mutation(self, data: bytes, code: int) -> None:
        """A table mutation this client sent succeeded; reconcile caches.

        ADD/DELETE_CONTEXT_NAME bypass the cache on the way out
        (:data:`~repro.core.namecache.CACHE_BYPASS_OPS`), so ``learn``
        never sees them -- but their success changes what cached answers
        are still right.  A *create* must kill negative entries for names
        under the prefix (a cached NOT_FOUND for a now-bound name would
        keep answering NOT_FOUND until its TTL lapsed) and drop the
        positive binding (a rebind repointed it); a *delete* drops the
        positive binding (the negative cache needs no help -- NOT_FOUND
        is now the truth).
        """
        try:
            prefix, __ = parse_prefix(data)
        except BadName:
            return
        if int(code) == int(RequestCode.ADD_CONTEXT_NAME):
            needle = b"[" + prefix + b"]"
            self._negative.invalidate_where(
                lambda key, __: bytes(key).startswith(needle))
        self._bindings.invalidate(prefix)

    # ---------------------------------------------------------- invalidation

    def is_stale_reply(self, reply: Message) -> bool:
        return reply.code in _STALE_CODE_INTS

    def invalidate_route(self, data: bytes, route: CachedRoute,
                         code: int) -> None:
        self.stats.fallbacks += 1
        if self.registry is not None:
            self.registry.counter("namecache.fallbacks").incr()
        dropped = 0
        if route.prefix is not None and self._bindings.invalidate(route.prefix):
            dropped = 1
        # The accounting invariant (invalidations >= fallbacks) holds even
        # when TTL expiry already removed the entry between route() and now.
        self.stats.invalidations += max(dropped, 1)
        if self.registry is not None:
            self.registry.counter("namecache.invalidations",
                                  reason="stale-reply").incr(max(dropped, 1))

    def invalidate_prefix(self, prefix: bytes, reason: str = "notice") -> int:
        """Proactive notice channel, same shape as NameCache's."""
        dropped = 1 if self._bindings.invalidate(bytes(prefix)) else 0
        if dropped:
            self.stats.invalidations += dropped
            if self.registry is not None:
                self.registry.counter("namecache.invalidations",
                                      reason=reason).incr(dropped)
        return dropped

    def clear(self) -> None:
        self._bindings.clear()
        self._negative.clear()

    # ------------------------------------------------------------ inspection

    def footprint(self) -> dict:
        return {"bindings": len(self._bindings),
                "negative": len(self._negative)}

    def coherence_entries(self, now: float) -> dict:
        """Cache contents with provenance, for the coherence auditor.

        Raw (uncounted) reads: auditing the resolver must not perturb its
        hit/miss accounting or LRU order.  ``age`` is simulated seconds
        since install; entries past their TTL are reported with
        ``expired: true`` rather than hidden -- the auditor wants to see
        what a lazy cache still *holds*, not only what it would serve.
        """
        ttl = self._bindings.ttl
        positive = []
        for key, value, stamp, epoch, source in self._bindings.entries_meta():
            positive.append({
                "prefix": as_text(key),
                "server_pid": int(value.server.value),
                "context_id": int(value.context_id),
                "installed_at": stamp,
                "age": now - stamp,
                "epoch": int(epoch),
                "source": int(source),
                "expired": ttl is not None and now - stamp >= ttl,
            })
        negative_ttl = self._negative.ttl
        negative = []
        for key, __, stamp, *___ in self._negative.entries_meta():
            negative.append({
                "name": as_text(key),
                "installed_at": stamp,
                "age": now - stamp,
                "expired": (negative_ttl is not None
                            and now - stamp >= negative_ttl),
            })
        return {"map_version": self.map.version,
                "binding_ttl": ttl, "negative_ttl": negative_ttl,
                "bindings": positive, "negative": negative}

    def snapshot(self) -> dict:
        return {
            "map_version": self.map.version,
            "footprint": self.footprint(),
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "fallbacks": self.stats.fallbacks,
                "invalidations": self.stats.invalidations,
                "hit_rate": self.stats.hit_rate,
                "hits_by_source": dict(self.stats.hits_by_source),
            },
            "negative_hits": self.negative_hits,
            "negative_stores": self.negative_stores,
            "redirects_followed": self.redirects_followed,
            "map_refreshes": self.map_refreshes,
        }
