"""Client-side name-binding cache with stale-hint recovery (E12).

The E4 table prices the uniform-access design: every request routed through
the context prefix server pays a fixed ~3.93 ms over a direct send (5.14 vs
1.21 ms local, 7.69 vs 3.70 ms remote), because the prefix server parses the
``[prefix]`` and *forwards* on every use.  Sec. 5 of the paper observes the
escape hatch: a client holding a ``(server-pid, context-id)`` binding can
address the context server directly and skip the prefix hop entirely.

This module is that escape hatch, made safe.  A :class:`NameCache` layered
into :func:`repro.core.resolver.send_csname_request` keeps three tables:

- **name hints**: fully-resolved CSname -> ``(server-pid, context-id,
  name-index)``, learned from the *binding advice* fields every CSNH server
  attaches to its OK replies (see :mod:`repro.core.protocol`).  A hint
  replays the exact request the final server saw after all forwarding, so a
  repeated multi-hop resolution collapses to one direct transaction.
- **prefix bindings**: ``prefix -> ContextPair`` (fixed form) or ``prefix ->
  (service-id, context-id)`` (generic form), learned whenever the advice
  shows the prefix alone was consumed upstream.  A prefix binding serves
  *any* name under the prefix, not just names seen before.
- **service pids**: GetPid results for generic bindings, with a bounded TTL
  in *simulated* time -- the client-side mirror of the prefix server's
  "GetPid each time the name is used" rule, cheap enough to refresh because
  a kernel GetPid is not a server transaction.

Correctness never depends on cache freshness -- the protocol for using a
hint is *optimistic send, validate by reply code*:

1. route the request directly using the cached binding;
2. if the reply is in :data:`STALE_REPLY_CODES` (invalid context, dead pid,
   crashed host, missing name...), invalidate the entry and transparently
   re-send via full prefix-server resolution;
3. learn the fresh binding from the fallback's reply.

One proactive channel keeps common staleness off the recovery path: the
prefix server notifies attached caches when a prefix is deleted or rebound
(:meth:`repro.core.prefix_server.ContextPrefixServer.attach_cache`).  The
notice models V's kernel-resident per-workstation state: the prefix server
and its clients share a machine, so the notification is a shared-memory
write, charged at zero simulated cost.  A cached generic binding whose
server died is recovered like any other stale hint, by the fallback above.

:class:`BindingCache` is the reusable bounded-LRU/TTL substrate; the
centralized baseline's deliberately-stale client cache
(:mod:`repro.baseline.client`) is the no-TTL configuration of the same
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from repro.core.context import ContextPair
from repro.core.names import BadName, has_prefix, parse_prefix
from repro.core.protocol import read_binding_advice, read_binding_provenance
from repro.kernel.ipc import GetPid, Now
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

Gen = Generator[Any, Any, Any]

#: Reply codes that mean "the cached binding may be stale": the addressed
#: process is gone (dead pid / crashed host), the context id is no longer
#: valid there, or the name does not resolve where the hint pointed.  A
#: hint-routed request answered with one of these is retried through full
#: prefix-server resolution before the error is surfaced, so a genuinely
#: missing name still errors -- after revalidation -- exactly as it would
#: have cold.
STALE_REPLY_CODES = frozenset({
    ReplyCode.INVALID_CONTEXT,
    ReplyCode.NONEXISTENT_PROCESS,
    ReplyCode.TIMEOUT,
    ReplyCode.NO_SERVER,
    ReplyCode.RETRY,
    ReplyCode.NOT_FOUND,
    ReplyCode.NOT_A_CONTEXT,
})

_STALE_CODE_INTS = frozenset(int(code) for code in STALE_REPLY_CODES)

#: CSname operations that act on the prefix *table itself* and must always
#: reach the prefix server, never a cached target.
CACHE_BYPASS_OPS = frozenset({
    int(RequestCode.ADD_CONTEXT_NAME),
    int(RequestCode.DELETE_CONTEXT_NAME),
})


class BindingCache:
    """A bounded LRU map with an optional TTL, counting its own traffic.

    ``ttl=None`` is the deliberately-stale mode: entries never expire and
    are only removed by explicit invalidation or LRU pressure -- exactly the
    consistency hazard the paper ascribes to client-side caching in the
    centralized model (Sec. 2.2), kept available as a configuration for the
    E8 experiments.  Timestamps are simulated seconds supplied by the
    caller, so expiry is deterministic.
    """

    def __init__(self, max_entries: int = 512,
                 ttl: Optional[float] = None) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None: {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        #: key -> (value, install stamp, mutation epoch, source pid).  The
        #: provenance pair defaults to (0, 0) -- unknown -- and is carried
        #: so the coherence auditor (repro.obs.audit) can compare a cached
        #: entry against the authority's stamp instead of guessing from
        #: clocks; ``get``/``put`` callers that ignore it are unaffected.
        self._entries: dict[Any, tuple[Any, float, int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any, now: Optional[float] = None) -> Any:
        """The cached value, or None (expired entries are dropped).

        TTL-bearing caches require the caller's clock: a defaulted ``now``
        would silently make every entry look fresh forever, which is how a
        TTL cache degenerates into the deliberately-stale one.
        """
        now = self._require_clock(now)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, stamp = entry[0], entry[1]
        # Expiry is *inclusive*: an entry read exactly at ``stamp + ttl`` is
        # already stale.  Replicated prefix serving (repro.core.shard) leases
        # bindings with this same boundary, and coherence depends on every
        # party agreeing on the expiry instant -- an entry served at the
        # instant its lease lapses is a resolution from an expired binding.
        if self.ttl is not None and now - stamp >= self.ttl:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        # LRU touch: re-insertion moves the key to the young end.
        del self._entries[key]
        self._entries[key] = entry
        self.hits += 1
        return value

    def _require_clock(self, now: Optional[float]) -> float:
        if now is None:
            if self.ttl is not None:
                raise ValueError(
                    "this BindingCache has a TTL; pass the current simulated "
                    "time explicitly (now=...) so expiry can work")
            return 0.0
        return now

    def put(self, key: Any, value: Any, now: Optional[float] = None, *,
            epoch: int = 0, source: int = 0) -> None:
        now = self._require_clock(now)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.max_entries:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
        self._entries[key] = (value, now, int(epoch), int(source))

    def invalidate(self, key: Any) -> bool:
        return self._entries.pop(key, None) is not None

    def invalidate_where(self, predicate: Callable[[Any, Any], bool]) -> int:
        """Drop every entry where ``predicate(key, value)``; returns count."""
        doomed = [key for key, entry in self._entries.items()
                  if predicate(key, entry[0])]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()

    def items(self) -> list[tuple[Any, Any]]:
        return [(key, entry[0]) for key, entry in self._entries.items()]

    # ---------------------------------------------------------- provenance
    # Raw accessors for the coherence auditor: no hit/miss/expiry counting,
    # no LRU touch, possibly-expired entries included -- auditing the cache
    # must not perturb it.

    def meta(self, key: Any) -> Optional[tuple[Any, float, int, int]]:
        """The raw entry for ``key``: (value, stamp, epoch, source)."""
        return self._entries.get(key)

    def entries_meta(self) -> list[tuple[Any, Any, float, int, int]]:
        """Every raw entry as (key, value, stamp, epoch, source)."""
        return [(key, entry[0], entry[1], entry[2], entry[3])
                for key, entry in self._entries.items()]


@dataclass(frozen=True)
class GenericBinding:
    """A cached generic prefix: resolve the service pid at time of use."""

    service: int
    context_id: int


PrefixEntry = Union[ContextPair, GenericBinding]


#: Sentinel a cache's ``route()`` may return instead of a CachedRoute: the
#: name is *negatively* cached (a recent authoritative NOT_FOUND whose TTL
#: has not lapsed).  ``send_csname_request`` answers such a request locally
#: with a synthetic NOT_FOUND reply instead of re-asking the servers --
#: the classic resolver defence against hot missing names.
NEGATIVE_ROUTE = object()


@dataclass(frozen=True)
class CachedRoute:
    """Where a cached binding says a request can be sent directly."""

    dst: Pid
    context_id: int
    name_index: int
    #: Which table produced the route: "hint", "prefix", or "generic".
    source: str
    prefix: Optional[bytes] = None
    service: Optional[int] = None


@dataclass
class CacheStats:
    """Local counters (always maintained, registry or not)."""

    hits: int = 0
    misses: int = 0
    fallbacks: int = 0
    invalidations: int = 0
    hits_by_source: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served warm *and* validated by the reply.

        A hit that turned out stale (and fell back to full resolution) is
        not a useful hit, so fallbacks are subtracted from the numerator.
        """
        if self.lookups == 0:
            return 0.0
        return max(0, self.hits - self.fallbacks) / self.lookups


class NameCache:
    """The per-workstation client-side binding cache."""

    def __init__(self, getpid_ttl: float = 5.0, max_hints: int = 512,
                 max_services: int = 64,
                 registry: Optional["MetricsRegistry"] = None) -> None:
        #: name -> (ContextPair, name_index); no TTL, bounded LRU.
        self._hints = BindingCache(max_entries=max_hints, ttl=None)
        #: prefix -> ContextPair | GenericBinding.
        self._prefixes: dict[bytes, PrefixEntry] = {}
        #: service id -> Pid, TTL-bounded in simulated seconds.
        self._services = BindingCache(max_entries=max_services, ttl=getpid_ttl)
        self.stats = CacheStats()
        self.registry = registry

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

    def _invalidated(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.stats.invalidations += count
        if self.registry is not None:
            self.registry.counter("namecache.invalidations",
                                  reason=reason).incr(count)

    # --------------------------------------------------------------- routing

    def should_route(self, data: bytes, code: int) -> bool:
        """Can this request even be served from the cache?

        Only ``[prefix]`` names are cacheable -- a relative name's meaning
        depends on the session's current context, which already *is* a
        direct binding.  Prefix-table operations always go to the prefix
        server.
        """
        return int(code) not in CACHE_BYPASS_OPS and has_prefix(data)

    def route(self, data: bytes) -> Gen:
        """Find a direct route for ``data``; a generator over kernel effects.

        Yields ``Now`` (and possibly ``GetPid``) for generic bindings, so it
        must be driven with ``yield from`` by the client process.  Returns a
        :class:`CachedRoute` or None (a miss, counted).
        """
        hint = self._hints.get(data)
        if hint is not None:
            pair, index = hint
            self._hit("hint")
            return CachedRoute(pair.server, pair.context_id, index, "hint")
        try:
            prefix, rest_index = parse_prefix(data)
        except BadName:
            # Malformed prefix: let the full path produce the proper error.
            return None
        entry = self._prefixes.get(prefix)
        if entry is None:
            self._miss()
            return None
        if isinstance(entry, GenericBinding):
            now = yield Now()
            pid = self._services.get(entry.service, now)
            if pid is None:
                # The bounded-TTL refresh: a kernel GetPid, not a server
                # transaction -- the binding keeps tracking restarts.
                pid = yield GetPid(entry.service, Scope.ANY)
                if pid is None:
                    self._miss()
                    return None
                self._services.put(entry.service, pid, now)
            self._hit("generic")
            return CachedRoute(pid, entry.context_id, rest_index, "generic",
                               prefix=prefix, service=entry.service)
        self._hit("prefix")
        return CachedRoute(entry.server, entry.context_id, rest_index,
                           "prefix", prefix=prefix)

    # -------------------------------------------------------------- learning

    def learn(self, data: bytes, reply: Message,
              now: Optional[float] = None) -> None:
        """Absorb the binding advice of a full resolution's OK reply.

        ``now`` (simulated seconds) is required when the advice carries a
        generic service binding, because the service-pid table is TTL-bound.
        """
        if not reply.ok:
            return
        advice = read_binding_advice(reply)
        if advice is None:
            return
        pair, index, service = advice
        provenance = read_binding_provenance(reply) or (0, 0)
        self._hints.put(data, (pair, index),
                        epoch=provenance[0], source=provenance[1])
        try:
            prefix, rest_index = parse_prefix(data)
        except BadName:
            return
        if index != rest_index:
            # The final server consumed more than the prefix (multi-hop
            # forwarding): the name hint stands, but we cannot tell what
            # the *prefix alone* binds to.
            return
        if service is not None:
            self._prefixes[prefix] = GenericBinding(int(service),
                                                    pair.context_id)
            self._services.put(int(service), pair.server, now)
        else:
            self._prefixes[prefix] = ContextPair(pair.server, pair.context_id)

    # ---------------------------------------------------------- invalidation

    def is_stale_reply(self, reply: Message) -> bool:
        return reply.code in _STALE_CODE_INTS

    def invalidate_route(self, data: bytes, route: CachedRoute,
                         code: int) -> None:
        """A hint-routed request came back stale: drop what produced it."""
        self.stats.fallbacks += 1
        if self.registry is not None:
            self.registry.counter("namecache.fallbacks").incr()
        dropped = 0
        if route.source == "generic" and route.service is not None:
            # Keep the generic prefix knowledge; only the resolved pid died.
            dropped += 1 if self._services.invalidate(route.service) else 0
        else:
            dropped += 1 if self._hints.invalidate(data) else 0
            prefix = route.prefix
            if prefix is None:
                try:
                    prefix, __ = parse_prefix(data)
                except BadName:
                    prefix = None
            if prefix is not None:
                entry = self._prefixes.get(prefix)
                # A fixed binding that routed us to the refusing server is
                # guilty by association; sibling hints derived from it too.
                if isinstance(entry, ContextPair) and entry.server == route.dst:
                    dropped += self._drop_prefix(prefix)
        self._invalidated("stale-reply", max(dropped, 1))

    def _drop_prefix(self, prefix: bytes) -> int:
        dropped = 1 if self._prefixes.pop(prefix, None) is not None else 0
        needle = b"[" + prefix + b"]"
        dropped += self._hints.invalidate_where(
            lambda key, __: key.startswith(needle))
        return dropped

    def invalidate_prefix(self, prefix: bytes, reason: str = "notice") -> int:
        """Proactive notice: a prefix was deleted or rebound upstream."""
        dropped = self._drop_prefix(bytes(prefix))
        self._invalidated(reason, dropped)
        return dropped

    def clear(self) -> None:
        self._hints.clear()
        self._prefixes.clear()
        self._services.clear()

    # ------------------------------------------------------------ inspection

    def prefix_entry(self, prefix: str | bytes) -> Optional[PrefixEntry]:
        raw = prefix.encode() if isinstance(prefix, str) else bytes(prefix)
        return self._prefixes.get(raw)

    def hint_for(self, name: str | bytes) -> Optional[tuple[ContextPair, int]]:
        raw = name.encode() if isinstance(name, str) else bytes(name)
        entry = self._hints._entries.get(raw)
        return entry[0] if entry is not None else None

    def service_pid(self, service: int,
                    now: Optional[float] = None) -> Optional[Pid]:
        return self._services.get(service, now)

    def footprint(self) -> dict:
        return {
            "hints": len(self._hints),
            "prefixes": len(self._prefixes),
            "services": len(self._services),
        }

    def snapshot(self) -> dict:
        """JSON-ready cache contents and counters.

        Served live as ``[obs]/hosts/<host>/namecache``; building it costs
        zero simulated time (plain memory reads by the stat server).
        """
        hints = [
            {"name": key.decode("utf-8", errors="replace"),
             "server_pid": pair.server.value,
             "context_id": pair.context_id,
             "name_index": index}
            for key, (pair, index) in self._hints.items()
        ]
        prefixes = []
        for prefix, entry in self._prefixes.items():
            record = {"prefix": prefix.decode("utf-8", errors="replace")}
            if isinstance(entry, GenericBinding):
                record.update(generic=True, service=entry.service,
                              context_id=entry.context_id)
            else:
                record.update(generic=False, server_pid=entry.server.value,
                              context_id=entry.context_id)
            prefixes.append(record)
        services = [
            {"service": service, "pid": pid.value}
            for service, pid in self._services.items()
        ]
        return {
            "footprint": self.footprint(),
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "fallbacks": self.stats.fallbacks,
                "invalidations": self.stats.invalidations,
                "hit_rate": self.stats.hit_rate,
                "hits_by_source": dict(self.stats.hits_by_source),
            },
            "hints": hints,
            "prefixes": prefixes,
            "services": services,
        }
