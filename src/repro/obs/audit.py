"""Coherence auditing for the sharded name service.

PR 9 gave the prefix service replicas, leases, and a versioned shard map;
this module answers the question that setup begs: **is the fleet actually
coherent right now, and how stale is what clients are being served?**
Three pieces:

- a :class:`CoherenceProbe` (armed via :func:`enable_coherence`) that the
  shard layer feeds through duck-typed hooks -- every INVALIDATE/SYNC
  notice send/apply, lease grant/refresh/refusal, negative-cache hit, and
  cache hit's age lands here as pure bookkeeping.  The telemetry collector
  drains its per-host tick buckets into the five ``coherence.*`` time
  series, and benchmarks read its cumulative lag/staleness samples;
- a **classifier** (:func:`classify_fleet`) that cross-checks every
  host's cached name state against the authoritative shard owner and
  labels each entry ``fresh``, ``stale`` (disagreement the TTL/lease
  discipline still bounds), ``incoherent`` (disagreement a client could
  be *served* right now -- the forbidden state), ``expired``, or
  ``unverifiable`` (pre-provenance entries with no epoch stamp); it also
  detects ownership drift (two replicas both claiming a prefix) and shard
  map version drift;
- two **walkers** over the same classifier: :func:`audit_direct` (plain
  memory reads, zero simulated cost -- the post-run invariant the chaos
  storm asserts) and :func:`audit_via_obs` (reads every host's
  ``[obs]/hosts/<host>/coherence`` leaf through the full Sec. 5.4
  forwarding chain -- the live operator's path, fully charged).

Provenance identity, not order: an ``(epoch, source-pid)`` stamp names one
authoritative mutation, and the auditor only ever compares stamps for
*equality* against the owner's current stamp.  Epochs from different
servers are never ordered against each other.

``python -m repro.obs storm --watchdogs`` runs the replica-crash storm with
the probe and watchdogs armed, audits the fleet through ``[obs]``, and
renders the coherence report (``--json`` for the storm document with the
audit in it, ``--watch`` for periodic in-run audits).  An incoherent entry
fails the storm's invariants, so the storm exits 1 before rendering.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.domain import Domain
    from repro.kernel.host import Host

AUDIT_SCHEMA = 1

#: Entry classifications, worst first (the order render() reports them).
INCOHERENT = "incoherent"
STALE = "stale"
EXPIRED = "expired"
UNVERIFIABLE = "unverifiable"
FRESH = "fresh"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty list)."""
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of the sorted ``ordered`` (0.0 when empty)."""
    if not ordered:
        return 0.0
    index = int(round(q * (len(ordered) - 1)))
    return ordered[min(max(index, 0), len(ordered) - 1)]


def _caught_up(samples: list[float], ordered: list[float]) -> list[float]:
    """``ordered``, the sorted copy of a prefix of the append-only
    ``samples``, extended in place to all of them: only the samples added
    since are sorted, and the merge of the two sorted runs is linear."""
    if len(ordered) < len(samples):
        ordered += samples[len(ordered):]
        ordered.sort()
    return ordered


# ------------------------------------------------------------------- probe


class CoherenceProbe:
    """Passive bookkeeping for coherence traffic; fed by the shard layer.

    Every hook is **pure memory writes** -- no events scheduled, no rng
    draws, no sends -- so arming the probe never perturbs the simulated
    timeline (the same zero-observer-effect rule every obs capture in this
    repo follows; E15 pins the wall-clock side).  The shard layer reaches
    it via ``domain.coherence`` (duck-typed, core never imports obs).

    Two consumers, two shapes of state:

    - the telemetry collector calls :meth:`drain_tick` once per host per
      sample tick and gets that tick's bucket (worst lag, oldest hit age,
      event counts) for the ``coherence.*`` series;
    - benchmarks and the audit report read the cumulative side --
      :attr:`lags`, :attr:`staleness`, the counters -- via
      :meth:`summary`.
    """

    def __init__(self, registry=None) -> None:
        #: Fleet metrics registry (optional): every hook mirrors itself as
        #: a ``coherence.*`` counter there, so ``[obs]/fleet/metrics`` and
        #: ``repro.obs.report`` see coherence traffic alongside the
        #: ``namecache.*`` scoreboard.  Registry increments are plain
        #: Python writes -- the zero-observer-effect rule holds.
        self.registry = registry
        #: (prefix, dst pid value) -> send times of in-flight notices.
        #: A deque per key: two mutations of one prefix can be in flight
        #: to the same peer at once, and notices are FIFO per link.
        self._pending: dict[tuple[bytes, int], deque] = {}
        # Per-host tick buckets, drained by the telemetry collector.
        self._tick_lag_ms: dict[str, float] = {}
        self._tick_stale_ms: dict[str, float] = {}
        self._tick_lease: dict[str, int] = {}
        self._tick_neg: dict[str, int] = {}
        self._tick_lookups: dict[str, int] = {}
        # Cumulative accounting (benchmarks, audit report).
        self.lags: list[float] = []              # seconds, per applied notice
        self.staleness: list[float] = []         # seconds, per cache hit
        self.notices_sent = 0
        self.notices_applied = 0
        #: Notices applied with no matching send on record (probe armed
        #: mid-run, or a rejoin PULL observed as application only).
        self.notices_unmatched = 0
        self.lease_events: dict[str, int] = {}   # grant/refresh/refusal
        self.negcache_hits = 0
        self.lookups = 0
        self.lookups_by_host: dict[str, int] = {}
        #: Sorted copies of ``lags`` and ``staleness`` as of the last
        #: summary(), so each summary sorts only what arrived since.
        self._lags_ordered: list[float] = []
        self._staleness_ordered: list[float] = []
        #: (counter name, tag value) -> its registry counter, resolved once.
        self._counters: dict[tuple[str, str], object] = {}

    # -------------------------------------------------- shard-layer hooks

    def _count(self, name: str, **tags: str) -> None:
        """Bump the registry counter ``name{tags}``, resolved once per name
        and tag values (nothing without a registry)."""
        key = (name, *tags.values())
        counter = self._counters.get(key)
        if counter is None:
            if self.registry is None:
                return
            counter = self._counters[key] = self.registry.counter(name, **tags)
        counter.value += 1

    def shard_lookup(self, host: str, replica_id: int) -> None:
        """A replica on ``host`` served (or refused) one lookup."""
        self.lookups += 1
        self.lookups_by_host[host] = self.lookups_by_host.get(host, 0) + 1
        self._tick_lookups[host] = self._tick_lookups.get(host, 0) + 1
        self._count("coherence.lookups", host=host)

    def lease_event(self, host: str, kind: str) -> None:
        """A lease changed state at ``host``: grant, refresh, or refusal."""
        self.lease_events[kind] = self.lease_events.get(kind, 0) + 1
        self._tick_lease[host] = self._tick_lease.get(host, 0) + 1
        self._count("coherence.lease_events", kind=kind)

    def notice_sent(self, prefix: bytes, dst_pid: int, t: float) -> None:
        """The owner fanned one SYNC/INVALIDATE notice out to ``dst_pid``."""
        self.notices_sent += 1
        self._count("coherence.notices", phase="sent")
        key = (bytes(prefix), int(dst_pid))
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append(t)

    def notice_applied(self, prefix: bytes, pid: int, host: str,
                       t: float) -> None:
        """A peer applied a notice; the lag is apply time minus send time."""
        self.notices_applied += 1
        self._count("coherence.notices", phase="applied")
        queue = self._pending.get((bytes(prefix), int(pid)))
        if not queue:
            self.notices_unmatched += 1
            self._count("coherence.notices", phase="unmatched")
            return
        lag = max(0.0, t - queue.popleft())
        self.lags.append(lag)
        lag_ms = lag * 1000.0
        if lag_ms > self._tick_lag_ms.get(host, 0.0):
            self._tick_lag_ms[host] = lag_ms

    def stale_hit(self, host: str, age: float) -> None:
        """A resolver served a cached binding that was ``age`` seconds old."""
        self._count("coherence.stale_hits", host=host)
        age = max(0.0, age)
        self.staleness.append(age)
        age_ms = age * 1000.0
        if age_ms > self._tick_stale_ms.get(host, 0.0):
            self._tick_stale_ms[host] = age_ms

    def negcache_hit(self, host: str) -> None:
        """A resolver answered NOT_FOUND from its negative cache."""
        self.negcache_hits += 1
        self._tick_neg[host] = self._tick_neg.get(host, 0) + 1
        self._count("coherence.negcache_hits", host=host)

    # ---------------------------------------------------- telemetry feed

    def drain_tick(self, host: str) -> dict[str, float]:
        """Pop ``host``'s tick bucket as ``coherence.*`` sample values.

        Always returns all five keys (zeros on a quiet tick) so the series
        stay dense while the probe is armed -- a gap means the *host* was
        down, never that the probe had nothing to say.
        """
        return {
            "coherence.invalidation_lag": self._tick_lag_ms.pop(host, 0.0),
            "coherence.staleness_at_hit": self._tick_stale_ms.pop(host, 0.0),
            "coherence.lease_churn": float(self._tick_lease.pop(host, 0)),
            "coherence.negcache_hits": float(self._tick_neg.pop(host, 0)),
            "coherence.shard_hotness": float(self._tick_lookups.pop(host, 0)),
        }

    # -------------------------------------------------------- summaries

    def in_flight(self) -> int:
        """Notices sent but not (yet) observed applied."""
        return sum(len(queue) for queue in self._pending.values())

    def summary(self) -> dict:
        """Cumulative propagation/staleness digest (ms percentiles)."""
        lags = _caught_up(self.lags, self._lags_ordered)
        staleness = _caught_up(self.staleness, self._staleness_ordered)
        return {
            "notices_sent": self.notices_sent,
            "notices_applied": self.notices_applied,
            "notices_unmatched": self.notices_unmatched,
            "notices_in_flight": self.in_flight(),
            "invalidation_lag_ms": {
                "samples": len(lags),
                "p50": round(_nearest_rank(lags, 0.50) * 1000.0, 4),
                "p99": round(_nearest_rank(lags, 0.99) * 1000.0, 4),
                "max": round(lags[-1] * 1000.0, 4) if lags else 0.0,
            },
            "staleness_at_hit_ms": {
                "samples": len(staleness),
                "p50": round(_nearest_rank(staleness, 0.50) * 1000.0, 4),
                "p99": round(_nearest_rank(staleness, 0.99) * 1000.0, 4),
                "max": round(staleness[-1] * 1000.0, 4) if staleness
                       else 0.0,
            },
            "lease_events": dict(sorted(self.lease_events.items())),
            "negcache_hits": self.negcache_hits,
            "shard_lookups": self.lookups,
            "shard_lookups_by_host": dict(
                sorted(self.lookups_by_host.items())),
        }


def enable_coherence(domain: "Domain") -> CoherenceProbe:
    """Arm a coherence probe on ``domain`` (idempotent).

    After this, every shard replica and registered shard resolver feeds
    the probe, and the telemetry collector's ``coherence.*`` series start
    sampling.  Zero simulated cost either way.
    """
    if domain.coherence is None:
        domain.coherence = CoherenceProbe(registry=domain.metrics)
    return domain.coherence


# ------------------------------------------------------ per-host documents


def host_coherence_document(host: "Host", now: Optional[float] = None) -> dict:
    """One host's cached-name-state snapshot, with provenance.

    The document behind ``[obs]/hosts/<host>/coherence`` and the unit the
    classifier consumes: the host's shard replica table (if it runs one)
    and its registered shard resolver caches (if it has one), each entry
    stamped with its ``(epoch, source)`` provenance and lease/TTL state.
    Plain memory reads -- zero simulated cost; reading it over the wire is
    charged like any other ``[obs]`` leaf.
    """
    domain = host.domain
    if now is None:
        now = domain.now
    document: dict = {"kind": "coherence", "host": host.name, "t": now,
                      "enabled": False, "replica": None, "resolver": None}
    for cluster in getattr(domain, "shard_clusters", ()):
        for server in cluster.servers.values():
            if server.host is host:
                document["replica"] = {
                    "replica_id": server.replica_id,
                    "map_version": server.shard_map.version,
                    "lease_ttl": server.lease_ttl,
                    "entries": server.coherence_entries(now),
                }
                document["enabled"] = True
    resolver = getattr(domain, "shard_resolvers", {}).get(host.host_id)
    if resolver is not None:
        document["resolver"] = resolver.coherence_entries(now)
        document["enabled"] = True
    return document


def collect_documents(domain: "Domain",
                      now: Optional[float] = None) -> list[dict]:
    """Every live host's coherence document, in host-id order."""
    return [host_coherence_document(host, now)
            for host in sorted(domain.hosts.values(), key=lambda h: h.host_id)
            if not host.crashed]


# ---------------------------------------------------------- classification


def _negative_prefix(name: str) -> Optional[str]:
    """The ``[prefix]`` component of a negatively-cached name, if any."""
    if not name.startswith("[") or "]" not in name:
        return None
    return name[1:name.index("]")]


def classify_fleet(documents: list[dict], t: float,
                   via: str = "direct",
                   probe: Optional[CoherenceProbe] = None) -> dict:
    """Cross-check every cached entry against the authoritative owner.

    Authority is read off the documents themselves: a replica entry with
    ``is_owner: true`` *is* the authoritative stamp for its prefix under
    that replica's shard map (ownership follows promotion automatically,
    because each replica computes ``is_owner`` against its own current
    map).  Two simultaneous ownership claims are **ownership drift** --
    the claim from the higher map version wins, the conflict is reported.

    Classification, per tier:

    - replica entries: owner entries are ``fresh`` (they are the truth);
      a non-owner entry agreeing with the owner's stamp is ``fresh``;
      disagreeing (or surviving a deletion) under a *fresh lease* is
      ``incoherent`` -- a client could be served it right now; the same
      disagreement with the lease expired is ``stale`` -- held but
      unservable (the refusal path gates it); unstamped entries audit as
      ``unverifiable``;
    - resolver bindings: TTL-expired entries are ``expired`` (held lazily,
      never served); live entries agreeing with the owner are ``fresh``,
      disagreeing or deletion-surviving ones are ``stale`` -- within-TTL
      staleness is the contract the resolver's TTL bounds, so it is never
      classified incoherent;
    - resolver negative entries: an unexpired NOT_FOUND for a name whose
      prefix the owner currently binds is ``stale`` (the bound-name case
      ``note_mutation`` kills locally but other hosts ride out on TTL).
    """
    owners: dict[str, dict] = {}
    ownership_drift: list[dict] = []
    for document in documents:
        replica = document.get("replica")
        if not replica:
            continue
        for entry in replica["entries"]:
            if not entry["is_owner"]:
                continue
            claim = {"host": document["host"],
                     "replica_id": replica["replica_id"],
                     "map_version": replica["map_version"],
                     "epoch": entry["epoch"], "source": entry["source"]}
            held = owners.get(entry["prefix"])
            if held is None:
                owners[entry["prefix"]] = claim
            else:
                ownership_drift.append({
                    "prefix": entry["prefix"],
                    "claims": sorted([
                        {k: held[k] for k in ("host", "replica_id",
                                              "map_version")},
                        {k: claim[k] for k in ("host", "replica_id",
                                               "map_version")},
                    ], key=lambda c: c["host"]),
                })
                if claim["map_version"] > held["map_version"]:
                    owners[entry["prefix"]] = claim

    tiers = {
        "replica": {FRESH: 0, STALE: 0, INCOHERENT: 0, UNVERIFIABLE: 0,
                    "entries": 0},
        "resolver": {FRESH: 0, STALE: 0, EXPIRED: 0, UNVERIFIABLE: 0,
                     "entries": 0},
        "negative": {FRESH: 0, STALE: 0, EXPIRED: 0, "entries": 0},
    }
    incoherent: list[dict] = []
    stale: list[dict] = []
    hosts: list[str] = []
    map_versions: dict[str, dict] = {}

    replicas, resolvers, negatives = tiers.values()
    for document in documents:
        host = document["host"]
        hosts.append(host)
        versions = {"replica": None, "resolver": None}
        replica = document.get("replica")
        if replica:
            versions["replica"] = replica["map_version"]
            replicas["entries"] += len(replica["entries"])
            for entry in replica["entries"]:
                if entry["is_owner"]:
                    replicas[FRESH] += 1
                    continue
                owner = owners.get(entry["prefix"])
                if owner is not None and entry["epoch"] == 0:
                    replicas[UNVERIFIABLE] += 1
                    continue
                if owner is not None and (entry["epoch"], entry["source"]) \
                        == (owner["epoch"], owner["source"]):
                    replicas[FRESH] += 1
                    continue
                finding = {"tier": "replica", "host": host,
                           "prefix": entry["prefix"],
                           "epoch": entry["epoch"],
                           "source": entry["source"],
                           "lease_fresh": entry["lease_fresh"],
                           "owner": ({k: owner[k] for k in
                                      ("host", "epoch", "source")}
                                     if owner else None)}
                if entry["lease_fresh"]:
                    replicas[INCOHERENT] += 1
                    incoherent.append(finding)
                else:
                    replicas[STALE] += 1
                    stale.append(finding)
        resolver = document.get("resolver")
        if resolver:
            versions["resolver"] = resolver["map_version"]
            resolvers["entries"] += len(resolver["bindings"])
            for entry in resolver["bindings"]:
                owner = owners.get(entry["prefix"])
                if entry["expired"]:
                    resolvers[EXPIRED] += 1
                elif owner is not None and entry["epoch"] == 0:
                    resolvers[UNVERIFIABLE] += 1
                elif owner is not None and (entry["epoch"], entry["source"]) \
                        == (owner["epoch"], owner["source"]):
                    resolvers[FRESH] += 1
                else:
                    resolvers[STALE] += 1
                    stale.append({"tier": "resolver", "host": host,
                                  "prefix": entry["prefix"],
                                  "epoch": entry["epoch"],
                                  "source": entry["source"],
                                  "age": entry["age"],
                                  "owner": ({k: owner[k] for k in
                                             ("host", "epoch", "source")}
                                            if owner else None)})
            negatives["entries"] += len(resolver["negative"])
            for entry in resolver["negative"]:
                prefix = _negative_prefix(entry["name"])
                if entry["expired"]:
                    negatives[EXPIRED] += 1
                elif prefix is not None and prefix in owners:
                    negatives[STALE] += 1
                    stale.append({"tier": "negative", "host": host,
                                  "name": entry["name"], "prefix": prefix,
                                  "age": entry["age"]})
                else:
                    negatives[FRESH] += 1
        map_versions[host] = versions

    known = [v for versions in map_versions.values()
             for v in versions.values() if v is not None]
    fleet_max = max(known) if known else 0
    map_drift = [{"host": host, "tier": tier, "version": version,
                  "fleet_max": fleet_max}
                 for host, versions in sorted(map_versions.items())
                 for tier, version in versions.items()
                 if version is not None and version < fleet_max]

    return {
        "kind": "coherence-audit",
        "schema": AUDIT_SCHEMA,
        "t": t,
        "via": via,
        "hosts": hosts,
        "tiers": tiers,
        "findings": {
            "incoherent": incoherent,
            "stale": stale,
            "ownership_drift": ownership_drift,
            "map_drift": map_drift,
        },
        "map_versions": {"fleet_max": fleet_max,
                         "hosts": map_versions},
        "probe": probe.summary() if probe is not None else None,
        "ok": not incoherent,
    }


# ----------------------------------------------------------------- walkers


def audit_direct(domain: "Domain", now: Optional[float] = None) -> dict:
    """Audit the fleet by direct memory reads (zero simulated cost).

    The post-run invariant path: the chaos storm calls this after
    quiescence and fails if any entry classifies incoherent.
    """
    if now is None:
        now = domain.now
    return classify_fleet(collect_documents(domain, now), t=now,
                          via="direct", probe=domain.coherence)


def audit_via_obs(workstation, hosts: Optional[list[str]] = None) -> dict:
    """Audit the fleet through the protocol: the live operator's path.

    A reader process on ``workstation`` opens every live host's
    ``[obs]/hosts/<host>/coherence`` leaf -- each read travels the full
    Sec. 5.4 forwarding chain (prefix server -> obs root -> that host's
    stat server) and is charged like any client traffic -- then the same
    classifier runs over the returned documents.  Hosts whose read fails
    (crashed mid-walk) are reported in ``unreachable`` rather than
    silently skipped.
    """
    from repro.runtime import files

    domain = workstation.host.domain
    if hosts is None:
        hosts = sorted(host.name for host in domain.hosts.values()
                       if not host.crashed)
    payloads: dict[str, bytes] = {}
    failures: list[str] = []

    def reader(session):
        from repro.core.resolver import NameError_
        from repro.vio.client import IoError

        for host_name in hosts:
            try:
                payloads[host_name] = yield from files.read_file(
                    session, f"[obs]/hosts/{host_name}/coherence")
            except (NameError_, IoError):
                failures.append(host_name)

    workstation.host.spawn(reader(workstation.session()),
                           name="coherence-auditor")
    domain.run()
    documents = [json.loads(payloads[name]) for name in hosts
                 if name in payloads]
    report = classify_fleet(documents, t=domain.now, via="obs",
                            probe=domain.coherence)
    report["unreachable"] = failures
    return report


# --------------------------------------------------------------- rendering


def render(document: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    print(f"coherence audit @ t={document['t']:.3f}s "
          f"(via {document['via']}) -- {len(document['hosts'])} host(s)",
          file=out)
    tiers = document["tiers"]
    columns = (FRESH, STALE, INCOHERENT, EXPIRED, UNVERIFIABLE)
    print(f"  {'tier':<9} {'entries':>7} " +
          " ".join(f"{c:>12}" for c in columns), file=out)
    for tier, counts in tiers.items():
        row = " ".join(f"{counts.get(c, '-') if c in counts else '-':>12}"
                       for c in columns)
        print(f"  {tier:<9} {counts['entries']:>7} {row}", file=out)
    versions = document["map_versions"]
    parts = []
    for host, tiers_v in sorted(versions["hosts"].items()):
        for tier, version in tiers_v.items():
            if version is not None:
                parts.append(f"{host}({tier[0]}):{version}")
    print(f"  shard map: fleet max v{versions['fleet_max']}"
          + (" -- " + " ".join(parts) if parts else ""), file=out)
    findings = document["findings"]
    for finding in findings["incoherent"]:
        print(f"  INCOHERENT {finding['tier']} {finding['host']} "
              f"[{finding['prefix']}] stamp=({finding['epoch']},"
              f"{finding['source']}) owner={finding['owner']}", file=out)
    for drift in findings["ownership_drift"]:
        claims = ", ".join(f"{c['host']}#r{c['replica_id']}@v"
                           f"{c['map_version']}"
                           for c in drift["claims"])
        print(f"  OWNERSHIP DRIFT [{drift['prefix']}]: {claims}", file=out)
    for drift in findings["map_drift"]:
        print(f"  map drift: {drift['host']} ({drift['tier']}) at "
              f"v{drift['version']} < fleet v{drift['fleet_max']}",
              file=out)
    probe = document.get("probe")
    if probe:
        lag = probe["invalidation_lag_ms"]
        age = probe["staleness_at_hit_ms"]
        print(f"  probe: {probe['notices_sent']} notices sent, "
              f"{probe['notices_applied']} applied "
              f"({probe['notices_in_flight']} in flight); "
              f"lag p50={lag['p50']}ms p99={lag['p99']}ms; "
              f"staleness p50={age['p50']}ms p99={age['p99']}ms", file=out)
        print(f"  leases: " + " ".join(
            f"{kind}={count}"
            for kind, count in probe["lease_events"].items())
            + f"; negcache hits={probe['negcache_hits']}; "
            f"lookups={probe['shard_lookups']}", file=out)
    unreachable = document.get("unreachable") or []
    for host in unreachable:
        print(f"  unreachable: {host} (coherence leaf read failed)",
              file=out)
    verdict = ("COHERENT" if document["ok"]
               else f"INCOHERENT ({len(findings['incoherent'])} entries)")
    print(f"  verdict: {verdict}", file=out)
