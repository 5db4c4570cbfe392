"""Live introspection payloads for the ``[obs]`` name space.

The stat server (:mod:`repro.servers.statserver`) exposes observability
state as readable file-like objects.  This module builds the *payloads*:
each function takes live kernel/observability objects and returns the bytes
a client reads back through the V I/O protocol.

Two formats, both line-oriented and grep-friendly:

- ``json`` -- one pretty-printed JSON document (per-host snapshots);
- ``jsonl`` -- one JSON record per line, in exactly the record shapes of
  :mod:`repro.obs.export`, so ``python -m repro.obs report --live`` reuses
  the same renderers on live reads as on exported files.

Building a payload is plain memory reads -- **zero simulated cost**.  The
simulated price of introspection is paid where it belongs: in the messages
that carry the request to the stat server and the payload blocks back
(`reads are real traffic`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.obs.export import span_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.domain import Domain
    from repro.kernel.host import Host
    from repro.obs.registry import MetricsRegistry

#: Default cap on the spans served by ``spans/recent`` -- the newest N
#: finished spans, so the payload stays bounded on long runs.
RECENT_SPANS_LIMIT = 200


def _json_bytes(value) -> bytes:
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


def _jsonl_bytes(records) -> bytes:
    return "".join(json.dumps(record) + "\n" for record in records).encode()


# ---------------------------------------------------------------- per host


def host_metrics_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/metrics``: the kernel's live counters."""
    return _json_bytes(host.snapshot())


def host_services_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/services``: the SetPid/GetPid table."""
    return _json_bytes(host.registry.snapshot())


def host_processes_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/processes``: the kernel process table."""
    return _json_bytes(host.process_snapshot())


def host_namecache_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/namecache``: binding-cache contents + counters.

    A host without a client name cache (servers-only machines) serves an
    explicit ``enabled: false`` stub rather than an error -- the *name*
    exists on every host, uniformly.
    """
    cache = host.domain.name_caches.get(host.host_id)
    if cache is None:
        return _json_bytes({"enabled": False, "host": host.name})
    snap = cache.snapshot()
    snap["enabled"] = True
    snap["host"] = host.name
    return _json_bytes(snap)


def host_coherence_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/coherence``: cached name state with provenance.

    The host's shard-replica table and shard-resolver caches, every entry
    stamped with its ``(epoch, source)`` provenance and lease/TTL state --
    the per-host unit the coherence auditor (:mod:`repro.obs.audit`)
    cross-checks against the authoritative owner.  A host running neither
    a replica nor a registered resolver serves ``enabled: false`` -- the
    *name* exists on every host, uniformly.
    """
    from repro.obs.audit import host_coherence_document

    return _json_bytes(host_coherence_document(host))


def host_profile_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/profile``: live attribution-profiler totals.

    Served from the domain-lifetime profiler (attached by
    ``enable_obs_namespace`` via ``Domain.enable_profiler``), filtered to
    stacks rooted at this host.  A domain without one serves an explicit
    ``enabled: false`` stub -- the *name* exists on every host, uniformly.
    """
    prof = host.domain.profiler
    if prof is None:
        return _json_bytes({"enabled": False, "host": host.name})
    document = prof.profile()
    frames = [frame for frame in document["frames"]
              if frame["stack"] and frame["stack"][0] == "host:" + host.name]
    document["frames"] = frames
    document["root"] = "host:" + host.name
    document["total_seconds"] = sum(f["seconds"] for f in frames)
    document["total_messages"] = sum(f["messages"] for f in frames)
    document["total_bytes"] = sum(f["bytes"] for f in frames)
    document["enabled"] = True
    document["host"] = host.name
    return _json_bytes(document)


def host_spans_payload(host: "Host",
                       limit: int = RECENT_SPANS_LIMIT) -> bytes:
    """``[obs]/hosts/<host>/spans/recent``: newest finished spans.

    Spans are attributed to the host whose kernel opened them (the actor
    label is ``<host>/<process>``).  JSONL in the export record shape.
    """
    obs = host.domain.obs
    if obs is None:
        return b""
    needle = f"{host.name}/"
    picked = [span for span in obs.spans.spans
              if span.end is not None and span.actor.startswith(needle)]
    return _jsonl_bytes(span_record(span) for span in picked[-limit:])


def host_timeseries_payload(host: "Host", metric: str) -> bytes:
    """``[obs]/hosts/<host>/timeseries/<metric>``: one sampled series.

    JSONL: a leading ``meta`` record (host, metric, sampling interval,
    enablement) followed by one ``sample`` record per retained tick.  A
    domain without a telemetry collector serves the meta record with
    ``enabled: false`` -- the *name* exists on every host, uniformly.
    """
    telemetry = host.domain.telemetry
    meta = {"kind": "meta", "host": host.name, "metric": metric,
            "enabled": telemetry is not None}
    if telemetry is None:
        return _jsonl_bytes([meta])
    meta["interval"] = telemetry.interval
    meta["ticks"] = telemetry.ticks
    series = telemetry.series_for(host.name, metric)
    records = series.to_records() if series is not None else []
    # Sampling gaps (host down between ticks) ride on every series, so a
    # reader never has to infer "crashed" from silent stretches of ring.
    gaps = [{"kind": "gap", **gap} for gap in telemetry.gaps_for(host.name)]
    return _jsonl_bytes([meta, *gaps, *records])


def host_flightlog_payload(host: "Host") -> bytes:
    """``[obs]/hosts/<host>/flightlog``: the live flight-record lane.

    JSONL: a leading ``meta`` record (enablement, ring accounting, digest
    window), one ``record`` per retained flight record (its flight kind --
    ``send``, ``request`` ... -- rides as ``event`` so the line
    discriminator stays ``kind``), one ``chain`` entry per sealed digest
    window, and one ``postmortem`` marker per frozen crash dump (the dump
    itself is recovered offline; the marker tells the reader it exists).
    Domains without a recorder serve ``enabled: false`` -- the name exists
    on every host, uniformly.
    """
    flight = host.domain.flight
    meta = {"kind": "meta", "host": host.name,
            "enabled": flight is not None}
    if flight is None:
        return _jsonl_bytes([meta])
    snap = flight.snapshot(host.name)
    meta.update(schema=snap["schema"], records_seen=snap["records_seen"],
                dropped=snap["dropped"], capacity=snap["capacity"],
                window=snap["window"])
    # A flight record's own "kind" field (send/request/...) would clobber
    # the JSONL line discriminator; it rides as "event" instead.
    records = [{**record, "event": record["kind"], "kind": "record"}
               for record in snap["records"]]
    chain = [{"kind": "chain", **entry} for entry in snap["chain"]]
    marks = [{"kind": "postmortem", "frozen_t": dump["frozen_t"],
              "records": len(dump["records"])}
             for dump in flight.postmortems.get(host.name, ())]
    return _jsonl_bytes([meta, *records, *chain, *marks])


# ------------------------------------------------------------------- fleet


def metrics_records(registry: "MetricsRegistry",
                    prefix: Optional[str] = None) -> list[dict]:
    """Registry snapshot as export-shaped records (kind discriminator)."""
    snap = registry.snapshot(prefix=prefix)
    records = []
    for kind in ("counters", "gauges", "histograms"):
        for record in snap[kind]:
            records.append({"kind": kind.rstrip("s"), **record})
    return records


def fleet_metrics_payload(domain: "Domain") -> bytes:
    """``[obs]/fleet/metrics``: the whole registry, export-shaped JSONL."""
    for host in domain.hosts.values():
        if not host.crashed:
            host.snapshot()  # refresh per-host uptime gauges
    return _jsonl_bytes(metrics_records(domain.metrics))


def fleet_hosts_payload(domain: "Domain") -> bytes:
    """``[obs]/fleet/hosts``: one kernel snapshot per live machine."""
    records = [host.snapshot() for host in domain.hosts.values()
               if not host.crashed]
    records.sort(key=lambda r: r["host_id"])
    return _json_bytes(records)


def fleet_alerts_payload(domain: "Domain") -> bytes:
    """``[obs]/fleet/alerts``: the SLO watchdog alert log, fleet-wide.

    JSONL: a leading ``meta`` record (enablement, armed rule names,
    fire/resolve totals, currently-active alerts) followed by one ``alert``
    record per fire/resolve transition, oldest first.
    """
    telemetry = domain.telemetry
    meta: dict = {"kind": "meta", "enabled": telemetry is not None}
    if telemetry is None:
        return _jsonl_bytes([meta])
    log = telemetry.alerts
    meta.update({
        "rules": [rule.name for rule in telemetry.rules],
        "fired": log.fired,
        "resolved": log.resolved,
        "active": [{"rule": rule, "host": host}
                   for rule, host in sorted(log.active)],
    })
    return _jsonl_bytes([meta, *log.to_records()])


def fleet_services_payload(domain: "Domain") -> bytes:
    """``[obs]/fleet/services``: every registration, domain-wide."""
    records = []
    for host in sorted(domain.hosts.values(), key=lambda h: h.host_id):
        if host.crashed:
            continue
        for entry in host.registry.snapshot():
            records.append({"host": host.name, **entry})
    return _json_bytes(records)
