"""Live monitoring CLI: SLO alerts and time series through ``[obs]``.

``python -m repro.obs.monitor`` runs a seeded, traced chaos-style scenario
(a workstation client reading through its prefix server and name cache
while the wire loses frames and the file server crashes mid-run) with the
telemetry collector and the default SLO watchdogs armed, and:

- **tails alerts live** -- every fire/resolve the watchdog engine emits is
  printed the moment it happens on the simulated timeline;
- **reads everything back through the protocol** -- after quiescence an
  in-simulation reader pulls every host's ``timeseries/<metric>`` ring
  buffer and the fleet alert log over the standard Sec. 5.4 forwarding
  chain (``[obs]/hosts/<host>/timeseries/<metric>``,
  ``[obs]/fleet/alerts``), so every number shown travelled the wire;
- **renders** per-host summary tables with unicode sparklines, the alert
  history, and a delivery check (protocol read vs engine emission).

``--json`` replaces the rendering with one deterministic document (same
seed -> byte-identical modulo nothing: every value is simulated), which is
what CI's monitor smoke consumes.  Exit status is nonzero when the alert
log read through ``[obs]`` disagrees with what the engine emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from repro.obs.telemetry import SERIES_METRICS, AlertEvent

#: Eight-level bar for time-series trends; one char per bucketed sample.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

MONITOR_SCHEMA = 1


def sparkline(values: list[float], width: int = 40) -> str:
    """Render ``values`` as a fixed-width unicode bar trend (min..max)."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket to width by averaging, keeping the overall shape.
        step = len(values) / width
        values = [sum(values[int(i * step):int((i + 1) * step) or 1])
                  / max(1, len(values[int(i * step):int((i + 1) * step)]))
                  for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[round((v - lo) / (hi - lo) * top)]
                   for v in values)


def _parse_jsonl(payload: bytes) -> list[dict]:
    return [json.loads(line)
            for line in payload.splitlines() if line.strip()]


def _series_summary(records: list[dict]) -> dict:
    values = [record["value"] for record in records
              if record.get("kind") == "sample"]
    # Sampling gaps (host down between ticks) come back on the series
    # itself; keep them explicit so a reader of the document never has to
    # infer "crashed" from a silent stretch of ring buffer.
    gaps = [{"start": record["start"], "end": record["end"]}
            for record in records if record.get("kind") == "gap"]
    if not values:
        return {"samples": 0, "gaps": gaps}
    return {
        "samples": len(values),
        "min": min(values),
        "mean": round(sum(values) / len(values), 4),
        "max": max(values),
        "last": values[-1],
        "values": values,
        "gaps": gaps,
    }


def _live_map_versions(domain) -> dict:
    """Each live host's current ShardMap version (replica over resolver).

    Pure memory reads off the per-host coherence documents -- the same
    source the ``[obs]/hosts/<host>/coherence`` leaf serves -- so the live
    alert tail can stamp fire/resolve lines with the fleet's map state at
    that simulated instant.  Hosts with no shard state are omitted.
    """
    from repro.obs.audit import host_coherence_document

    versions: dict[str, int] = {}
    for host in sorted(domain.hosts.values(), key=lambda h: h.host_id):
        if host.crashed:
            continue
        document = host_coherence_document(host)
        replica = document.get("replica")
        resolver = document.get("resolver")
        version = (replica or resolver or {}).get("map_version")
        if version is not None:
            versions[host.name] = version
    return versions


def run_monitored(seed: int = 7, duration: float = 5.0, drop: float = 0.10,
                  interval: float = 0.1, shards: int = 0,
                  on_alert: Optional[Callable[[AlertEvent], None]] = None,
                  live_state: Optional[dict] = None,
                  ) -> dict:
    """One traced, watchdogged scenario; the monitor document.

    The scenario is :func:`repro.faults.chaos.run_chaos`'s world, faults
    and read loop (lossy wire for the middle 80%, file-server crash/respawn
    at 40-50%) but carries a full :class:`~repro.obs.Observability` bundle
    so the run is traced, and every number in the returned document was
    read back through the ``[obs]`` name space, not scraped from Python
    objects.

    ``shards`` > 0 additionally deploys a :class:`~repro.core.shard.
    ShardCluster` of that many replicas (prefixes ``[s0]``..``[s7]``) with
    a resolver on the workstation, and the client interleaves sharded
    reads -- so the coherence series and the ``shard_maps`` section carry
    live values instead of ``None`` stubs.

    ``live_state``, when given, is refreshed with the fleet's current
    ShardMap versions (``live_state["shard_maps"]``) immediately before
    each ``on_alert`` callback -- the alert tail reads it to suffix every
    fire/resolve line without widening the single-argument callback
    contract.
    """
    from repro.faults.chaos import (
        build_chaos_world,
        chaos_reads,
        chaos_targets,
        schedule_chaos_faults,
    )
    from repro.kernel.domain import Domain
    from repro.net.latency import WireFaultModel
    from repro.obs import Observability
    from repro.runtime import files
    from repro.servers.statserver import enable_obs_namespace

    domain = Domain(seed=seed, obs=Observability())
    workstation, handle = build_chaos_world(domain)
    enable_obs_namespace(domain, workstation.host)

    shard_session = None
    shard_prefixes = 0
    if shards > 0:
        from repro.core.context import ContextPair, WellKnownContext
        from repro.core.shard import ShardCluster
        from repro.obs.audit import enable_coherence
        from repro.runtime.session import Session

        enable_coherence(domain)
        pair = ContextPair(handle.pid, int(WellKnownContext.DEFAULT))
        shard_hosts = domain.create_hosts(shards, prefix="ns")
        cluster = ShardCluster(domain, shard_hosts, lease_ttl=1.0)
        shard_prefixes = 8
        for index in range(shard_prefixes):
            cluster.seed_binding(f"s{index}", pair)
        # host= registers the resolver for the coherence leaf and the
        # audit walk; the registration itself is pure bookkeeping.
        resolver = cluster.resolver(host=workstation.host)
        shard_session = Session(current=pair,
                                prefix_server=cluster.primary_pid(),
                                latency=domain.latency, cache=resolver)

    telemetry = domain.enable_telemetry(interval=interval)
    if on_alert is not None:
        def fire(event: AlertEvent, _notify=on_alert) -> None:
            if live_state is not None:
                live_state["shard_maps"] = _live_map_versions(domain)
            _notify(event)

        telemetry.alerts.subscribe(fire)

    schedule_chaos_faults(
        domain, workstation, handle.host, duration,
        WireFaultModel(drop_rate=drop, dup_rate=0.02, delay_rate=0.05))

    reads = {"ok": 0, "failed": 0}

    def tally(data) -> None:
        reads["failed" if data is None else "ok"] += 1

    both_names = chaos_targets(workstation.session())

    def targets(round_number: int) -> list:
        if shard_session is None:
            return both_names
        # Round-robin (not rng) keeps the draw streams untouched.
        return both_names + [
            (shard_session,
             f"[s{round_number % shard_prefixes}]data/f0.dat")]

    workstation.host.spawn(chaos_reads(duration, targets, tally),
                           name="monitor-client")
    domain.run()
    domain.check_healthy()

    # Everything below is read back through [obs] -- full protocol path.
    host_names = sorted(host.name for host in domain.hosts.values()
                        if not host.crashed)
    payloads: dict[tuple[str, str], bytes] = {}

    def reader(session):
        for host_name in host_names:
            for metric in SERIES_METRICS:
                name = f"[obs]/hosts/{host_name}/timeseries/{metric}"
                payloads[(host_name, metric)] = (
                    yield from files.read_file(session, name))
            payloads[(host_name, "coherence")] = yield from files.read_file(
                session, f"[obs]/hosts/{host_name}/coherence")
        payloads[("fleet", "alerts")] = yield from files.read_file(
            session, "[obs]/fleet/alerts")

    workstation.host.spawn(reader(workstation.session()),
                           name="monitor-reader")
    domain.run()

    hosts: dict[str, dict] = {}
    shard_maps: dict[str, int] = {}
    for host_name in host_names:
        hosts[host_name] = {
            metric: _series_summary(
                _parse_jsonl(payloads[(host_name, metric)]))
            for metric in SERIES_METRICS
        }
        # The host's current ShardMap version, off the coherence leaf it
        # just served over the wire (replica state wins over resolver;
        # hosts holding no shard state are omitted).
        coherence = json.loads(payloads[(host_name, "coherence")])
        replica = coherence.get("replica")
        resolver = coherence.get("resolver")
        version = (replica or resolver or {}).get("map_version")
        if version is not None:
            shard_maps[host_name] = version
    alert_records = [record
                     for record in _parse_jsonl(payloads[("fleet", "alerts")])
                     if record.get("kind") == "alert"]
    emitted = telemetry.alerts.to_records()
    return {
        "kind": "obs-monitor",
        "schema": MONITOR_SCHEMA,
        "scenario": {"seed": seed, "duration": duration, "drop": drop,
                     "interval": interval, "shards": shards},
        "reads": dict(reads),
        "hosts": hosts,
        "shard_maps": shard_maps,
        "alerts": {
            "fired": telemetry.alerts.fired,
            "resolved": telemetry.alerts.resolved,
            "active": sorted(f"{rule}@{host}"
                             for rule, host in telemetry.alerts.active),
            "events": alert_records,
        },
        "delivery": {"emitted": len(emitted),
                     "read_through_obs": len(alert_records),
                     "match": alert_records == emitted},
    }


# ------------------------------------------------------------- rendering


def _strip_values(document: dict) -> dict:
    """Drop the raw sample arrays for the JSON document (summaries stay)."""
    for metrics in document["hosts"].values():
        for summary in metrics.values():
            summary.pop("values", None)
    return document


def render(document: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    scenario = document["scenario"]
    print(f"scenario: seed={scenario['seed']} "
          f"duration={scenario['duration']}s drop={scenario['drop']} "
          f"sample interval={scenario['interval']}s", file=out)
    reads = document["reads"]
    print(f"client reads: {reads['ok']} ok, {reads['failed']} failed",
          file=out)
    versions = {host: version
                for host, version in document.get("shard_maps", {}).items()
                if version is not None}
    if versions:
        print("shard maps: " + " ".join(f"{host}=v{version}" for host, version
                                        in sorted(versions.items())),
              file=out)
    for host_name, metrics in document["hosts"].items():
        print(f"\n[obs]/hosts/{host_name}/timeseries/*", file=out)
        print(f"  {'metric':<12} {'n':>4} {'min':>9} {'mean':>9} "
              f"{'max':>9} {'last':>9}  trend", file=out)
        for metric, summary in metrics.items():
            if not summary["samples"]:
                print(f"  {metric:<12} {0:>4}", file=out)
                continue
            print(f"  {metric:<12} {summary['samples']:>4} "
                  f"{summary['min']:>9.3g} {summary['mean']:>9.3g} "
                  f"{summary['max']:>9.3g} {summary['last']:>9.3g}  "
                  f"{sparkline(summary.get('values', []))}", file=out)
        # Gaps are per host (sampling stops wholesale while it is down), so
        # one line under the table covers every metric above it.
        for gap in next(iter(metrics.values()), {}).get("gaps", []):
            end = (f"{gap['end']:.3f}s" if gap["end"] is not None
                   else "end of run")
            print(f"  sampling gap: {gap['start']:.3f}s -> {end} "
                  f"(host down)", file=out)
    alerts = document["alerts"]
    print(f"\nalerts ([obs]/fleet/alerts): {alerts['fired']} fired, "
          f"{alerts['resolved']} resolved, "
          f"{len(alerts['active'])} active", file=out)
    for record in alerts["events"]:
        print(f"  [t={record['t']:8.3f}] {record['event']:<7} "
              f"{record['severity']:<8} {record['rule']} "
              f"host={record['host']} {record['metric']}={record['value']:g}",
              file=out)
    delivery = document["delivery"]
    verdict = "match" if delivery["match"] else "MISMATCH"
    print(f"delivery: {delivery['read_through_obs']} read through [obs] "
          f"vs {delivery['emitted']} emitted -- {verdict}", file=out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor",
        description="Run a traced chaos scenario with SLO watchdogs and "
                    "monitor it through the [obs] name space.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="simulated seconds (default 5)")
    parser.add_argument("--drop", type=float, default=0.10,
                        help="frame drop rate during the loss phase")
    parser.add_argument("--interval", type=float, default=0.1,
                        help="telemetry sample interval (simulated s)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="also deploy an N-replica shard cluster and "
                             "interleave sharded reads (default: none)")
    parser.add_argument("--json", action="store_true",
                        help="emit the monitor document instead of tables "
                             "(no live tail)")
    args = parser.parse_args(argv)

    live_state: dict = {}

    def tail(event: AlertEvent) -> None:
        versions = {host: version for host, version
                    in live_state.get("shard_maps", {}).items()
                    if version is not None}
        suffix = ""
        if versions:
            suffix = "  shard-maps " + " ".join(
                f"{host}=v{version}"
                for host, version in sorted(versions.items()))
        print(event.describe() + suffix, flush=True)

    document = run_monitored(seed=args.seed, duration=args.duration,
                             drop=args.drop, interval=args.interval,
                             shards=args.shards,
                             on_alert=None if args.json else tail,
                             live_state=live_state)
    if args.json:
        print(json.dumps(_strip_values(document), indent=2, sort_keys=True))
    else:
        print()
        render(document)
    return 0 if document["delivery"]["match"] else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
