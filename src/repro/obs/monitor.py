"""Monitoring: SLO alerts and time series read back through ``[obs]``.

``python -m repro.obs monitor`` runs the chaos scenario
(:func:`repro.faults.chaos.run_chaos`: a workstation client reading through
its prefix server and name cache while the wire loses frames and the file
server crashes mid-run) with the telemetry collector and the default SLO
watchdogs armed, and then:

- **prints the alert tail** -- every fire/resolve of the alert log, in log
  order;
- **reads everything back through the protocol** -- after quiescence an
  in-simulation reader pulls every host's ``timeseries/<metric>`` ring
  buffer over the standard Sec. 5.4 forwarding chain
  (:func:`monitor_document`), so every number shown travelled the wire;
- **renders** per-host summary tables with unicode sparklines, the alert
  history, and the delivery counts (``[obs]/fleet/alerts`` read vs engine
  emission).

``--json`` replaces the rendering with one deterministic document (same
seed -> byte-identical: every value is simulated), which is what CI's
monitor smoke consumes.  Exit status is nonzero when the alert log read
through ``[obs]`` disagrees with what the engine emitted: that check is
:func:`~repro.faults.chaos.run_chaos`'s own, record for record, and it
raises before any document exists.
"""

from __future__ import annotations

import json
import sys

from repro.obs.telemetry import SERIES_METRICS

#: Eight-level bar for time-series trends; one char per bucketed sample.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

MONITOR_SCHEMA = 2


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


def monitor_document(report) -> dict:
    """The monitor document of a finished ``run_chaos(watchdogs=True)``.

    ``report.workstation`` spawns one reader after quiescence that pulls
    every live host's ``[obs]/hosts/<host>/timeseries/<metric>`` ring
    buffer over the Sec. 5.4 forwarding chain, so every series number
    travelled the wire.  The read runs after :func:`run_chaos` returned,
    so it cannot move the run's own counts.  The alert summary is the
    run's: :func:`run_chaos` already read ``[obs]/fleet/alerts`` back and
    matched it record for record against the watchdog engine.
    """
    from repro.runtime import files

    workstation = report.workstation
    domain = workstation.host.domain
    host_names = sorted(host.name for host in domain.hosts.values()
                        if not host.crashed)
    paths = {(host_name, metric):
             f"[obs]/hosts/{host_name}/timeseries/{metric}"
             for host_name in host_names for metric in SERIES_METRICS}
    payloads = files.read_files(workstation, list(paths.values()),
                                "monitor-reader")

    alerts = report.alerts
    return {
        "kind": "obs-monitor",
        "schema": MONITOR_SCHEMA,
        "scenario": {"seed": report.seed, "duration": report.duration,
                     "drop": report.drop_rate},
        "reads": {"ok": report.reads_ok, "failed": report.reads_failed,
                  "wrong": report.reads_wrong},
        "hosts": {
            host_name: {
                metric: _series_summary(
                    _parse_jsonl(payloads[paths[(host_name, metric)]]))
                for metric in SERIES_METRICS}
            for host_name in host_names},
        "alerts": {key: alerts[key]
                   for key in ("fired", "resolved", "active", "events")},
        "delivery": {"emitted": len(alerts["events"]),
                     "read_through_obs": alerts["delivered"]},
    }

# ------------------------------------------------------------- rendering


def strip_values(document: dict) -> dict:
    """Drop the raw sample arrays for the JSON document (summaries stay)."""
    for metrics in document["hosts"].values():
        for summary in metrics.values():
            summary.pop("values", None)
    return document


def render(document: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    scenario = document["scenario"]
    print(f"scenario: seed={scenario['seed']} "
          f"duration={scenario['duration']}s drop={scenario['drop']}",
          file=out)
    reads = document["reads"]
    print(f"client reads: {reads['ok']} ok, {reads['failed']} failed, "
          f"{reads['wrong']} wrong", file=out)
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
    print(f"delivery: {delivery['read_through_obs']} read through [obs] "
          f"= {delivery['emitted']} emitted, record for record", file=out)
