"""Every metric the ledger reports: name, unit, direction, kind and bound.

``BENCHMARK.json`` is generated from this file and the workloads' own
rationale strings (``run.py --manifest``).  Nothing of the system under test
is imported here, so ``--compare`` works on two results files alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "wall" = host time, noisy; "sim" = simulated time and "count" =
    #: program counters, both deterministic per seed and compared exactly.
    kind: str
    #: Share of the baseline by which the metric may worsen under --compare;
    #: None = diagnostic, printed and never judged.
    bound: float | None


#: Relative slack under which two deterministic values count as equal: they
#: are computed from identical event sequences, so this only absorbs the
#: float formatting of a results file.
EXACT = 0.001

#: Bound on a wall-clock rate or latency.  The reference box (two shared
#: vCPUs) wanders by 3-9 % between back-to-back sets of ten runs of one
#: commit and at times runs a third slower for minutes on end, so a tenth,
#: which the design asked for, would reject no-op changes.
WALL = 0.25

#: What the driver gates: defined on every workload and never zero.
END_TO_END = (
    Metric("ops_per_wall_s", "1/s", "higher", "wall", WALL),
    Metric("peak_rss_mb", "MB", "lower", "wall", 0.10),
    Metric("setup_s", "s", "lower", "wall", 0.25),
)

#: End-to-end numbers that exist on some workloads only (no simulated clock
#: over real sockets, no per-read stamps out of the storm harness) or are
#: deterministic per seed, which the driver's gate cannot take.
PARTIAL_END_TO_END = (
    Metric("e2e.events_per_wall_s", "1/s", "higher", "wall", WALL),
    Metric("e2e.op_sim_ms_p50", "ms", "lower", "sim", EXACT),
    Metric("e2e.op_sim_ms_p99", "ms", "lower", "sim", EXACT),
    Metric("e2e.sim_elapsed_s", "s", "lower", "sim", EXACT),
    Metric("e2e.ops_per_sim_s", "1/s", "higher", "sim", EXACT),
    Metric("e2e.open_direct_sim_ms_p50", "ms", "lower", "sim", EXACT),
    Metric("e2e.open_cold_sim_ms_p50", "ms", "lower", "sim", EXACT),
    Metric("e2e.open_warm_sim_ms_p50", "ms", "lower", "sim", EXACT),
    Metric("e2e.echo_wall_us_p50", "us", "lower", "wall", WALL),
    Metric("e2e.open_wall_ms_p50", "ms", "lower", "wall", WALL),
    Metric("e2e.echo_wall_us_p99", "us", "lower", "wall", None),
    Metric("e2e.open_wall_ms_p99", "ms", "lower", "wall", None),
    Metric("e2e.failed_share", "share", "lower", "count", 0.0),
)

PROBES = tuple(Metric(name, "ns", "lower", "wall", 0.15) for name in (
    "sim.ns_per_event", "kernel.ns_per_local_txn", "kernel.ns_per_remote_txn",
    "net.ethernet.ns_per_transmit", "net.wire.ns_per_encode_small",
    "net.wire.ns_per_decode_small", "net.wire.ns_per_encode_1k",
    "net.wire.ns_per_decode_1k", "core.csnh.ns_per_map_name",
    "core.cache.ns_per_get_hit", "core.cache.ns_per_get_miss",
    "core.cache.ns_per_put", "core.shard.ns_per_owner_of",
    "core.shard.ns_per_map_encode", "core.shard.ns_per_map_decode"))

TAXES = tuple(Metric(f"obs.{name}.tax_ratio", "ratio", "lower", "wall", WALL)
              for name in ("spans", "telemetry", "flight", "profiler",
                           "coherence", "storm"))

COUNTS = tuple(Metric(name, unit, "lower", "count", EXACT) for name, unit in (
    ("sim.events_per_op", "count"), ("kernel.sends_per_op", "count"),
    ("kernel.forwards_per_op", "count"),
    ("kernel.retransmits_per_op", "count"),
    ("net.ethernet.frames_per_op", "count"),
    ("net.ethernet.bytes_per_op", "B"),
    ("core.shard.lease_refusals_per_op", "count"),
    ("core.shard.redirects_per_op", "count"),
    ("core.shard.promotions", "count"), ("core.shard.rejoins", "count"),
    ("core.shard.notices_per_mutation", "count"))) + (
    Metric("core.cache.hit_rate", "share", "higher", "count", EXACT),
    Metric("core.cache.negative_hit_share", "share", "higher", "count",
           EXACT))

#: The layers of the trace fold; layers.py maps modules onto them.
LAYERS = ("sim", "kernel", "net.wire", "net.ethernet", "net.asyncio",
          "core.csnh", "core.prefix", "core.cache", "core.shard", "obs",
          "servers", "faults", "other")

TRACE = tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"trace.{layer}.self_share", "share", "lower", "wall", None),
        Metric(f"trace.{layer}.calls_per_op", "count", "lower", "count",
               None))) + (
    Metric("trace.idle_wait_share", "share", "lower", "wall", None),
    Metric("trace.overhead_ratio", "ratio", "lower", "wall", None))

PER_LAYER = PARTIAL_END_TO_END + PROBES + TAXES + COUNTS + TRACE
CATALOGUE = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def manifest(workloads) -> dict:
    """The content of BENCHMARK.json, from the catalogue above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": 12,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in workloads.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
