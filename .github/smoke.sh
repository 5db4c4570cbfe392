#!/usr/bin/env bash
# End-to-end smoke of every example and every `python -m repro.obs`
# subcommand, on the seeded scenarios the tier-1 tests pin.  Each command's
# exit status is its gate (invariant violation, digest divergence,
# incoherent audit entry, alert delivery mismatch, contract difference all
# exit nonzero); the values behind them are asserted in tests/ and in the
# behavioural contract, not here.  Everything an
# operator would pull after a failure lands under $1 for upload.
set -euo pipefail

out=${1:?usage: smoke.sh OUT_DIR}
mkdir -p "$out/traces" "$out/flight"
export PYTHONPATH=src

# Every example runs to completion (exit status is the gate).
for example in examples/*.py; do
  python "$example" > /dev/null
done

# Traced benches: the calibrated latencies hold with span tracing on, and
# the exported JSONL renders through `report` (also live via [obs]).  E17
# gates the flight recorder's observer budgets (capture <= 1000 ns/record,
# digest chain <= 2%).  The UDP bench is the one check of a real-socket
# Open, direct and via the prefix server.
REPRO_TRACE_DIR=$out/traces python -m pytest -x -q --benchmark-disable \
  benchmarks/bench_e4_open_latency.py benchmarks/bench_e7_forwarding_hops.py \
  benchmarks/bench_e12_cached_open.py benchmarks/bench_e13_obs_namespace.py \
  benchmarks/bench_e14_lossy_wire.py benchmarks/bench_e17_flight_recorder.py \
  benchmarks/bench_e18_sharded_names.py benchmarks/bench_transport_udp.py
python -m repro.obs report "$out/traces/bench_e4.spans.jsonl" \
  --metrics "$out/traces/bench_e4.metrics.jsonl" --top 5
python -m repro.obs report "$out/traces/bench_e7_hops4.spans.jsonl" --top 3
python -m repro.obs report "$out/traces/bench_e12.spans.jsonl" \
  --metrics "$out/traces/bench_e12.metrics.jsonl" --top 5
python -m repro.obs report "$out/traces/bench_e13.spans.jsonl" --top 5
python -m repro.obs report --live --top 5

# Chaos under 10% loss: invariants, retransmissions, one alert fire->resolve
# cycle delivered through [obs]; the same run with black boxes written out.
python -m repro.obs chaos --seed 7 --duration 5 --drop 0.1 \
  --require-retransmits --watchdogs --require-alert-cycle > "$out/chaos.json"
python -m repro.obs chaos --seed 7 --duration 5 --drop 0.1 \
  --flight-dump --flight-dir "$out/flight" > "$out/flight/chaos-report.json"

# Flight forensics: replay to identical digest chains, bisect a seed pair to
# its first divergent event, time-travel into the crash postmortem.
python -m repro.obs replay --seed 7 --duration 5 --drop 0.1 --verify
python -m repro.obs replay --duration 5 --drop 0.1 --bisect seed=7,8 --json \
  > "$out/flight/bisect-verdict.json"
python -m repro.obs replay \
  --postmortem "$out/flight/postmortem-seed7-vax1-0.json" --around 8

# Replica-crash storms (every replica dies once; then the whole one-replica
# name service dies and comes back) and the coherence audit over them.
python -m repro.obs storm --json > "$out/storm-3replicas.json"
python -m repro.obs storm --replicas 1 --json > "$out/storm-1replica.json"
python -m repro.obs storm --watchdogs --watch 0.5 --json \
  > "$out/audit-storm.json"
python -m repro.obs storm --watchdogs --no-crash --duration 3 \
  | tee "$out/audit-control.txt"

# Monitoring: alert log read back through [obs] matches what was emitted.
python -m repro.obs monitor --json > "$out/monitor-alerts.json"

# Exact opcode counts per layer: one local and one remote transaction and
# an open_path and a shard_storm_obs operation and build; and the memory
# table: bytes the build and the timed region hold, by layer, and the
# traced peak, at 1/20 size, plus the audited storm's full-size timed
# region, where its telemetry rings are full (compare two tables with
# `opcount.py --compare`).
python benchmarks/opcount.py --workload open_path \
  --workload shard_storm_obs --json "$out/opcount.json"

# Attribution profile of the pinned E7 chain, and the behavioural contract.
python -m repro.obs profile --flame > "$out/e7-forwarding.folded"
python -m repro.obs bench --check
