#!/usr/bin/env bash
# End-to-end smoke of every example and every CLI an operator would reach
# for, on the seeded scenarios the tier-1 tests pin.  Each command's exit
# status is its gate (invariant violation, digest divergence, incoherent
# audit entry, alert delivery mismatch all exit nonzero); the values behind
# them are asserted
# in tests/ and in the behavioural contract, not here.  Everything an
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
# the exported JSONL renders through the report CLI (also live via [obs]).
REPRO_TRACE_DIR=$out/traces python -m pytest -x -q --benchmark-disable \
  benchmarks/bench_e4_open_latency.py benchmarks/bench_e7_forwarding_hops.py \
  benchmarks/bench_e12_cached_open.py benchmarks/bench_e13_obs_namespace.py \
  benchmarks/bench_e14_lossy_wire.py benchmarks/bench_e18_sharded_names.py
python -m repro.obs.report "$out/traces/bench_e4.spans.jsonl" \
  --metrics "$out/traces/bench_e4.metrics.jsonl" --top 5
python -m repro.obs.report "$out/traces/bench_e7_hops4.spans.jsonl" --top 3
python -m repro.obs.report "$out/traces/bench_e12.spans.jsonl" \
  --metrics "$out/traces/bench_e12.metrics.jsonl" --top 5
python -m repro.obs.report "$out/traces/bench_e13.spans.jsonl" --top 5
python -m repro.obs.report --live --top 5

# Chaos under 10% loss: invariants, retransmissions, one alert fire->resolve
# cycle delivered through [obs]; the same run with black boxes written out.
python -m repro.faults.chaos --seed 7 --duration 5 --drop 0.1 \
  --require-retransmits --watchdogs --require-alert-cycle > "$out/chaos.json"
python -m repro.faults.chaos --seed 7 --duration 5 --drop 0.1 \
  --flight-dump --flight-dir "$out/flight" > "$out/flight/chaos-report.json"

# Flight forensics: replay to identical digest chains, bisect a seed pair to
# its first divergent event, time-travel into the crash postmortem.
python -m repro.obs.replay --seed 7 --duration 5 --drop 0.1 --verify
python -m repro.obs.replay --duration 5 --drop 0.1 --bisect seed=7,8 --json \
  > "$out/flight/bisect-verdict.json"
python -m repro.obs.replay \
  --postmortem "$out/flight/postmortem-seed7-vax1-0.json" --around 8

# Replica-crash storms (every replica dies once; then the whole one-replica
# name service dies and comes back) and the coherence audit over them.
python -m repro.faults.chaos --storm > "$out/storm-3replicas.json"
python -m repro.faults.chaos --storm --replicas 1 > "$out/storm-1replica.json"
python -m repro.obs.audit --json --watch 0.5 > "$out/audit-storm.json"
python -m repro.obs.audit --no-crash --duration 3 | tee "$out/audit-control.txt"

# Monitoring: alert log read back through [obs] matches what was emitted.
python -m repro.obs.monitor --json > "$out/monitor-alerts.json"
