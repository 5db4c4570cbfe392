"""The behavioural contract: every experiment's deterministic metrics.

``python -m repro.obs.bench`` runs the ``trajectory_metrics()`` entry point
of all 22 benchmark modules (E1-E19, E8 in three parts, and the ablations)
at full size and writes the result to ``BENCH_5.json`` at the repo root --
the one committed baseline.  ``--check`` writes nothing: it compares the
run to that baseline **exactly** and exits 1 naming every metric that
differs.

Every number is simulated time or a deterministic count from pinned seeds,
never wall clock, so an unchanged tree reproduces the baseline bit for bit
on every supported interpreter and any difference is a behaviour change.
A PR that changes behaviour on purpose regenerates the baseline (run
without ``--check``) and commits the diff.  Wall-clock speed is measured
elsewhere, by the cost ledger (``BENCHMARK.json``, ``benchmarks/ledger/``).

Baseline layout (``schema`` = :data:`BENCH_SCHEMA`)::

    {"schema": 2, "kind": "bench-trajectory",
     "experiments": {"e1": {"metrics": {"remote_3mbit_ms": 2.56, ...}}, ...}}
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path
from typing import Optional

#: Bump when the baseline layout changes incompatibly.
BENCH_SCHEMA = 2

#: The one committed baseline, at the repo root.
BASELINE_NAME = "BENCH_5.json"

#: Experiment key -> benchmark module (order is run order).
EXPERIMENTS: tuple[tuple[str, str], ...] = (
    ("e1", "bench_e1_ipc_transaction"),
    ("e2", "bench_e2_moveto_load"),
    ("e3", "bench_e3_sequential_read"),
    ("e4", "bench_e4_open_latency"),
    ("e5", "bench_e5_prefix_footprint"),
    ("e6", "bench_e6_pid_operations"),
    ("e7", "bench_e7_forwarding_hops"),
    ("e8a", "bench_e8a_vs_centralized_latency"),
    ("e8b", "bench_e8b_consistency"),
    ("e8c", "bench_e8c_availability"),
    ("e9", "bench_e9_context_directory"),
    ("e10", "bench_e10_multicast_naming"),
    ("e11", "bench_e11_stream_throughput"),
    ("e12", "bench_e12_cached_open"),
    ("e13", "bench_e13_obs_namespace"),
    ("e14", "bench_e14_lossy_wire"),
    ("e15", "bench_e15_telemetry"),
    ("e16", "bench_e16_engine_throughput"),
    ("e17", "bench_e17_flight_recorder"),
    ("e18", "bench_e18_sharded_names"),
    ("e19", "bench_e19_coherence_audit"),
    ("ablations", "bench_ablations"),
)

#: The only entries ``--check`` does not compare ("<experiment>.<metric>" ->
#: written rationale).  Both are byte sizes of interpreter objects, not
#: simulated behaviour; they are still printed, so they never move unseen.
NOT_GATED: dict[str, str] = {
    "e5.code_bytes": "compiled size of core/prefix_server.py; moves with "
                     "any edit to that file, the interpreter and the "
                     "checkout path",
    "e5.table_bytes_12_prefixes": "sys.getsizeof over the live prefix "
                                  "table; moves with CPython's object layout",
}


def repo_root(start: Optional[Path] = None) -> Path:
    """The enclosing directory that holds benchmarks/ (default: cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "benchmarks").is_dir():
            return candidate
    raise FileNotFoundError(
        f"no benchmarks/ directory at or above {here}")


def load_bench_module(name: str, benchmarks_dir: Path):
    """Import one benchmark module from the benchmarks/ directory.

    The modules import ``conftest``/``_common`` as top-level names, so the
    directory goes onto sys.path for the duration of the import.
    """
    path = benchmarks_dir / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(benchmarks_dir))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(benchmarks_dir))
    return module


def run_suite(root: Optional[Path] = None) -> dict:
    """Run every experiment and return the baseline-shaped document."""
    benchmarks_dir = repo_root(root) / "benchmarks"
    # Tracing mode would attach Observability bundles to every system the
    # benches build; payload sizes (and so [obs] read latencies) differ.
    # The contract is always measured untraced.
    trace_dir = os.environ.pop("REPRO_TRACE_DIR", None)
    try:
        experiments = {}
        for key, module_name in EXPERIMENTS:
            print(f"  {key}: {module_name} ...", file=sys.stderr, flush=True)
            module = load_bench_module(module_name, benchmarks_dir)
            experiments[key] = {"metrics": module.trajectory_metrics()}
    finally:
        if trace_dir is not None:
            os.environ["REPRO_TRACE_DIR"] = trace_dir
    return {"schema": BENCH_SCHEMA, "kind": "bench-trajectory",
            "experiments": experiments}


def check(baseline: dict, current: dict) -> tuple[list[str], list[str]]:
    """Compare a run to the baseline exactly: ``(failures, notes)``.

    Each failure line starts with the ``<experiment>.<metric>`` it is
    about.  Values are compared with ``==``; an experiment or metric on
    one side only is a failure.  :data:`NOT_GATED` entries are never
    failures: they go to ``notes`` with their rationale.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        return [f"schema: baseline has {baseline.get('schema')!r}, this "
                f"tool reads and writes {BENCH_SCHEMA}"], []
    failures: list[str] = []
    notes: list[str] = []
    base, now = baseline["experiments"], current["experiments"]
    for experiment in sorted(base.keys() | now.keys()):
        if experiment not in base or experiment not in now:
            side = "this run" if experiment in base else "the baseline"
            failures.append(f"{experiment}: experiment missing from {side}")
            continue
        base_metrics = base[experiment]["metrics"]
        now_metrics = now[experiment]["metrics"]
        for metric in sorted(base_metrics.keys() | now_metrics.keys()):
            name = f"{experiment}.{metric}"
            before = base_metrics.get(metric)
            after = now_metrics.get(metric)
            if name in NOT_GATED:
                notes.append(f"{name}: {before!r} -> {after!r} "
                             f"(not gated: {NOT_GATED[name]})")
            elif metric not in now_metrics:
                failures.append(f"{name}: missing from this run")
            elif metric not in base_metrics:
                failures.append(f"{name}: not in the baseline")
            elif before != after:
                failures.append(f"{name}: baseline {before!r}, now {after!r}")
    return failures, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description=f"Run the 22 deterministic experiments (E1-E19 and the "
                    f"ablations) and write {BASELINE_NAME}")
    parser.add_argument("--check", action="store_true",
                        help=f"write nothing; compare the run to "
                             f"{BASELINE_NAME} exactly, exit 1 on any "
                             f"difference")
    args = parser.parse_args(argv)

    baseline_path = repo_root() / BASELINE_NAME
    current = run_suite()
    count = sum(len(entry["metrics"])
                for entry in current["experiments"].values())
    if not args.check:
        baseline_path.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {baseline_path} ({len(current['experiments'])} "
              f"experiments, {count} metrics)")
        return 0
    failures, notes = check(json.loads(baseline_path.read_text()), current)
    for line in notes:
        print(line)
    for line in failures:
        print(f"DIFFERS {line}")
    if failures:
        print(f"FAIL: {len(failures)} difference(s) from {BASELINE_NAME}")
        return 1
    print(f"OK: {count - len(notes)} metrics identical to {BASELINE_NAME}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
