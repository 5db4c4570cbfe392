"""The behavioural contract: the suite reproduces BENCH_5.json exactly.

One module-scoped run of ``repro.obs.bench.run_suite`` (about 3 s) is
checked against the committed baseline -- the gate every refactor faces --
and reused to drive ``python -m repro.obs bench``; the pure
:func:`repro.obs.bench.check` semantics are pinned on small synthetic
documents.
"""

import copy
import json
import math
import os
from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs.__main__ import main
from repro.obs.bench import (
    BASELINE_NAME,
    BENCH_SCHEMA,
    EXPERIMENTS,
    NOT_GATED,
    check,
    repo_root,
    run_suite,
)

REPO = Path(__file__).resolve().parents[2]


def make_snapshot(experiments: dict, schema: int = BENCH_SCHEMA) -> dict:
    return {
        "schema": schema,
        "kind": "bench-trajectory",
        "experiments": {
            key: {"metrics": dict(metrics)}
            for key, metrics in experiments.items()},
    }


BASE = {
    "e4": {"remote_via_prefix_ms": 7.6127, "prefix_delta_remote_ms": 3.93},
    "e7": {"hops4_messages": 22, "hops4_open_ms": 18.5},
    "e8c": {"distributed_one_down_reachable_rate": 0.92},
    "e11": {"file_read_kbs": 29.9},
}


def failures(baseline: dict, candidate: dict) -> list[str]:
    return check(baseline, candidate)[0]


@pytest.fixture(scope="module")
def suite() -> dict:
    return run_suite(REPO)


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((REPO / BASELINE_NAME).read_text())


class TestSnapshotNaming:
    def test_repo_root_walks_up_to_benchmarks_dir(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        nested = tmp_path / "src" / "deep"
        nested.mkdir(parents=True)
        assert repo_root(nested) == tmp_path
        with pytest.raises(FileNotFoundError):
            repo_root(tmp_path.parent)

    def test_committed_baseline_matches_schema(self, committed):
        """BENCH_5.json is the one baseline: every experiment, metrics only."""
        assert committed["schema"] == BENCH_SCHEMA
        assert set(committed) == {"schema", "kind", "experiments"}
        assert list(committed["experiments"]) == \
            sorted(key for key, __ in EXPERIMENTS)
        for entry in committed["experiments"].values():
            assert set(entry) == {"metrics"} and entry["metrics"]
        # A latency and a count: floats and ints are both in the contract.
        metrics = committed["experiments"]["e7"]["metrics"]
        assert isinstance(metrics["hops4_open_ms"], float)
        assert isinstance(metrics["hops4_messages"], int)


class TestCompare:
    def test_identical_snapshots_have_no_findings(self):
        assert check(make_snapshot(BASE), make_snapshot(BASE)) == ([], [])

    def test_one_ulp_float_drift_fails_naming_metric(self):
        candidate = make_snapshot(BASE)
        metrics = candidate["experiments"]["e4"]["metrics"]
        metrics["remote_via_prefix_ms"] = math.nextafter(
            metrics["remote_via_prefix_ms"], math.inf)
        [line] = failures(make_snapshot(BASE), candidate)
        assert line.startswith("e4.remote_via_prefix_ms: ")
        assert "7.6127" in line and "7.612700000000001" in line

    def test_twenty_percent_latency_injection_fails_naming_metric(self):
        candidate = make_snapshot(BASE)
        candidate["experiments"]["e4"]["metrics"]["remote_via_prefix_ms"] *= 1.2
        [line] = failures(make_snapshot(BASE), candidate)
        assert line.startswith("e4.remote_via_prefix_ms: ")

    def test_count_drift_is_exact(self):
        candidate = make_snapshot(BASE)
        candidate["experiments"]["e7"]["metrics"]["hops4_messages"] = 23
        [line] = failures(make_snapshot(BASE), candidate)
        assert line == "e7.hops4_messages: baseline 22, now 23"

    def test_full_candidate_missing_experiment_fails(self):
        without_e7 = make_snapshot(
            {k: v for k, v in BASE.items() if k != "e7"})
        assert failures(make_snapshot(BASE), without_e7) == \
            ["e7: experiment missing from this run"]
        assert failures(without_e7, make_snapshot(BASE)) == \
            ["e7: experiment missing from the baseline"]

    def test_full_candidate_missing_metric_fails(self):
        candidate = make_snapshot(BASE)
        del candidate["experiments"]["e7"]["metrics"]["hops4_open_ms"]
        assert failures(make_snapshot(BASE), candidate) == \
            ["e7.hops4_open_ms: missing from this run"]

    def test_extra_candidate_metric_fails(self):
        """A new metric enters only with a regenerated baseline."""
        candidate = make_snapshot(BASE)
        candidate["experiments"]["e4"]["metrics"]["new_ms"] = 1.0
        assert failures(make_snapshot(BASE), candidate) == \
            ["e4.new_ms: not in the baseline"]

    def test_schema_mismatch_fails(self):
        [line] = failures(make_snapshot(BASE, schema=1), make_snapshot(BASE))
        assert line.startswith("schema: baseline has 1")


class TestExemptions:
    def test_exempt_metric_never_fails_however_far_it_moves(self):
        base = make_snapshot({"e5": {"code_bytes": 1000,
                                     "table_bytes_12_prefixes": 500}})
        cand = make_snapshot({"e5": {"code_bytes": 9000,
                                     "table_bytes_12_prefixes": 5000}})
        found, notes = check(base, cand)
        assert found == []
        # The report still shows the movement and the written rationale.
        assert len(notes) == 2
        assert notes[0].startswith("e5.code_bytes: 1000 -> 9000 (not gated: ")
        assert NOT_GATED["e5.table_bytes_12_prefixes"] in notes[1]

    def test_exempt_metric_missing_from_candidate_is_not_flagged(self):
        # A footprint entry is outside the gate entirely: its absence must
        # not produce a "missing" failure either.
        base = make_snapshot({"e5": {"code_bytes": 1000}})
        assert failures(base, make_snapshot({"e5": {}})) == []

    def test_every_exemption_carries_a_rationale(self):
        assert set(NOT_GATED) == {"e5.code_bytes",
                                  "e5.table_bytes_12_prefixes"}
        for rationale in NOT_GATED.values():
            assert len(rationale) > 10  # a real sentence, not a stub

    def test_non_exempt_metrics_still_gate(self):
        base = make_snapshot({"e5": {"bindings": 12}})
        cand = make_snapshot({"e5": {"bindings": 13}})
        assert failures(base, cand) == ["e5.bindings: baseline 12, now 13"]


class TestMainGate:
    """``bench`` over the one real suite run (``run_suite`` stubbed to it)."""

    @pytest.fixture
    def root(self, tmp_path, monkeypatch, suite):
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run_suite", lambda: suite)
        return tmp_path

    def test_committed_baseline_reproduces_exactly(self, suite, committed):
        """The tier-1 contract: this tree's metrics == BENCH_5.json."""
        found, notes = check(committed, suite)
        assert found == []
        assert len(notes) == len(NOT_GATED)

    def test_identical_pair_exits_zero(self, root, suite, capsys):
        assert main(["bench"]) == 0                   # writes the baseline
        assert json.loads((root / BASELINE_NAME).read_text()) == suite
        assert main(["bench", "--check"]) == 0
        gated = sum(len(entry["metrics"])
                    for entry in suite["experiments"].values()) - len(NOT_GATED)
        assert f"OK: {gated} metrics identical" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, root, suite, capsys):
        """One ulp, one count, one dropped metric: each exits 1, named."""
        for experiment, metric, mutate in [
                ("e1", "local_ms", lambda v: math.nextafter(v, math.inf)),
                ("e7", "hops4_messages", lambda v: v + 1),
                ("e18", "storm_rejoins", None)]:
            baseline = copy.deepcopy(suite)
            metrics = baseline["experiments"][experiment]["metrics"]
            if mutate is None:
                del metrics[metric]
            else:
                metrics[metric] = mutate(metrics[metric])
            (root / BASELINE_NAME).write_text(json.dumps(baseline))
            assert main(["bench", "--check"]) == 1
            out = capsys.readouterr().out
            assert f"DIFFERS {experiment}.{metric}: " in out
            assert "FAIL: 1 difference(s)" in out


class TestRunSuite:
    def test_run_suite_measures_untraced_and_restores_the_environment(
            self, tmp_path, monkeypatch):
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_fake.py").write_text(
            "import os\n"
            "def trajectory_metrics():\n"
            "    return {'traced': int('REPRO_TRACE_DIR' in os.environ)}\n")
        monkeypatch.setattr(bench, "EXPERIMENTS", (("fake", "bench_fake"),))
        monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/traces")
        document = run_suite(tmp_path)
        assert document["experiments"] == {"fake": {"metrics": {"traced": 0}}}
        assert os.environ["REPRO_TRACE_DIR"] == "/tmp/traces"
