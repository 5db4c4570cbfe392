"""Goldens of the two chaos entry points' reports.

``run_chaos`` and ``run_replica_storm`` are the public face of the chaos
harness: the CLI prints their ``to_dict()``, the ledger and the benches read
their attributes.  These goldens pin four seeded runs byte for byte, key
order included, so a change to how the harness is built cannot move what it
reports.

Regenerate by writing ``json.dumps(capture(), indent=1)`` to
``golden_reports.json``.
"""

import json
from pathlib import Path

import pytest

from repro.faults.chaos import run_chaos, run_replica_storm

GOLDEN = Path(__file__).with_name("golden_reports.json")

RUNS = {
    "chaos_seed7": lambda: run_chaos(seed=7).to_dict(),
    "chaos_seed7_flight": lambda: run_chaos(seed=7, flight=True).flight,
    "storm_seed11": lambda: run_replica_storm(seed=11).to_dict(),
    "storm_seed11_one_replica_one_client": lambda: run_replica_storm(
        seed=11, n_replicas=1, n_clients=1).to_dict(),
}


def capture() -> dict:
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert json.dumps(RUNS[name](), indent=1) == json.dumps(golden, indent=1)
