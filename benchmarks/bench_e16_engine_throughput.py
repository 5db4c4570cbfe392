"""E16: engine hot-path throughput -- a synthetic fleet under Zipf traffic.

The ROADMAP's production-scale target is >= 10^6 wall-clock events/sec; the
paper's uniform-access protocol is only credible at fleet scale if the
simulator can drive hundreds of hosts exchanging millions of resolution
messages.  This bench builds the stress case directly: ``FLEET_SIZES``
hosts, one responder (a warm-cache name server stand-in) and one client per
host, every client firing direct Sends at Zipf-chosen responders -- the
steady-state traffic shape E12 establishes once bindings are cached (the
hot path is Send/Reply round trips, not prefix broadcasts).

Two kinds of numbers come out:

- **deterministic** (``trajectory_metrics``): simulated elapsed time,
  transaction and event counts for the pinned 200-host fleet.  These are
  pure functions of the seed and must stay byte-identical across runs --
  the engine overhaul is required to change *none* of them.
- **wall-clock**: engine events fired per wall second while
  ``domain.run()`` drains each fleet size, printed in the pytest table for
  orientation only.  The number a speed claim rests on is the cost
  ledger's ``fleet_send`` workload (``BENCHMARK.json``), which repeats and
  interleaves its runs.
"""

import time

import pytest

from conftest import report_table

from repro.kernel.domain import Domain
from repro.kernel.ipc import Receive, Reply, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.sim.rng import DeterministicRng

#: Fleet sizes for the pytest table (hosts; one client + one responder
#: each).  The deterministic trajectory metrics pin the largest size.
FLEET_SIZES = (50, 100, 200)

#: Pinned request count per client for the deterministic metrics -- the
#: simulated numbers depend on it.
TRAJECTORY_REQUESTS = 25

#: Zipf skew for target choice: a few popular servers, a long tail --
#: the shape of real name-resolution traffic (cf. E12's trace).
ZIPF_SKEW = 1.1

SEED = 0


def _responder():
    """A minimal server: Receive -> Reply(OK), forever."""
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _client(targets, completed):
    """Fire one blocking Send per target; count completed transactions."""
    for target in targets:
        reply = yield Send(target, Message.request(RequestCode.QUERY_NAME))
        assert reply.ok
        completed[0] += 1


def build_fleet(num_hosts: int, requests_per_client: int, seed: int = SEED):
    """A domain with ``num_hosts`` hosts, each running a responder and a
    client aimed at Zipf-chosen responders fleet-wide.

    Returns ``(domain, completed)`` where ``completed`` is a one-cell list
    the clients increment -- after ``domain.run()`` it must equal
    ``num_hosts * requests_per_client``.
    """
    domain = Domain(seed=seed)
    hosts = domain.create_hosts(num_hosts, prefix="fleet")
    responders = [host.spawn(_responder(), name="responder").pid
                  for host in hosts]
    rng = DeterministicRng(seed)
    completed = [0]
    for index, host in enumerate(hosts):
        stream = f"e16.client{index}"
        targets = [responders[rng.zipf_index(stream, num_hosts,
                                             skew=ZIPF_SKEW)]
                   for __ in range(requests_per_client)]
        host.spawn(_client(targets, completed), name="client")
    return domain, completed


def measure_fleet(num_hosts: int, requests_per_client: int,
                  seed: int = SEED) -> dict:
    """Run one fleet to completion; simulated facts + wall throughput.

    The wall clock brackets only ``domain.run()`` (the event loop), not
    fleet construction, so the rate is an engine number, not a setup one.
    """
    domain, completed = build_fleet(num_hosts, requests_per_client, seed)
    engine = domain.engine
    events_before = engine.events_processed
    wall_start = time.perf_counter()
    domain.run()
    wall_seconds = time.perf_counter() - wall_start
    domain.check_healthy()
    events = engine.events_processed - events_before
    expected = num_hosts * requests_per_client
    assert completed[0] == expected, (
        f"{completed[0]}/{expected} transactions completed")
    return {
        "hosts": num_hosts,
        "transactions": completed[0],
        "events": events,
        "sim_elapsed_s": engine.now,
        "wall_seconds": wall_seconds,
        "wall_events_per_sec": events / wall_seconds if wall_seconds else 0.0,
    }


# ------------------------------------------------------------------- pytest


def test_fleet_completes_and_scales():
    """Every transaction completes at every fleet size; results are
    deterministic facts of the seed (the wall columns are informational)."""
    rows = []
    for num_hosts in FLEET_SIZES:
        result = measure_fleet(num_hosts, requests_per_client=10)
        rows.append((f"{num_hosts} hosts", result["transactions"],
                     result["events"], result["sim_elapsed_s"] * 1e3,
                     result["wall_events_per_sec"]))
        assert result["transactions"] == num_hosts * 10
        assert result["events"] > result["transactions"]
    report_table(
        "E16: engine throughput over a Zipf fleet (10 req/client)",
        rows,
        ("fleet", "txns", "events", "sim elapsed (ms)", "wall events/s"),
    )


def test_fleet_deterministic():
    """Same seed, same fleet -> bit-identical simulated results."""
    first = measure_fleet(50, requests_per_client=5)
    second = measure_fleet(50, requests_per_client=5)
    assert first["sim_elapsed_s"] == second["sim_elapsed_s"]
    assert first["events"] == second["events"]
    assert first["transactions"] == second["transactions"]


@pytest.mark.benchmark(group="e16-engine")
def test_benchmark_fleet_throughput(benchmark):
    """Wall-clock benchmark hook: one 50-host fleet drain per round."""
    def run():
        return measure_fleet(50, requests_per_client=5)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result["transactions"] == 250


# --------------------------------------------------------------- trajectory


def trajectory_metrics() -> dict:
    """Deterministic metrics for the behavioural contract (repro.obs.bench).

    Everything here is simulated time or a deterministic count for the
    pinned 200-host fleet; the engine overhaul's contract is that none of
    these values move.
    """
    result = measure_fleet(FLEET_SIZES[-1], TRAJECTORY_REQUESTS)
    return {
        "fleet200_sim_elapsed_s": result["sim_elapsed_s"],
        "fleet200_transactions": result["transactions"],
        "fleet200_events": result["events"],
        "fleet200_mean_txn_ms": round(
            result["sim_elapsed_s"] / result["transactions"] * 1e3, 6),
    }
