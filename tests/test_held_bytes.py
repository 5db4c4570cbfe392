"""Bytes the name service, the fleet and its telemetry hold by the thousand.

A seeded binding is held once per replica, a host once per machine and a
telemetry sample once per host and tick, so the ledger's full-size builds
(4 096 prefixes on four replicas; 200 hosts) and the audited storm (512
ticks kept per host) hold them by the thousand.  Each guard counts, under
``tracemalloc``, what one bulk step still holds when it ends, per item.
The bounds hold on CPython 3.10-3.12; run this file as a script to print
the figures on an interpreter without pytest.
"""

import gc
import tracemalloc
from types import SimpleNamespace

from repro.core.context import ContextPair, WellKnownContext
from repro.core.shard import ShardCluster
from repro.kernel.domain import Domain
from repro.kernel.pids import Pid
from repro.kernel.tap import COMPLETE
from repro.obs.telemetry import DEFAULT_CAPACITY, TelemetryCollector

BINDINGS = 4096
HOSTS = 200
SAMPLED_HOSTS = 10


def held_bytes(step) -> int:
    """What ``step()`` allocated and still holds when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def bytes_per_seeded_binding() -> float:
    domain = Domain(seed=1)
    cluster = ShardCluster(domain, domain.create_hosts(4, prefix="ns"))
    pair = ContextPair(Pid(0x00010001), int(WellKnownContext.DEFAULT))

    def seed():
        for index in range(BINDINGS):
            cluster.seed_binding(f"p{index}", pair)
    return held_bytes(seed) / BINDINGS


def bytes_per_host() -> float:
    domain = Domain(seed=1)

    def create():
        for __ in range(HOSTS):
            domain.create_host()
    return held_bytes(create) / HOSTS


def bytes_per_host_tick() -> float:
    """What a collector's full rings hold per sampled subject (each host
    and the fleet) and kept tick; every host has a p99 reading each tick."""
    domain = Domain(seed=1)
    hosts = [domain.create_host() for __ in range(SAMPLED_HOSTS)]
    waiting = SimpleNamespace()

    def sample():
        collector = TelemetryCollector(domain, rules=[])
        for tick in range(DEFAULT_CAPACITY + 8):
            domain.engine.run(until=0.05 * (tick + 1))
            for host in hosts:
                host.counters["ipc.transactions"] = 3 * tick
                txn = SimpleNamespace(sent_at=domain.engine.now - 0.002)
                collector.on_event(COMPLETE, host, txn, None, waiting)
            collector._tick()
        sample.collector = collector        # held past the step
    return held_bytes(sample) / ((SAMPLED_HOSTS + 1) * DEFAULT_CAPACITY)


def test_a_seeded_binding_costs_at_most_500_bytes_on_four_replicas():
    # One PrefixBinding shared by the replicas' tables, one lease expiry
    # shared by their lease tables, and four dict slots each.
    assert bytes_per_seeded_binding() <= 500


def test_a_host_costs_at_most_2300_bytes():
    assert bytes_per_host() <= 2300


def test_a_sampled_host_tick_holds_at_most_200_bytes():
    # One packed row of 14 doubles in the host's shared ring and one
    # (time, value) pair in its p99 ring, not a tuple, a list and a float
    # object per reading.
    assert bytes_per_host_tick() <= 200


if __name__ == "__main__":
    print(f"per seeded binding {bytes_per_seeded_binding():.0f} B, "
          f"per host {bytes_per_host():.0f} B, "
          f"per sampled host-tick {bytes_per_host_tick():.0f} B")
