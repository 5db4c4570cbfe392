"""Bytes the name service and the fleet hold by the thousand.

A seeded binding is held once per replica and a host once per machine, so
the ledger's full-size builds (4 096 prefixes on four replicas; 200 hosts)
hold them by the thousand.  Each guard counts, under ``tracemalloc``, what
one bulk step still holds when it ends, per item.  The bounds hold on
CPython 3.10-3.12; run this file as a script to print the figures on an
interpreter without pytest.
"""

import gc
import tracemalloc

from repro.core.context import ContextPair, WellKnownContext
from repro.core.shard import ShardCluster
from repro.kernel.domain import Domain
from repro.kernel.pids import Pid

BINDINGS = 4096
HOSTS = 200


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


def test_a_seeded_binding_costs_at_most_500_bytes_on_four_replicas():
    # One PrefixBinding shared by the replicas' tables, one lease expiry
    # shared by their lease tables, and four dict slots each.
    assert bytes_per_seeded_binding() <= 500


def test_a_host_costs_at_most_2300_bytes():
    assert bytes_per_host() <= 2300


if __name__ == "__main__":
    print(f"per seeded binding {bytes_per_seeded_binding():.0f} B, "
          f"per host {bytes_per_host():.0f} B")
