"""E6 (paper Sec. 4.1, Figure 2): what structured pids buy.

The paper claims the (logical-host | local-id) structure provides (a)
efficient location of a process with no lookup service, (b) independent
unique allocation per host, and (c) a cheap locality test "an important
issue for some servers."

Reproduced: these are the only wall-clock microbenchmarks in the suite
(field extraction really is the operation), plus a simulated comparison of
routing-with-structure vs routing-via-registry.
"""

import pytest

from conftest import report_table

from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.pids import Pid, PidAllocator
from repro.kernel.services import Scope


def test_e6_locality_test_is_constant_time(benchmark):
    pids = [Pid.make(host, local) for host in range(1, 33)
            for local in range(1, 33)]

    def classify():
        return sum(1 for pid in pids if pid.is_local_to(7))

    local_count = benchmark(classify)
    assert local_count == 32

    report_table(
        "E6  Structured pid operations (Sec. 4.1)",
        [("locality tests per call", len(pids)),
         ("pids classified local to host 7", local_count)],
        headers=("measure", "value"),
    )


def test_e6_host_extraction(benchmark):
    pids = [Pid.make(h, l) for h in range(1, 65) for l in range(1, 17)]

    def route():
        return sum(pid.logical_host for pid in pids)

    benchmark(route)


def test_e6_allocation_is_collision_free_across_hosts(benchmark):
    def allocate():
        allocators = [PidAllocator(host) for host in range(1, 17)]
        pids = set()
        for allocator in allocators:
            for __ in range(64):
                pids.add(allocator.allocate())
        return len(pids)

    unique = benchmark(allocate)
    assert unique == 16 * 64  # no coordination, no collisions


def measure_routing() -> tuple[float, float]:
    """(Send-by-pid ms, GetPid+Send ms) for one remote transaction."""
    domain = Domain()
    ws = domain.create_host("ws")
    far = domain.create_host("far")

    def server():
        yield SetPid(1, Scope.BOTH)
        while True:
            delivery = yield Receive()
            yield Reply(delivery.sender, Message.reply(ReplyCode.OK))

    far.spawn(server(), "server")

    def client():
        yield Delay(0.01)
        pid = yield GetPid(1, Scope.ANY)
        # direct: structure routes the message
        t0 = yield Now()
        yield Send(pid, Message.request(1))
        t1 = yield Now()
        # with a per-use lookup (what port/mailbox schemes pay):
        t2 = yield Now()
        again = yield GetPid(1, Scope.ANY)
        yield Send(again, Message.request(1))
        t3 = yield Now()
        return (t1 - t0) * 1e3, (t3 - t2) * 1e3

    from _common import run_on

    return run_on(domain, ws, client())


def test_e6_structure_routes_without_a_lookup(benchmark):
    """Sending to a pid needs no registry transaction; compare one Send
    against GetPid-then-Send, the cost the structure avoids."""

    direct_ms, with_lookup_ms = benchmark(measure_routing)
    report_table(
        "E6b  Routing by pid structure vs per-use service lookup",
        [("Send by pid", direct_ms),
         ("GetPid + Send", with_lookup_ms),
         ("avoided overhead", with_lookup_ms - direct_ms)],
        headers=("path", "measured ms"),
    )
    assert with_lookup_ms > direct_ms * 1.3


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Only the simulated comparison is tracked -- the wall-clock
    microbenchmarks above are machine-dependent and not gateable.
    """
    direct_ms, with_lookup_ms = measure_routing()
    return {
        "send_by_pid_ms": direct_ms,
        "getpid_then_send_ms": with_lookup_ms,
    }
