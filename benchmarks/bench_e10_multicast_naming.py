"""E10 (paper Sec. 7): multicast name resolution vs broadcast GetPid.

Paper: "A near-term project is to replace the low-level service naming using
GetPid and SetPid with a mechanism based on multicast Send.  Using this
mechanism, a single context could be implemented transparently by a group of
servers working in cooperation."  And Sec. 2.2 on broadcast's cost: "each
server in the group receives many requests that are not directed to it, and
must spend some processing time in examining and discarding them."

Reproduced: resolving a name held by one of G group members, on a wire with
H total hosts, two ways:

- broadcast GetPid to find *a* server, then a directed CSname request that
  may still need forwarding -- every host on the wire examines the query;
- one multicast CSname request to the group -- only member hosts see it,
  and the owner's reply carries the answer directly.
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.core.context import ContextPair, WellKnownContext
from repro.core.group_naming import group_context, group_name_to_context
from repro.core.resolver import name_to_context
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now
from repro.kernel.services import Scope, ServiceId
from repro.net.latency import STANDARD_3MBIT
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server

GROUP = group_context(2)
GROUP_SIZE = 3
IDLE_HOSTS = 8
LOOKUPS = 20


def build(use_group: bool):
    domain = Domain(seed=21)
    workstation = setup_workstation(domain, "mann")
    handles = []
    for index in range(GROUP_SIZE):
        server = VFileServer(user="mann",
                             group_ids=(GROUP,) if use_group else ())
        handles.append(start_server(domain.create_host(f"vax{index}"),
                                    server))
    for index in range(IDLE_HOSTS):
        domain.create_host(f"idle{index}")
    standard_prefixes(workstation, handles[0])
    # The name lives on the *last* member, so broadcast GetPid (which can
    # return any registrant) does not trivially find the owner.
    handles[-1].server.store.make_path("users/mann/target")
    return domain, workstation, handles


def measure_broadcast_getpid() -> tuple[float, int]:
    """Per-lookup latency + total broadcast discards across the run."""
    domain, workstation, handles = build(use_group=False)
    owner = handles[-1]
    session = workstation.session()

    def client():
        yield Delay(0.05)
        total = 0.0
        for __ in range(LOOKUPS):
            t0 = yield Now()
            pid = yield GetPid(int(ServiceId.STORAGE), Scope.REMOTE)
            assert pid is not None
            # The found server may not own the name; walk servers until one
            # answers (here: direct second query at the owner to be fair --
            # one extra directed transaction).
            session.env.current = ContextPair(
                owner.pid, int(WellKnownContext.DEFAULT))
            pair = yield from name_to_context(session.env,
                                              "users/mann/target")
            t1 = yield Now()
            total += t1 - t0
        return total / LOOKUPS

    mean = run_on(domain, workstation.host, client()) * 1e3
    discards = domain.metrics.count("services.broadcast_discards")
    return mean, discards


def measure_multicast() -> tuple[float, int]:
    domain, workstation, handles = build(use_group=True)
    session = workstation.session()

    def client():
        yield Delay(0.05)
        total = 0.0
        for __ in range(LOOKUPS):
            t0 = yield Now()
            pair = yield from group_name_to_context(
                session.env, GROUP, "users/mann/target")
            t1 = yield Now()
            assert pair.server == handles[-1].pid
            total += t1 - t0
        return total / LOOKUPS

    mean = run_on(domain, workstation.host, client()) * 1e3
    discards = domain.metrics.count("services.broadcast_discards")
    return mean, discards


def test_e10_multicast_vs_broadcast(benchmark):
    multicast_ms, multicast_discards = benchmark(measure_multicast)
    broadcast_ms, broadcast_discards = measure_broadcast_getpid()
    wasted_cpu_ms = (broadcast_discards
                     * STANDARD_3MBIT.broadcast_discard_cpu * 1e3)

    report_table(
        "E10  Name resolution: broadcast GetPid vs multicast group Send "
        f"(Sec. 7; {GROUP_SIZE} members, {IDLE_HOSTS} bystander hosts, "
        f"{LOOKUPS} lookups)",
        [
            ("broadcast GetPid + directed request", broadcast_ms,
             broadcast_discards, wasted_cpu_ms),
            ("multicast CSname request", multicast_ms,
             multicast_discards, 0.0),
        ],
        headers=("mechanism", "mean lookup ms", "bystander discards",
                 "wasted CPU ms"),
    )

    # Multicast reaches only members; bystanders never examine anything.
    assert multicast_discards == 0
    assert broadcast_discards >= LOOKUPS * IDLE_HOSTS
    # And it is faster: one multicast replaces broadcast + directed send.
    assert multicast_ms < broadcast_ms


def test_e10_group_resolution_returns_a_usable_context(benchmark):
    def run():
        domain, workstation, handles = build(use_group=True)
        session = workstation.session()

        def client():
            yield Delay(0.05)
            pair = yield from group_name_to_context(
                session.env, GROUP, "users/mann/target")
            session.env.current = pair
            from repro.runtime import files

            yield from files.write_file(session, "proof.txt", b"1")
            return (yield from files.read_file(session, "proof.txt"))

        return run_on(domain, workstation.host, client())

    assert benchmark(run) == b"1"


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    multicast_ms, multicast_discards = measure_multicast()
    broadcast_ms, broadcast_discards = measure_broadcast_getpid()
    return {
        "multicast_lookup_ms": multicast_ms,
        "broadcast_lookup_ms": broadcast_ms,
        "multicast_discards": multicast_discards,
        "broadcast_discards": broadcast_discards,
    }
