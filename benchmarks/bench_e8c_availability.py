"""E8c (paper Sec. 2.2, Reliability): availability under server failure.

Paper: "If an object's name is stored with the object, the name will always
be accessible if the object itself is accessible.  A name server, on the
other hand, represents a central failure point, and its failure can cause a
situation in which objects existing at locations where there have been no
failures are inaccessible because they cannot be named."

Reproduced: the same names spread over K object/file servers; kill one
server at a time (including, for the centralized system, the name server)
and measure the fraction of names still reachable.
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.baseline import BaselineClient, CentralNameServer, UidObjectServer
from repro.baseline.client import BaselineError
from repro.core.context import ContextPair, WellKnownContext
from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.runtime.session import Session
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.vio.client import release_instance

SERVERS = 3
FILES_PER_SERVER = 6


def distributed_availability(kill_index) -> float:
    """Fraction of names reachable with file server ``kill_index`` down."""
    domain = Domain(seed=3)
    workstation = setup_workstation(domain, "mann")
    handles = [start_server(domain.create_host(f"vax{i}"),
                            VFileServer(user="mann"))
               for i in range(SERVERS)]
    standard_prefixes(workstation, handles[0])
    for index, handle in enumerate(handles):
        workstation.prefix_server.define_prefix(
            f"srv{index}", ContextPair(handle.pid,
                                       int(WellKnownContext.HOME)))
        for fileno in range(FILES_PER_SERVER):
            handle.server.store.make_path(
                f"users/mann/f{fileno}.dat", directory=False)
    if kill_index is not None:
        handles[kill_index].host.crash()
    names = [f"[srv{s}]f{f}.dat"
             for s in range(SERVERS) for f in range(FILES_PER_SERVER)]

    def client(session):
        reachable = 0
        for name in names:
            try:
                stream = yield from session.open(name, "r")
                yield from release_instance(stream.server, stream.instance)
                reachable += 1
            except NameError_:
                pass
        return reachable / len(names)

    return run_on(domain, workstation.host, client(workstation.session()))


def centralized_availability(kill: str) -> float:
    """kill: 'none', 'object0', or 'nameserver'."""
    domain = Domain(seed=3)
    ws = domain.create_host("ws")
    ns = CentralNameServer()
    ns_handle = start_server(domain.create_host("ns"), ns)
    servers, handles = [], []
    for index in range(SERVERS):
        server = UidObjectServer(allocator_id=index + 1)
        handle = start_server(domain.create_host(f"obj{index}"), server)
        servers.append(server)
        handles.append(handle)

    def client():
        yield Delay(0.05)
        lib = BaselineClient(ns_handle.pid, domain.latency)
        names = []
        for index, handle in enumerate(handles):
            for fileno in range(FILES_PER_SERVER):
                name = f"srv{index}/f{fileno}.dat"
                yield from lib.create(name, handle.pid, data=b"x")
                names.append(name)
        if kill == "object0":
            handles[0].host.crash()
        elif kill == "nameserver":
            ns_handle.host.crash()
        fresh = BaselineClient(ns_handle.pid, domain.latency)
        reachable = 0
        for name in names:
            try:
                stream = yield from fresh.open(name)
                yield from release_instance(stream.server, stream.instance)
                reachable += 1
            except BaselineError:
                pass
        return reachable / len(names)

    return run_on(domain, ws, client())


def test_e8c_availability(benchmark):
    central_ns_down = benchmark(centralized_availability, "nameserver")
    central_obj_down = centralized_availability("object0")
    central_healthy = centralized_availability("none")
    dist_healthy = distributed_availability(None)
    dist_one_down = distributed_availability(0)

    report_table(
        "E8c  Names reachable with one server down (Sec. 2.2 Reliability)",
        [
            ("centralized, all up", f"{central_healthy:.0%}"),
            ("centralized, 1 object server down", f"{central_obj_down:.0%}"),
            ("centralized, NAME SERVER down", f"{central_ns_down:.0%}"),
            ("distributed, all up", f"{dist_healthy:.0%}"),
            ("distributed, 1 file server down", f"{dist_one_down:.0%}"),
        ],
        headers=("configuration", "reachable"),
    )

    assert central_healthy == 1.0 and dist_healthy == 1.0
    # Losing one of K object servers loses ~1/K of names in both models...
    assert central_obj_down == pytest.approx(1 - 1 / SERVERS, abs=0.01)
    assert dist_one_down == pytest.approx(1 - 1 / SERVERS, abs=0.01)
    # ...but losing the name server loses EVERYTHING, although every object
    # still physically exists -- the central failure point.
    assert central_ns_down == 0.0


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    return {
        "central_ns_down_reachable_rate": centralized_availability(
            "nameserver"),
        "central_obj_down_reachable_rate": centralized_availability(
            "object0"),
        "distributed_one_down_reachable_rate": distributed_availability(0),
    }
