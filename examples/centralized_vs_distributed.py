"""The paper's Sec. 2.2 argument, run as an experiment.

Builds the same name population twice -- once on a V file server
(distributed interpretation) and once in a central name server + UID object
servers (the Sec. 2.1 model) -- then measures the three dimensions the paper
argues on: efficiency (per-open latency), consistency (crash-injected
deletes), and reliability (availability when a server dies).

This is a compact, narrated version of benchmarks E8a/E8b/E8c.

Run:  python examples/centralized_vs_distributed.py
"""

from repro.baseline import (
    BaselineClient,
    CentralNameServer,
    UidObjectServer,
    audit,
)
from repro.baseline.client import ClientCrashed, CrashPoint
from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, Now
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.vio.client import release_instance
from repro.workloads import NameTreeSpec, populate_baseline, populate_fileserver
from repro.workloads.traces import zipf_trace

SPEC = NameTreeSpec(depth=2, fanout=2, files_per_directory=3)
TRACE = 60


def run_client(domain, host, gen):
    box = {}

    def wrapper():
        box["r"] = yield from gen

    host.spawn(wrapper(), "client")
    domain.run()
    domain.check_healthy()
    return box["r"]


def efficiency() -> None:
    print("== Efficiency: mean open latency over a Zipf trace ==")
    # Distributed.
    domain = Domain(seed=1)
    ws = setup_workstation(domain, "mann")
    fs = start_server(domain.create_host("vax"), VFileServer(user="mann"))
    standard_prefixes(ws, fs)
    paths = populate_fileserver(fs.server, SPEC)
    session = ws.session(ContextPair(fs.pid, int(WellKnownContext.DEFAULT)))

    def v_client():
        yield Delay(0.05)
        trace = zipf_trace(paths, TRACE, seed=1)
        t0 = yield Now()
        for __, name in trace:
            stream = yield from session.open(name, "r")
            yield from release_instance(stream.server, stream.instance)
        t1 = yield Now()
        return (t1 - t0) / TRACE * 1e3

    v_ms = run_client(domain, ws.host, v_client())

    # Centralized.
    domain = Domain(seed=1)
    client_host = domain.create_host("ws")
    ns = CentralNameServer()
    ns_handle = start_server(domain.create_host("ns"), ns)
    obj = UidObjectServer(allocator_id=1)
    obj_handle = start_server(domain.create_host("obj"), obj)

    def c_client():
        yield Delay(0.05)
        obj.pid = obj_handle.pid
        paths = populate_baseline(ns, [obj], SPEC, seed=1)
        lib = BaselineClient(ns_handle.pid)
        trace = zipf_trace(paths, TRACE, seed=1)
        t0 = yield Now()
        for __, name in trace:
            stream = yield from lib.open(name)
            yield from release_instance(stream.server, stream.instance)
        t1 = yield Now()
        return (t1 - t0) / TRACE * 1e3

    c_ms = run_client(domain, client_host, c_client())
    print(f"  V distributed interpretation : {v_ms:6.2f} ms/open")
    print(f"  centralized name server      : {c_ms:6.2f} ms/open "
          f"(+{(c_ms / v_ms - 1) * 100:.0f}%: one more server per use)\n")


def consistency() -> None:
    print("== Consistency: 40 create/delete pairs, 25% client crash rate ==")
    domain = Domain(seed=2)
    ws = domain.create_host("ws")
    ns = CentralNameServer()
    ns_handle = start_server(domain.create_host("ns"), ns)
    obj = UidObjectServer(allocator_id=1)
    obj_handle = start_server(domain.create_host("obj"), obj)

    def c_client():
        yield Delay(0.05)
        from repro.sim.rng import DeterministicRng

        rng = DeterministicRng(2)
        for index in range(40):
            lib = BaselineClient(ns_handle.pid)
            try:
                yield from lib.create(f"f{index}", obj_handle.pid)
                crash = rng.uniform("c", 0, 1) < 0.25
                yield from lib.delete(
                    f"f{index}", crash_at=(CrashPoint.AFTER_OBJECT_DELETE
                                           if crash else CrashPoint.NONE))
            except ClientCrashed:
                continue

    run_client(domain, ws, c_client())
    report = audit(ns, [obj])
    print(f"  centralized : {len(report.dangling_names)} dangling names, "
          f"{len(report.orphan_objects)} orphan objects")
    print("  distributed : 0 dangling, 0 orphans -- deletion is one "
          "server-internal operation; there is no window\n")


def reliability() -> None:
    print("== Reliability: which names survive one machine failure? ==")
    print("  distributed : names on the dead server are lost; every other")
    print("                server's names keep working (1/K of the space)")
    print("  centralized : if an OBJECT server dies, 1/K is lost; if the")
    print("                NAME server dies, 100% of names are unreachable")
    print("                while every object still exists (E8c measures")
    print("                exactly 0% reachable).\n")


def main() -> None:
    efficiency()
    consistency()
    reliability()
    print("Full parameter sweeps: pytest benchmarks/bench_e8*.py "
          "--benchmark-only")


if __name__ == "__main__":
    main()
