"""E8a (paper Sec. 2.2, Efficiency): distributed vs centralized lookup cost.

Paper: "Separating the name of an object from its implementation introduces
the extra cost of interacting with one more server -- the name server --
every time a name is referenced.  Caching the name in the client would
introduce inconsistency problems and only benefit the few applications that
reuse names."

Reproduced: the same Zipf-skewed open workload over the same name
population, three ways -- V distributed interpretation, centralized without
a cache, centralized with a (consistency-risking) client cache -- reporting
mean per-open latency and name-server transactions.
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.baseline import BaselineClient, CentralNameServer, UidObjectServer
from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, Now
from repro.runtime.session import Session
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.servers.base import ServerHandle
from repro.vio.client import release_instance
from repro.workloads import NameTreeSpec, populate_baseline, populate_fileserver
from repro.workloads.traces import zipf_trace

SPEC = NameTreeSpec(depth=2, fanout=3, files_per_directory=3)
TRACE_LENGTH = 150
SEED = 11


def distributed_run() -> tuple[float, int]:
    domain = Domain(seed=SEED)
    workstation = setup_workstation(domain, "mann")
    fs = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
    standard_prefixes(workstation, fs)
    paths = populate_fileserver(fs.server, SPEC)
    # Names are interpreted relative to the server root context.
    session = workstation.session(
        ContextPair(fs.pid, int(WellKnownContext.DEFAULT)))
    trace = zipf_trace(paths, TRACE_LENGTH, seed=SEED)

    def client():
        yield Delay(0.05)
        total = 0.0
        for __, name in trace:
            t0 = yield Now()
            stream = yield from session.open(name, "r")
            t1 = yield Now()
            yield from release_instance(stream.server, stream.instance)
            total += t1 - t0
        return total / len(trace)

    mean = run_on(domain, workstation.host, client())
    return mean * 1e3, 0


def centralized_run(cache_enabled: bool) -> tuple[float, int]:
    domain = Domain(seed=SEED)
    ws = domain.create_host("ws")
    ns = CentralNameServer()
    ns_handle = start_server(domain.create_host("ns"), ns)
    servers, handles = [], []
    for index in range(2):
        server = UidObjectServer(allocator_id=index + 1)
        handle = start_server(domain.create_host(f"obj{index}"), server)
        servers.append(server)
        handles.append(handle)
    trace = None

    def client():
        yield Delay(0.05)
        # populate after pids exist
        for server, handle in zip(servers, handles):
            server.pid = handle.pid
        paths = populate_baseline(ns, servers, SPEC, seed=SEED)
        lib = BaselineClient(ns_handle.pid, cache_enabled=cache_enabled)
        events = zipf_trace(paths, TRACE_LENGTH, seed=SEED)
        total = 0.0
        for __, name in events:
            t0 = yield Now()
            stream = yield from lib.open(name)
            t1 = yield Now()
            yield from release_instance(stream.server, stream.instance)
            total += t1 - t0
        return total / len(events) * 1e3, lib.name_server_transactions

    return run_on(domain, ws, client())


def test_e8a_lookup_latency(benchmark):
    v_ms, __ = benchmark(distributed_run)
    central_ms, central_txns = centralized_run(cache_enabled=False)
    cached_ms, cached_txns = centralized_run(cache_enabled=True)

    report_table(
        "E8a  Open latency: distributed vs centralized naming (Sec. 2.2)",
        [
            ("V distributed", v_ms, 0),
            ("centralized, no cache", central_ms, central_txns),
            ("centralized, client cache", cached_ms, cached_txns),
        ],
        headers=("architecture", "mean open ms", "name-server txns"),
    )

    # The paper's claim: one extra server interaction per reference.
    assert central_ms > v_ms * 1.5
    # A cache helps only because this trace reuses names...
    assert cached_ms < central_ms
    assert cached_txns < central_txns
    # ...and even cached, the extra level never beats interpretation at the
    # object's server.
    assert cached_ms > v_ms * 0.95


def test_e8a_reuse_sensitivity(benchmark):
    """Low-reuse traces strip the cache of its benefit (the paper: caching
    would 'only benefit the few applications that reuse names')."""

    def run():
        results = {}
        cases = (
            # (skew, name population spec, label)
            (1.4, SPEC, "high reuse"),
            (0.0, NameTreeSpec(depth=3, fanout=4, files_per_directory=4),
             "low reuse"),
        )
        for skew, spec, label in cases:
            domain = Domain(seed=SEED)
            ws = domain.create_host("ws")
            ns = CentralNameServer()
            ns_handle = start_server(domain.create_host("ns"), ns)
            server = UidObjectServer(allocator_id=1)
            handle = start_server(domain.create_host("obj"), server)

            def client(skew=skew, spec=spec):
                yield Delay(0.05)
                server.pid = handle.pid
                paths = populate_baseline(ns, [server], spec, seed=SEED)
                lib = BaselineClient(ns_handle.pid, cache_enabled=True)
                events = zipf_trace(paths, 100, seed=SEED, skew=skew)
                for __, name in events:
                    stream = yield from lib.open(name)
                    yield from release_instance(stream.server,
                                                stream.instance)
                return lib.cache_hits / 100

            results[label] = run_on(domain, ws, client())
        return results

    results = benchmark(run)
    report_table(
        "E8a-b  Cache hit rate vs name reuse",
        [(label, f"{rate:.0%}") for label, rate in results.items()],
        headers=("workload", "cache hit rate"),
    )
    assert results["high reuse"] > results["low reuse"] + 0.15


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    v_ms, __ = distributed_run()
    central_ms, central_txns = centralized_run(cache_enabled=False)
    cached_ms, cached_txns = centralized_run(cache_enabled=True)
    return {
        "v_open_ms": v_ms,
        "central_open_ms": central_ms,
        "central_ns_txns": central_txns,
        "cached_open_ms": cached_ms,
        "cached_ns_txns": cached_txns,
    }
