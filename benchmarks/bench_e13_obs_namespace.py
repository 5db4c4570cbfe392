"""E13: the ``[obs]`` name space -- what a live introspection read costs.

The paper has no observability chapter; this experiment prices the design
decision of PR 3: introspection state is served *through the CSNH protocol
itself*, so reading ``[obs]/hosts/vax1/metrics`` is a real three-hop
resolution (prefix server -> root obs server -> remote stat server) plus
ordinary block reads -- not a free function call.

Measured here:

- **read latency** by target: local-host metrics vs remote-host metrics vs
  fleet roll-ups, with the forwarding hop and wire crossings visible in the
  latency deltas;
- **non-perturbation**: with stat servers deployed on every host and
  introspection reads interleaved into the workload, the E4 Open table,
  the E7 forwarding slope, and the E12 warm-open collapse all reproduce
  unchanged -- observers pay, the observed system does not.
"""

import pytest

from conftest import report_table
from _common import (
    export_observability,
    maybe_observability,
    run_on,
)

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.ipc import Now
from repro.net.latency import NAME_SEGMENT_BYTES
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, enable_obs_namespace, start_server

#: E4 baselines (ms, simulated) that must survive the [obs] deployment.
E4_PAPER = {
    "local direct": 1.21,
    "remote direct": 3.70,
    "local via prefix": 5.14,
    "remote via prefix": 7.69,
}

ROUNDS = 10


def observed_system(name_cache: bool = False):
    """ws1 + vax1 file server with stat servers on every host."""
    domain = Domain(obs=maybe_observability())
    workstation = setup_workstation(domain, "mann", name="ws1",
                                    name_cache=name_cache)
    handle = start_server(domain.create_host("vax1"),
                          VFileServer(user="mann"))
    standard_prefixes(workstation, handle)
    enable_obs_namespace(domain, root_host=workstation.host)
    return domain, workstation, handle


def _timed_read(session, name):
    """One full read of an [obs] object: (latency ms, payload bytes)."""
    t0 = yield Now()
    data = yield from session.read_file(name)
    t1 = yield Now()
    return (t1 - t0) * 1e3, len(data)


def _timed_open(session, name):
    t0 = yield Now()
    stream = yield from session.open(name, "r")
    t1 = yield Now()
    yield from stream.close()
    return (t1 - t0) * 1e3


# ------------------------------------------------------------ read latency


def measure_read_latency() -> dict:
    domain, workstation, __ = observed_system()
    targets = (
        ("local host metrics", "[obs]/hosts/ws1/metrics"),
        ("remote host metrics", "[obs]/hosts/vax1/metrics"),
        ("remote host processes", "[obs]/hosts/vax1/processes"),
        ("fleet metrics", "[obs]/fleet/metrics"),
        ("fleet hosts", "[obs]/fleet/hosts"),
    )

    def client(session):
        for index in range(5):
            yield from files.write_file(session, f"[home]f{index}.txt",
                                        b"x" * 64)
        results = {}
        for label, name in targets:
            total = 0.0
            size = 0
            for __ in range(ROUNDS):
                ms, nbytes = yield from _timed_read(session, name)
                total += ms
                size = nbytes
            results[label] = {"ms": total / ROUNDS, "bytes": size}
        return results

    results = run_on(domain, workstation.host, client(workstation.session()))
    export_observability(domain.obs, "bench_e13")
    return results


def test_e13_introspection_read_latency(benchmark):
    results = benchmark(measure_read_latency)

    report_table(
        "E13  [obs] read latency: prefix server -> root obs server -> "
        "stat server, plus block reads",
        [(label, row["ms"], row["bytes"])
         for label, row in results.items()],
        headers=("target", "measured ms", "payload bytes"),
    )

    local = results["local host metrics"]["ms"]
    remote = results["remote host metrics"]["ms"]
    # Introspection is charged like any other resolution: a local-host read
    # already costs more than E4's 5.14 ms local via-prefix open (an extra
    # forwarding hop), and never less than the open it contains.
    assert local > 5.14
    # The remote stat server adds cross-machine legs: the forwarded request
    # and every payload block cross the wire.
    assert remote > local + 1.0
    # Roll-ups served by the (local) root aren't remote-priced: the fleet
    # read sits below the remote per-host read unless its payload dwarfs it.
    assert results["fleet hosts"]["ms"] < remote
    for row in results.values():
        assert row["bytes"] > 0


# ---------------------------------------------------------- non-perturbation


def measure_e4_with_obs() -> dict:
    """The E4 grid, with stat servers deployed on every machine."""
    domain = Domain(obs=maybe_observability())
    workstation = setup_workstation(domain, "mann")
    remote = start_server(domain.create_host("vax1"),
                          VFileServer(user="mann"))
    local = start_server(workstation.host, VFileServer(user="mann"))
    standard_prefixes(workstation, remote)
    workstation.prefix_server.define_prefix(
        "local", ContextPair(local.pid, int(WellKnownContext.HOME)))
    enable_obs_namespace(domain, root_host=workstation.host)
    local_home = ContextPair(local.pid, int(WellKnownContext.HOME))

    def seed(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        yield from files.write_file(session, "[local]naming.mss", b"y" * 64)

    run_on(domain, workstation.host, seed(workstation.session()), name="seed")

    cases = {
        "local direct": (workstation.session(local_home), "naming.mss"),
        "remote direct": (workstation.session(), "naming.mss"),
        "local via prefix": (workstation.session(), "[local]naming.mss"),
        "remote via prefix": (workstation.session(), "[home]naming.mss"),
    }
    results = {}
    for label, (session, name) in cases.items():

        def timer(session=session, name=name):
            total = 0.0
            for __ in range(ROUNDS):
                total += yield from _timed_open(session, name)
                # Live introspection between opens: extra traffic, but it
                # must not leak into the measured open path.
                yield from session.read_file("[obs]/hosts/vax1/metrics")
            return total / ROUNDS

        results[label] = run_on(domain, workstation.host, timer(),
                                name=f"timer-{label}")
    return results


def test_e13_e4_table_unperturbed(benchmark):
    results = benchmark(measure_e4_with_obs)

    report_table(
        "E13b  E4 Open table with [obs] deployed and introspection reads "
        "interleaved",
        [(label, E4_PAPER[label], results[label]) for label in E4_PAPER],
        headers=("case", "paper ms", "measured ms"),
    )
    for label, paper_ms in E4_PAPER.items():
        assert results[label] == pytest.approx(paper_ms, rel=0.02)


def measure_e7_slope_with_obs(hops: int = 2, rounds: int = 5) -> float:
    """E7's per-link forwarding slope, stat servers running everywhere."""
    domain = Domain(obs=maybe_observability())
    workstation = setup_workstation(domain, "mann")
    handles = [start_server(domain.create_host(f"vax{i}"),
                            VFileServer(user="mann"))
               for i in range(hops + 1)]
    standard_prefixes(workstation, handles[0])
    for index in range(hops):
        handles[index].server.store.link_remote(
            handles[index].server.home, b"next",
            ContextPair(handles[index + 1].pid, int(WellKnownContext.HOME)))
    enable_obs_namespace(domain, root_host=workstation.host)

    def client(session):
        times = {}
        for count in (0, hops):
            name = "next/" * count + f"leaf{count}.txt"
            yield from files.write_file(session, name, b"x")
            total = 0.0
            for __ in range(rounds):
                total += yield from _timed_open(session, name)
            times[count] = total / rounds
        return times

    times = run_on(domain, workstation.host, client(workstation.session()))
    return (times[hops] - times[0]) / hops


def test_e13_e7_forwarding_slope_unperturbed(benchmark):
    slope = benchmark(measure_e7_slope_with_obs)
    hop_cost = Domain().latency.remote_hop(NAME_SEGMENT_BYTES) * 1e3
    report_table(
        "E13c  E7 forwarding slope with [obs] deployed",
        [("per-link cost (measured)", slope),
         ("per-link cost (model)", hop_cost)],
        headers=("quantity", "ms"),
    )
    assert slope == pytest.approx(hop_cost, rel=0.05)


def measure_e12_warm_with_obs() -> dict:
    """E12's warm-open collapse, with introspection reads interleaved."""
    domain, workstation, __ = observed_system(name_cache=True)

    def client(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        cold = yield from _timed_open(session, "[home]naming.mss")
        total = 0.0
        for __ in range(ROUNDS):
            total += yield from _timed_open(session, "[home]naming.mss")
            yield from session.read_file("[obs]/fleet/metrics")
        return {"cold": cold, "warm": total / ROUNDS}

    return run_on(domain, workstation.host, client(workstation.session()))


def test_e13_e12_warm_open_unperturbed(benchmark):
    results = benchmark(measure_e12_warm_with_obs)
    report_table(
        "E13d  E12 warm-open collapse with [obs] deployed",
        [("warm via prefix (target ~3.70)", results["warm"]),
         ("cold via prefix", results["cold"])],
        headers=("case", "measured ms"),
    )
    # The cache still collapses warm opens to the direct-open cost.
    assert results["warm"] == pytest.approx(E4_PAPER["remote direct"],
                                            rel=0.05)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    latency = measure_read_latency()
    return {
        "local_metrics_read_ms": latency["local host metrics"]["ms"],
        "remote_metrics_read_ms": latency["remote host metrics"]["ms"],
        "fleet_metrics_read_ms": latency["fleet metrics"]["ms"],
        "warm_open_with_obs_ms": measure_e12_warm_with_obs()["warm"],
    }
