"""E7 (paper Sec. 5.8, Figure 4): the naming forest and forwarding cost.

Figure 4 shows per-server name trees with occasional cross-server pointers;
the forwarding convention stitches them together.  The paper gives no table
for this, but the design implies a cost model: each cross-server link on a
resolution path adds roughly one request hop (the reply still travels
directly from the final server to the client -- forwarding, not proxying).

Reproduced: Open latency vs number of cross-server links traversed, and the
slope check that forwarding beats request/reply chaining (a proxy design)
by half a transaction per hop.
"""

import pytest

from conftest import report_table
from _common import export_observability, maybe_observability, run_on

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.ipc import Now
from repro.net.latency import NAME_SEGMENT_BYTES
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server

MAX_HOPS = 4


def build_chain(hops: int):
    """fs0 -> fs1 -> ... -> fs_hops, linked through home directories."""
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
    return domain, workstation, handles


def measure_hops(hops: int, rounds: int = 10) -> float:
    domain, workstation, handles = build_chain(hops)
    name = "next/" * hops + "leaf.txt"

    def client(session):
        yield from files.write_file(session, name, b"x")
        total = 0.0
        for __ in range(rounds):
            t0 = yield Now()
            stream = yield from session.open(name, "r")
            t1 = yield Now()
            yield from stream.close()
            total += t1 - t0
        return total / rounds

    mean = run_on(domain, workstation.host, client(workstation.session()))
    # Each chain length exports its own trace file: the span trees show one
    # extra Forward hop (and one more net.wire leg) per cross-server link.
    export_observability(domain.obs, f"bench_e7_hops{hops}")
    return mean * 1e3


def test_e7_forwarding_cost_per_hop(benchmark):
    times = {0: benchmark(measure_hops, 0)}
    for hops in range(1, MAX_HOPS + 1):
        times[hops] = measure_hops(hops)

    domain = Domain()
    hop_cost = domain.latency.remote_hop(NAME_SEGMENT_BYTES) * 1e3

    rows = [(hops, times[hops],
             times[hops] - times.get(hops - 1, times[0]) if hops else "-")
            for hops in sorted(times)]
    report_table(
        "E7  Open latency vs cross-server links traversed (Figure 4)",
        rows,
        headers=("links", "measured ms", "delta ms"),
    )

    # Linear in hops, slope = one forwarded request hop (~2.0 ms with the
    # name segment) -- NOT a full 5 ms transaction, because the reply goes
    # straight back to the client.
    for hops in range(1, MAX_HOPS + 1):
        delta = times[hops] - times[hops - 1]
        assert delta == pytest.approx(hop_cost, rel=0.05)


def test_e7_forwarding_beats_proxying(benchmark):
    """If each server instead *proxied* (sent its own request and relayed
    the reply), every hop would cost a request hop plus an extra reply hop.
    Forwarding saves that reply leg -- measure the saving."""

    def run():
        times = [measure_hops(h, rounds=5) for h in (0, 2)]
        return times

    t0, t2 = benchmark(run)
    domain = Domain()
    forward_slope = (t2 - t0) / 2
    proxy_slope = (domain.latency.remote_hop(NAME_SEGMENT_BYTES)
                   + domain.latency.remote_hop(0)) * 1e3
    report_table(
        "E7b  Per-hop cost: forwarding vs a proxy chain (modelled)",
        [("forwarding (measured)", forward_slope),
         ("proxy chain (modelled)", proxy_slope),
         ("saving per hop", proxy_slope - forward_slope)],
        headers=("design", "ms/hop"),
    )
    assert forward_slope < proxy_slope * 0.7


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Besides the open latencies, the attribution profiler contributes the
    message/byte traffic of the pinned 4-hop scenario.
    """
    from repro.obs.profile import forwarding_profile

    hops0_ms = measure_hops(0)
    hops4_ms = measure_hops(MAX_HOPS)
    prof, __, __ = forwarding_profile(hops=MAX_HOPS, rounds=10, seed=0)
    return {
        "hops0_open_ms": hops0_ms,
        "hops4_open_ms": hops4_ms,
        "per_hop_slope_ms": (hops4_ms - hops0_ms) / MAX_HOPS,
        "hops4_messages": prof.total_messages,
        "hops4_wire_bytes": prof.total_bytes,
    }
