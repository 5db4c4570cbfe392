"""Implementation benchmark: the protocol over real UDP sockets.

Not a paper table -- the paper's numbers are hardware measurements our
simulator reproduces.  This measures the *implementation* on today's
loopback: wall-clock Open and read round-trips through the asyncio
transport, with the full protocol stack (prefix forwarding included).
Its role is regression tracking for the real-socket path.
"""

import asyncio

import pytest

from conftest import report_table

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.net.asyncio_transport import AsyncDomain
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers.fileserver.server import VFileServer

ROUNDS = 30


async def _measure() -> dict:
    domain = AsyncDomain()
    ws = await domain.create_host("ws")
    fs_host = await domain.create_host("fs")
    fileserver = VFileServer(user="mann")
    fs_pid = fs_host.spawn(fileserver.body(), "fileserver")
    prefix = ContextPrefixServer(user="mann")
    prefix_pid = ws.spawn(prefix.body(), "prefix")
    await asyncio.sleep(0.05)
    prefix.define_prefix("home",
                         ContextPair(fs_pid, int(WellKnownContext.HOME)))
    session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                      prefix_pid, STANDARD_3MBIT)
    done = asyncio.Event()
    results: dict = {}
    loop = asyncio.get_running_loop()

    def client():
        yield from files.write_file(session, "bench.dat", b"x" * 2048)
        t0 = loop.time()
        for __ in range(ROUNDS):
            stream = yield from session.open("bench.dat", "r")
            yield from stream.close()
        t1 = loop.time()
        for __ in range(ROUNDS):
            stream = yield from session.open("[home]bench.dat", "r")
            yield from stream.close()
        t2 = loop.time()
        for __ in range(ROUNDS):
            yield from files.read_file(session, "bench.dat")
        t3 = loop.time()
        results["open_direct_ms"] = (t1 - t0) / ROUNDS * 1e3
        results["open_prefix_ms"] = (t2 - t1) / ROUNDS * 1e3
        results["read_2k_ms"] = (t3 - t2) / ROUNDS * 1e3
        done.set()

    ws.spawn(client(), "bench-client")
    await asyncio.wait_for(done.wait(), 60)
    domain.check_healthy()
    await domain.shutdown()
    return results


def test_udp_transport_roundtrips(benchmark):
    results = benchmark.pedantic(lambda: asyncio.run(_measure()),
                                 rounds=3, iterations=1)
    report_table(
        "UDP  Real-socket transport (loopback wall-clock; implementation "
        "benchmark, not a paper figure)",
        [
            ("open, direct", results["open_direct_ms"]),
            ("open, via prefix server (forwarded)", results["open_prefix_ms"]),
            ("open+read 2 KB+close", results["read_2k_ms"]),
        ],
        headers=("operation", "wall ms"),
    )
    # Sanity: sockets work and the prefix path costs more than direct.
    assert results["open_direct_ms"] < 50
    assert results["open_prefix_ms"] > results["open_direct_ms"] * 0.8
