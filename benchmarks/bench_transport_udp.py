"""Implementation benchmark: the protocol over real UDP sockets.

Not a paper table -- the paper's numbers are hardware measurements our
simulator reproduces.  This measures the *implementation* on today's
loopback: wall-clock Open and read round-trips through the asyncio
transport, with the full protocol stack (prefix forwarding included).
Its role is regression tracking for the real-socket path.
"""

import asyncio
import statistics

import pytest

from conftest import report_table

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.net.asyncio_transport import AsyncDomain
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
                      prefix_pid)
    done = asyncio.Event()
    results: dict = {}
    loop = asyncio.get_running_loop()

    def median_ms(operation):
        """The median wall ms of ``ROUNDS`` runs of ``operation()``, each
        timed alone: one scheduler hiccup moves a mean, not a median."""
        times = []
        for __ in range(ROUNDS):
            start = loop.time()
            yield from operation()
            times.append((loop.time() - start) * 1e3)
        return statistics.median(times)

    def open_close(name):
        stream = yield from session.open(name, "r")
        yield from stream.close()

    def client():
        yield from files.write_file(session, "bench.dat", b"x" * 2048)
        results["open_direct_ms"] = yield from median_ms(
            lambda: open_close("bench.dat"))
        results["open_prefix_ms"] = yield from median_ms(
            lambda: open_close("[home]bench.dat"))
        results["read_2k_ms"] = yield from median_ms(
            lambda: files.read_file(session, "bench.dat"))
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
        headers=("operation", "wall ms, median"),
    )
    # Sanity: sockets work and the prefix path costs more than direct.  On
    # loopback it costs only 5-10 % more, so these compare medians.
    assert results["open_direct_ms"] < 50
    assert results["open_prefix_ms"] > results["open_direct_ms"] * 0.8
