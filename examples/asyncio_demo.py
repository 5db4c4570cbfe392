"""The same servers over real UDP sockets.

Everything else in this repository runs on the discrete-event simulator;
this example runs the *identical* server code -- file server, context prefix
server -- over loopback datagrams with the binary wire encoding
(:mod:`repro.net.wire`).  It is the proof that the name-handling protocol is
a real message protocol, not a simulation artifact.

Run:  python examples/asyncio_demo.py
"""

import asyncio
import time

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.net.asyncio_transport import AsyncDomain
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers.fileserver.server import VFileServer


async def main() -> None:
    domain = AsyncDomain()
    ws = await domain.create_host("workstation")
    fs_host = await domain.create_host("fileserver-host")
    print(f"workstation UDP endpoint : {ws.address}")
    print(f"file server UDP endpoint : {fs_host.address}")

    fileserver = VFileServer(user="mann")
    fs_pid = fs_host.spawn(fileserver.body(), "fileserver")
    prefix = ContextPrefixServer(user="mann")
    prefix_pid = ws.spawn(prefix.body(), "prefix-server")
    await asyncio.sleep(0.05)
    prefix.define_prefix("home",
                         ContextPair(fs_pid, int(WellKnownContext.HOME)))

    done = asyncio.Event()

    def program():
        session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                          prefix_pid)
        yield from files.write_file(session, "[home]socket.txt",
                                    b"carried by real datagrams")
        content = yield from files.read_file(session, "socket.txt")
        print(f"read over UDP: {content.decode()!r}")
        records = yield from session.list_directory(".")
        print(f"directory over UDP: {[r.name for r in records]}")
        done.set()

    started = time.perf_counter()
    ws.spawn(program(), "program")
    await asyncio.wait_for(done.wait(), timeout=10)
    elapsed = (time.perf_counter() - started) * 1e3
    domain.check_healthy()
    await domain.shutdown()
    print(f"wall-clock time over loopback: {elapsed:.1f} ms")


if __name__ == "__main__":
    asyncio.run(main())
