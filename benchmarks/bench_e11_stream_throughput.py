"""E11 (paper Sec. 3.1): IPC as an adequate transport for streams.

Paper: "Streams can be implemented efficiently using the V IPC primitives
... This is comparable to the performance of highly tuned special-purpose
file access protocols.  With this performance, the V IPC facility is also
entirely adequate as a transport level for remote terminal access and file
transfer."

Reproduced: sequential stream throughput against the disk bound (the
adequacy claim quantified), a pipe stream, and bulk transfer utilization.
"""

import pytest

from conftest import report_table
from _common import run_on, standard_system

from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now
from repro.kernel.services import Scope, ServiceId
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.servers import PipeServer, start_server
from repro.servers.fileserver.disk import DiskModel
from repro.servers.pipeserver import drain_pipe, pipe_write
from repro.vio.client import read_block

PAGES = 64


def measure_file_throughput() -> tuple[float, float]:
    """(achieved KB/s, disk-bound KB/s) for a sequential remote read."""
    domain, workstation, fs = standard_system(
        disk=DiskModel(page_seconds=15e-3))
    content = b"t" * (512 * PAGES)

    def client(session):
        yield from files.write_file(session, "stream.dat", content)
        stream = yield from session.open("stream.dat", "r")
        t0 = yield Now()
        for block in range(PAGES):
            yield from read_block(stream.server, stream.instance, block)
        t1 = yield Now()
        return len(content) / (t1 - t0) / 1024

    achieved = run_on(domain, workstation.host, client(workstation.session()))
    disk_bound = 512 / 15e-3 / 1024
    return achieved, disk_bound


def measure_pipe_throughput() -> float:
    """KB/s through a same-host pipe (terminal-style stream traffic)."""
    domain = Domain()
    host = domain.create_host("ws")
    start_server(host, PipeServer())
    payload = b"p" * (16 * 1024)

    def client():
        yield Delay(0.01)
        pid = yield GetPid(int(ServiceId.PIPE), Scope.LOCAL)
        from repro.core.context import ContextPair
        from repro.core.resolver import NamingEnvironment
        from repro.runtime.session import Session

        session = Session(ContextPair(pid, 0), None, domain.latency)
        writer = yield from session.open("stream", "w")
        reader = yield from session.open("stream", "r")
        t0 = yield Now()
        yield from pipe_write(writer, payload)
        yield from writer.close()  # reader then sees EOF when drained
        data = yield from drain_pipe(reader)
        t1 = yield Now()
        assert data == payload
        return len(payload) / (t1 - t0) / 1024

    return run_on(domain, host, client())


def test_e11_stream_adequacy(benchmark):
    achieved, disk_bound = benchmark(measure_file_throughput)
    pipe_kbs = measure_pipe_throughput()
    bulk_kbs = (64 / (STANDARD_3MBIT.bulk_move_remote(64 * 1024)) )

    report_table(
        "E11  Stream transport adequacy (Sec. 3.1)",
        [
            ("remote file read (15 ms disk)", f"{achieved:.1f} KB/s",
             f"{achieved / disk_bound:.0%} of disk bound"),
            ("disk bound", f"{disk_bound:.1f} KB/s", "100%"),
            ("local pipe stream", f"{pipe_kbs:.1f} KB/s", "(no disk)"),
            ("bulk MoveTo transfer", f"{bulk_kbs:.1f} KB/s",
             "(file transfer)"),
        ],
        headers=("stream", "throughput", "note"),
    )

    # The adequacy claim: IPC streaming achieves >85% of what the disk
    # could ever deliver -- the protocol is not the bottleneck.
    assert achieved / disk_bound > 0.85
    # Pipes (no disk) run far faster than disk-bound file streams.
    assert pipe_kbs > achieved * 3


def test_e11_throughput_scales_with_disk(benchmark):
    """Halving disk time nearly halves stream time: the transport keeps up."""

    def run():
        periods = []
        for disk_ms in (15.0, 7.5):
            domain, workstation, fs = standard_system(
                disk=DiskModel(page_seconds=disk_ms * 1e-3))
            content = b"x" * (512 * 16)

            def client(session, label=disk_ms):
                yield from files.write_file(session, "d.dat", content)
                stream = yield from session.open("d.dat", "r")
                t0 = yield Now()
                for block in range(16):
                    yield from read_block(stream.server, stream.instance,
                                          block)
                t1 = yield Now()
                return (t1 - t0) / 16

            periods.append(run_on(domain, workstation.host,
                                  client(workstation.session())) * 1e3)
        return periods

    slow, fast = benchmark(run)
    assert fast < slow * 0.65


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    achieved, disk_bound = measure_file_throughput()
    return {
        "file_read_kbs": achieved,
        "disk_utilization_rate": achieved / disk_bound,
        "pipe_kbs": measure_pipe_throughput(),
    }
