"""E2 (paper Sec. 3.1): program loading with MoveTo.

Paper: "Using MoveTo for program loading from a network file server into a
diskless SUN workstation (assuming the program text is already in the file
server's memory buffers), a 64 kilobyte program can be loaded in 338
milliseconds on the 3 megabit Ethernet.  This performance is within 13
percent of the maximum speed at which a SUN workstation can write packets
out to the network when there is no protocol overhead."

Reproduced: end-to-end LOAD_PROGRAM through the naming protocol and the
file server, across a size sweep, plus the raw packet-write bound ratio.
"""

import pytest

from conftest import report_table
from _common import run_on, standard_system

from repro.kernel.ipc import Now
from repro.runtime import files
from repro.runtime.program import load_program

PAPER_64KB_MS = 338.0
PAPER_OVERHEAD_RATIO = 1.13


def measure_load(size_bytes: int) -> float:
    domain, workstation, fs = standard_system()
    image = b"\x90" * size_bytes

    def client(session):
        yield from files.write_file(session, "[bin]prog", image)
        t0 = yield Now()
        loaded = yield from load_program(session, "[bin]prog")
        t1 = yield Now()
        assert len(loaded) == size_bytes
        return t1 - t0

    return run_on(domain, workstation.host,
                  client(workstation.session())) * 1e3


def test_e2_program_load(benchmark):
    measured_64k = benchmark(measure_load, 64 * 1024)

    from repro.net.latency import STANDARD_3MBIT

    rows = []
    for kib in (8, 16, 32, 64, 128):
        measured = measure_load(kib * 1024)
        bulk = STANDARD_3MBIT.bulk_move_remote(kib * 1024) * 1e3
        raw = STANDARD_3MBIT.bulk_move_raw(kib * 1024) * 1e3
        paper = PAPER_64KB_MS if kib == 64 else "(n/a)"
        rows.append((f"{kib} KB", paper, measured, measured / raw))
    report_table(
        "E2  Program load via MoveTo (Sec. 3.1)",
        rows,
        headers=("image size", "paper ms", "measured ms", "vs raw bound"),
    )

    # The bulk move itself is the paper's 338 ms; end-to-end adds ~15 ms of
    # naming (a size query and the load request, each via the prefix
    # server), so allow that overhead on top.
    assert STANDARD_3MBIT.bulk_move_remote(64 * 1024) * 1e3 == pytest.approx(
        PAPER_64KB_MS, rel=0.005)
    assert measured_64k == pytest.approx(PAPER_64KB_MS, rel=0.06)
    assert measured_64k > PAPER_64KB_MS  # overhead, never a discount
    # Shape: the bulk portion sits 13% above the raw packet-write bound.
    bulk = STANDARD_3MBIT.bulk_move_remote(64 * 1024)
    raw = STANDARD_3MBIT.bulk_move_raw(64 * 1024)
    assert bulk / raw == pytest.approx(PAPER_OVERHEAD_RATIO, rel=0.001)


def test_e2_load_scales_linearly(benchmark):
    def sweep():
        return [measure_load(kib * 1024) for kib in (16, 32, 64)]

    t16, t32, t64 = benchmark(sweep)
    # Doubling the image roughly doubles the time (fixed naming overhead
    # shrinks relative to the move).
    assert t32 / t16 == pytest.approx(2.0, rel=0.15)
    assert t64 / t32 == pytest.approx(2.0, rel=0.10)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    return {"load_64k_ms": measure_load(64 * 1024),
            "load_16k_ms": measure_load(16 * 1024)}
