"""Ablations of the design choices DESIGN.md calls out.

Not paper tables -- these vary one mechanism at a time to show *why* the
design is the way it is:

- A1: the Sec. 5.6 pattern-matching extension (server-side filtering vs
  shipping the whole directory);
- A2: the file server's post-reply read-ahead (the mechanism behind E3);
- A3: the fixed name-segment buffer size (what a bigger buffer would cost
  every remote CSname operation);
- A4: prefix-server parse CPU (1984's 3.5 ms vs a faster machine) -- the
  delta in E4 is almost entirely this constant.
"""

import pytest

from conftest import report_table
from _common import run_on, standard_system

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.ipc import Now
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.servers.fileserver.disk import DiskModel
from repro.vio.client import read_block


# ---------------------------------------------------------------- A1


def measure_listing(entries: int, pattern) -> tuple[float, int]:
    system_domain, workstation, fs = standard_system()

    def seed(session):
        yield from session.mkdir("box")
        for index in range(entries):
            suffix = "log" if index % 16 else "err"
            yield from session.create(f"box/f{index:03d}.{suffix}")

    run_on(system_domain, workstation.host, seed(workstation.session()),
           name="seed")
    before = system_domain.metrics.count("net.bytes")
    session = workstation.session()

    def client():
        t0 = yield Now()
        records = yield from session.list_directory("box", pattern=pattern)
        t1 = yield Now()
        return (t1 - t0) * 1e3, records

    elapsed, records = run_on(system_domain, workstation.host, client(),
                              name="lister")
    net_bytes = system_domain.metrics.count("net.bytes") - before
    return elapsed, net_bytes


def test_a1_pattern_matching_extension(benchmark):
    full_ms, full_bytes = benchmark(measure_listing, 128, None)
    filtered_ms, filtered_bytes = measure_listing(128, "*.err")

    report_table(
        "A1  Sec. 5.6 extension: pattern-matched context directories "
        "(128 objects, 8 matching)",
        [
            ("full directory", full_ms, full_bytes),
            ("pattern '*.err'", filtered_ms, filtered_bytes),
            ("saving", full_ms - filtered_ms, full_bytes - filtered_bytes),
        ],
        headers=("listing", "ms", "net bytes"),
    )
    assert filtered_ms < full_ms * 0.6
    assert filtered_bytes < full_bytes * 0.6


# ---------------------------------------------------------------- A2


def measure_stream(readahead: bool, pages: int = 24) -> float:
    domain = Domain()
    workstation = setup_workstation(domain, "mann")
    fs = start_server(domain.create_host("vax1"),
                      VFileServer(user="mann",
                                  disk=DiskModel(page_seconds=15e-3),
                                  readahead=readahead))
    standard_prefixes(workstation, fs)
    content = b"a" * (512 * pages)

    def client(session):
        yield from files.write_file(session, "s.dat", content)
        stream = yield from session.open("s.dat", "r")
        yield from read_block(stream.server, stream.instance, 0)
        t0 = yield Now()
        for block in range(1, pages):
            yield from read_block(stream.server, stream.instance, block)
        t1 = yield Now()
        return (t1 - t0) / (pages - 1)

    return run_on(domain, workstation.host,
                  client(workstation.session())) * 1e3


def test_a2_readahead_ablation(benchmark):
    with_ra = benchmark(measure_stream, True)
    without_ra = measure_stream(False)

    report_table(
        "A2  File server read-ahead ablation (sequential read, 15 ms disk)",
        [
            ("read-ahead ON (paper's 17.13)", with_ra),
            ("read-ahead OFF", without_ra),
            ("penalty", without_ra - with_ra),
        ],
        headers=("configuration", "ms/page"),
    )
    assert with_ra == pytest.approx(17.1, rel=0.02)
    # Without read-ahead every page pays disk + the full request/reply.
    assert without_ra == pytest.approx(15.0 + 3.93, rel=0.03)


# ---------------------------------------------------------------- A3


def test_a3_name_buffer_size(benchmark):
    """The 256-byte fixed name buffer: every remote CSname op carries it.

    The ablation evaluates the latency model at alternative buffer sizes
    (the constant is the calibrated wire payload; see latency.py).
    """

    def evaluate():
        rows = []
        for buffer in (64, 128, 256, 512, 1024):
            remote_open = (STANDARD_3MBIT.stub_pre
                           + STANDARD_3MBIT.remote_transaction(
                               request_segment=buffer)
                           + STANDARD_3MBIT.stub_post) * 1e3
            rows.append((buffer, remote_open))
        return rows

    rows = benchmark(evaluate)
    report_table(
        "A3  Remote Open vs fixed name-buffer size (paper uses 256 B)",
        [(f"{size} B", ms) for size, ms in rows],
        headers=("buffer", "remote open ms"),
    )
    as_dict = dict(rows)
    assert as_dict[256] == pytest.approx(3.70, rel=0.01)
    # A 1 KB buffer would cost every remote open ~2 ms more; 64 B would
    # save ~0.5 ms but cap path names absurdly.
    assert as_dict[1024] - as_dict[256] > 1.9
    assert as_dict[256] - as_dict[64] < 0.6


# ---------------------------------------------------------------- A4


def measure_prefix_delta(parse_cpu: float) -> float:
    domain = Domain()
    workstation = setup_workstation(domain, "mann")
    workstation.prefix_server.parse_cpu = parse_cpu
    fs = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
    standard_prefixes(workstation, fs)

    def client(session):
        yield from files.write_file(session, "[home]t.txt", b"x")
        t0 = yield Now()
        stream = yield from session.open("t.txt", "r")
        t1 = yield Now()
        yield from stream.close()
        t2 = yield Now()
        stream = yield from session.open("[home]t.txt", "r")
        t3 = yield Now()
        yield from stream.close()
        return ((t3 - t2) - (t1 - t0)) * 1e3

    return run_on(domain, workstation.host, client(workstation.session()))


def test_a4_prefix_cpu_sensitivity(benchmark):
    paper_cpu = STANDARD_3MBIT.prefix_server_cpu
    delta_1984 = benchmark(measure_prefix_delta, paper_cpu)
    delta_fast = measure_prefix_delta(paper_cpu / 10)
    delta_free = measure_prefix_delta(0.0)

    report_table(
        "A4  Prefix delta vs prefix-server parse CPU (E4's 3.94 ms "
        "dissected)",
        [
            ("10 MHz 68000 (paper)", paper_cpu * 1e3, delta_1984),
            ("10x faster CPU", paper_cpu / 10 * 1e3, delta_fast),
            ("free parsing (floor = 1 local hop)", 0.0, delta_free),
        ],
        headers=("machine", "parse CPU ms", "measured delta ms"),
    )
    assert delta_1984 == pytest.approx(3.93, rel=0.02)
    # The delta is essentially the parse CPU plus one 385 us local hop.
    assert delta_free == pytest.approx(0.385, rel=0.05)
    assert delta_fast == pytest.approx(paper_cpu / 10 * 1e3 + 0.385,
                                       rel=0.05)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    readahead_ms = measure_stream(True)
    prefix_delta_ms = measure_prefix_delta(STANDARD_3MBIT.prefix_server_cpu)
    full_ms, full_bytes = measure_listing(128, None)
    filtered_ms, filtered_bytes = measure_listing(128, "*.err")
    return {
        "readahead_ms": readahead_ms,
        "prefix_delta_ms": prefix_delta_ms,
        "no_readahead_ms": measure_stream(False),
        "full_listing_ms": full_ms,
        "filtered_listing_ms": filtered_ms,
        "full_listing_bytes": full_bytes,
        "filtered_listing_bytes": filtered_bytes,
    }
