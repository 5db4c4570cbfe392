"""E1 (paper Sec. 3.1, Figure 1): the Send-Receive-Reply transaction.

Paper: "The time for a Send-Receive-Reply sequence using 32-byte messages
between two processes on separate 10 MHz SUN workstations connected by a
3 Mbit Ethernet is 2.56 milliseconds."

Reproduced: remote and local transactions measured through the live kernel,
plus the 10 Mbit variant showing the CPU-dominance the V authors reported.
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from repro.net.latency import STANDARD_3MBIT, STANDARD_10MBIT

PAPER_REMOTE_MS = 2.56
PAPER_LOCAL_MS = 0.77  # the SOSP'83 local figure the paper builds on

ROUNDS = 50


def echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def measure_transactions(latency, remote: bool, rounds: int = ROUNDS) -> float:
    domain = Domain(latency=latency)
    client_host = domain.create_host("ws1")
    server_host = domain.create_host("ws2") if remote else client_host
    server_host.spawn(echo_server(), "server")

    def client():
        yield Delay(0.01)
        pid = yield GetPid(1, Scope.ANY)
        assert pid is not None
        t0 = yield Now()
        for __ in range(rounds):
            yield Send(pid, Message.request(0x0101))
        t1 = yield Now()
        return (t1 - t0) / rounds

    return run_on(domain, client_host, client()) * 1e3


def test_e1_send_receive_reply(benchmark):
    remote_ms = benchmark(measure_transactions, STANDARD_3MBIT, True)
    local_ms = measure_transactions(STANDARD_3MBIT, False)
    fast_ms = measure_transactions(STANDARD_10MBIT, True)

    report_table(
        "E1  Send-Receive-Reply, 32-byte messages (Sec. 3.1)",
        [
            ("remote, 3 Mbit", PAPER_REMOTE_MS, remote_ms),
            ("local", PAPER_LOCAL_MS, local_ms),
            ("remote, 10 Mbit", "(n/a)", fast_ms),
        ],
        headers=("configuration", "paper ms", "measured ms"),
    )

    assert remote_ms == pytest.approx(PAPER_REMOTE_MS, rel=0.01)
    assert local_ms == pytest.approx(PAPER_LOCAL_MS, rel=0.01)
    # Shape: the faster wire barely helps; software costs dominate.
    assert fast_ms > remote_ms * 0.85


def test_e1_message_size_sweep(benchmark):
    """Transaction cost vs appended-segment size: linear in wire bytes."""

    def sweep():
        results = []
        for segment in (0, 64, 256, 1024):
            domain = Domain()
            ws1 = domain.create_host("ws1")
            ws2 = domain.create_host("ws2")
            ws2.spawn(echo_server(), "server")

            def client(size=segment):
                yield Delay(0.01)
                pid = yield GetPid(1, Scope.ANY)
                t0 = yield Now()
                for __ in range(10):
                    yield Send(pid, Message.request(
                        0x0101, segment=b"x" * size))
                t1 = yield Now()
                return (t1 - t0) / 10

            results.append((segment, run_on(domain, ws1, client()) * 1e3))
        return results

    results = benchmark(sweep)
    report_table(
        "E1b  Transaction time vs appended segment size",
        [(f"{size} B segment", ms) for size, ms in results],
        headers=("request", "measured ms"),
    )
    times = [ms for __, ms in results]
    assert times == sorted(times)  # monotone in bytes
    wire_per_byte_ms = 8 / STANDARD_3MBIT.bandwidth_bps * 1e3
    expected_slope = (times[-1] - times[0]) / 1024
    assert expected_slope == pytest.approx(wire_per_byte_ms, rel=0.05)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    The round count is pinned at ROUNDS: the mean is over identical
    transactions, but summing a different number of them moves it in the
    last floating-point digits.
    """
    return {
        "remote_3mbit_ms": measure_transactions(STANDARD_3MBIT, True),
        "local_ms": measure_transactions(STANDARD_3MBIT, False),
        "remote_10mbit_ms": measure_transactions(STANDARD_10MBIT, True),
    }
