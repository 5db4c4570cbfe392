"""E14: lossy-wire resilience -- resolution success and latency vs frame loss.

The paper's numbers are measured on a healthy, uncontended Ethernet; the
kernel nevertheless carries a reliability protocol (probes, and here the
retransmission timer with receiver-side duplicate suppression) precisely so
that naming keeps *working* when the wire is not healthy.  E14 prices that
protocol:

- **loss sweep**: open a ``[home]`` name through the full prefix-server
  path while the wire drops 0-20% of frames.  With retransmission on, the
  success rate stays at ~100% and the latency tail grows gracefully (each
  recovery costs one backoff interval); with it off, every lost frame in
  the chain surfaces as a 400 ms probe TIMEOUT, and resolution fails
  outright once the bounded resolver retries are spent.
- **zero-loss identity**: installing the fault machinery with all rates at
  zero changes *nothing* -- the E1 remote transaction, the E4 remote
  via-prefix open, and the E12 warm cached open are bit-identical floats
  with and without the fault model on the wire, and still match the paper.

Run with ``--benchmark-disable`` for a fast correctness pass (CI does).
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.kernel.config import DEFAULT_CONFIG, KernelConfig
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from repro.net.latency import LOSSLESS_WIRE, WireFaultModel
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server

#: Frame loss rates swept (fraction of frames dropped, per destination).
LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)

#: Opens measured per loss rate.
ROUNDS = 100

#: Paper values the zero-loss identity is checked against (ms).
PAPER_E1_REMOTE_MS = 2.56
PAPER_E4_REMOTE_PREFIX_MS = 7.69
PAPER_E12_WARM_MS = 3.70


def _percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _lossy_system(drop_rate: float, config: KernelConfig, seed: int = 3):
    """Workstation + remote file server; ``drop_rate`` on the wire."""
    domain = Domain(seed=seed, config=config)
    workstation = setup_workstation(domain, "mann")
    fs_host = domain.create_host("vax1")
    handle = start_server(fs_host, VFileServer(user="mann"))
    standard_prefixes(workstation, handle)

    def seed_file(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)

    run_on(domain, workstation.host, seed_file(workstation.session()),
           name="seed")
    if drop_rate > 0.0:
        domain.set_wire_faults(WireFaultModel(drop_rate=drop_rate))
    return domain, workstation


def measure_loss_point(drop_rate: float, config: KernelConfig,
                       rounds: int = ROUNDS) -> dict:
    """Success rate and open-latency percentiles at one loss rate."""
    from repro.core.resolver import NameError_
    from repro.vio.client import IoError

    domain, workstation = _lossy_system(drop_rate, config)
    latencies_ms: list[float] = []
    outcomes = {"ok": 0, "failed": 0}

    def client(session):
        for __ in range(rounds):
            t0 = yield Now()
            try:
                stream = yield from session.open("[home]naming.mss", "r")
                yield from stream.close()
            except (NameError_, IoError):
                outcomes["failed"] += 1
            else:
                outcomes["ok"] += 1
                t1 = yield Now()
                latencies_ms.append((t1 - t0) * 1e3)
            yield Delay(0.005)

    run_on(domain, workstation.host, client(workstation.session()))
    return {
        "drop_rate": drop_rate,
        "ok": outcomes["ok"],
        "failed": outcomes["failed"],
        "success_rate": outcomes["ok"] / rounds,
        "p50_ms": _percentile(latencies_ms, 0.50),
        "p99_ms": _percentile(latencies_ms, 0.99),
        "retransmits": domain.metrics.count("ipc.retransmits"),
        "drops": domain.metrics.count("net.drops"),
    }


def test_e14_loss_sweep(benchmark):
    """Success rate and latency tail vs loss rate, retransmission on."""
    results = benchmark(lambda: [measure_loss_point(rate, DEFAULT_CONFIG)
                                 for rate in LOSS_RATES])
    report_table(
        "E14  [home] open vs frame loss, retransmission on (100 opens/rate)",
        [(f"{row['drop_rate']:.0%}", f"{row['success_rate']:.0%}",
          row["p50_ms"], row["p99_ms"], row["retransmits"], row["drops"])
         for row in results],
        headers=("loss", "success", "p50 ms", "p99 ms",
                 "retransmits", "frames dropped"),
    )
    by_rate = {row["drop_rate"]: row for row in results}
    # Loss-free: nothing retransmitted, nothing dropped, nothing failed.
    assert by_rate[0.0]["success_rate"] == 1.0
    assert by_rate[0.0]["retransmits"] == 0
    assert by_rate[0.0]["drops"] == 0
    # The headline claim: >= 99% resolution success at 10% frame loss.
    assert by_rate[0.10]["success_rate"] >= 0.99
    assert by_rate[0.10]["retransmits"] > 0
    # The tail pays for recovery, the median barely moves: p50 within 2x of
    # clean, p99 bounded by a few backoff intervals.
    assert by_rate[0.10]["p50_ms"] < by_rate[0.0]["p50_ms"] * 2
    assert by_rate[0.20]["success_rate"] >= 0.95


def test_e14_retransmission_off_fails_measurably():
    """The control: same wire, fail-stop-only kernel."""
    off = KernelConfig(retransmit_enabled=False)
    row = measure_loss_point(0.10, off)
    on_row = measure_loss_point(0.10, DEFAULT_CONFIG)
    report_table(
        "E14b  10% loss: retransmission on vs off (100 opens)",
        [
            ("on", f"{on_row['success_rate']:.0%}", on_row["p50_ms"],
             on_row["p99_ms"], on_row["retransmits"]),
            ("off", f"{row['success_rate']:.0%}", row["p50_ms"],
             row["p99_ms"], row["retransmits"]),
        ],
        headers=("retransmission", "success", "p50 ms", "p99 ms",
                 "retransmits"),
    )
    assert row["retransmits"] == 0
    # Without retransmission, lost frames surface as failures (after the
    # resolver's bounded retries) and as 400 ms probe-timeout excursions in
    # the tail.  Either symptom is "measurable"; both usually show.
    assert (row["failed"] > 0 or row["p99_ms"] > 100.0)
    assert row["success_rate"] < on_row["success_rate"]


# ------------------------------------------------------- zero-loss identity


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _e1_remote_ms(install_null_faults: bool) -> float:
    domain = Domain()
    ws1 = domain.create_host("ws1")
    ws2 = domain.create_host("ws2")
    ws2.spawn(_echo_server(), "server")
    if install_null_faults:
        domain.set_wire_faults(LOSSLESS_WIRE)

    def client():
        yield Delay(0.01)
        pid = yield GetPid(1, Scope.ANY)
        t0 = yield Now()
        for __ in range(20):
            yield Send(pid, Message.request(0x0101))
        t1 = yield Now()
        return (t1 - t0) / 20

    return run_on(domain, ws1, client()) * 1e3


def _open_ms(install_null_faults: bool, cached: bool) -> float:
    domain = Domain(seed=3)
    workstation = setup_workstation(domain, "mann")
    fs_host = domain.create_host("vax1")
    handle = start_server(fs_host, VFileServer(user="mann"))
    standard_prefixes(workstation, handle)
    if cached:
        workstation.enable_name_cache()
    if install_null_faults:
        domain.set_wire_faults(LOSSLESS_WIRE)

    def client(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        # One warm-up open so the cached variant measures the warm path.
        stream = yield from session.open("[home]naming.mss", "r")
        yield from stream.close()
        t0 = yield Now()
        stream = yield from session.open("[home]naming.mss", "r")
        t1 = yield Now()
        yield from stream.close()
        return (t1 - t0) * 1e3

    return run_on(domain, workstation.host, client(workstation.session()))


def test_e14_zero_loss_is_bit_identical():
    """The reliability machinery is free when the wire is clean.

    E1 (remote transaction), E4 (remote via-prefix open), and E12 (warm
    cached open) produce *exactly* the same floats with a zero-rate fault
    model installed as with no fault model at all -- and still match the
    paper.  No timer fires, no rng stream is drawn, no frame is added.
    """
    e1_plain = _e1_remote_ms(False)
    e1_nulled = _e1_remote_ms(True)
    e4_plain = _open_ms(False, cached=False)
    e4_nulled = _open_ms(True, cached=False)
    e12_plain = _open_ms(False, cached=True)
    e12_nulled = _open_ms(True, cached=True)

    report_table(
        "E14c  zero-loss identity (must be exact)",
        [
            ("E1 remote txn", e1_plain, e1_nulled),
            ("E4 remote via-prefix open", e4_plain, e4_nulled),
            ("E12 warm cached open", e12_plain, e12_nulled),
        ],
        headers=("experiment", "no fault model (ms)", "null fault model (ms)"),
    )
    assert e1_plain == e1_nulled
    assert e4_plain == e4_nulled
    assert e12_plain == e12_nulled
    assert e1_plain == pytest.approx(PAPER_E1_REMOTE_MS, rel=0.01)
    # This open composes the stub path slightly differently from the E4/E12
    # benches (a seeding write and a warm-up open precede it), so the
    # comparison to the paper is a sanity band, not the headline assert --
    # bench_e4/bench_e12 own the tight reproductions.
    assert e4_plain == pytest.approx(PAPER_E4_REMOTE_PREFIX_MS, rel=0.02)
    assert e12_plain == pytest.approx(PAPER_E12_WARM_MS, rel=0.02)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Rounds are pinned at 100: success rate and percentiles are
    round-count-dependent.
    """
    lossy = measure_loss_point(0.10, DEFAULT_CONFIG)
    clean = measure_loss_point(0.0, DEFAULT_CONFIG)
    return {
        "loss10_success_rate": lossy["success_rate"],
        "loss10_p50_ms": lossy["p50_ms"],
        "loss10_p99_ms": lossy["p99_ms"],
        "loss10_retransmits": lossy["retransmits"],
        "clean_p50_ms": clean["p50_ms"],
        "clean_retransmits": clean["retransmits"],
    }
