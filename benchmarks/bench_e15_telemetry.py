"""E15: continuous telemetry -- watchdog cycles and the cost of watching.

PR 6's telemetry collector samples every host's counters into ring-buffer
time series on the simulated clock and evaluates SLO watchdog rules at each
tick, serving both through the ``[obs]`` name space.  This experiment
prices and pins that machinery:

- **watchdog cycle**: the seeded E14 chaos run with watchdogs armed fires
  the retransmission-rate alert during the loss phase and resolves it on
  the healed wire, and every alert record survives the trip back through
  ``[obs]/fleet/alerts`` -- deterministic counts, tracked by the
  trajectory;
- **series read latency**: pulling a ring buffer over the full forwarding
  chain (``[obs]/hosts/vax1/timeseries/retransmits``) is priced like any
  resolution plus block reads;
- **zero simulated perturbation**: with the collector ticking at 20 Hz,
  E4's remote via-prefix open still measures the paper's 7.69 ms --
  sampling charges no simulated time to the observed system;
- **instrumentation overhead (wall)**: the per-transaction latency hook is
  the telemetry feature the kernel pays for even between ticks.  Comparing
  wall time of an E1/E7-style open workload with telemetry off vs armed
  with an interval longer than the run (pure hook cost, no sampling)
  bounds the overhead at 2%.
"""

import time

import pytest

from conftest import report_table
from _common import run_on, standard_system

from repro.kernel.ipc import Now
from repro.obs import Observability
from repro.runtime import files

#: E4's remote via-prefix open (ms, simulated) -- must survive telemetry.
E4_REMOTE_VIA_PREFIX = 7.69

ROUNDS = 5

#: Longer than any simulated run here: with this interval the collector
#: never ticks mid-workload, so only the per-transaction hook runs.
HOOK_ONLY_INTERVAL = 3600.0


# ----------------------------------------------------------- watchdog cycle


def measure_watchdog_cycle() -> dict:
    """The E14 chaos run with watchdogs armed: fire/resolve/delivery counts."""
    from repro.faults.chaos import run_chaos

    report = run_chaos(seed=7, duration=5.0, drop=0.10, watchdogs=True)
    return {
        "fired": report.alerts["fired"],
        "resolved": report.alerts["resolved"],
        "delivered": report.alerts["delivered"],
        "retransmits": report.metrics["ipc.retransmits"],
        "success_rate": report.success_rate,
    }


def test_e15_watchdog_fire_resolve_cycle(benchmark):
    cycle = benchmark(measure_watchdog_cycle)
    report_table(
        "E15  SLO watchdogs over the E14 chaos run (seed 7, 10% loss)",
        [("alerts fired", cycle["fired"]),
         ("alerts resolved", cycle["resolved"]),
         ("alert records via [obs]/fleet/alerts", cycle["delivered"]),
         ("ipc.retransmits", cycle["retransmits"])],
        headers=("quantity", "count"),
    )
    # The loss phase must trip the retransmission-rate rule, the healed
    # wire must clear it, and the protocol read must return every record.
    assert cycle["fired"] >= 1
    assert cycle["resolved"] >= 1
    assert cycle["delivered"] == cycle["fired"] + cycle["resolved"]


# ------------------------------------------------------- series read latency


def _telemetry_system(interval: float = 0.05):
    from repro.servers.statserver import enable_obs_namespace

    domain, workstation, handle = standard_system()
    enable_obs_namespace(domain, root_host=workstation.host)
    telemetry = domain.enable_telemetry(interval=interval)
    return domain, workstation, telemetry


def _timed_read(session, name):
    t0 = yield Now()
    data = yield from session.read_file(name)
    t1 = yield Now()
    return (t1 - t0) * 1e3, len(data)


def measure_series_read_latency() -> dict:
    """Mean ms to pull a populated ring buffer / the alert log via [obs]."""
    domain, workstation, __ = _telemetry_system()

    def workload(session):
        from repro.kernel.ipc import Delay

        yield from files.write_file(session, "[home]f.txt", b"x" * 64)
        for __ in range(20):
            yield from files.read_file(session, "[home]f.txt")
            yield Delay(0.05)

    run_on(domain, workstation.host, workload(workstation.session()),
           name="workload")

    def reader(session):
        results = {}
        for label, name in (
                ("timeseries", "[obs]/hosts/vax1/timeseries/retransmits"),
                ("alerts", "[obs]/fleet/alerts")):
            total = 0.0
            size = 0
            for __ in range(ROUNDS):
                ms, nbytes = yield from _timed_read(session, name)
                total += ms
                size = nbytes
            results[label] = {"ms": total / ROUNDS, "bytes": size}
        return results

    return run_on(domain, workstation.host, reader(workstation.session()),
                  name="reader")


def test_e15_series_read_latency(benchmark):
    results = benchmark(measure_series_read_latency)
    report_table(
        "E15b  time-series reads through the forwarding chain",
        [(label, row["ms"], row["bytes"])
         for label, row in results.items()],
        headers=("target", "measured ms", "payload bytes"),
    )
    # A remote ring-buffer read crosses the wire per block on top of the
    # three-hop resolution; it can never undercut E4's via-prefix open.
    assert results["timeseries"]["ms"] > E4_REMOTE_VIA_PREFIX
    assert results["timeseries"]["bytes"] > 0
    assert results["alerts"]["bytes"] > 0


# ------------------------------------------------------- zero perturbation


def measure_open_with_telemetry() -> float:
    """E4's remote via-prefix open with the collector sampling at 20 Hz."""
    domain, workstation, __ = _telemetry_system(interval=0.05)

    def client(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        total = 0.0
        for __ in range(ROUNDS):
            t0 = yield Now()
            stream = yield from session.open("[home]naming.mss", "r")
            t1 = yield Now()
            yield from stream.close()
            total += (t1 - t0) * 1e3
        return total / ROUNDS

    return run_on(domain, workstation.host, client(workstation.session()))


def test_e15_sampling_does_not_perturb_opens(benchmark):
    measured = benchmark(measure_open_with_telemetry)
    report_table(
        "E15c  E4 remote via-prefix open with telemetry sampling at 20 Hz",
        [("paper", E4_REMOTE_VIA_PREFIX), ("measured", measured)],
        headers=("source", "ms"),
    )
    assert measured == pytest.approx(E4_REMOTE_VIA_PREFIX, rel=0.02)


# -------------------------------------------------- instrumentation overhead


def _open_workload(telemetry: bool, reads: int = 200) -> float:
    """Wall seconds for an E1/E7-style read loop, telemetry off or armed."""
    start = time.perf_counter()
    domain, workstation, __ = standard_system()
    if telemetry:
        domain.enable_telemetry(interval=HOOK_ONLY_INTERVAL)

    def client(session):
        yield from files.write_file(session, "[home]f.txt", b"x" * 64)
        for __ in range(reads):
            yield from files.read_file(session, "[home]f.txt")

    run_on(domain, workstation.host, client(workstation.session()))
    return time.perf_counter() - start


def measure_hook_overhead(rounds: int = 5) -> dict:
    """Best-of-``rounds`` wall time, off vs hook-only, interleaved.

    Interleaving (off, on, off, on, ...) keeps cache/frequency drift from
    biasing one side; best-of filters scheduler noise.
    """
    best = {False: float("inf"), True: float("inf")}
    for __ in range(rounds):
        for armed in (False, True):
            best[armed] = min(best[armed], _open_workload(armed))
    return {
        "off_s": best[False],
        "on_s": best[True],
        "overhead": best[True] / best[False] - 1.0,
    }


def test_e15_hook_overhead_bounded():
    result = measure_hook_overhead()
    report_table(
        "E15d  per-transaction hook cost: telemetry off vs armed "
        "(interval > run, so no sampling ticks)",
        [("telemetry off", result["off_s"] * 1e3),
         ("hook only", result["on_s"] * 1e3),
         ("overhead", result["overhead"] * 100)],
        headers=("configuration", "wall ms / %"),
    )
    assert result["overhead"] <= 0.02, (
        f"telemetry hook costs {result['overhead']:.1%} wall time "
        f"(budget 2%)")


MATRIX_MODES = ("baseline", "profiler", "telemetry", "traced")


def _matrix_run(mode: str, prepare=None):
    """One seeded read workload under ``mode``; returns its domain.

    ``prepare(domain)`` runs once the system and its instrument are up,
    just before the client starts (the counted pass hooks the engine there).
    """
    from repro.kernel.domain import Domain
    from repro.runtime.workstation import setup_workstation, standard_prefixes
    from repro.servers.base import start_server
    from repro.servers.fileserver.server import VFileServer

    obs = Observability() if mode == "traced" else None
    domain = Domain(obs=obs)
    workstation = setup_workstation(domain, "mann")
    handle = start_server(domain.create_host("vax1"),
                          VFileServer(user="mann"))
    standard_prefixes(workstation, handle)
    if mode == "profiler":
        domain.enable_profiler()
    elif mode == "telemetry":
        domain.enable_telemetry(interval=0.05)
    if prepare is not None:
        prepare(domain)

    def client(session):
        yield from files.write_file(session, "[home]f.txt", b"x" * 64)
        for __ in range(100):
            yield from files.read_file(session, "[home]f.txt")

    run_on(domain, workstation.host, client(workstation.session()))
    return domain


def measure_instrumentation_matrix() -> dict:
    """Wall seconds of one workload under each instrumentation mode."""
    def run_mode(mode: str) -> float:
        start = time.perf_counter()
        _matrix_run(mode)
        return time.perf_counter() - start

    return {mode: run_mode(mode) for mode in MATRIX_MODES}


def measure_instrumentation_counts() -> dict:
    """What each mode does to the event stream, counted (untimed pass).

    Per mode: events fired (the engine's own count and the process-wide
    ``Engine.total_events`` delta), telemetry ticks, final simulated time,
    ``schedule*`` calls made and :class:`ScheduledEvent` objects built.
    """
    from repro.sim.engine import Engine, ScheduledEvent

    def run_mode(mode: str) -> dict:
        counts = {"scheduled": 0}
        hooked = []

        def hook_engine(domain):
            hooked.append(domain.engine)
            del allocated[:]        # count the workload, not the set-up

        def counted(method):
            def call(self, *args):
                if hooked and self is hooked[0]:
                    counts["scheduled"] += 1
                return method(self, *args)
            return call

        allocated = []
        init = ScheduledEvent.__init__
        schedule, schedule_at = Engine.schedule, Engine.schedule_at

        def counting_init(self, *args, **kwargs):
            allocated.append(None)
            init(self, *args, **kwargs)

        total_before = Engine.total_events
        ScheduledEvent.__init__ = counting_init
        Engine.schedule = counted(schedule)
        Engine.schedule_at = counted(schedule_at)
        try:
            domain = _matrix_run(mode, prepare=hook_engine)
        finally:
            ScheduledEvent.__init__ = init
            Engine.schedule, Engine.schedule_at = schedule, schedule_at
        counts["allocated"] = len(allocated)
        counts["events"] = domain.engine.events_processed
        counts["total_events"] = Engine.total_events - total_before
        counts["ticks"] = (domain.telemetry.ticks
                           if domain.telemetry is not None else 0)
        counts["sim_end"] = domain.now
        return counts

    return {mode: run_mode(mode) for mode in MATRIX_MODES}


def test_e15_instrumentation_matrix():
    matrix = measure_instrumentation_matrix()
    report_table(
        "E15e  instrumentation overhead matrix (one seeded workload)",
        [(mode, seconds * 1e3) for mode, seconds in matrix.items()],
        headers=("mode", "wall ms"),
    )
    # Wall numbers are the printed table; what is gated is deterministic.
    counts = measure_instrumentation_counts()
    baseline = counts["baseline"]
    assert baseline["events"] > 1000
    for mode, row in counts.items():
        # Every loop variant keeps both event counters exact.
        assert row["events"] == row["total_events"], mode
        # An observer adds no events of its own except the sampling tick.
        assert row["events"] - row["ticks"] == baseline["events"], mode
    for mode in ("profiler", "traced"):
        assert counts[mode]["sim_end"] == baseline["sim_end"], mode
    # Attribution rides in the heap entries: under the profiler an event
    # object is built per cancellable schedule*, never per post.
    profiler = counts["profiler"]
    assert profiler["allocated"] == profiler["scheduled"]
    assert profiler["scheduled"] == baseline["scheduled"]
    assert profiler["allocated"] < profiler["events"] // 2


# --------------------------------------------------------------- trajectory


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    cycle = measure_watchdog_cycle()
    reads = measure_series_read_latency()
    return {
        "watchdog_fired": cycle["fired"],
        "watchdog_resolved": cycle["resolved"],
        "alerts_delivered": cycle["delivered"],
        "timeseries_read_ms": reads["timeseries"]["ms"],
        "alerts_read_ms": reads["alerts"]["ms"],
        "open_with_telemetry_ms": measure_open_with_telemetry(),
    }
