"""E17: flight recorder -- forensic capture inside the observer budget.

PR 8's flight recorder feeds per-host ring buffers of compact flight
records from the kernel's Send/Reply/Forward/packet paths, sealing digest
windows into per-lane hash chains so two runs can be compared without
shipping either record stream.  This experiment prices and pins the
forensic layer:

- **black-box capture**: the seeded E14 chaos run flown with the recorder
  yields deterministic per-host record counts, digest windows, and exactly
  one postmortem (vax1's mid-run crash) -- pure functions of the seed,
  tracked by the trajectory;
- **zero perturbation**: the recorder-attached chaos run reports metrics
  *bit-identical* to the bare run's -- recording happens strictly off the
  simulated clock (the engine's recording dispatch only stamps
  ``_fire_seq``; nothing is scheduled, delayed, or reordered);
- **replay determinism**: re-running the scenario reproduces the digest
  chains exactly (the CI replay smoke), and bisecting a seed pair locates
  the first divergent event seq -- also deterministic, also tracked;
- **observer-effect (wall)**: the E15 budget discipline, applied the way
  E15 itself applied it -- the *always-on* layer is gated, the opt-in
  layer is priced.  The rolling digest chain (window sealing + hash) must
  stay inside the <= 2% budget; raw capture is a turn-on-when-debugging
  forensic tool whose per-record cost is pinned in absolute terms
  (CPython's interpreter floor for a six-field record site is ~0.5 us,
  which on a ~7 us/event simulator reads as a 4-6% wall cost while
  attached -- reported, not hidden behind a friendlier workload).
"""

import time

from conftest import report_table
from _common import run_on, standard_system

from repro.runtime import files

ROUNDS = 5

#: The pinned chaos scenario (E14's seed-7 run) every section reuses.
SCENARIO = dict(seed=7, duration=5.0, drop=0.10)

#: The seed pair the bisect determinism check forks on.
BISECT_SEEDS = (7, 8)


# ------------------------------------------------------------ black boxes


def measure_flight_chaos() -> dict:
    """The pinned chaos run flown with the recorder: capture accounting."""
    from repro.faults.chaos import run_chaos

    report = run_chaos(flight=True, **SCENARIO)
    hosts = report.flight["hosts"]
    return {
        "records_ws": hosts["ws-mann"]["records_seen"],
        "records_vax1": hosts["vax1"]["records_seen"],
        "windows": sum(entry["windows"] for entry in hosts.values()),
        "postmortems": sum(report.flight["postmortems"].values()),
        "success_rate": report.success_rate,
        "report": report,
    }


def test_e17_black_box_capture(benchmark):
    capture = benchmark(measure_flight_chaos)
    report_table(
        "E17  flight recorder over the E14 chaos run (seed 7, 10% loss)",
        [("ws-mann records", capture["records_ws"]),
         ("vax1 records", capture["records_vax1"]),
         ("digest windows sealed", capture["windows"]),
         ("postmortem dumps", capture["postmortems"])],
        headers=("quantity", "count"),
    )
    assert capture["records_ws"] > 0 and capture["records_vax1"] > 0
    assert capture["windows"] >= 1
    # The mid-run crash froze exactly one black box.
    assert capture["postmortems"] == 1


# -------------------------------------------------------- zero perturbation


def test_e17_recorder_leaves_the_run_bit_identical():
    from repro.faults.chaos import run_chaos

    bare = run_chaos(**SCENARIO)
    flown = run_chaos(flight=True, **SCENARIO)
    bare_doc = bare.to_dict()
    flown_doc = flown.to_dict()
    flown_doc.pop("flight")
    assert bare_doc == flown_doc, (
        "recorder-attached chaos run diverged from the bare run")


# ------------------------------------------------------- replay determinism


def measure_replay_determinism() -> dict:
    """Chains across a re-run, and the fork seq of the pinned seed pair."""
    from repro.obs.flight import compare
    from repro.obs.replay import replay

    first = replay(**SCENARIO)
    second = replay(**SCENARIO)
    verdict = compare(first, second)
    seed_a, seed_b = BISECT_SEEDS
    fork_verdict = compare(replay(**{**SCENARIO, "seed": seed_a}),
                           replay(**{**SCENARIO, "seed": seed_b}))
    return {
        "replay_identical": verdict["identical"],
        "fork_found": fork_verdict["fork"] is not None,
        "fork_seq": (fork_verdict["fork"] or {}).get("seq"),
    }


def test_e17_replay_reproduces_and_bisect_localizes():
    result = measure_replay_determinism()
    report_table(
        "E17b  replay determinism (seed 7 rerun; bisect seeds 7 vs 8)",
        [("rerun digest chains identical", result["replay_identical"]),
         ("seed fork located", result["fork_found"]),
         ("fork event seq", result["fork_seq"])],
        headers=("check", "value"),
    )
    assert result["replay_identical"]
    assert result["fork_found"] and result["fork_seq"] is not None


# ------------------------------------------------------- observer effect


#: Budget for the always-on digest layer (E15's observer-effect budget).
CHAIN_BUDGET = 0.02

#: Absolute ceiling on the per-record capture cost.  The record path is one
#: Python call (the kernel tap's ``FlightRecorder.on_event``), measured at
#: a few hundred ns; anything near a microsecond means more work crept in.
CAPTURE_CEILING_NS = 1000.0


def measure_capture_cost(records: int = 256 * 800, rounds: int = 3) -> dict:
    """Per-record cost of the recorder's two layers, microbenchmarked.

    - **capture**: one Send event through the recorder's kernel-tap
      subscriber (``on_event``: pick the fields, build the six-field
      tuple, append it to the lane tail) -- the cost a host pays the
      instant an IPC effect fires;
    - **chain**: seal the accumulated tail into digest windows
      (slice, incremental hash, chain append) -- the cost the engine's
      periodic ``flush`` amortises over every ``window`` records.

    Large ``records`` and best-of-``rounds`` make this stable on noisy
    boxes where workload-level wall ratios swing by several percent.
    """
    from types import SimpleNamespace

    from repro.kernel.messages import Message
    from repro.kernel.pids import Pid
    from repro.kernel.process import Transaction
    from repro.kernel.tap import SEND
    from repro.obs.flight import FlightRecorder

    engine = SimpleNamespace(_fire_seq=0, _now=0.001)
    host = SimpleNamespace(name="bench", engine=engine)
    sender = SimpleNamespace(pid=Pid(10))
    txn = Transaction(1, Pid(10), Pid(20), Message.request(1))
    capture_s = seal_s = float("inf")
    for __ in range(rounds):
        recorder = FlightRecorder(capacity=records, window=256)
        on_event = recorder.on_event
        start = time.perf_counter()
        for seq in range(records):
            engine._fire_seq = seq
            on_event(SEND, host, sender, txn)
        capture_s = min(capture_s, time.perf_counter() - start)
        start = time.perf_counter()
        recorder.flush()
        seal_s = min(seal_s, time.perf_counter() - start)
    return {
        "capture_ns": capture_s / records * 1e9,
        "seal_ns": seal_s / records * 1e9,
    }


def _open_workload(flight: bool, reads: int = 200) -> tuple:
    """(wall seconds, records captured) for an E1/E7-style read loop."""
    from repro.obs.flight import enable_flight_recorder

    start = time.perf_counter()
    domain, workstation, __ = standard_system()
    recorder = enable_flight_recorder(domain) if flight else None

    def client(session):
        yield from files.write_file(session, "[home]f.txt", b"x" * 64)
        for __ in range(reads):
            yield from files.read_file(session, "[home]f.txt")

    run_on(domain, workstation.host, client(workstation.session()))
    wall = time.perf_counter() - start
    records = 0
    if recorder is not None:
        recorder.finalize()
        records = sum(recorder.stats(name)["records_seen"]
                      for name in recorder.hosts())
    return wall, records


def measure_recorder_overhead(rounds: int = ROUNDS) -> dict:
    """Price both recorder layers against an open workload.

    The wall sides are interleaved best-of-``rounds`` (off, on, off, on,
    ...) so cache/frequency drift cannot bias one configuration -- E15's
    protocol.  The *gated* quantity is the digest chain's share of the
    bare run: per-record seal cost (microbenchmarked, stable) times the
    records this workload actually generates.  The *attached* column
    prices full capture -- every record site live -- which in pure
    CPython sits at the interpreter's ~0.5 us/record floor and is
    reported as-is rather than gated: the recorder is an opt-in forensic
    instrument (``--flight``), costless when detached (the engine only
    swaps its dispatch loop when a recorder attaches).
    """
    best = {False: float("inf"), True: float("inf")}
    records = 0
    for __ in range(rounds):
        for armed in (False, True):
            wall, captured = _open_workload(armed)
            best[armed] = min(best[armed], wall)
            records = max(records, captured)
    cost = measure_capture_cost()
    chain_s = cost["seal_ns"] * 1e-9 * records
    return {
        "off_s": best[False],
        "on_s": best[True],
        "records": records,
        "capture_ns": cost["capture_ns"],
        "seal_ns": cost["seal_ns"],
        "overhead": best[True] / best[False] - 1.0,
        "chain_overhead": chain_s / best[False],
    }


def test_e17_observer_effect_bounded():
    result = measure_recorder_overhead()
    report_table(
        "E17c  recorder observer effect (open workload, "
        f"{result['records']} records): always-on digest layer gated at "
        "the E15 budget, opt-in capture priced at the CPython floor",
        [("recorder off (wall ms)", result["off_s"] * 1e3),
         ("recorder attached (wall ms)", result["on_s"] * 1e3),
         ("attached overhead %  [reported]", result["overhead"] * 100),
         ("capture ns/record  [ceiling 1000]", result["capture_ns"]),
         ("digest seal ns/record", result["seal_ns"]),
         ("digest chain share %  [budget 2]",
          result["chain_overhead"] * 100)],
        headers=("quantity", "value"),
    )
    assert result["chain_overhead"] <= CHAIN_BUDGET, (
        f"digest chain costs {result['chain_overhead']:.2%} of the bare "
        f"run (budget {CHAIN_BUDGET:.0%})")
    assert result["capture_ns"] <= CAPTURE_CEILING_NS, (
        f"capture path costs {result['capture_ns']:.0f} ns/record "
        f"(ceiling {CAPTURE_CEILING_NS:.0f} ns -- a Python frame or dict "
        f"build crept into the record site)")


# --------------------------------------------------------------- trajectory


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    All counts here are pure functions of the pinned scenario seeds --
    capture accounting and the bisect fork seq must stay byte-identical
    across runs and machines.
    """
    capture = measure_flight_chaos()
    return {
        "flight_records_ws": capture["records_ws"],
        "flight_records_vax1": capture["records_vax1"],
        "flight_windows": capture["windows"],
        "flight_postmortems": capture["postmortems"],
        "bisect_fork_seq": measure_replay_determinism()["fork_seq"],
    }
