"""Order-equivalence of the slotted tuple-heap engine vs a reference.

The engine overhaul replaced per-event dataclass objects on the heap with
plain ``(time, seq, callback, args, event-or-None)`` tuples and
fire-and-forget ``post``/``post_at`` entries.  The contract is that none of
this is observable in simulated time: any program of schedule/post/cancel
operations fires in exactly the order the seed's dataclass-event engine
fired it.  This property test pits the real engine
against a deliberately naive reference (a list of event records scanned for
the ``(time, seq)`` minimum -- the seed semantics with none of the
machinery) across randomized programs heavy on simultaneous events, once
per event loop the engine can pick (fast, recording, profiled) and once as
a bounded run followed by an unbounded one.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError

#: Few distinct delays so simultaneous events (the order-sensitive case)
#: are common.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])


@dataclass
class _RefEvent:
    time: float
    seq: int
    label: int
    cancelled: bool = field(default=False, compare=False)


class _RefEngine:
    """Seed-style reference: dataclass events, no heap, O(n) extraction."""

    def __init__(self):
        self.events: list[_RefEvent] = []
        self.now = 0.0
        self._seq = 0

    def schedule(self, delay: float, label: int) -> _RefEvent:
        event = _RefEvent(self.now + delay, self._seq, label)
        self._seq += 1
        self.events.append(event)
        return event

    def run(self) -> list[int]:
        fired = []
        while True:
            live = [e for e in self.events if not e.cancelled]
            if not live:
                return fired
            head = min(live, key=lambda e: (e.time, e.seq))
            self.events.remove(head)
            self.now = head.time
            fired.append(head.label)


# One program step: schedule one event ("s") or post one ("p").  The
# reference models a post as a plain schedule -- that equality IS the
# documented contract.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("s"), _DELAYS),
        st.tuples(st.just("p"), _DELAYS),
    ),
    min_size=1, max_size=30)


def _echo_server():
    from repro.kernel.ipc import Receive, Reply, SetPid
    from repro.kernel.messages import Message, ReplyCode
    from repro.kernel.services import Scope

    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _flight_run(seed: int):
    """A fixed lossy workload flown with the recorder; returns the
    finalized recorder and the client's reply codes.

    Every flight-record field (engine seq, simulated time, packet kind,
    pids, txn id) must be a pure function of the seed, so this is the
    determinism contract of the whole forensic layer in one helper.  At
    15% drop a rare seed exhausts a Send's retransmissions; that outcome
    is recorded, not asserted away -- the properties compare recordings.
    """
    from repro.kernel.domain import Domain
    from repro.kernel.ipc import Delay, GetPid, Send
    from repro.kernel.messages import Message
    from repro.kernel.services import Scope
    from repro.net.latency import WireFaultModel
    from repro.obs.flight import enable_flight_recorder

    domain = Domain(seed=seed)
    recorder = enable_flight_recorder(domain, window=8)
    workstation = domain.create_host("ws")
    far = domain.create_host("far")
    far.spawn(_echo_server(), "server")
    domain.set_wire_faults(WireFaultModel(drop_rate=0.15, dup_rate=0.05))
    outcomes = []

    def client():
        yield Delay(0.01)
        # Under heavy loss GetPid's bounded re-broadcast can come up
        # empty; keep asking (deterministically) until the server is found.
        pid = None
        while pid is None:
            pid = yield GetPid(1, Scope.ANY)
            if pid is None:
                yield Delay(0.05)
        for __ in range(25):
            reply = yield Send(pid, Message.request(0x0101))
            outcomes.append(reply.reply_code)

    workstation.spawn(client(), name="client")
    domain.run()
    domain.check_healthy()
    recorder.finalize()
    return recorder, outcomes


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=886)  # one Send runs out of retransmissions: TIMEOUT, recorded
def test_flight_digest_chain_is_pure_function_of_seed(seed):
    from repro.obs.flight import compare

    first, first_outcomes = _flight_run(seed)
    second, second_outcomes = _flight_run(seed)
    assert len(first_outcomes) == 25 and first_outcomes == second_outcomes
    assert first.chains() == second.chains()
    assert ({h: first.records(h) for h in first.hosts()}
            == {h: second.records(h) for h in second.hosts()})
    assert compare(first, second)["identical"]


@settings(max_examples=15, deadline=None)
@given(pair=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
       .filter(lambda p: p[0] != p[1]))
def test_flight_chains_fork_at_recorded_event_across_seeds(pair):
    from repro.obs.flight import compare, record_divergence

    first, __ = _flight_run(pair[0])
    second, __ = _flight_run(pair[1])
    verdict = compare(first, second)
    if verdict["identical"]:
        # Two seeds colliding on the full timeline is astronomically rare
        # under 15% loss, but if it happens "identical" must be honest.
        assert first.chains() == second.chains()
        return
    fork = verdict["fork"]
    assert fork is not None
    # The verdict's fork must be the lowest-seq first-divergent record
    # across hosts; recompute it naively from the raw streams.
    expected = None
    for host in set(first.hosts()) | set(second.hosts()):
        diverged = record_divergence(first.records(host),
                                     second.records(host))
        if diverged is None:
            continue
        __, rec_a, rec_b = diverged
        seq = min(r[0] for r in (rec_a, rec_b) if r is not None)
        if expected is None or seq < expected:
            expected = seq
    assert fork["seq"] == expected
    # The digest chain alone (no raw records needed) flags the fork host.
    assert not verdict["hosts"][fork["host"]]["chains_equal"]


#: Where the "split" variant stops its first run: one of the delays, so an
#: event due exactly at the horizon fires in the first run.
_SPLIT = 0.5


def _engine_for(mode: str) -> Engine:
    """An engine whose ``run`` picks the loop ``mode`` names."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.profile import Profiler

    engine = Engine()
    if mode == "profiled":
        engine.attach_profiler(Profiler())
        engine._attr_stack = ("phase:x",)   # so every post carries a stamp
    elif mode == "recording":
        engine.attach_recorder(FlightRecorder())
    return engine


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, cancel_picks=st.lists(st.integers(0, 10 ** 6), max_size=8))
def test_firing_order_matches_seed_reference(ops, cancel_picks):
    reference = _RefEngine()
    ref_handles = []        # the reference's cancellable events
    for label, (kind, delay) in enumerate(ops):
        event = reference.schedule(delay, label)
        if kind == "s":
            ref_handles.append(event)
        # a post is modelled as a plain schedule, just not cancellable
    for pick in cancel_picks:
        if ref_handles:
            ref_handles[pick % len(ref_handles)].cancelled = True
    live = [event for event in reference.events if not event.cancelled]
    due = sum(1 for event in live if event.time <= _SPLIT)
    expected = reference.run()

    # Every loop, and a bounded run followed by an unbounded one, must
    # fire the program in the reference order.
    for mode in ("fast", "profiled", "recording", "split"):
        engine = _engine_for(mode)
        fired: list[int] = []
        handles: list = []
        for label, (kind, delay) in enumerate(ops):
            if kind == "s":
                handles.append(engine.schedule(delay, fired.append, label))
            else:
                engine.post(delay, fired.append, label)
        for pick in cancel_picks:
            if handles:
                handles[pick % len(handles)].cancel()
        assert engine.pending == len(live), mode
        if mode == "split":
            engine.run(until=_SPLIT)
            assert fired == expected[:due]
            assert engine.pending == len(live) - due
            assert engine.now == _SPLIT
        engine.run()
        assert fired == expected, mode
        assert engine.events_processed == len(expected), mode
        assert engine.pending == 0, mode
        final = max(reference.now, _SPLIT) if mode == "split" else reference.now
        assert engine.now == final, mode


@pytest.mark.parametrize("mode", ["fast", "profiled", "recording"])
def test_max_events_leaves_the_unfired_entry_queued(mode):
    engine, fired = _engine_for(mode), []
    engine.post(0.1, fired.append, 0)
    engine.post(0.2, fired.append, 1)
    handle = engine.schedule(0.3, fired.append, 2)
    engine.post(0.4, fired.append, 3)
    with pytest.raises(SimulationError):
        engine.run(max_events=2)
    assert fired == [0, 1] and engine.events_processed == 2
    assert engine.now == 0.2 and engine.pending == 2
    # Put back still cancellable, and still counted when cancelled.
    handle.cancel()
    assert engine.pending == 1
    engine.run()
    assert fired == [0, 1, 3] and engine.events_processed == 3
    assert engine.now == 0.4


@pytest.mark.parametrize("inside_run", [False, True])
def test_last_profiler_detach_leaves_no_stamp_for_the_fast_loop(inside_run):
    engine, fired = _engine_for("profiled"), []
    profiler = engine._profilers[0]

    def stamped_in_queue():
        fired.append(any(entry[4].__class__ is tuple
                         for entry in engine._queue))

    for label in range(4):
        engine.post(0.1 * label, fired.append, label)
    engine.schedule(0.25, fired.append, "s")
    if inside_run:
        # Detached from a callback: the profiled loop keeps serving the
        # rest of this run, and must hand the fast loop a clean queue.
        engine.post(0.05, engine.detach_profiler, profiler)
        engine.run(until=0.15)
    else:
        engine.run(until=0.15)
        assert any(entry[4].__class__ is tuple for entry in engine._queue)
        engine.detach_profiler(profiler)
    assert not engine.profiling and engine._attr_stack == ()
    assert not any(entry[4].__class__ is tuple for entry in engine._queue)
    engine.post(0.0, stamped_in_queue)
    engine.post(0.3, stamped_in_queue)
    engine.run()
    assert fired == [0, 1, False, 2, "s", 3, False]
