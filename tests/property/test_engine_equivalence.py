"""Order-equivalence of the slotted tuple-heap engine vs a reference.

The engine overhaul replaced per-event dataclass objects on the heap with
plain ``(time, seq, callback, args, event-or-None)`` tuples and
fire-and-forget ``post``/``post_at`` entries.  The contract is that none of
this is observable in simulated time: any program of schedule/post/cancel
operations fires in exactly the order the seed's dataclass-event engine
fired it.  This property test pits the real engine
against a deliberately naive reference (a list of event records scanned for
the ``(time, seq)`` minimum -- the seed semantics with none of the
machinery) across randomized programs heavy on simultaneous events.
"""

from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

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


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, cancel_picks=st.lists(st.integers(0, 10 ** 6), max_size=8))
def test_firing_order_matches_seed_reference(ops, cancel_picks):
    engine = Engine()
    reference = _RefEngine()
    fired: list[int] = []
    handles: list = []      # cancellable handles, real engine
    ref_handles: list = []  # the same events in the reference
    label = 0
    for op in ops:
        if op[0] == "s":
            handles.append(engine.schedule(op[1], fired.append, label))
            ref_handles.append(reference.schedule(op[1], label))
        else:
            engine.post(op[1], fired.append, label)
            reference.schedule(op[1], label)  # not cancellable
        label += 1
    for pick in cancel_picks:
        if handles:
            index = pick % len(handles)
            handles[index].cancel()
            ref_handles[index].cancelled = True
    assert engine.pending == sum(
        1 for event in reference.events if not event.cancelled)
    expected = reference.run()
    engine.run()
    assert fired == expected
    assert engine.now == reference.now or not expected
    assert engine.events_processed == len(expected)
