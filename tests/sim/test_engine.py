"""Unit tests for the discrete-event engine."""

import pytest

from repro.obs.profile import Profiler
from repro.sim.engine import Engine, ScheduledEvent, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_advances_clock():
    engine = Engine()
    fired = []
    engine.schedule(0.5, fired.append, "a")
    engine.run()
    assert fired == ["a"]
    assert engine.now == 0.5


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(0.3, fired.append, "late")
    engine.schedule(0.1, fired.append, "early")
    engine.schedule(0.2, fired.append, "middle")
    engine.run()
    assert fired == ["early", "middle", "late"]


def test_simultaneous_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for label in ("first", "second", "third"):
        engine.schedule(1.0, fired.append, label)
    engine.run()
    assert fired == ["first", "second", "third"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(0.1, fired.append, "cancelled")
    engine.schedule(0.2, fired.append, "kept")
    event.cancel()
    engine.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(0.1, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_callbacks_can_schedule_more_events():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.schedule(0.1, chain, depth + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == pytest.approx(0.3)


def test_run_until_stops_clock_without_dropping_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(5.0, fired.append, "late")
    engine.run(until=2.0)
    assert fired == ["early"]
    assert engine.now == 2.0
    engine.run()
    assert fired == ["early", "late"]


def test_run_for_is_relative():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    engine.run_for(2.0)
    assert engine.now == 3.0


def test_max_events_guards_against_livelock():
    engine = Engine()

    def forever():
        engine.schedule(0.001, forever)

    engine.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=100)


def test_events_processed_counter():
    engine = Engine()
    for __ in range(5):
        engine.schedule(0.1, lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_pending_excludes_cancelled():
    engine = Engine()
    keep = engine.schedule(0.1, lambda: None)
    drop = engine.schedule(0.2, lambda: None)
    drop.cancel()
    assert engine.pending == 1
    keep.cancel()
    assert engine.pending == 0


def test_reentrant_run_rejected():
    engine = Engine()

    def nested():
        engine.run()

    engine.schedule(0.0, nested)
    with pytest.raises(SimulationError, match="re-entrant"):
        engine.run()


#: The queue size the heap compaction (removed) used to start at; these
#: tests keep their inputs, and now check that cancelled entries left in the
#: heap never fire, never count as pending and never disturb the order.
QUEUE = 64


class TestHeapCompaction:
    def test_compaction_triggers_when_cancelled_dominate(self):
        engine = Engine()
        events = [engine.schedule(1.0 + i * 0.001, lambda: None)
                  for i in range(QUEUE)]
        for event in events[: QUEUE // 2 + 1]:
            event.cancel()
        assert engine.pending == QUEUE // 2 - 1
        engine.run()
        assert engine.events_processed == QUEUE // 2 - 1

    def test_small_queues_never_compact(self):
        engine = Engine()
        events = [engine.schedule(1.0, lambda: None) for __ in range(10)]
        for event in events:
            event.cancel()
        assert engine.pending == 0
        engine.run()
        assert engine.events_processed == 0

    def test_pending_is_exact_across_compaction_and_run(self):
        engine = Engine()
        fired = []
        live, dead = [], []
        for i in range(200):
            event = engine.schedule(1.0 + i * 0.01, fired.append, i)
            (dead if i % 3 else live).append(event)
        for event in dead:
            event.cancel()
        assert engine.pending == len(live)
        engine.run()
        assert engine.pending == 0
        assert len(fired) == len(live)
        assert fired == sorted(fired)

    def test_cancel_after_fire_is_harmless(self):
        # A callback may hold a reference to an already-popped event (e.g. a
        # GetPid timeout cancelled by the response it provoked) -- the
        # engine must not count that cancel against the queue.
        engine = Engine()
        events = [engine.schedule(1.0 + i * 0.001, lambda: None)
                  for i in range(QUEUE * 2)]
        engine.run()
        for event in events:
            event.cancel()
        assert engine.pending == 0

    def test_compaction_preserves_firing_order(self):
        engine = Engine()
        fired = []
        events = [engine.schedule(1.0 + i * 0.001, fired.append, i)
                  for i in range(100)]
        for event in events[1::2]:
            event.cancel()
        events[0].cancel()
        engine.run()
        assert fired == [i for i in range(2, 100) if i % 2 == 0]


class TestPostFireAndForget:
    def test_post_fires_in_schedule_order(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "scheduled")
        engine.post(1.0, fired.append, "posted")
        engine.schedule(1.0, fired.append, "scheduled-2")
        engine.run()
        assert fired == ["scheduled", "posted", "scheduled-2"]

    def test_post_returns_no_handle(self):
        assert Engine().post(0.1, lambda: None) is None

    def test_post_at_absolute_time(self):
        engine = Engine()
        fired = []
        engine.post_at(2.0, fired.append, "late")
        engine.post_at(1.0, fired.append, "early")
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 2.0

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().post(-0.1, lambda: None)

    def test_post_at_in_the_past_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post_at(0.5, lambda: None)

    def test_post_counts_in_pending_and_processed(self):
        engine = Engine()
        for __ in range(3):
            engine.post(0.1, lambda: None)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0
        assert engine.events_processed == 3

    def test_posted_entries_survive_compaction(self, engine=None):
        # The loops skip cancelled entries by the event slot; posted entries
        # carry None there (their attribution stamp, under a profiler) and
        # must never be dropped.
        engine = engine or Engine()
        fired = []
        for i in range(QUEUE):
            engine.post(1.0 + i * 0.001, fired.append, i)
        events = [engine.schedule(2.0 + i * 0.001, fired.append, 1000 + i)
                  for i in range(QUEUE + 8)]
        for event in events:
            event.cancel()
        assert engine.pending == QUEUE
        engine.run()
        assert fired == list(range(QUEUE))


def test_run_until_drains_dead_heads_past_the_horizon():
    # A cancelled head beyond ``until`` must still be popped (and stop
    # counting as pending) before the horizon check, so an immediate
    # re-run never silently discards what pending reported.
    engine = Engine()
    dead = engine.schedule(5.0, lambda: None)
    dead.cancel()
    engine.run(until=2.0)
    assert engine.now == 2.0
    assert engine.pending == 0


def test_total_events_accumulates_across_engines():
    Engine.reset_total_events()
    first, second = Engine(), Engine()
    first.schedule(0.1, lambda: None)
    second.schedule(0.1, lambda: None)
    second.post(0.2, lambda: None)
    first.run()
    second.run()
    assert Engine.total_events == 3
    Engine.reset_total_events()
    assert Engine.total_events == 0


def _mixed_workload(engine, fired):
    """Posts, absolute posts and a self-reposting chain, interleaved."""
    def chain(remaining):
        fired.append(("chain", remaining))
        if remaining:
            engine.post(0.01, chain, remaining - 1)

    for i in range(20):
        engine.post(0.1 + i * 0.01, fired.append, ("post", i))
        engine.post_at(0.105 + i * 0.01, fired.append, ("at", i))
    engine.schedule(0.15, chain, 30)


class TestStampedPosts:
    """Under a profiler a posted entry carries its attribution stamp in the
    heap's event slot; only the profiled loop may ever read one."""

    def test_detach_with_stamped_posts_queued_matches_unprofiled_twin(self):
        twin, twin_fired = Engine(), []
        _mixed_workload(twin, twin_fired)
        twin.run(until=0.2)
        twin.run()

        engine, fired = Engine(), []
        profiler = Profiler()
        engine.attach_profiler(profiler)
        engine._attr_stack = ("phase:x",)
        _mixed_workload(engine, fired)
        engine.run(until=0.2)
        assert any(isinstance(entry[4], tuple) for entry in engine._queue)
        engine.detach_profiler(profiler)
        # Swept back to plain posts, so the fast loop can serve.
        assert not any(isinstance(entry[4], tuple) for entry in engine._queue)
        assert engine._attr_stack == ()
        engine.run()
        assert fired == twin_fired
        assert engine.events_processed == twin.events_processed
        assert engine.now == twin.now
        assert engine.pending == 0

    def test_stamped_posts_survive_compaction(self):
        engine = Engine()
        engine.attach_profiler(Profiler())
        engine._attr_stack = ("phase:x",)
        TestPostFireAndForget().test_posted_entries_survive_compaction(engine)

    def test_posts_allocate_no_event_but_schedules_stay_cancellable(
            self, monkeypatch):
        allocated = []
        init = ScheduledEvent.__init__

        def counting_init(self, *args, **kwargs):
            allocated.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScheduledEvent, "__init__", counting_init)
        engine, fired = Engine(), []
        engine.attach_profiler(Profiler())
        for i in range(10):
            engine.post(0.1, fired.append, ("post", i))
            engine.post_at(0.2, fired.append, ("at", i))
        assert allocated == []
        handles = [engine.schedule(0.3, fired.append, "schedule"),
                   engine.schedule_at(0.4, fired.append, "schedule_at")]
        assert len(allocated) == len(handles) == 2
        handles[1].cancel()
        assert engine.pending == 21
        engine.run()
        assert fired[-1] == "schedule"
        assert len(fired) == 21

    def test_two_sinks_report_what_one_alone_reports(self):
        def profiled_run(sinks):
            engine = Engine()
            for sink in sinks:
                engine.attach_profiler(sink)
            engine._attr_stack = ("phase:x",)
            _mixed_workload(engine, [])
            engine._attr_stack = ()
            engine.post(0.01, engine.profile_count_message, 64)
            engine.run(until=1.0)
            return [sink.stats for sink in sinks]

        (alone,) = profiled_run([Profiler()])
        first, second = profiled_run([Profiler(), Profiler()])
        assert first == second == alone
        assert sum(stats.seconds for stats in alone.values()) == \
            pytest.approx(1.0, abs=1e-12)

    def test_first_sink_cannot_attach_inside_a_fast_path_run(self):
        # The running fast-path loop cannot be swapped out from under
        # itself, and it does not read stamps.
        engine = Engine()
        engine.post(0.1, engine.attach_profiler, Profiler())
        with pytest.raises(SimulationError):
            engine.run()
        assert not engine.profiling


class _Txn:
    """A transaction as a lane sees it: outstanding while ``kernel`` is set."""

    def __init__(self, label):
        self.label = label
        self.kernel = "kernel"


def _arm(engine, lane, txn):
    """The inline arm of DeadlineLane's docstring."""
    seq = engine._seq
    engine._seq = seq + 1
    txn.probe_at = engine._now + lane.delay
    txn.probe_seq = seq
    if lane.fifo:
        lane.fifo.append(txn)
    else:
        lane.start(txn)


def _lane_engine(mode, fired):
    from repro.obs.flight import FlightRecorder

    engine = Engine()
    if mode == "profiled":
        engine.attach_profiler(Profiler())
    elif mode == "recording":
        engine.attach_recorder(FlightRecorder())
    lane = engine.deadline_lane(0.5, lambda txn, lane: fired.append(
        txn.label))
    return engine, lane


class TestDeadlineLanes:
    @pytest.mark.parametrize("mode", ["fast", "recording", "profiled"])
    def test_same_instant_fires_in_reserved_sequence_order(self, mode):
        fired = []
        engine, lane = _lane_engine(mode, fired)
        engine.post(0.5, fired.append, "posted before")
        _arm(engine, lane, _Txn("first deadline"))
        engine.schedule(0.5, fired.append, "scheduled between")
        _arm(engine, lane, _Txn("second deadline"))
        engine.post(0.5, fired.append, "posted after")
        assert engine.pending == 5
        engine.run()
        assert fired == ["posted before", "first deadline",
                         "scheduled between", "second deadline",
                         "posted after"]
        assert engine.events_processed == 5
        assert engine.now == 0.5

    @pytest.mark.parametrize("mode", ["fast", "recording", "profiled"])
    def test_dead_deadlines_neither_fire_nor_count_nor_move_the_clock(
            self, mode):
        fired = []
        engine, lane = _lane_engine(mode, fired)
        txns = [_Txn(i) for i in range(4)]
        for txn in txns:
            _arm(engine, lane, txn)
        engine.post(0.2, fired.append, "post")
        for txn in txns[:3]:
            txn.kernel = None           # ended: nothing to cancel
        assert engine.pending == 2
        assert [args for __, __, args in engine.pending_events()] == [
            ("post",), (txns[3], lane)]
        txns[3].kernel = None
        assert engine.pending == 1
        engine.run()
        assert fired == ["post"]
        assert engine.events_processed == 1
        assert engine.now == 0.2        # not 0.5
        assert engine.pending == 0 and not lane.fifo

    @pytest.mark.parametrize("mode", ["fast", "recording", "profiled"])
    def test_run_until_leaves_later_deadlines_pending(self, mode):
        fired = []
        engine, lane = _lane_engine(mode, fired)
        _arm(engine, lane, _Txn("due"))
        engine.post(0.3, _arm, engine, lane, _Txn("not yet due"))
        engine.run(until=0.6)
        assert fired == ["due"]
        assert engine.now == 0.6 and engine.pending == 1
        [(time, __, args)] = engine.pending_events()
        assert time == 0.8 and args[0].label == "not yet due"
        engine.run()
        assert fired == ["due", "not yet due"] and engine.now == 0.8

    def test_max_events_puts_the_deadline_back_at_its_lane_head(self):
        fired = []
        engine, lane = _lane_engine("fast", fired)
        engine.post(0.1, fired.append, "post")
        _arm(engine, lane, _Txn("deadline"))
        with pytest.raises(SimulationError):
            engine.run(max_events=1)
        assert fired == ["post"] and engine.pending == 1
        engine.run()
        assert fired == ["post", "deadline"]

    def test_a_retransmit_lane_fires_under_the_stack_it_was_armed_in(self):
        engine = Engine()
        engine.attach_profiler(Profiler())
        seen = []
        lane = engine.deadline_lane(0.25, lambda txn, lane: seen.append(
            (engine.now, engine._attr_stack, lane)), retransmit=True)
        txn = _Txn("t")
        engine._attr_stack = ("host:h",)
        lane.arm(txn, engine, ("phase:retransmit",))
        engine._attr_stack = ()
        assert (txn.retransmit_at, txn.retransmit_seq) == (0.25, 0)
        assert not hasattr(txn, "probe_at")
        engine.run()
        assert seen == [(0.25, ("host:h", "phase:retransmit"), lane)]

    def test_a_lane_is_shared_by_its_callback_and_delay(self):
        engine = Engine()
        lane = engine.deadline_lane(0.1, len)
        assert engine.deadline_lane(0.1, len) is lane
        assert engine.deadline_lane(0.2, len) is not lane
        assert engine.deadline_lane(0.1, print) is not lane
        with pytest.raises(SimulationError):
            engine.deadline_lane(-1.0, len)
