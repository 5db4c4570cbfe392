"""Discrete-event engine: a priority queue of callbacks and a simulated clock.

The engine is intentionally small.  Everything above it (kernels, networks,
servers) expresses behaviour as callbacks scheduled at simulated times.  Two
properties matter for the reproduction:

1. **Determinism.** Events scheduled for the same instant fire in scheduling
   order (a monotonically increasing sequence number breaks ties), so a given
   program produces the same trace on every run.
2. **Exactness.** The clock is a float number of simulated seconds; latency
   constants from :mod:`repro.net.latency` compose without noise, which lets
   tests assert the paper's measured numbers to sub-percent tolerances.

Hot-path layout (the ROADMAP's >= 10^6 events/sec target):

- Heap entries are plain ``(time, seq, callback, args, slot)`` tuples, so
  every sift comparison is a C-level tuple compare; ``seq`` is unique, so
  nothing past it is ever compared.  The trailing slot has four states:
  a :class:`DeadlineLane`, for the head of one; a :class:`ScheduledEvent`
  for entries the caller may cancel; ``None`` for fire-and-forget work
  posted via :meth:`Engine.post` / :meth:`Engine.post_at` with an empty
  attribution stack, which skips the event allocation; and, for work posted
  under a non-empty stack, the stamp itself (a tuple of frame labels), so
  profiling allocates no event either.  Kernel frame hops (transmit,
  deliver, handle) are all posts, so the dominant event traffic allocates
  one tuple and nothing else, profiled or not.
- There is one ``schedule``/``schedule_at``/``post``/``post_at`` each; they
  always store the current attribution stack, which is ``()`` whenever no
  profiler is attached, so unprofiled posts carry ``None``.  ``run`` picks
  one of two loops per call: the profiled loop (a profiler is attached)
  charges every clock advance; the fast loop does not.  Both store each
  firing event's ``seq`` in ``_fire_seq`` and flush a flight recorder
  while one is attached, pop first, and serve bounded and unbounded runs
  with the same body.
- The slot format stays inside this module: code that inspects what is
  still queued (the chaos harness's timer-leak check) iterates
  :meth:`Engine.pending_events`.
- A kernel transaction's probe, retransmit and GroupSend-reply times are
  deadlines it carries (:class:`DeadlineLane`), fired in sequence-number
  order against every other event only while it is outstanding, so ending
  a transaction cancels nothing.

Attribution profiling (:mod:`repro.obs.profile`): every scheduled event is
stamped with the attribution stack current at *schedule* time (in its event
object, or directly in the heap slot for posts), and the profiled loop
charges every clock advance to the stack of the event that advanced it.
Because the advances partition the clock, the per-frame totals sum exactly
to elapsed simulated time -- and because the stamp is inherited while an
event's callback runs, transitively scheduled work (a reply frame, a
retransmission deadline) stays attributed to the phase that caused it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
#: ``Engine._frames`` while no sole profiler sink supplies one: stays empty.
_NO_FRAMES: dict = {}


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class ScheduledEvent:
    """The cancellation handle of a scheduled callback.

    Ordering and the callback live in the heap entry; this ``__slots__``
    flyweight carries the cancelled flag and ``attribution``, the stack
    captured at schedule time (``()`` while no profiler is attached).
    """

    __slots__ = ("cancelled", "attribution")

    def __init__(self, attribution: tuple = ()) -> None:
        self.cancelled = False
        self.attribution = attribution

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True


class DeadlineLane:
    """The deadlines of the transactions armed at one constant ``delay``:
    ``now + delay`` with a fresh sequence number is already in ``(time,
    seq)`` order, so a FIFO, and only its head has an entry in the heap.

    A transaction carries its deadline itself: ``probe_at``, ``probe_seq``
    and (profiled; unset reads as ``()``) ``probe_stamp`` -- or the
    ``retransmit_*`` three in a lane made with ``retransmit`` set.  At that
    time ``fire(txn, lane)`` runs if the transaction is still outstanding
    (its ``kernel`` is set); one that ended is dropped uncounted.  Arming
    allocates nothing: :meth:`arm`, or the same stores inline and an append
    to ``fifo`` (:meth:`start` if it is empty).  A clock with no ``queue``
    (None) reads the heads itself.
    """

    __slots__ = ("delay", "fire", "retransmit", "fifo", "queue")

    def __init__(self, delay: float, fire: Callable[..., None],
                 retransmit: bool, queue: Optional[list]) -> None:
        self.delay = delay
        self.fire = fire
        self.retransmit = retransmit
        self.fifo: deque = deque()
        self.queue = queue

    def start(self, txn: Any) -> None:
        """Append ``txn`` (armed) to this empty lane."""
        self.fifo.append(txn)
        if self.queue is not None:
            _heappush(self.queue, self.entry(txn))

    def arm(self, txn: Any, engine: Any, frame: tuple = ()) -> None:
        """Arm ``txn``'s deadline ``delay`` from now (the inline arm),
        stamped, when profiled, with the current stack in phase ``frame``."""
        seq = engine._seq
        engine._seq = seq + 1
        at = engine._now + self.delay
        stamp = ()
        if engine.profiling:
            stamp = engine._attr_stack
            if stamp[-1:] != frame:
                stamp += frame
        if self.retransmit:
            txn.retransmit_at, txn.retransmit_seq = at, seq
            txn.retransmit_stamp = stamp
        else:
            txn.probe_at, txn.probe_seq, txn.probe_stamp = at, seq, stamp
        if self.fifo:
            self.fifo.append(txn)
        else:
            self.start(txn)

    def entry(self, txn: Any) -> tuple:
        """``txn``'s deadline in this lane as a heap entry."""
        if self.retransmit:
            return (txn.retransmit_at, txn.retransmit_seq, self.fire,
                    (txn, self), self)
        return txn.probe_at, txn.probe_seq, self.fire, (txn, self), self

    def stamp(self, txn: Any) -> tuple:
        """The stack ``txn``'s deadline was armed under."""
        return getattr(txn, "retransmit_stamp" if self.retransmit
                       else "probe_stamp", ())

    def due(self, txn: Any, firing: bool) -> bool:
        """A loop popped the head's entry: whether it fires.  A dead head is
        dropped, and one that fires (``firing``: not past the loop's horizon
        or event bound) hands the heap to the next live head."""
        live = txn.kernel is not None
        if firing or not live:
            self.advance()
        return live

    def advance(self) -> None:
        fifo = self.fifo
        fifo.popleft()
        while fifo:
            if fifo[0].kernel is not None:
                _heappush(self.queue, self.entry(fifo[0]))
                return
            fifo.popleft()


class Engine:
    """The simulated clock and event queue.

    Typical use::

        engine = Engine()
        engine.schedule(0.5, fire_timer)
        engine.run()            # runs until the queue drains
        assert engine.now == 0.5
    """

    #: Hot engine state lives in slots (``_now`` is stored on every event
    #: fired, ``_seq``/``_queue``/``_attr_stack`` are read on every
    #: schedule/post, ``profiling`` several times per kernel frame hop).
    __slots__ = ("_queue", "_seq", "_now", "_running", "_events_processed",
                 "_lanes", "_profilers", "profiling", "_account",
                 "_count_message", "_frames", "_attr_stack", "_recorder",
                 "_fire_seq", "__weakref__")

    #: Process-wide count of events fired across *all* engine instances.
    #: The cost ledger (``benchmarks/ledger/run.py``) and E15 read it around
    #: a workload to count its events without holding references to the
    #: domains the workload builds internally.  Python integers do
    #: not overflow, so the count is safe at any fleet scale; reset it
    #: between measurement windows with :meth:`reset_total_events` rather
    #: than assigning the class attribute directly.
    total_events: int = 0

    @classmethod
    def reset_total_events(cls) -> None:
        """Zero the process-wide event counter (documented reset point).

        Benchmarks that want a fresh measurement window call this instead
        of writing ``Engine.total_events`` (an engine instance has no
        ``__dict__``, so assigning through one raises).
        """
        cls.total_events = 0

    def __init__(self) -> None:
        #: Min-heap of (time, seq, callback, args, event-or-None) tuples.
        self._queue: list[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: (fire, delay) -> its DeadlineLane.
        self._lanes: dict = {}
        #: Attached profiler sinks (see repro.obs.profile).  Duck-typed:
        #: each needs account(stack, dt) and count_message(stack, nbytes).
        self._profilers: list[Any] = []
        #: True while at least one profiler sink is attached.  Kernel code
        #: gates its frame pushes on it.
        self.profiling = False
        #: Where clock advances and wire messages are charged: the sole
        #: sink's own bound methods while exactly one is attached, the
        #: fan-out loops otherwise (rebound by _bind_sinks).
        self._account: Callable[[tuple, float], None] = self._account_all
        self._count_message: Callable[[tuple, int], None] = (
            self._count_message_all)
        #: A sole sink's ``stats`` (stack -> FrameStats), charged in place
        #: for a stack it holds; a stack it lacks goes through account /
        #: count_message, which create its totals.
        self._frames: dict = _NO_FRAMES
        #: The current attribution stack: a tuple of frame labels naming what
        #: the simulation is doing *right now* (host -> process -> phase).
        #: Always ``()`` while no profiler is attached, so the fast loop
        #: never meets a stamped post.
        self._attr_stack: tuple = ()
        #: Attached flight recorder (see repro.obs.flight), or None.  The
        #: engine never calls it per event; it only maintains _fire_seq so
        #: kernel record sites can stamp flight records with the sequence
        #: number of the event whose callback is currently running.
        self._recorder: Any = None
        #: Sequence number of the event currently firing (-1 outside a
        #: callback, or while neither a recorder nor a profiler is attached).
        self._fire_seq = -1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far.

        Exact between runs; during :meth:`run` both loops accumulate into
        a local and flush it on exit, so mid-run reads (only possible from
        inside a callback) lag the true count, as does
        ``Engine.total_events``.
        """
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still queued (a scan: see pending_events)."""
        return sum(1 for __ in self.pending_events())

    def pending_events(self):
        """Yield ``(time, callback, args)`` for every live queued event.

        Heap order, then lane order; not firing order.  Inspection code
        outside this module goes through here, so it never has to know heap
        slot 4's states or where deadlines live.
        """
        for time, __, callback, args, slot in self._queue:
            if slot is None or slot.__class__ is tuple or (
                    slot.__class__ is ScheduledEvent and not slot.cancelled):
                yield time, callback, args
        for lane in self._lanes.values():
            for txn in lane.fifo:
                if txn.kernel is not None:
                    time, __, fire, args, __ = lane.entry(txn)
                    yield time, fire, args

    def deadline_lane(self, delay: float, fire: Callable[..., None],
                      retransmit: bool = False) -> DeadlineLane:
        """The lane of deadlines ``fire(txn, lane)`` armed at ``delay``:
        created on first use, then shared."""
        lane = self._lanes.get((fire, delay))
        if lane is None:
            if delay < 0:
                raise SimulationError(
                    f"cannot arm into the past (delay={delay})")
            lane = self._lanes[fire, delay] = DeadlineLane(
                delay, fire, retransmit, self._queue)
        return lane

    # ------------------------------------------------------------- profiling

    def _bind_sinks(self) -> None:
        """Bind where charges go: a sole sink's own ``account`` /
        ``count_message`` are called directly (and its ``stats`` charged in
        place where it can be); the fan-out loops serve two or more."""
        sinks = self._profilers
        if len(sinks) == 1:
            self._account = sinks[0].account
            self._count_message = sinks[0].count_message
            self._frames = getattr(sinks[0], "stats", _NO_FRAMES)
        else:
            self._account = self._account_all
            self._count_message = self._count_message_all
            self._frames = _NO_FRAMES
        self.profiling = bool(sinks)

    def attach_profiler(self, sink: Any) -> None:
        """Attach a profiler sink; it is charged every clock advance.

        The first sink must attach between runs: a fast loop already in
        progress charges nothing and cannot be swapped out.
        """
        if sink in self._profilers:
            return
        if self._running and not self._profilers:
            raise SimulationError(
                "cannot attach the first profiler from inside run()")
        self._profilers.append(sink)
        sink.attached(self)
        self._bind_sinks()

    def detach_profiler(self, sink: Any) -> None:
        if sink not in self._profilers:
            return
        self._profilers.remove(sink)
        sink.detached(self)
        self._bind_sinks()
        if not self._profilers:
            self._drop_stamps()

    def _drop_stamps(self) -> None:
        """No profiler is attached: empty the stack and strip the stamps of
        still-queued posts back to ``None``, because the fast loop reads
        heap slot 4 as "``None``, a cancellable event or a lane".
        ``(time, seq)`` are untouched, so the heap order -- and therefore
        firing order -- is too."""
        self._attr_stack = ()
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[4].__class__ is tuple:
                queue[index] = entry[:4] + (None,)

    def attach_recorder(self, sink: Any) -> None:
        """Attach the flight recorder; only one may be attached at a time.

        The engine itself only maintains ``_fire_seq`` (the sequence number
        of the event currently firing); the kernel's record sites read it to
        stamp flight records.  Cost when unattached: zero -- ``run`` then
        picks a loop that never stores it.
        """
        if self._recorder is sink:
            return
        if self._recorder is not None:
            raise SimulationError("a flight recorder is already attached")
        if self._running:   # the loop in progress never stamps _fire_seq
            raise SimulationError("cannot attach a recorder inside run()")
        self._recorder = sink

    def detach_recorder(self, sink: Any) -> None:
        if self._recorder is sink:
            self._recorder = None
            self._fire_seq = -1

    def profile_count_message(self, nbytes: int) -> None:
        """Charge one network message of ``nbytes`` to the current stack."""
        stats = self._frames.get(self._attr_stack)
        if stats is None:
            self._count_message(self._attr_stack, nbytes)
        else:
            stats.messages += 1
            stats.bytes += nbytes

    def _account_all(self, stack: tuple, dt: float) -> None:
        for sink in self._profilers:
            sink.account(stack, dt)

    def _count_message_all(self, stack: tuple, nbytes: int) -> None:
        for sink in self._profilers:
            sink.count_message(stack, nbytes)

    # ----------------------------------------------------------- scheduling
    #
    # The one implementation of each.  Every entry carries the attribution
    # stack current at schedule time: a cancellable event in its
    # ``attribution``, a post as heap slot 4 itself (``None`` for the empty
    # stack, so unprofiled posts stay "None or a cancellable event").

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._schedule(self._now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        return self._schedule(time, callback, args)

    def _schedule(self, time: float, callback: Callable[..., None],
                  args: tuple) -> ScheduledEvent:
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(self._attr_stack)
        _heappush(self._queue, (time, seq, callback, args, event))
        return event

    def post(self, delay: float, callback: Callable[..., None],
             *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        Identical firing semantics (consumes one sequence number, fires in
        the same order a ``schedule`` call here would), but the heap entry
        carries the attribution stamp -- ``None`` unprofiled -- in the event
        slot, so no :class:`ScheduledEvent` is allocated.  This is the right
        call for the kernel's frame-hop events -- transmit, deliver,
        handle-packet -- which are never cancelled and dominate event
        traffic at fleet scale.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, callback, args,
                                self._attr_stack or None))

    def post_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, callback, args,
                                self._attr_stack or None))

    # ----------------------------------------------------------- event loops

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in order until the queue drains.

        ``until`` stops the clock at that simulated time (events after it stay
        queued); ``max_events`` bounds the number of events fired, as a guard
        against accidental livelock in tests.  Dead (cancelled) heads are
        drained before the ``until`` check, so ``pending`` never counts
        events an immediate re-run would silently discard; deadlines due
        after ``until`` stay in their lanes.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        loop = self._run_profiled if self._profilers else self._run_fast
        self._running = True
        # Each loop clears _running and counts what it fired on every exit.
        loop(float("inf") if until is None else until,
             float("inf") if max_events is None else max_events)
        if until is not None and self._now < until:
            if self._profilers:
                self._account(("idle",), until - self._now)
            self._now = until

    def run_for(self, duration: float) -> None:
        """Run until ``duration`` simulated seconds past the current time."""
        self.run(until=self._now + duration)

    def _stop(self, entry: tuple, horizon: float, limit: float) -> None:
        """Put back the live entry a loop stopped at, unfired; raise if the
        stop is the ``max_events`` bound rather than the ``until`` horizon."""
        _heappush(self._queue, entry)
        if entry[0] <= horizon:
            raise SimulationError(
                f"exceeded max_events={limit}; possible livelock")

    def _finish(self, fired: int) -> None:
        self._running = False
        self._events_processed += fired
        Engine.total_events += fired

    #: Events between recorder flushes (the check is one int compare per
    #: event).  Bounds unsealed-tail growth at a few thousand records --
    #: the same order as the default ring capacity.
    _FLUSH_EVERY = 2048

    def _run_fast(self, horizon: float, limit: float) -> None:
        """No profiler attached: fire, and with a flight recorder attached
        store each firing event's sequence number and flush the recorder.

        The sequence number lands in ``_fire_seq`` before the callback runs,
        so kernel record sites can stamp flight records with it, and the
        recorder is flushed every ``_FLUSH_EVERY`` events, which is where
        lane tails get sealed into digest windows (amortized off the record
        path; seals consume whole windows, so flush cadence never shows in
        the chains).  That is what keeps the recorder inside the E15/E17
        observer-effect budget; unattached it costs one test per event.
        """
        queue = self._queue
        pop = _heappop
        recorder = self._recorder
        flush_step = self._FLUSH_EVERY
        next_flush = flush_step
        fired = 0
        try:
            while queue:
                time, seq, callback, args, event = pop(queue)
                if event is not None:
                    if event.__class__ is DeadlineLane:
                        if not event.due(args[0], time <= horizon
                                         and fired < limit):
                            continue
                    elif event.cancelled:
                        continue
                if time > horizon or fired >= limit:
                    self._stop((time, seq, callback, args, event),
                               horizon, limit)
                    break
                self._now = time
                fired += 1
                if recorder is not None:
                    self._fire_seq = seq
                    if fired == next_flush:
                        next_flush += flush_step
                        recorder.flush()
                callback(*args)
        finally:
            self._finish(fired)

    def _run_profiled(self, horizon: float, limit: float) -> None:
        """A profiler attached: the fast loop plus attribution.

        Every clock advance is charged to the stack of the event that caused
        it, and that stamp becomes the current stack while the callback runs,
        so transitively scheduled work inherits it.  ``_fire_seq`` is stored
        and an attached recorder flushed exactly as in the fast loop.
        """
        queue = self._queue
        pop = _heappop
        recorder = self._recorder
        flush_step = self._FLUSH_EVERY
        # fired is at least 1 when compared, so 0 means "never flush".
        next_flush = flush_step if recorder is not None else 0
        fired = 0
        # Every event installs its own stamp as the current stack, so the
        # caller's stack is saved and restored once around the whole loop.
        previous = self._attr_stack
        now = self._now
        try:
            while queue:
                time, seq, callback, args, slot = pop(queue)
                if slot is None:
                    stamp = ()
                elif slot.__class__ is tuple:
                    stamp = slot
                elif slot.__class__ is DeadlineLane:
                    if not slot.due(args[0], time <= horizon
                                    and fired < limit):
                        continue
                    stamp = slot.stamp(args[0])
                elif slot.cancelled:
                    continue
                else:
                    stamp = slot.attribution
                if time > horizon or fired >= limit:
                    self._stop((time, seq, callback, args, slot),
                               horizon, limit)
                    break
                self._fire_seq = seq
                # Clock advances partition elapsed time: charging each to
                # the stack of the event that caused it makes the per-frame
                # totals sum exactly to end-to-end simulated time.  A sole
                # sink's totals for a stack it has seen are charged here.
                stats = self._frames.get(stamp)
                if stats is None:
                    self._account(stamp, time - now)
                else:
                    stats.seconds += time - now
                    stats.events += 1
                self._now = now = time
                fired += 1
                if fired == next_flush:
                    next_flush += flush_step
                    recorder.flush()
                self._attr_stack = stamp
                callback(*args)
        finally:
            self._attr_stack = previous
            if not self._profilers:     # the last sink left during the run
                self._drop_stamps()
            self._finish(fired)
