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
  nothing past it is ever compared.  The trailing slot has three states:
  a :class:`ScheduledEvent` -- a ``__slots__`` flyweight carrying only
  cancellation state and the profiler's attribution stamp -- for entries
  the caller may cancel; ``None`` for fire-and-forget work posted via
  :meth:`Engine.post` / :meth:`Engine.post_at` with an empty attribution
  stack, which skips the event allocation entirely; and, for work posted
  under a non-empty stack, the stamp itself (a tuple of frame labels), so
  profiling allocates no event either.  Kernel frame hops (transmit,
  deliver, handle) are all posts, so the dominant event traffic allocates
  one tuple and nothing else, profiled or not.
- There is one ``schedule``/``schedule_at``/``post``/``post_at`` each; they
  always store the current attribution stack, which is ``()`` whenever no
  profiler is attached, so unprofiled posts carry ``None``.  ``run`` picks
  one of three loops per call from what is attached, because each does
  different work per event: the profiled loop (a profiler is attached)
  charges every clock advance and flushes a flight recorder riding along;
  the recording loop (a flight recorder alone) stores each firing event's
  ``seq`` in ``_fire_seq`` and flushes the recorder; the fast loop does
  neither.  Each loop pops first and serves bounded and unbounded runs
  with the same body.
- The slot format stays inside this module: code that inspects what is
  still queued (the chaos harness's timer-leak check) iterates
  :meth:`Engine.pending_events`, which knows all three slot states.

Attribution profiling (:mod:`repro.obs.profile`): every scheduled event is
stamped with the attribution stack current at *schedule* time (in its event
object, or directly in the heap slot for posts), and the profiled loop
charges every clock advance to the stack of the event that advanced it.
Because the advances partition the clock, the per-frame totals sum exactly
to elapsed simulated time -- and because the stamp is inherited while an
event's callback runs, transitively scheduled work (a reply frame, a
retransmission timer) stays attributed to the phase that caused it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
#: ``Engine._frames`` while no sole profiler sink supplies one: stays empty.
_NO_FRAMES: dict = {}


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class ScheduledEvent:
    """A single pending callback in the event queue.

    A ``__slots__`` flyweight: ordering lives in the ``(time, seq)`` tuple
    of the heap entry, not on the object, so instances carry no comparison
    methods and creation is one attribute burst.  ``attribution`` is the
    stack captured at schedule time (``()`` while no profiler is attached).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "on_cancel", "attribution")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: tuple = (),
                 on_cancel: Optional[Callable[[], None]] = None,
                 attribution: tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Set by the owning engine so it can keep an exact count of
        #: cancelled entries still sitting in the heap (and compact when
        #: they dominate); cleared when the event fires.
        self.on_cancel = on_cancel
        self.attribution = attribution

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        on_cancel = self.on_cancel
        if on_cancel is not None:
            on_cancel()

    def __repr__(self) -> str:
        return (f"ScheduledEvent(time={self.time}, seq={self.seq}, "
                f"callback={self.callback!r}, cancelled={self.cancelled})")


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
                 "_cancelled_in_queue", "_on_cancel",
                 "_compactions", "_profilers", "profiling", "_account",
                 "_count_message", "_frames", "_attr_stack", "_recorder",
                 "_fire_seq", "__weakref__")

    #: Compaction never runs below this queue size: rebuilding a tiny heap
    #: costs more bookkeeping than the dead entries do.
    COMPACT_MIN_QUEUE = 64

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
        self._cancelled_in_queue = 0
        #: The bound cancellation hook, created once -- schedule() runs per
        #: event, and rebuilding the bound method there is measurable.
        self._on_cancel = self._note_cancelled
        self._compactions = 0
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
        #: Always ``()`` while no profiler is attached, so the fast and
        #: recording loops never meet a stamped post.
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

        Exact between runs; during :meth:`run` every loop (fast,
        recording and profiled alike) accumulates into a local and
        flushes on exit, so mid-run reads (only possible from inside a
        callback) lag the true count, as does ``Engine.total_events``.
        """
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the queue.  O(1)."""
        return len(self._queue) - self._cancelled_in_queue

    def pending_events(self):
        """Yield ``(time, callback, args)`` for every live queued event.

        Heap order, not firing order.  Inspection code outside this module
        goes through here, so it never has to know heap slot 4's three
        states (``None``, an attribution tuple, a cancellable event).
        """
        for time, __, callback, args, slot in self._queue:
            if slot is None or slot.__class__ is tuple or not slot.cancelled:
                yield time, callback, args

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (introspection)."""
        return self._compactions

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

        The first sink must attach between runs: a fast or recording loop
        already in progress charges nothing and cannot be swapped out.
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
        still-queued posts back to ``None``, because the fast and recording
        loops read heap slot 4 as "``None`` or a cancellable event".
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

    # ----------------------------------------------------------- compaction

    def _note_cancelled(self) -> None:
        """An event in the heap was cancelled; compact when they dominate.

        Long fault-injection runs cancel large numbers of retransmission and
        probe timers; without compaction those dead entries sit in the heap
        until their (possibly far-future) fire time, bloating every push and
        pop.  Rebuilding the heap is O(live); amortized it is free because a
        rebuild is only triggered after at least as many cancellations.
        """
        self._cancelled_in_queue += 1
        queue = self._queue
        if (len(queue) >= self.COMPACT_MIN_QUEUE
                and self._cancelled_in_queue * 2 > len(queue)):
            # In place: run() holds a local alias to the heap list, so the
            # rebuild must preserve list identity, not rebind the attribute.
            # Posted (fire-and-forget) entries carry None or their
            # attribution stamp in the event slot and are never cancelled.
            queue[:] = [entry for entry in queue
                        if entry[4] is None
                        or not getattr(entry[4], "cancelled", False)]
            heapq.heapify(queue)
            self._cancelled_in_queue = 0
            self._compactions += 1

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
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self._on_cancel,
                               self._attr_stack)
        _heappush(self._queue, (time, seq, callback, args, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self._on_cancel,
                               self._attr_stack)
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
        events an immediate re-run would silently discard.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if self._profilers:
            loop = self._run_profiled
        elif self._recorder is not None:
            loop = self._run_recording
        else:
            loop = self._run_fast
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
        slot = entry[4]
        if slot is not None and slot.__class__ is not tuple:
            slot.on_cancel = self._on_cancel
        if entry[0] <= horizon:
            raise SimulationError(
                f"exceeded max_events={limit}; possible livelock")

    def _finish(self, fired: int) -> None:
        self._running = False
        self._events_processed += fired
        Engine.total_events += fired

    def _run_fast(self, horizon: float, limit: float) -> None:
        """Neither a profiler nor a recorder attached: fire, nothing else."""
        queue = self._queue
        pop = _heappop
        fired = 0
        try:
            while queue:
                time, seq, callback, args, event = pop(queue)
                if event is not None:
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    event.on_cancel = None
                if time > horizon or fired >= limit:
                    self._stop((time, seq, callback, args, event),
                               horizon, limit)
                    break
                self._now = time
                fired += 1
                callback(*args)
        finally:
            self._finish(fired)

    #: Events between recorder flushes (the check is one int compare per
    #: event).  Bounds unsealed-tail growth at a few thousand records --
    #: the same order as the default ring capacity.
    _FLUSH_EVERY = 2048

    def _run_recording(self, horizon: float, limit: float) -> None:
        """A flight recorder and no profiler: the fast loop plus one store.

        The firing event's sequence number lands in ``_fire_seq`` before the
        callback runs, so kernel record sites can stamp flight records with
        it, and the recorder is flushed every ``_FLUSH_EVERY`` events, which
        is where lane tails get sealed into digest windows (amortized off
        the record path; seals consume whole windows, so flush cadence never
        shows in the chains).  That is what keeps the recorder inside the
        E15/E17 observer-effect budget.
        """
        queue = self._queue
        pop = _heappop
        flush = self._recorder.flush
        flush_step = self._FLUSH_EVERY
        next_flush = flush_step
        fired = 0
        try:
            while queue:
                time, seq, callback, args, event = pop(queue)
                if event is not None:
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    event.on_cancel = None
                if time > horizon or fired >= limit:
                    self._stop((time, seq, callback, args, event),
                               horizon, limit)
                    break
                self._now = time
                self._fire_seq = seq
                fired += 1
                if fired == next_flush:
                    next_flush += flush_step
                    flush()
                callback(*args)
        finally:
            self._finish(fired)

    def _run_profiled(self, horizon: float, limit: float) -> None:
        """A profiler attached: the recording loop plus attribution.

        Every clock advance is charged to the stack of the event that caused
        it, and that stamp becomes the current stack while the callback runs,
        so transitively scheduled work inherits it.  ``_fire_seq`` is stored
        and an attached recorder flushed exactly as the recording loop does.
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
                elif slot.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                else:
                    slot.on_cancel = None
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
