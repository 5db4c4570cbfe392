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
  :meth:`Engine.post` / :meth:`Engine.post_at`, which skips the event
  allocation entirely; and, for work posted *while a profiler is
  attached*, the attribution stamp itself (a tuple of frame labels), so
  profiling allocates no event either.  Kernel frame hops (transmit,
  deliver, handle) are all posts, so the dominant event traffic allocates
  one tuple and nothing else, profiled or not.
- ``schedule*``/``post*`` come in two complete variants, ``run`` in three.
  The class methods *are* the fast path and contain no profiler branch at
  all.  When the first profiler sink attaches, :meth:`attach_profiler`
  performs a one-time dispatch swap -- instance attributes shadowing the
  class methods with the instrumented variants -- and detaching the last
  sink removes them, after sweeping the stamps of still-queued posts back
  to ``None``: the fast path only ever sees "``None`` or a cancellable
  event" in the slot.  The cost of profiling support on an unprofiled
  engine is therefore zero per event, not one branch per event.  The
  instrumented ``run`` is one inlined loop (no per-event method call or
  ``try``), charges a sole sink through its own bound ``account`` (the
  fan-out loop serves only two or more sinks), and flushes an attached
  flight recorder on the recording loop's cadence.  The third ``run`` is
  that recording loop, installed by a flight recorder alone: the fast
  path plus one ``_fire_seq`` store per event.
- The slot format stays inside this module: code that inspects what is
  still queued (the chaos harness's timer-leak check) iterates
  :meth:`Engine.pending_events`, which knows all three slot states.

Attribution profiling (:mod:`repro.obs.profile`) hooks into the
instrumented variants: every scheduled event is stamped with the
attribution stack current at *schedule* time (in its event object, or
directly in the heap slot for posts), and every clock advance is charged
to the stack of the event that advanced it.  Because the advances
partition the clock, the per-frame totals sum exactly to elapsed simulated
time -- and because the stamp is inherited while an event's callback runs,
transitively scheduled work (a reply frame, a retransmission timer) stays
attributed to the phase that caused it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class ScheduledEvent:
    """A single pending callback in the event queue.

    A ``__slots__`` flyweight: ordering lives in the ``(time, seq)`` tuple
    of the heap entry, not on the object, so instances carry no comparison
    methods and creation is one attribute burst.  ``attribution`` is the
    stack captured at schedule time (instrumented scheduling only; None on
    the fast path).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "on_cancel", "attribution")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: tuple = (),
                 on_cancel: Optional[Callable[[], None]] = None,
                 attribution: Optional[tuple] = None) -> None:
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
    #: fired, ``_seq``/``_queue`` are read on every schedule/post).  The
    #: trailing ``__dict__`` keeps the instance open for the profiler's
    #: dispatch-swap shadows (and the ``profiling`` flag, which must stay a
    #: class attribute so it cannot be listed here).
    __slots__ = ("_queue", "_seq", "_now", "_running", "_events_processed",
                 "_cancelled_in_queue", "_on_cancel",
                 "_compactions", "_profilers", "_account", "_count_message",
                 "_attr_stack", "_attr_dups", "_recorder", "_fire_seq",
                 "__dict__", "__weakref__")

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
        of writing ``Engine.total_events`` -- assigning through an
        *instance* would silently shadow the class counter and split the
        tally.
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
        #: Where clock advances and wire messages are charged: the sole
        #: sink's own bound methods while exactly one is attached, the
        #: fan-out loops otherwise (rebound by _refresh_dispatch).
        self._account: Callable[[tuple, float], None] = self._account_all
        self._count_message: Callable[[tuple, int], None] = (
            self._count_message_all)
        #: The current attribution stack: a tuple of frame labels naming what
        #: the simulation is doing *right now* (host -> process -> phase).
        self._attr_stack: tuple = ()
        #: Per-frame duplicate counts, parallel to the stack: profile_push
        #: deduplicates a label equal to the innermost frame, and this
        #: records how many such no-op pushes are outstanding so profile_pop
        #: stays depth-balanced (popping a deduplicated label must not
        #: remove the frame somebody else pushed).  None while no duplicate
        #: is outstanding -- the state every fired event and every process
        #: step starts in, so neither builds a tuple of zeros.
        self._attr_dups: Optional[tuple] = None
        #: Attached flight recorder (see repro.obs.flight), or None.  The
        #: engine never calls it per event; it only maintains _fire_seq so
        #: kernel record sites can stamp flight records with the sequence
        #: number of the event whose callback is currently running.
        self._recorder: Any = None
        #: Sequence number of the event currently firing (-1 outside a
        #: callback, or while no recorder/profiler variant is installed).
        self._fire_seq = -1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far.

        Exact between runs; during :meth:`run` every loop (fast path,
        recording and instrumented alike) accumulates into a local and
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

    #: True while at least one profiler sink is attached.  Kernel code gates
    #: its frame pushes on this; it is a plain attribute (maintained by
    #: attach/detach, shadowing this class default) rather than a property,
    #: because the kernel reads it several times per frame hop and a
    #: property call there is measurable at fleet scale.
    profiling: bool = False

    #: Methods swapped to their instrumented variants while any profiler is
    #: attached.  The class-level definitions are the fast path; the swap
    #: sets instance attributes that shadow them, and detaching the last
    #: sink deletes the shadows -- a one-time dispatch change instead of a
    #: per-event branch.
    _SWAPPED = ("run", "schedule", "schedule_at", "post", "post_at")

    #: True while a flight recorder is attached (see repro.obs.flight).
    #: Same shadowing discipline as ``profiling``: a class default the
    #: dispatch swap overrides with an instance attribute, so the kernel's
    #: gate reads cost one dict lookup and no property call.
    recording: bool = False

    def _refresh_dispatch(self) -> None:
        """Install the method set matching the attached instrumentation.

        One-time dispatch swap instead of per-event branches: any profiler
        wins (its instrumented variants also maintain ``_fire_seq`` and
        flush the recorder, so a recorder rides along); a recorder alone
        installs only the recording run (scheduling stays on the fast
        path); with neither, the shadows are removed and the class
        methods -- the fast path -- serve.  The charge targets are bound
        here too: a sole sink's ``account``/``count_message`` are called
        directly, the fan-out loops only serve two or more sinks.
        """
        for name in self._SWAPPED:
            self.__dict__.pop(name, None)
        sinks = self._profilers
        if len(sinks) == 1:
            self._account = sinks[0].account
            self._count_message = sinks[0].count_message
        else:
            self._account = self._account_all
            self._count_message = self._count_message_all
        if sinks:
            self.run = self._run_instrumented
            self.schedule = self._schedule_instrumented
            self.schedule_at = self._schedule_at_instrumented
            self.post = self._post_instrumented
            self.post_at = self._post_at_instrumented
        elif self._recorder is not None:
            self.run = self._run_recording

    def attach_profiler(self, sink: Any) -> None:
        """Attach a profiler sink; it is charged every clock advance.

        The first sink must attach between runs: the instrumented posts
        stamp heap entries in a way only the instrumented loop reads, and a
        fast-path ``run()`` already in progress cannot be swapped out.
        """
        if sink in self._profilers:
            return
        if self._running and not self._profilers:
            raise SimulationError(
                "cannot attach the first profiler from inside run()")
        self._profilers.append(sink)
        self.profiling = True
        sink.attached(self)
        self._refresh_dispatch()

    def detach_profiler(self, sink: Any) -> None:
        if sink not in self._profilers:
            return
        self._profilers.remove(sink)
        sink.detached(self)
        if not self._profilers:
            self.__dict__.pop("profiling", None)
            # The fast path reads heap slot 4 as "None or a cancellable
            # event": strip the stamps of still-queued posts back to None
            # before it serves again.  (time, seq) are untouched, so the
            # heap order -- and therefore firing order -- is too.
            queue = self._queue
            for index, entry in enumerate(queue):
                if entry[4].__class__ is tuple:
                    queue[index] = entry[:4] + (None,)
        self._refresh_dispatch()

    def attach_recorder(self, sink: Any) -> None:
        """Attach the flight recorder; only one may be attached at a time.

        The engine itself only maintains ``_fire_seq`` (the sequence number
        of the event currently firing); the kernel's record sites read it to
        stamp flight records.  Cost when unattached: zero -- the recording
        run variant exists only as an instance shadow while attached.
        """
        if self._recorder is sink:
            return
        if self._recorder is not None:
            raise SimulationError("a flight recorder is already attached")
        self._recorder = sink
        self.recording = True
        self._refresh_dispatch()

    def detach_recorder(self, sink: Any) -> None:
        if self._recorder is sink:
            self._recorder = None
            self.__dict__.pop("recording", None)
            self._fire_seq = -1
            self._refresh_dispatch()

    def profile_scope(self, frames: tuple) -> tuple:
        """Replace the attribution stack; returns an opaque restore token.

        Used when switching to running a particular process: the scope
        *replaces* rather than extends, so interleaved processes never
        inherit each other's frames.  Pass the returned token back to
        :meth:`profile_restore`; it carries both the previous stack and its
        duplicate-push counts, so push/pop balance survives the swap.
        """
        token = (self._attr_stack, self._attr_dups)
        self._attr_stack = frames
        self._attr_dups = None
        return token

    def profile_enter(self, label: str) -> tuple:
        """Open one frame for a bracketed region; returns the restore token.

        The scoped form of :meth:`profile_push`: the caller runs the region
        and hands the token to :meth:`profile_restore`, which is the pop.
        A label equal to the innermost frame opens nothing (same
        deduplication as ``profile_push``), and since the restore puts back
        the exact prior state, nothing needs counting.  One tuple build per
        frame opened; this is what the kernel brackets every effect
        dispatch and frame transmit with.
        """
        stack = self._attr_stack
        dups = self._attr_dups
        if not stack or stack[-1] != label:
            self._attr_stack = stack + (label,)
            if dups is not None:
                self._attr_dups = dups + (0,)
        return (stack, dups)

    def profile_restore(self, token: tuple) -> None:
        self._attr_stack, self._attr_dups = token

    def profile_push(self, label: str) -> None:
        """Push one frame label (deduplicated if it is already the innermost
        one, so self-rescheduling timers do not grow the stack).

        Deduplicated pushes are *counted*: the matching :meth:`profile_pop`
        consumes the count instead of removing the frame someone else
        pushed, so push/pop always balances."""
        stack = self._attr_stack
        dups = self._attr_dups
        if stack and stack[-1] == label:
            if dups is None:
                dups = (0,) * len(stack)
            self._attr_dups = dups[:-1] + (dups[-1] + 1,)
        else:
            self._attr_stack = stack + (label,)
            if dups is not None:
                self._attr_dups = dups + (0,)

    def profile_pop(self, label: str) -> None:
        stack = self._attr_stack
        if stack and stack[-1] == label:
            dups = self._attr_dups
            if dups is not None and dups[-1] > 0:
                self._attr_dups = dups[:-1] + (dups[-1] - 1,)
            else:
                self._attr_stack = stack[:-1]
                if dups is not None:
                    self._attr_dups = dups[:-1]

    def profile_count_message(self, nbytes: int) -> None:
        """Charge one network message of ``nbytes`` to the current stack."""
        self._count_message(self._attr_stack, nbytes)

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
            # Posted (fire-and-forget) entries carry None -- or, posted
            # under profiling, their attribution stamp -- in the event slot
            # and are never cancelled.
            queue[:] = [entry for entry in queue
                        if entry[4] is None
                        or not getattr(entry[4], "cancelled", False)]
            heapq.heapify(queue)
            self._cancelled_in_queue = 0
            self._compactions += 1

    # ------------------------------------------------- scheduling (fast path)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self._on_cancel)
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
        event = ScheduledEvent(time, seq, callback, args, self._on_cancel)
        _heappush(self._queue, (time, seq, callback, args, event))
        return event

    def post(self, delay: float, callback: Callable[..., None],
             *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        Identical firing semantics (consumes one sequence number, fires in
        the same order a ``schedule`` call here would), but the heap entry
        carries ``None`` in the event slot, so no :class:`ScheduledEvent`
        is allocated.  This is the right call for the kernel's frame-hop
        events -- transmit, deliver, handle-packet -- which are never
        cancelled and dominate event traffic at fleet scale.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, callback, args, None))

    def post_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, callback, args, None))

    # -------------------------------------------------- event loop (fast path)

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
        self._running = True
        queue = self._queue
        pop = _heappop
        limit = float("inf") if max_events is None else max_events
        fired = 0
        try:
            if until is None:
                while queue:
                    if fired >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; possible livelock"
                        )
                    time, __, callback, args, event = pop(queue)
                    if event is not None:
                        if event.cancelled:
                            self._cancelled_in_queue -= 1
                            continue
                        event.on_cancel = None
                    self._now = time
                    fired += 1
                    callback(*args)
                return
            while queue:
                entry = queue[0]
                event = entry[4]
                if event is not None and event.cancelled:
                    pop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if entry[0] > until:
                    self._now = until
                    return
                if fired >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                pop(queue)
                if event is not None:
                    event.on_cancel = None
                self._now = entry[0]
                fired += 1
                entry[2](*entry[3])
            if self._now < until:
                self._now = until
        finally:
            self._running = False
            if fired:
                self._events_processed += fired
                Engine.total_events += fired

    def run_for(self, duration: float) -> None:
        """Run until ``duration`` simulated seconds past the current time."""
        self.run(until=self._now + duration)

    # --------------------------------------------- instrumented event loop
    #
    # Complete second implementations of the swapped methods, installed as
    # instance attributes while a profiler sink is attached (see
    # attach_profiler).  Behaviour is identical to the fast path except for
    # the attribution bookkeeping: events are stamped with the stack at
    # schedule time, every clock advance is charged to the stack of the
    # event that caused it, and the stamp becomes the current stack while
    # the callback runs so transitively scheduled work inherits it.
    #
    # Heap slot 4 has three states here: None (posted before the profiler
    # attached: unstamped), a tuple (posted under profiling: the stamp
    # itself, no event object), or a ScheduledEvent (cancellable; the stamp
    # is its ``attribution``).  Only these variants ever read a tuple
    # there -- detach_profiler strips them before the fast path returns.

    def _schedule_instrumented(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._schedule_at_instrumented(self._now + delay,
                                              callback, *args)

    def _schedule_at_instrumented(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, self._on_cancel,
                               attribution=self._attr_stack)
        _heappush(self._queue, (time, seq, callback, args, event))
        return event

    def _post_instrumented(self, delay: float, callback: Callable[..., None],
                           *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, callback, args,
                                self._attr_stack))

    def _post_at_instrumented(self, time: float,
                              callback: Callable[..., None],
                              *args: Any) -> None:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, callback, args, self._attr_stack))

    def _run_instrumented(self, until: float | None = None,
                          max_events: int | None = None) -> None:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        pop = _heappop
        limit = float("inf") if max_events is None else max_events
        horizon = float("inf") if until is None else until
        recorder = self._recorder
        flush_step = self._FLUSH_EVERY
        # fired is at least 1 when compared, so 0 means "never flush".
        next_flush = flush_step if recorder is not None else 0
        fired = 0
        # Every event installs its own stamp as the current stack, so the
        # caller's stack is saved and restored once around the whole loop.
        previous = (self._attr_stack, self._attr_dups)
        try:
            while queue:
                entry = queue[0]
                slot = entry[4]
                cancellable = slot is not None and slot.__class__ is not tuple
                if cancellable and slot.cancelled:
                    pop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    self._account(("idle",), until - self._now)
                    self._now = until
                    return
                if fired >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                pop(queue)
                if cancellable:
                    slot.on_cancel = None
                    stamp = slot.attribution or ()
                else:
                    stamp = slot or ()
                self._fire_seq = entry[1]
                # Clock advances partition elapsed time: charging each to
                # the stack of the event that caused it makes the per-frame
                # totals sum exactly to end-to-end simulated time.
                self._account(stamp, time - self._now)
                self._now = time
                fired += 1
                if fired == next_flush:
                    next_flush += flush_step
                    recorder.flush()
                self._attr_stack = stamp
                self._attr_dups = None
                entry[2](*entry[3])
            if until is not None and self._now < until:
                self._account(("idle",), until - self._now)
                self._now = until
        finally:
            self._attr_stack, self._attr_dups = previous
            self._running = False
            if fired:
                self._events_processed += fired
                Engine.total_events += fired

    # ----------------------------------------------- recording event loop
    #
    # Installed by attach_recorder when a flight recorder (and no profiler)
    # is attached.  Byte-for-byte the fast path plus one store: the firing
    # event's sequence number lands in _fire_seq before the callback runs,
    # so kernel record sites can stamp flight records with it.  Scheduling
    # methods are NOT swapped -- the recorder costs nothing at schedule
    # time -- and run() additionally calls recorder.flush() every
    # _FLUSH_EVERY events, which is where lane tails get sealed into
    # digest windows (amortized off the record path; seals consume whole
    # windows, so flush cadence never shows in the chains).  Together
    # that is what keeps the recorder inside the E15/E17 observer-effect
    # budget.

    #: Events between recorder flushes (the check is one int compare per
    #: event).  Bounds unsealed-tail growth at a few thousand records --
    #: the same order as the default ring capacity.
    _FLUSH_EVERY = 2048

    def _run_recording(self, until: float | None = None,
                       max_events: int | None = None) -> None:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        pop = _heappop
        limit = float("inf") if max_events is None else max_events
        flush = self._recorder.flush
        flush_step = self._FLUSH_EVERY
        next_flush = flush_step
        fired = 0
        try:
            if until is None:
                while queue:
                    if fired >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; possible livelock"
                        )
                    time, seq, callback, args, event = pop(queue)
                    if event is not None:
                        if event.cancelled:
                            self._cancelled_in_queue -= 1
                            continue
                        event.on_cancel = None
                    self._now = time
                    self._fire_seq = seq
                    fired += 1
                    if fired == next_flush:
                        next_flush += flush_step
                        flush()
                    callback(*args)
                return
            while queue:
                entry = queue[0]
                event = entry[4]
                if event is not None and event.cancelled:
                    pop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if entry[0] > until:
                    self._now = until
                    return
                if fired >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                pop(queue)
                if event is not None:
                    event.on_cancel = None
                self._now = entry[0]
                self._fire_seq = entry[1]
                fired += 1
                if fired == next_flush:
                    next_flush += flush_step
                    flush()
                entry[2](*entry[3])
            if self._now < until:
                self._now = until
        finally:
            self._running = False
            if fired:
                self._events_processed += fired
                Engine.total_events += fired
