"""One machine: kernel tables plus the effect interpreter.

A :class:`Host` is a workstation or server machine running the distributed V
kernel.  It owns the local process table, pid allocator, service registry,
and the kernel half of every IPC primitive.  Processes on the host are
generator tasks; the host interprets the effects they yield, charging
simulated costs from the domain's :class:`~repro.net.latency.LatencyModel`.
The clock and the wire are the domain's ``engine`` and ``ethernet``: the
discrete-event engine and Ethernet model, or the loop clock and UDP wire of
:mod:`repro.net.asyncio_transport` -- nothing here knows which.

Timing rules (derivations in ``repro/net/latency.py``):

- a *local* message hop (send delivery, reply delivery, forward delivery to a
  same-host process) costs ``local_hop`` of kernel CPU;
- transmitting a packet costs the sending process ``kernel_cpu_per_packet``
  plus the frame's wire time (the experimental Ethernet interface was
  CPU-driven, which is also why a replying server is busy until its reply
  frame is out -- the effect E3 measures);
- an arriving frame costs ``kernel_cpu_per_packet`` before the kernel acts
  on it.

Failure semantics: Sends to processes that do not exist fail with a
``NONEXISTENT_PROCESS`` reply (immediately if the destination kernel is
reachable).  Sends to crashed/partitioned hosts fail with ``TIMEOUT`` after
the probe protocol gives up (see :mod:`repro.kernel.config`).  A
transaction's probe, retransmit and GroupSend-reply timers are deadlines it
carries (:class:`~repro.sim.engine.DeadlineLane`), live exactly while it is
in ``_outstanding`` and its ``kernel`` is set: whatever ends it cancels
nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Optional

from repro.kernel import ipc
from repro.kernel import tap as ev
from repro.kernel.errors import (
    HostDown,
    IllegalEffect,
    KernelError,
    NotAwaitingReply,
)
from repro.kernel.ipc import Delivery
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import LOGICAL_SERVICE_HOST, Pid, PidAllocator
from repro.kernel.process import Process, ProcessState, Transaction
from repro.kernel.services import Scope, ServiceRegistry
from repro.net.packet import BROADCAST, Frame, GroupAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.domain import Domain

#: Sentinel distinguishing "effect completed with this value" from "blocked".
_BLOCKED = object()
#: Process states as module constants: loading an Enum member off its class
#: costs several times a global load, and the step loop reads two per effect.
_READY, _DEAD, _WAITING = (ProcessState.READY, ProcessState.DEAD,
                           ProcessState.WAITING)
_RECV_BLOCKED, _SEND_BLOCKED, _MOVE_BLOCKED = (
    ProcessState.RECV_BLOCKED, ProcessState.SEND_BLOCKED,
    ProcessState.MOVE_BLOCKED)
#: The packet kinds built or tested once per Send, Reply or arriving frame.
_REQUEST, _REPLY, _MOVE_DATA = (PacketKind.REQUEST, PacketKind.REPLY,
                                PacketKind.MOVE_DATA)
_NO_REPLIES: dict[int, Packet] = {}   # no old replies yet; never written


class Host:
    """A single machine in a V domain."""

    #: Slotted: a domain holds hosts by the hundred, and the tap loop below
    #: would otherwise materialize a 49-attribute instance dict on each.
    __slots__ = (
        "domain", "host_id", "name", "engine", "ethernet", "latency",
        "metrics", "config", "allocator", "processes", "registry", "crashed",
        "counters", "_m_probes", "started_at", "_next_txn_id",
        "_next_waiter_id", *ev.SLOTS.values(), "_tap_packet", "_outstanding",
        "_presence", "_forwarded", "_marker_life", "_reply_cache",
        "_reply_cache_old", "_reply_turn", "_getpid_waiters", "_kernel_cpu",
        "_local_hop", "_probe_interval", "_max_failed_probes",
        "_retransmit_enabled", "_retransmit_initial", "_post_transmit_put",
        "_post_handle_packet", "_post_deliver_local_request",
        "_post_complete_local_txn", "_probe_lane", "_first_retransmit_lane",
        "_group_reply_lane")

    def __init__(self, domain: "Domain", host_id: int, name: str) -> None:
        self.domain = domain
        self.host_id = host_id
        self.name = name
        self.engine = domain.engine
        self.ethernet = domain.ethernet
        self.latency = domain.latency
        self.metrics = domain.metrics
        self.config = domain.config

        start = domain.rng.randint_once(f"pids.{host_id}", 1, 0xFFFE)
        self.allocator = PidAllocator(host_id, start=start)
        self.processes: dict[int, Process] = {}
        self.registry = ServiceRegistry()
        self.crashed = False
        #: Per-host IPC counters (introspection wants this kernel's share).
        #: A defaultdict so each count is a single indexed increment; the
        #: per-transaction ones are the domain registry's too (_TALLIED).
        self.counters: dict[str, int] = defaultdict(int)
        self._tally()
        self._m_probes = self.metrics.counter("ipc.probes")
        #: When this kernel came up (simulated seconds); reset by restart().
        self.started_at = self.engine.now
        #: Pre-bound id allocators off the domain's per-run streams (one
        #: attribute load saved on every Send / GetPid broadcast).
        self._next_txn_id = domain._txn_counter.__next__
        self._next_waiter_id = domain._waiter_counter.__next__
        #: The kernel event tap (repro.kernel.tap), one attribute per kind
        #: (``_tap_send`` ... ``_tap_annotate``, ``_tap_packet``): None while
        #: no instrument hears it; the domain rebinds them on attach/detach.
        for slot, fire in domain._taps.items():
            setattr(self, slot, fire)

        #: Sender-side: txn_id -> Transaction for this host's blocked senders.
        self._outstanding: dict[int, Transaction] = {}
        #: Receiver-side: txn_id -> ("queued"|"received", pid), or
        #: ("forwarded", new_dst) for a remote sender's request sent on.
        self._presence: dict[int, tuple[str, Pid]] = {}
        #: txn_id -> expiry of each "forwarded" marker, soonest first
        #: (DESIGN.md section 12 gives the marker's life).
        self._forwarded: dict[int, float] = {}
        self._marker_life = (2 * (self.config.max_failed_probes + 1)
                             * self.config.probe_interval)
        #: Receiver-side: remote sender's pid value -> the last reply sent to
        #: it (not a GroupSend's: never asked again), replayed if its frame was
        #: lost; in this ``_marker_life`` window's generation or the last's.
        self._reply_cache: dict[int, Packet] = {}
        self._reply_cache_old = _NO_REPLIES
        self._reply_turn = 0.0
        #: GetPid broadcast waiters:
        #: waiter_id -> (process, timeout_event, service, attempts)
        self._getpid_waiters: dict[int, tuple[Process, Any, int, int]] = {}

        self.ethernet.attach(host_id, self._on_frame)

        # ---- hot-path flyweights -------------------------------------
        # Latency constants never change for the life of the host;
        # per-frame code reads them through one attribute instead of a chain.
        self._kernel_cpu = self.latency.kernel_cpu_per_packet
        self._local_hop = self.latency.local_hop
        # KernelConfig is frozen; snapshot the per-probe and per-send scalars.
        self._probe_interval = self.config.probe_interval
        self._max_failed_probes = self.config.max_failed_probes
        self._retransmit_enabled = self.config.retransmit_enabled
        self._retransmit_initial = self.config.retransmit_initial
        # Pre-bind the callbacks this kernel posts per frame or per
        # transaction: a bound-method object is otherwise allocated at
        # every post.  (``_post_<method>`` holds the one bound method
        # every post passes; a slot cannot shadow its method's name.)
        self._post_transmit_put = self._transmit_put
        self._post_handle_packet = self._handle_packet
        self._post_deliver_local_request = self._deliver_local_request
        self._post_complete_local_txn = self._complete_local_txn
        # The deadline lanes a Send and a GroupSend arm (shared by the
        # domain's hosts).
        engine = self.engine
        self._probe_lane = engine.deadline_lane(self._probe_interval,
                                                _probe_due)
        self._first_retransmit_lane = engine.deadline_lane(
            self._retransmit_initial, _retransmit_due, True)
        self._group_reply_lane = engine.deadline_lane(
            self.config.group_reply_timeout, _group_reply_due)

    # ------------------------------------------------------------- lifecycle

    def spawn(self, body, name: str = "process") -> Process:
        """Create a process from a generator (or a callable taking its Pid)."""
        if self.crashed:
            raise HostDown(f"host {self.name} is crashed")
        pid = self.allocator.allocate()
        if callable(body) and not hasattr(body, "send"):
            body = body(pid)
        if not hasattr(body, "send"):
            raise TypeError(f"process body must be a generator, not "
                            f"{type(body).__name__}")
        proc = Process(pid, body, name)
        self.processes[pid.local_id] = proc
        self.engine.post(0.0, self._start_process, proc)
        return proc

    def _start_process(self, proc: Process) -> None:
        if not proc.alive:
            return
        self._advance(proc)

    def find_process(self, pid: Pid) -> Optional[Process]:
        proc = self.processes.get(pid.local_id)
        # Pid equality is value equality and aliveness is a state check;
        # both inlined -- this runs on every delivery and probe.
        if (proc is not None and proc.pid.value == pid.value
                and proc.state is not _DEAD):
            return proc
        return None

    def crash(self) -> None:
        """Fail-stop: kill every process, drop all kernel state, cut the link.

        Blocked senders on *other* hosts discover the crash through probe
        timeouts; senders on this host die with it.
        """
        if self.crashed:
            return
        self.crashed = True
        # A host that was permanently detach()ed has no link to cut; a crash
        # plan composed with permanent removal must kill the host, not the
        # engine.
        if self.ethernet.is_attached(self.host_id):
            self.ethernet.set_link(self.host_id, False)
        for proc in list(self.processes.values()):
            proc.state = _DEAD
            proc.body.close()
        self.processes.clear()
        for txn in self._outstanding.values():
            txn.kernel = None       # ended: its deadlines will not fire
        self._outstanding.clear()
        self._presence.clear()
        self._forwarded.clear()
        self._reply_cache, self._reply_cache_old = {}, _NO_REPLIES
        for __, event, __, __ in self._getpid_waiters.values():
            event.cancel()
        self._getpid_waiters.clear()
        self.registry.clear()
        tap = self._tap_crash
        if tap is not None:
            tap(ev.CRASH, self, None)
        self.metrics.incr("kernel.crashes")
        self.domain._notify_host_crashed(self)

    def restart(self) -> None:
        """Bring the machine back up (with empty tables; respawn servers)."""
        if not self.crashed:
            return
        self.crashed = False
        if self.ethernet.is_attached(self.host_id):
            self.ethernet.set_link(self.host_id, True)
        self.counters = defaultdict(int)    # the old one stays tallied
        self._tally()
        self.started_at = self.engine.now
        self.domain._notify_host_restarted(self)

    def _tally(self) -> None:
        for name in _TALLIED:
            self.metrics.tally(name, self.counters)

    # --------------------------------------------------------- process loop

    def _advance(self, proc: Process, value: Any = None,
                 exc: BaseException | None = None) -> None:
        """The step loop: run ``proc`` until it blocks, exits or fails.

        The generator is resumed directly (``send``/``throw`` on
        ``proc.body``), and each effect it yields is dispatched inline; an
        effect that completes immediately resumes the generator with its
        result.  An unstarted body is started by the first ``send(None)``.
        A handler that blocks sets the process's state; one that completes
        leaves it ready.

        Under profiling, everything this step schedules is attributed to
        ``host -> process (-> service kind, if not the process name) (->
        ProfileEnter frames)``.  The scope, cached on the process per kind,
        *replaces* the engine's stack around the loop so interleaved
        processes never inherit each other's frames, and the step dispatches
        through ``_PHASED_HANDLERS``, whose handlers run under their CSNH
        phase frame, which the delivery hops, frames and deadlines they
        schedule inherit.
        """
        engine = self.engine
        saved_stack = None
        handlers = _EFFECT_HANDLERS
        if engine.profiling:
            obs = self.domain.obs
            kind = obs.actors.get(proc.pid.value) if obs is not None else None
            cached = proc.scope_cache
            if cached is None or cached[0] != kind:
                frames = ("host:" + self.name, "proc:" + proc.name)
                if kind is not None and kind != proc.name:
                    frames += ("svc:" + kind,)
                cached = proc.scope_cache = (kind,
                                             frames + proc.profile_frames)
            saved_stack = engine._attr_stack
            engine._attr_stack = cached[1]
            handlers = _PHASED_HANDLERS
        body = proc.body
        proc.state = _READY
        try:
            while proc.state is not _DEAD:
                try:
                    if exc is None:
                        effect = body.send(value)
                    else:
                        err, exc = exc, None
                        effect = body.throw(err)
                except StopIteration:
                    self._terminate(proc)
                    return
                except BaseException as err:  # noqa: BLE001 - recorded
                    self.domain.failures.append(
                        (f"{self.name}/{proc.name}", err))
                    self._terminate(proc)
                    return
                try:
                    # Dispatch is inlined: one effect per resume, tens of
                    # thousands per simulated second.
                    value = handlers.get(type(effect), _illegal_effect)(
                        self, proc, effect)
                except KernelError as err:
                    # API misuse becomes an exception *inside* the process,
                    # so a defensive server can catch it; an unhandled one
                    # fails the task and is recorded in domain.failures.
                    value, exc = None, err
                    proc.state = _READY
                    continue
                if value is _BLOCKED:
                    return
        finally:
            if saved_stack is not None:
                engine._attr_stack = saved_stack

    def _terminate(self, proc: Process) -> None:
        """Process exit: error-reply held requests, release kernel state."""
        if proc.state is _DEAD:
            return
        proc.state = _DEAD
        # Anyone whose request we hold (queued or received) gets an error reply.
        held = list(proc.msg_queue) + list(proc.unreplied.values())
        proc.msg_queue.clear()
        proc.unreplied.clear()
        for delivery in held:
            self._presence.pop(delivery.txn_id, None)
            tap = self._tap_receiver_exit
            if tap is not None:
                tap(ev.RECEIVER_EXIT, self, proc, delivery)
            self._route_reply(
                proc.pid, delivery,
                Message.reply(ReplyCode.NONEXISTENT_PROCESS), busy=False,
            )
        txn = proc.pending_txn
        if txn is not None:
            self._outstanding.pop(txn.txn_id, None)
            txn.kernel = None
            proc.pending_txn = None
        self.registry.remove_pid(proc.pid)
        self.domain.groups.remove_pid(proc.pid)
        self.processes.pop(proc.pid.local_id, None)
        self.allocator.release(proc.pid)
        self.metrics.incr("kernel.process_exits")

    def profile(self):
        """A scoped profiler reporting only this host's frames.

        Accounting is engine-wide (time is global); the returned profiler
        filters its report to stacks rooted at ``host:<name>``.
        """
        from repro.obs.profile import Profiler

        return Profiler(engine=self.engine, root="host:" + self.name)

    # -- Send ----------------------------------------------------------------

    def _do_send(self, proc: Process, effect: ipc.Send) -> Any:
        dst_host = effect.dst.logical_host
        if dst_host == LOGICAL_SERVICE_HOST:   # Pid.is_logical_service
            raise IllegalEffect(
                f"cannot Send to logical pid {effect.dst!r}; resolve with GetPid first"
            )
        engine = self.engine
        txn = Transaction(self._next_txn_id(), proc.pid, effect.dst,
                          effect.message, effect.expose, engine._now, self)
        proc.pending_txn = txn
        proc.state = _SEND_BLOCKED
        self._outstanding[txn.txn_id] = txn
        self.counters["ipc.sends"] += 1
        tap = self._tap_send
        if tap is not None:
            tap(ev.SEND, self, proc, txn)
        # ``is_local_to`` and the one-line ``_transmit`` wrapper are inlined
        # here and on the reply/probe paths: one Send/Reply round trip
        # otherwise pays four extra method calls.
        if dst_host == self.host_id:
            engine.post(self._local_hop,
                        self._post_deliver_local_request, txn, None)
        else:
            packet = Packet(_REQUEST, proc.pid, effect.dst,
                            txn.txn_id, effect.message)
            engine.post(self._kernel_cpu,
                        self._post_transmit_put, packet, dst_host, None)
        # The probe and retransmit deadlines, armed inline (DeadlineLane):
        # reserved sequence numbers, two stores each and a lane append.
        # Local requests are delivered by a reliable in-kernel hop, but the
        # retransmit deadline is armed for them too: a Forward may push the
        # transaction onto the (lossy) wire later, and then it is this
        # deadline that re-sends the request.
        seq = engine._seq
        txn.probe_at, txn.probe_seq = engine._now + self._probe_interval, seq
        lane = self._probe_lane
        if lane.fifo:
            lane.fifo.append(txn)
        else:
            lane.start(txn)
        if self._retransmit_enabled:
            seq += 1
            txn.retransmit_at = engine._now + self._retransmit_initial
            txn.retransmit_seq = seq
            lane = self._first_retransmit_lane
            if lane.fifo:
                lane.fifo.append(txn)
            else:
                lane.start(txn)
        engine._seq = seq + 1
        if engine.profiling:    # the stack ends in phase:send here
            txn.probe_stamp = engine._attr_stack + _PROBE
            txn.retransmit_stamp = engine._attr_stack + _RETRANSMIT
        return _BLOCKED

    def _deliver_local_request(self, txn: Transaction,
                               forwarder: Optional[Pid]) -> None:
        """Same-host request delivery (Send or Forward landing locally)."""
        dst = txn.dst
        dst_proc = self.processes.get(dst.local_id)   # find_process, inlined
        if (dst_proc is None or dst_proc.pid.value != dst.value
                or dst_proc.state is _DEAD):
            error = Message.reply(ReplyCode.NONEXISTENT_PROCESS)
            if txn.sender.is_local_to(self.host_id):
                self._complete_local_txn(txn, error)
            else:
                nack = Packet(PacketKind.NACK, src_pid=txn.dst,
                              dst_pid=txn.sender, txn_id=txn.txn_id,
                              message=error)
                self._transmit(nack, txn.sender.logical_host)
            return
        self._enqueue_delivery(dst_proc, Delivery(txn.message, txn.sender,
                                                  txn.txn_id, forwarder))

    def _complete_local_txn(self, txn: Transaction, reply: Message) -> None:
        """Complete a txn whose sender is on this host."""
        current = self._outstanding.pop(txn.txn_id, None)
        if current is None:
            self.metrics.incr("ipc.duplicate_replies")
            return
        current.kernel = None
        # The sender still waiting on it: a process that exited (or a later
        # one reusing its local id) holds no pending transaction, or another.
        sender = self.processes.get(current.sender.local_id)
        if sender is not None and sender.pending_txn is not current:
            sender = None
        tap = self._tap_complete
        if tap is not None:
            tap(ev.COMPLETE, self, current, reply, sender)
        if sender is None:
            return
        sender.pending_txn = None
        self.counters["ipc.transactions"] += 1
        self._advance(sender, reply)

    # -- Receive ---------------------------------------------------------------

    def _do_receive(self, proc: Process, effect: ipc.Receive) -> Any:
        if proc.msg_queue:
            delivery = proc.next_matching_delivery(effect.from_pid)
            if delivery is not None:
                # Received and not yet replied; a request (not a group
                # delivery) also moves from "queued" to "received".
                txn_id = delivery.txn_id
                proc.unreplied[txn_id] = delivery
                if txn_id in self._presence:
                    self._presence[txn_id] = ("received", proc.pid)
                return delivery
        proc.state = _RECV_BLOCKED
        proc.recv_filter = effect.from_pid
        return _BLOCKED

    def _enqueue_delivery(self, proc: Process, delivery: Delivery) -> None:
        # A request (not a group delivery) is "received" at once by a
        # matching Receive already waiting, else "queued" until one comes.
        received = proc.state is _RECV_BLOCKED and (
            proc.recv_filter is None or proc.recv_filter == delivery.sender)
        if not delivery.via_group:
            self._presence[delivery.txn_id] = (
                "received" if received else "queued", proc.pid)
        self.counters["ipc.deliveries"] += 1
        tap = self._tap_deliver
        if tap is not None:
            tap(ev.DELIVER, self, proc, delivery)
        if received:
            proc.recv_filter = None
            proc.unreplied[delivery.txn_id] = delivery   # as in _do_receive
            self._advance(proc, delivery)
        else:
            proc.msg_queue.append(delivery)

    # -- Reply -------------------------------------------------------------------

    def _do_reply(self, proc: Process, effect: ipc.Reply) -> Any:
        unreplied = proc.unreplied
        to = effect.to
        for txn_id, delivery in unreplied.items():
            if delivery.sender is to or delivery.sender == to:
                del unreplied[txn_id]
                break
        else:
            raise NotAwaitingReply(
                f"{proc.name!r} tried to Reply to {effect.to!r}, "
                "which is not awaiting a reply from it")
        self._presence.pop(txn_id, None)
        self.counters["ipc.replies"] += 1
        tap = self._tap_reply
        if tap is not None:
            tap(ev.REPLY, self, proc, delivery, effect.message)
        return self._route_reply(proc.pid, delivery, effect.message, True,
                                 proc)

    def _route_reply(self, from_pid: Pid, delivery: Delivery, message: Message,
                     busy: bool, replier: Process | None = None) -> Any:
        """Send a reply toward ``delivery.sender``.

        ``busy=True`` models the replier being occupied while the reply frame
        is pushed out (remote case); it then returns _BLOCKED and resumes the
        replier when the frame is on the wire.
        """
        sender_pid = delivery.sender
        sender_host = sender_pid.logical_host
        if sender_host == self.host_id:
            txn = self._outstanding.get(delivery.txn_id)
            if txn is not None:
                self.engine.post(self._local_hop,
                                 self._post_complete_local_txn, txn, message)
            else:
                self.metrics.incr("ipc.duplicate_replies")
            return None
        packet = Packet(_REPLY, from_pid, sender_pid,
                        delivery.txn_id, message)
        if self._retransmit_enabled and not delivery.via_group:
            if self.engine._now >= self._reply_turn:   # the window turns
                self._reply_cache_old, self._reply_cache = (
                    self._reply_cache if self.engine._now < self._reply_turn
                    + self._marker_life else _NO_REPLIES), {}
                self._reply_turn = self.engine._now + self._marker_life
            self._reply_cache[sender_pid.value] = packet
            if sender_pid.value in self._reply_cache_old:   # superseded
                del self._reply_cache_old[sender_pid.value]
        if busy and replier is not None:
            replier.state = _WAITING
            self.engine.post(self._kernel_cpu, self._post_transmit_put, packet,
                             sender_host, replier)
            return _BLOCKED
        self.engine.post(self._kernel_cpu,
                         self._post_transmit_put, packet, sender_host, None)
        return None

    # -- Forward -------------------------------------------------------------------

    def _do_forward(self, proc: Process, effect: ipc.Forward) -> Any:
        delivery = effect.delivery
        if proc.unreplied.pop(delivery.txn_id, None) is None:
            raise NotAwaitingReply(
                f"{proc.name!r} tried to Forward txn {delivery.txn_id}, "
                "which it has not received (or has already answered)"
            )
        message = effect.message if effect.message is not None else delivery.message
        self.metrics.incr("ipc.forwards")
        self.counters["ipc.forwards"] += 1
        tap = self._tap_forward
        if tap is not None:
            tap(ev.FORWARD, self, proc, effect, message)
        # Tell the sender's kernel where the transaction went, if it is here.
        local_txn = self._outstanding.get(delivery.txn_id)
        if local_txn is not None:
            local_txn.dst = effect.dst
            local_txn.message = message
        if effect.dst.is_local_to(self.host_id):
            self._presence[delivery.txn_id] = ("queued", effect.dst)
            shadow = Transaction(txn_id=delivery.txn_id, sender=delivery.sender,
                                 dst=effect.dst, message=message)
            if local_txn is not None:
                shadow = local_txn
            self.engine.post(self._local_hop, self._post_deliver_local_request,
                             shadow, proc.pid)
            return None
        if local_txn is None:   # a remote sender may still retransmit here
            self._mark_forwarded(delivery.txn_id, effect.dst)
        else:                   # the request left; its sender knows where
            self._presence.pop(delivery.txn_id, None)
        packet = Packet(PacketKind.REQUEST, src_pid=delivery.sender,
                        dst_pid=effect.dst, txn_id=delivery.txn_id,
                        message=message, info={"forwarder": proc.pid})
        proc.state = _WAITING
        self._transmit(packet, effect.dst.logical_host, resume=proc)
        return _BLOCKED

    def _mark_forwarded(self, txn_id: int, dst: Pid) -> None:
        """Set or refresh the "forwarded" marker of ``txn_id``, first
        dropping the markers whose sender can no longer reach this host."""
        now = self.engine.now
        forwarded, presence = self._forwarded, self._presence
        while forwarded:
            expired = next(iter(forwarded))
            if forwarded[expired] > now:
                break
            del forwarded[expired]
            if presence.get(expired, ("",))[0] == "forwarded":
                del presence[expired]
        forwarded.pop(txn_id, None)         # refreshed: now the latest
        forwarded[txn_id] = now + self._marker_life
        presence[txn_id] = ("forwarded", dst)

    # -- MoveTo / MoveFrom ------------------------------------------------------------

    def _locate_move_txn(self, proc: Process, other: Pid) -> Transaction:
        """Find the transaction authorizing a bulk move with ``other``.

        The mover must currently hold (have received and not yet replied to)
        a request whose sender is ``other``; V's rule that moves are only
        legal against a sender blocked on you falls out of that.
        """
        for delivery in proc.unreplied.values():
            if delivery.sender == other:
                txn = self.domain.find_transaction(delivery.txn_id, other)
                if txn is None:
                    raise NotAwaitingReply(
                        f"transaction {delivery.txn_id} from {other!r} is gone"
                    )
                return txn
        raise NotAwaitingReply(
            f"{proc.name!r} attempted a bulk move with {other!r}, "
            "which is not send-blocked on it"
        )

    def _do_move_from(self, proc: Process, effect: ipc.MoveFrom) -> Any:
        txn = self._locate_move_txn(proc, effect.src)
        if txn.expose is None:
            raise NotAwaitingReply(f"{effect.src!r} exposed no segment")
        data = txn.expose.read(effect.offset, effect.nbytes)  # may raise
        self.metrics.incr("ipc.movefrom_bytes", effect.nbytes)
        return self._bulk_transfer(proc, effect.src.logical_host,
                                   self.host_id, effect.nbytes, data)

    def _do_move_to(self, proc: Process, effect: ipc.MoveTo) -> Any:
        txn = self._locate_move_txn(proc, effect.dst)
        if txn.expose is None:
            raise NotAwaitingReply(f"{effect.dst!r} exposed no segment")
        txn.expose.write(effect.offset, effect.data)  # may raise
        self.metrics.incr("ipc.moveto_bytes", len(effect.data))
        return self._bulk_transfer(proc, self.host_id,
                                   effect.dst.logical_host, len(effect.data), None)

    def _bulk_transfer(self, proc: Process, src_host: int, dst_host: int,
                       nbytes: int, result: Any) -> Any:
        """Charge a bulk move and resume ``proc`` when it completes.

        Same-host moves are a bounded-cost copy; cross-host moves are a train
        of data packets paced at the host packet-write limit (see E2 notes in
        latency.py).  The data frames are put on the simulated wire so bus
        statistics and contention stay honest.
        """
        if src_host == dst_host:
            duration = self.latency.bulk_move_local(nbytes)
            proc.state = _MOVE_BLOCKED
            self.engine.post(duration, self._advance, proc, result)
            return _BLOCKED
        packets = self.latency.bulk_packets(nbytes)
        per_packet = self.latency.bulk_move_remote(nbytes) / max(packets, 1)
        proc.state = _MOVE_BLOCKED
        remaining = nbytes
        for index in range(packets):
            chunk = min(remaining, 1024)
            remaining -= chunk
            self.engine.post(
                per_packet * (index + 1) - self.latency.wire_time(chunk),
                self._emit_move_frame, src_host, dst_host, chunk,
            )
        self.engine.post(per_packet * packets, self._advance, proc, result)
        return _BLOCKED

    def _emit_move_frame(self, src_host: int, dst_host: int, chunk: int) -> None:
        packet = Packet(PacketKind.MOVE_DATA, src_pid=Pid(0), dst_pid=None,
                        txn_id=0, info={"data_bytes": chunk})
        frame = Frame(src_host, dst_host, packet, packet.payload_bytes)
        if self.engine.profiling:
            self.engine.profile_count_message(packet.payload_bytes)
        self.ethernet.transmit(frame)

    # -- services -----------------------------------------------------------------

    def _do_set_pid(self, proc: Process, effect: ipc.SetPid) -> Any:
        self.registry.set_pid(effect.service, proc.pid, effect.scope)
        self.metrics.incr("services.registrations")
        return None

    def _do_get_pid(self, proc: Process, effect: ipc.GetPid) -> Any:
        if effect.scope is not Scope.REMOTE:
            local = self.registry.lookup_local(effect.service)
            if local is not None and self.find_process(local) is not None:
                self.metrics.incr("services.getpid_local_hits")
                return local
        if effect.scope is Scope.LOCAL:
            return None
        proc.state = _WAITING
        self.metrics.incr("services.getpid_broadcasts")
        self._broadcast_getpid(proc, int(effect.service),
                               self._next_waiter_id(), 0)
        return _BLOCKED

    def _broadcast_getpid(self, proc: Process, service: int, waiter_id: int,
                          attempts: int) -> None:
        """Broadcast round ``attempts`` of ``proc``'s GetPid query."""
        timeout = self.engine.schedule(self.config.getpid_timeout,
                                       self._getpid_timeout, waiter_id)
        self._getpid_waiters[waiter_id] = (proc, timeout, service, attempts)
        self._transmit(Packet(PacketKind.GETPID_QUERY, src_pid=proc.pid,
                              dst_pid=None, txn_id=0,
                              info={"service": service, "waiter": waiter_id}),
                       BROADCAST)

    def _getpid_timeout(self, waiter_id: int) -> None:
        entry = self._getpid_waiters.get(waiter_id)
        if entry is None:
            return
        proc, __, service, attempts = entry
        if attempts < self.config.getpid_retries:
            # The query (or every response) may have been a lost frame; a
            # service that exists must not look absent because of one drop.
            # Re-broadcast under the same waiter id: a late response to an
            # earlier round still satisfies us.
            self.metrics.incr("services.getpid_retries")
            self.counters["services.getpid_retries"] += 1
            self._broadcast_getpid(proc, service, waiter_id, attempts + 1)
            return
        self._getpid_waiters.pop(waiter_id, None)
        self.metrics.incr("services.getpid_timeouts")
        self._advance(proc, value=None)

    # -- groups -------------------------------------------------------------------

    def _do_join_group(self, proc: Process, effect: ipc.JoinGroup) -> Any:
        self.domain.groups.join(effect.group_id, proc.pid)
        self.ethernet.join_group(self.host_id, GroupAddress(effect.group_id))
        return None

    def _do_leave_group(self, proc: Process, effect: ipc.LeaveGroup) -> Any:
        self.domain.groups.leave(effect.group_id, proc.pid)
        if not self.domain.groups.members_on_host(effect.group_id, self.host_id):
            self.ethernet.leave_group(self.host_id, GroupAddress(effect.group_id))
        return None

    def _do_group_send(self, proc: Process, effect: ipc.GroupSend) -> Any:
        engine = self.engine
        txn = Transaction(txn_id=self._next_txn_id(), sender=proc.pid,
                          dst=proc.pid, message=effect.message,
                          sent_at=engine.now, kernel=self)
        proc.pending_txn = txn
        proc.state = _SEND_BLOCKED
        self._outstanding[txn.txn_id] = txn
        self.metrics.incr("ipc.group_sends")
        # The reply timeout is the probe deadline (a group transaction has
        # no probes), live while the transaction is outstanding like any.
        self._group_reply_lane.arm(txn, engine)
        # Local members (other than the sender) get a local delivery.
        for member in self.domain.groups.members_on_host(
                effect.group_id, self.host_id):
            if member != proc.pid:
                self.engine.post(
                    self._local_hop, self._deliver_group_local,
                    Transaction(txn_id=txn.txn_id, sender=proc.pid,
                                dst=member, message=effect.message))
        # Remote members are reached by one multicast frame.
        packet = Packet(PacketKind.GROUP_REQUEST, src_pid=proc.pid, dst_pid=None,
                        txn_id=txn.txn_id, message=effect.message,
                        info={"group": effect.group_id})
        self._transmit(packet, GroupAddress(effect.group_id))
        return _BLOCKED

    def _deliver_group_local(self, txn: Transaction) -> None:
        dst_proc = self.find_process(txn.dst)
        if dst_proc is None:
            return
        delivery = Delivery(message=txn.message, sender=txn.sender,
                            txn_id=txn.txn_id, via_group=True)
        self._enqueue_delivery(dst_proc, delivery)

    # -- misc ---------------------------------------------------------------------

    def _do_delay(self, proc: Process, effect: ipc.Delay) -> Any:
        proc.state = _WAITING
        self.engine.post(effect.seconds, self._advance, proc, None)
        return _BLOCKED

    def _do_annotate(self, proc: Process, effect: ipc.Annotate) -> Any:
        """Zero-cost: enrich the hop span of a held transaction, if traced."""
        tap = self._tap_annotate
        if tap is not None:
            tap(ev.ANNOTATE, self, proc, effect)
        return None

    # ProfileEnter and ProfileExit have no phase frame, so while either runs
    # the engine's stack is exactly this step's process scope, and the frame
    # is opened or closed on both at once.

    def _do_profile_enter(self, proc: Process, effect: ipc.ProfileEnter) -> Any:
        """Zero-cost: open a per-process attribution frame (see ipc)."""
        engine = self.engine
        if engine.profiling:
            label = ("phase:" + effect.label,)
            proc.profile_frames += label
            proc.scope_cache = None
            engine._attr_stack += label
        return None

    def _do_profile_exit(self, proc: Process, effect: ipc.ProfileExit) -> Any:
        engine = self.engine
        if engine.profiling and proc.profile_frames:
            proc.profile_frames = proc.profile_frames[:-1]
            proc.scope_cache = None
            engine._attr_stack = engine._attr_stack[:-1]
        return None

    def _do_now(self, proc: Process, effect: ipc.Now) -> Any:
        return self.engine.now

    def _do_my_pid(self, proc: Process, effect: ipc.MyPid) -> Any:
        return proc.pid

    def _do_spawn(self, proc: Process, effect: ipc.Spawn) -> Any:
        # Not self.spawn: a driver's override may return a Pid instead.
        child = Host.spawn(self, effect.body, name=effect.name)
        return child.pid

    def _do_exit(self, proc: Process, effect: ipc.Exit) -> Any:
        proc.body.close()
        self._terminate(proc)
        return _BLOCKED

    # ------------------------------------------------------------ networking

    def _transmit(self, packet: Packet, dst, resume=None) -> None:
        """Charge send-side kernel CPU, then put one frame on the wire (then
        step the process ``resume``, if given)."""
        self.engine.post(self._kernel_cpu,
                         self._post_transmit_put, packet, dst, resume)

    def _transmit_put(self, packet: Packet, dst, resume) -> None:
        if self.crashed:
            return
        frame = Frame(self.host_id, dst, packet, packet.payload_bytes)
        engine = self.engine
        if engine.profiling:
            # One message out: bump the current stack's message/byte
            # totals, and charge the propagation (the arrival event the
            # ethernet schedules) to a wire frame under this phase.
            engine.profile_count_message(packet.payload_bytes)
            stack = engine._attr_stack
            if stack[-1:] != _WIRE:
                engine._attr_stack = stack + _WIRE
            arrival = self.ethernet.transmit(frame)
            engine._attr_stack = stack
        else:
            arrival = self.ethernet.transmit(frame)
        if resume is not None:
            engine.post_at(arrival, self._advance, resume)

    def _on_frame(self, frame: Frame) -> None:
        packet = frame.payload
        if type(packet) is not Packet:
            return
        if packet.kind is _MOVE_DATA:
            return  # pure timing/traffic; the move completion is scheduled
        self.engine.post(self._kernel_cpu,
                         self._post_handle_packet, packet, frame.src_host)

    def _handle_packet(self, packet: Packet, src_host: int) -> None:
        if self.crashed:
            return
        taps = self._tap_packet
        if taps is not None:
            tap = taps.get(packet.kind)
            if tap is not None:
                tap(ev.PACKET[packet.kind], self, packet)
        handler = _PACKET_HANDLERS[packet.kind]
        handler(self, packet, src_host)

    def _on_request_packet(self, packet: Packet, src_host: int) -> None:
        assert packet.dst_pid is not None and packet.message is not None
        presence = self._presence.get(packet.txn_id)
        if (presence is not None and presence[0] == "forwarded"
                and packet.info.get("forwarder") is not None):
            # The forwarding chain re-entered a host it already passed
            # through (A forwarded the txn away; a later hop forwarded it
            # back to another process on A).  The stale "forwarded" marker
            # must not suppress the new leg as a duplicate -- that drops
            # the request on the floor while the sender's probes keep
            # finding live processes, a permanent black hole.  Only true
            # forward hops carry a forwarder pid; sender retransmissions
            # do not, and those still dup-suppress below.
            presence = None
        if presence is not None:
            # A copy of a request we already hold (retransmission or wire
            # duplicate).  The transaction is idempotent-at-most-once from
            # the receiver's perspective: drop the copy, keep the original.
            if presence[0] == "forwarded":
                self._mark_forwarded(packet.txn_id, presence[1])
            self.metrics.incr("ipc.dup_suppressed")
            self.counters["ipc.dup_suppressed"] += 1
            tap = self._tap_dup_suppressed
            if tap is not None:
                tap(ev.DUP_SUPPRESSED, self, packet, presence[1])
            return
        key = packet.src_pid.value
        cached = self._reply_cache.get(key) or self._reply_cache_old.get(key)
        if cached is not None and cached.txn_id >= packet.txn_id:
            # Answered: replay its lost reply, or drop a superseded Send.
            self.metrics.incr("ipc.dup_suppressed")
            if cached.txn_id == packet.txn_id:
                self._replay_reply(cached, packet)
            else:
                self.counters["ipc.dup_suppressed"] += 1
            return
        dst_proc = self.find_process(packet.dst_pid)
        if dst_proc is None:
            nack = Packet(PacketKind.NACK, src_pid=packet.dst_pid,
                          dst_pid=packet.src_pid, txn_id=packet.txn_id,
                          message=Message.reply(ReplyCode.NONEXISTENT_PROCESS))
            self._transmit(nack, packet.src_pid.logical_host)
            return
        delivery = Delivery(message=packet.message, sender=packet.src_pid,
                            txn_id=packet.txn_id,
                            forwarder=packet.info.get("forwarder"))
        self._enqueue_delivery(dst_proc, delivery)

    def _replay_reply(self, cached: Packet, packet: Packet) -> None:
        """Resend ``cached``, the reply ``packet`` asks for again."""
        self.metrics.incr("ipc.reply_resends")
        self.counters["ipc.reply_resends"] += 1
        self.engine.post(self._kernel_cpu, self._post_transmit_put, cached,
                         packet.src_pid.logical_host, None)   # _transmit

    def _on_reply_packet(self, packet: Packet, src_host: int) -> None:
        txn = self._outstanding.get(packet.txn_id)
        if txn is None:
            self.metrics.incr("ipc.duplicate_replies")
            return
        assert packet.message is not None
        self._complete_local_txn(txn, packet.message)

    def _on_probe_packet(self, packet: Packet, src_host: int) -> None:
        presence = self._presence.get(packet.txn_id)
        if presence is None:
            key = packet.src_pid.value
            cached = self._reply_cache.get(key) or self._reply_cache_old.get(key)
            if cached is not None and cached.txn_id == packet.txn_id:
                self._replay_reply(cached, packet)   # done; its reply lost
                return
            if (packet.dst_pid is not None
                    and self.find_process(packet.dst_pid) is not None):
                # The destination process is alive but we have no trace of
                # the transaction: the request frame itself was lost.  Tell
                # the sender so it can retransmit instead of (wrongly)
                # concluding the process is gone.
                response = Packet(PacketKind.PROBE_MISSING, packet.dst_pid,
                                  packet.src_pid, packet.txn_id)
            else:
                response = Packet(
                    PacketKind.NACK, packet.dst_pid or Pid(0), packet.src_pid,
                    packet.txn_id, Message.reply(ReplyCode.NONEXISTENT_PROCESS))
        elif presence[0] == "forwarded":
            self._mark_forwarded(packet.txn_id, presence[1])
            response = Packet(PacketKind.PROBE_FORWARDED,
                              src_pid=packet.dst_pid or Pid(0),
                              dst_pid=packet.src_pid, txn_id=packet.txn_id,
                              info={"new_dst": presence[1]})
        else:
            response = Packet(PacketKind.PROBE_OK,
                              packet.dst_pid or Pid(0),
                              packet.src_pid, packet.txn_id)
        self.engine.post(self._kernel_cpu, self._post_transmit_put, response,
                         packet.src_pid.logical_host, None)

    def _on_probe_ok_packet(self, packet: Packet, src_host: int) -> None:
        txn = self._outstanding.get(packet.txn_id)
        if txn is not None:
            txn.probes_unanswered = 0
            # The responder holds the request: stop retransmitting it.  The
            # probe protocol takes over liveness from here.
            txn.acked = True

    def _on_probe_forwarded_packet(self, packet: Packet, src_host: int) -> None:
        txn = self._outstanding.get(packet.txn_id)
        if txn is not None:
            txn.dst = packet.info["new_dst"]
            self._on_probe_ok_packet(packet, src_host)

    def _on_probe_missing_packet(self, packet: Packet, src_host: int) -> None:
        txn = self._outstanding.get(packet.txn_id)
        if txn is None:
            return
        if self._retransmit_enabled:
            # The request never arrived; push a fresh copy now rather than
            # waiting out the backoff, and give the probe counter a fresh
            # start -- the peer did answer, so it is alive.
            txn.probes_unanswered = 0
            self._retransmit_now(txn)
        else:
            # Without retransmission the transaction cannot be salvaged.
            self.metrics.incr("ipc.send_timeouts")
            self._complete_local_txn(txn, Message.reply(ReplyCode.TIMEOUT))

    def _on_getpid_query_packet(self, packet: Packet, src_host: int) -> None:
        service = packet.info["service"]
        found = self.registry.lookup_remote(service)
        if found is not None and self.find_process(found) is not None:
            response = Packet(PacketKind.GETPID_RESPONSE, src_pid=found,
                              dst_pid=packet.src_pid, txn_id=0,
                              info={"waiter": packet.info["waiter"], "pid": found})
            self._transmit(response, src_host)
        else:
            # The cost the paper's Sec. 7 wants to eliminate: every host on
            # the wire examines and discards broadcast queries not for it.
            self.metrics.incr("services.broadcast_discards")

    def _on_getpid_response_packet(self, packet: Packet, src_host: int) -> None:
        entry = self._getpid_waiters.pop(packet.info["waiter"], None)
        if entry is None:
            self.metrics.incr("services.getpid_late_responses")
            return
        proc, timeout, __, __ = entry
        timeout.cancel()
        self._advance(proc, value=packet.info["pid"])

    def _on_group_request_packet(self, packet: Packet, src_host: int) -> None:
        assert packet.message is not None
        group_id = packet.info["group"]
        for member in self.domain.groups.members_on_host(group_id, self.host_id):
            dst_proc = self.find_process(member)
            if dst_proc is None:
                continue
            delivery = Delivery(message=packet.message, sender=packet.src_pid,
                                txn_id=packet.txn_id, via_group=True)
            self._enqueue_delivery(dst_proc, delivery)

    # ------------------------------------------------- probes, retransmission
    #
    # The deadlines fire through ``_probe_due`` and on (module functions,
    # below), only while their transaction is outstanding.

    def _retransmit_now(self, txn: Transaction) -> None:
        """Push one fresh copy of an outstanding request onto the wire."""
        packet = Packet(PacketKind.REQUEST, txn.sender, txn.dst,
                        txn.txn_id, txn.message)
        txn.retransmits += 1
        self.metrics.incr("ipc.retransmits")
        self.counters["ipc.retransmits"] += 1
        tap = self._tap_retransmit
        if tap is not None:
            tap(ev.RETRANSMIT, self, txn)
        engine = self.engine
        # Also reached outside the timer (PROBE_MISSING): profiled, the
        # fresh copy is charged to the retransmission phase regardless.
        stack = engine._attr_stack if engine.profiling else None
        if stack is not None and stack[-1:] != _RETRANSMIT:
            engine._attr_stack = stack + _RETRANSMIT
        self._transmit(packet, txn.dst.logical_host)
        if stack is not None:
            engine._attr_stack = stack

    # ----------------------------------------------------------- introspection

    @property
    def uptime(self) -> float:
        """Simulated seconds since boot (or last restart)."""
        return self.engine.now - self.started_at

    def snapshot(self) -> dict:
        """JSON-ready kernel state for the ``[obs]`` stat server.

        Capturing this is zero-cost in simulated time; *reading* it goes
        through the normal V I/O path and is charged like any other traffic.
        Also refreshes the ``host.uptime_seconds`` gauge in the domain
        metrics registry so offline metric exports carry it too.
        """
        if self.domain.obs is not None:
            self.metrics.gauge(
                "host.uptime_seconds", host=self.name).set(self.uptime)
        return {
            "host": self.name,
            "host_id": self.host_id,
            "time": self.engine.now,
            "crashed": self.crashed,
            "uptime_seconds": self.uptime,
            "process_count": len(self.processes),
            "outstanding_txns": len(self._outstanding),
            "counters": dict(sorted(self.counters.items())),
            "registrations": self.registry.snapshot(),
        }

    def process_snapshot(self) -> list[dict]:
        """JSON-ready process table (``[obs]/hosts/<host>/processes``)."""
        records = []
        for proc in self.processes.values():
            records.append({
                "pid": proc.pid.value,
                "local_id": proc.pid.local_id,
                "name": proc.name,
                "state": proc.state.name.lower(),
                "queued": len(proc.msg_queue),
                "unreplied": len(proc.unreplied),
            })
        records.sort(key=lambda r: r["local_id"])
        return records


def _illegal_effect(host: Host, proc: Process, effect: Any) -> Any:
    raise IllegalEffect(f"process {proc.name!r} yielded {effect!r}, "
                        "which is not a kernel effect")


#: Each effect's handler, and the CSNH phase frame the profiler opens while
#: it runs (inherited by everything it schedules).  Delay has no phase on
#: purpose -- it models the *process's own* CPU (a prefix parse, a server
#: handler), which belongs to the process/service frames, not to a kernel
#: protocol phase.
_EFFECTS = {
    ipc.Send: (Host._do_send, "send"),
    ipc.Receive: (Host._do_receive, None),
    ipc.Reply: (Host._do_reply, "reply"),
    ipc.Forward: (Host._do_forward, "forward_hop"),
    ipc.MoveFrom: (Host._do_move_from, "move_from"),
    ipc.MoveTo: (Host._do_move_to, "move_to"),
    ipc.SetPid: (Host._do_set_pid, None),
    ipc.GetPid: (Host._do_get_pid, "getpid"),
    ipc.JoinGroup: (Host._do_join_group, None),
    ipc.LeaveGroup: (Host._do_leave_group, None),
    ipc.GroupSend: (Host._do_group_send, "group_send"),
    ipc.Delay: (Host._do_delay, None),
    ipc.Annotate: (Host._do_annotate, None),
    ipc.ProfileEnter: (Host._do_profile_enter, None),
    ipc.ProfileExit: (Host._do_profile_exit, None),
    ipc.Now: (Host._do_now, None),
    ipc.MyPid: (Host._do_my_pid, None),
    ipc.Spawn: (Host._do_spawn, None),
    ipc.Exit: (Host._do_exit, None),
}


def _phased(handler, frame: tuple):
    """``handler`` run under the phase ``frame`` (unless already open)."""
    def run(host: Host, proc: Process, effect: Any) -> Any:
        engine = host.engine
        stack = engine._attr_stack
        if stack[-1:] != frame:
            engine._attr_stack = stack + frame
        try:
            return handler(host, proc, effect)
        finally:
            engine._attr_stack = stack
    return run


#: The handlers an unprofiled step and a profiled one dispatch through.
_EFFECT_HANDLERS = {kind: handler for kind, (handler, __) in _EFFECTS.items()}
_PHASED_HANDLERS = {kind: _phased(handler, ("phase:" + phase,)) if phase
                    else handler for kind, (handler, phase) in _EFFECTS.items()}

#: The kernel's other phase frames: a frame on the wire, a transaction's
#: probe deadline and its retransmission backoff.  Each is opened on the
#: engine's stack only when it is not already the innermost frame.
_WIRE, _PROBE, _RETRANSMIT = (("phase:wire",), ("phase:probe",),
                              ("phase:retransmit",))


# The deadlines' firing callbacks (DeadlineLane): each runs only while its
# transaction is outstanding at its kernel.

def _probe_due(txn: Transaction, lane) -> None:
    """A probe deadline: give up after ``max_failed_probes`` unanswered
    probes, else probe the responder (or look locally) and re-arm."""
    host = txn.kernel
    if txn.probes_unanswered >= host._max_failed_probes:
        host.metrics.incr("ipc.send_timeouts")
        host._complete_local_txn(txn, Message.reply(ReplyCode.TIMEOUT))
        return
    txn.probes_unanswered += 1
    dst_host = txn.dst.logical_host
    if dst_host == host.host_id:
        # A local request held here (a Forward off this host re-aims txn.dst
        # itself, so no marker is left for a local sender).
        if txn.txn_id in host._presence:
            txn.probes_unanswered = 0
    else:
        probe = Packet(PacketKind.PROBE, txn.sender, txn.dst, txn.txn_id)
        host.engine.post(host._kernel_cpu, host._post_transmit_put, probe,
                         dst_host, None)
        host._m_probes.value += 1
    lane.arm(txn, host.engine, _PROBE)


def _retransmit_due(txn: Transaction, lane) -> None:
    """A retransmit deadline: re-send the request unless a probe answer
    acked it, and re-arm with backoff."""
    if txn.acked:
        return
    host = txn.kernel
    config = host.config
    if txn.dst.logical_host == host.host_id:
        # Local delivery is reliable; keep the deadline parked at the cap
        # in case a Forward moves the transaction onto the wire.
        interval = config.retransmit_cap
    else:
        host._retransmit_now(txn)
        interval = min(lane.delay * config.retransmit_backoff,
                       config.retransmit_cap)
    host.engine.deadline_lane(interval, _retransmit_due, True).arm(
        txn, host.engine, _RETRANSMIT)


def _group_reply_due(txn: Transaction, lane) -> None:
    """A GroupSend's reply timeout: no member answered in time."""
    host = txn.kernel
    host.metrics.incr("ipc.group_send_timeouts")
    host._complete_local_txn(txn, Message.reply(ReplyCode.NO_SERVER))


#: The per-transaction counts a host keeps for the whole domain: its
#: ``counters`` entries are summed into the registry's (TallyCounter).
_TALLIED = ("ipc.sends", "ipc.deliveries", "ipc.replies", "ipc.transactions")

_PACKET_HANDLERS = {
    PacketKind.REQUEST: Host._on_request_packet,
    PacketKind.REPLY: Host._on_reply_packet,
    PacketKind.NACK: Host._on_reply_packet,
    PacketKind.PROBE: Host._on_probe_packet,
    PacketKind.PROBE_OK: Host._on_probe_ok_packet,
    PacketKind.PROBE_FORWARDED: Host._on_probe_forwarded_packet,
    PacketKind.PROBE_MISSING: Host._on_probe_missing_packet,
    PacketKind.GETPID_QUERY: Host._on_getpid_query_packet,
    PacketKind.GETPID_RESPONSE: Host._on_getpid_response_packet,
    PacketKind.GROUP_REQUEST: Host._on_group_request_packet,
}
