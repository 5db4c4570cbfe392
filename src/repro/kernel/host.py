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
the probe protocol gives up (see :mod:`repro.kernel.config`).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import TYPE_CHECKING, Any, Optional

from repro.kernel import ipc
from repro.kernel.errors import (
    HostDown,
    IllegalEffect,
    KernelError,
    NotAwaitingReply,
)
from repro.kernel.ipc import Delivery
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode, code_name
from repro.kernel.pids import LOGICAL_SERVICE_HOST, Pid, PidAllocator
from repro.kernel.process import Process, ProcessState, Transaction
from repro.kernel.services import Scope, ServiceRegistry
from repro.net.packet import BROADCAST, Frame, GroupAddress
from repro.obs.flight import (
    KIND_COMPLETE as _K_COMPLETE,
    KIND_FORWARD as _K_FORWARD,
    KIND_REPLY as _K_REPLY,
    KIND_SEND as _K_SEND,
    PACKET_BASE as _PACKET_BASE,
)
from repro.sim.process import Task

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


class Host:
    """A single machine in a V domain."""

    def __init__(self, domain: "Domain", host_id: int, name: str) -> None:
        self.domain = domain
        self.host_id = host_id
        self.name = name
        self.engine = domain.engine
        self.ethernet = domain.ethernet
        self.latency = domain.latency
        self.metrics = domain.metrics
        self.config = domain.config
        self.obs = domain.obs

        start = domain.rng.randint(f"pids.{host_id}", 1, 0xFFFE)
        self.allocator = PidAllocator(host_id, start=start)
        self.processes: dict[int, Process] = {}
        self.registry = ServiceRegistry()
        # Surface this kernel's registration removals at the domain hub so
        # holders of looked-up pids (the client name cache) can subscribe in
        # one place rather than per host.
        self.registry.subscribe_removals(domain._notify_pid_removed)
        self.crashed = False
        #: Per-host IPC counters (the domain metrics registry aggregates
        #: across machines; introspection wants this kernel's share).
        #: A defaultdict so each count is a single indexed increment.
        self.counters: dict[str, int] = defaultdict(int)
        #: When this kernel came up (simulated seconds); reset by restart().
        self.started_at = self.engine.now
        #: Pre-bound id allocators off the domain's per-run streams (one
        #: attribute load saved on every Send / GetPid broadcast).
        self._next_txn_id = domain._txn_counter.__next__
        self._next_waiter_id = domain._waiter_counter.__next__
        #: Flight-recorder fast path: this lane's bound ``list.append``
        #: while a recorder is attached (repro.obs.flight), else None.
        #: The record sites use it as both gate and sink -- one attribute
        #: load when disabled, one C call plus a tuple build when armed.
        self._flight_append = None
        if domain.flight is not None:
            domain.flight.bind(self)

        #: Sender-side: txn_id -> Transaction for this host's blocked senders.
        self._outstanding: dict[int, Transaction] = {}
        #: Receiver-side: txn_id -> ("queued"|"received", pid) or ("forwarded", new_dst)
        self._presence: dict[int, tuple[str, Pid]] = {}
        #: Receiver-side: the last replies pushed to remote senders, kept so
        #: a retransmitted request (or a probe) whose original reply frame
        #: was lost can be answered by replay instead of a spurious NACK.
        self._reply_cache: OrderedDict[int, Packet] = OrderedDict()
        #: GetPid broadcast waiters:
        #: waiter_id -> (process, timeout_event, service, attempts)
        self._getpid_waiters: dict[int, tuple[Process, Any, int, int]] = {}
        #: Observability: txn_id -> transaction span (this host's senders).
        self._txn_spans: dict[int, Any] = {}
        #: Observability: (txn_id, receiver pid) -> server hop span.
        self._hop_spans: dict[tuple[int, Pid], Any] = {}

        self.ethernet.attach(host_id, self._on_frame)

        # ---- hot-path flyweights -------------------------------------
        # Latency constants and the frame pool never change for the life
        # of the host; per-frame code reads them through one attribute
        # instead of a chain.  (Engine methods are NOT pre-bound anywhere:
        # the profiler's dispatch swap relies on attribute lookup.)
        self._kernel_cpu = self.latency.kernel_cpu_per_packet
        self._local_hop = self.latency.local_hop
        self._acquire_frame = self.ethernet.frame_pool.acquire
        # KernelConfig is frozen; snapshot the per-probe and per-send scalars.
        self._probe_interval = self.config.probe_interval
        self._max_failed_probes = self.config.max_failed_probes
        self._retransmit_enabled = self.config.retransmit_enabled
        self._retransmit_initial = self.config.retransmit_initial
        # Pre-bind the callbacks this kernel posts per frame or per
        # transaction: a bound-method object is otherwise allocated at
        # every post.  (Self-shadowing is deliberate -- the instance
        # attribute holds the one bound method every later lookup returns.)
        self._transmit_put = self._transmit_put
        self._handle_packet = self._handle_packet
        self._deliver_local_request = self._deliver_local_request
        self._complete_local_txn = self._complete_local_txn
        self._probe_fire = self._probe_fire
        self._retransmit_fire = self._retransmit_fire
        # The per-transaction registry counters, resolved once per domain.
        (self._m_sends, self._m_deliveries, self._m_replies,
         self._m_transactions, self._m_probes) = domain._ipc_counters

    # ------------------------------------------------------------- lifecycle

    def spawn(self, body, name: str = "process") -> Process:
        """Create a process from a generator (or a callable taking its Pid)."""
        if self.crashed:
            raise HostDown(f"host {self.name} is crashed")
        pid = self.allocator.allocate()
        if callable(body) and not hasattr(body, "send"):
            body = body(pid)
        task = Task(body, name=f"{self.name}/{name}")
        proc = Process(pid, task, name)
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
            proc.task.close()
        self.processes.clear()
        for txn in self._outstanding.values():
            txn.cancel_probe()
            txn.cancel_retransmit()
        self._outstanding.clear()
        self._presence.clear()
        self._reply_cache.clear()
        for __, event, __, __ in self._getpid_waiters.values():
            event.cancel()
        self._getpid_waiters.clear()
        if self.obs is not None:
            for span in list(self._txn_spans.values()) + list(
                    self._hop_spans.values()):
                self.obs.spans.finish(span, self.engine.now,
                                      aborted="host crashed")
        self._txn_spans.clear()
        self._hop_spans.clear()
        self.registry.clear()
        flight = self.domain.flight
        if flight is not None:
            # Freeze the black box at the instant of death: the postmortem
            # dump survives even if this machine restarts and keeps flying.
            flight.freeze(self)
        self.metrics.incr("kernel.crashes")
        self.domain._notify_host_crashed(self)

    def restart(self) -> None:
        """Bring the machine back up (with empty tables; respawn servers)."""
        if not self.crashed:
            return
        self.crashed = False
        if self.ethernet.is_attached(self.host_id):
            self.ethernet.set_link(self.host_id, True)
        self.counters.clear()
        self.started_at = self.engine.now
        self.domain._notify_host_restarted(self)

    # --------------------------------------------------------- process loop

    def _advance(self, proc: Process, value: Any = None,
                 exc: BaseException | None = None) -> None:
        """The step loop: run ``proc`` until it blocks, exits or fails.

        The generator is resumed directly (``send``/``throw`` on
        ``proc.task.body``; the :class:`~repro.sim.process.Task` wrapper's
        lifecycle bookkeeping goes unused), and each effect it yields is
        dispatched inline; an effect that completes immediately resumes the generator with its result.  An
        unstarted body is started by the first ``send(None)``.

        Under profiling, everything this step schedules is attributed to
        ``host -> process (-> service) (-> open phase frames)``; the scope
        *replaces* the engine's current stack (saved and restored around the
        loop) so interleaved processes never inherit each other's frames.
        """
        engine = self.engine
        saved_scope = (engine.profile_scope(self._profile_frames(proc))
                       if engine.profiling else None)
        body = proc.task.body
        try:
            while proc.state is not _DEAD:
                proc.state = _READY
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
                    self.domain.failures.append((proc.task.name, err))
                    self._terminate(proc)
                    return
                try:
                    # The profiled dispatch keeps the out-of-line path with
                    # phase frames; the bare one is inlined (one effect per
                    # resume, tens of thousands per simulated second).
                    if engine.profiling:
                        result = self._dispatch(proc, effect)
                    else:
                        handler = _EFFECT_HANDLERS.get(type(effect))
                        if handler is None:
                            raise IllegalEffect(
                                f"process {proc.name!r} yielded {effect!r}, "
                                "which is not a kernel effect")
                        result = handler(self, proc, effect)
                except KernelError as err:
                    # API misuse becomes an exception *inside* the process,
                    # so a defensive server can catch it; an unhandled one
                    # fails the task and is recorded in domain.failures.
                    value, exc = None, err
                    continue
                if result is _BLOCKED:
                    return
                value = result
        finally:
            if saved_scope is not None:
                engine.profile_restore(saved_scope)

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
            if self.obs is not None:
                span = self._hop_spans.pop((delivery.txn_id, proc.pid), None)
                if span is not None:
                    self.obs.spans.finish(
                        span, self.engine.now,
                        reply_code=ReplyCode.NONEXISTENT_PROCESS.name,
                        aborted="receiver exited")
            self._route_reply(
                proc.pid, delivery,
                Message.reply(ReplyCode.NONEXISTENT_PROCESS), busy=False,
            )
        if proc.pending_txn is not None:
            proc.pending_txn.cancel_probe()
            proc.pending_txn.cancel_retransmit()
            self._outstanding.pop(proc.pending_txn.txn_id, None)
            proc.pending_txn = None
        self.registry.remove_pid(proc.pid)
        self.domain.groups.remove_pid(proc.pid)
        self.processes.pop(proc.pid.local_id, None)
        self.allocator.release(proc.pid)
        self.metrics.incr("kernel.process_exits")

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, proc: Process, effect: Any) -> Any:
        """The profiled effect dispatch: the handler runs under its CSNH
        phase frame, so everything it schedules (delivery hops, frames,
        timers) inherits it."""
        handler = _EFFECT_HANDLERS.get(type(effect))
        if handler is None:
            raise IllegalEffect(
                f"process {proc.name!r} yielded {effect!r}, which is not a kernel effect"
            )
        label = _EFFECT_PHASES.get(type(effect))
        if label is None:
            return handler(self, proc, effect)
        engine = self.engine
        saved_scope = engine.profile_enter(label)
        try:
            return handler(self, proc, effect)
        finally:
            engine.profile_restore(saved_scope)

    def _profile_frames(self, proc: Process) -> tuple:
        """The attribution scope for stepping ``proc``: host -> process
        (-> service kind when it differs from the process name) plus any
        frames the process opened with ProfileEnter.  Cached on the process
        beside the kind it was built for, so a later ``register_actor``
        shows; ProfileEnter/ProfileExit drop the cache."""
        obs = self.obs
        kind = obs.actors.get(proc.pid.value) if obs is not None else None
        cached = proc.scope_cache
        if cached is not None and cached[0] == kind:
            return cached[1]
        frames = ("host:" + self.name, "proc:" + proc.name)
        if kind is not None and kind != proc.name:
            frames += ("svc:" + kind,)
        frames += proc.profile_frames
        proc.scope_cache = (kind, frames)
        return frames

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
                          effect.message, effect.expose, engine._now)
        proc.pending_txn = txn
        proc.state = _SEND_BLOCKED
        self._outstanding[txn.txn_id] = txn
        self._m_sends.value += 1
        self.counters["ipc.sends"] += 1
        append = self._flight_append
        if append is not None:
            append((engine._fire_seq, engine._now, _K_SEND,
                    proc.pid.value, effect.dst.value, txn.txn_id))
        if self.obs is not None:
            # One span per message transaction, parented under whatever
            # context the sender put on the message (e.g. the client stub's
            # resolve span); the outgoing message carries *our* context so
            # receiver-side hop spans chain under the transaction.
            span = self.obs.spans.start(
                f"ipc.txn:{code_name(effect.message.code)}", engine.now,
                parent=effect.message.trace, actor=f"{self.name}/{proc.name}",
                dst=str(effect.dst), txn=txn.txn_id,
                request_bytes=effect.message.wire_bytes)
            effect.message.trace = span.context
            self._txn_spans[txn.txn_id] = span
        # ``is_local_to`` and the one-line ``_transmit`` wrapper are inlined
        # here and on the reply/probe paths: one Send/Reply round trip
        # otherwise pays four extra method calls.
        if dst_host == self.host_id:
            engine.post(self._local_hop,
                        self._deliver_local_request, txn, None)
        else:
            packet = Packet(_REQUEST, proc.pid, effect.dst,
                            txn.txn_id, effect.message)
            engine.post(self._kernel_cpu,
                        self._transmit_put, packet, dst_host, None)
        # Local requests are delivered by a reliable in-kernel hop, but the
        # retransmit timer is armed for them too: a Forward may push the
        # transaction onto the (lossy) wire later, and then it is this timer
        # that re-sends the request.  Unprofiled, both timers are armed
        # inline; the profiled path brackets each with its phase frame.
        if engine.profiling:
            self._schedule_probe(txn)
            if self._retransmit_enabled:
                self._schedule_retransmit(txn, self._retransmit_initial)
            return _BLOCKED
        txn.probe_event = engine.schedule(self._probe_interval,
                                          self._probe_fire, txn)
        if self._retransmit_enabled:
            interval = self._retransmit_initial
            txn.retransmit_event = engine.schedule(
                interval, self._retransmit_fire, txn, interval)
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
        delivery = Delivery(message=txn.message, sender=txn.sender,
                            txn_id=txn.txn_id, forwarder=forwarder)
        self._enqueue_delivery(dst_proc, delivery)

    def _complete_local_txn(self, txn: Transaction, reply: Message) -> None:
        """Complete a txn whose sender is on this host."""
        current = self._outstanding.pop(txn.txn_id, None)
        if current is None:
            self.metrics.incr("ipc.duplicate_replies")
            return
        # Transaction.cancel_probe / cancel_retransmit, inlined.  The probe
        # slot also holds a GroupSend's reply timeout.
        event = current.probe_event
        if event is not None:
            event.cancel()
            current.probe_event = None
        event = current.retransmit_event
        if event is not None:
            event.cancel()
            current.retransmit_event = None
        engine = self.engine
        span = self._txn_spans.pop(current.txn_id, None)
        if span is not None:
            self.obs.spans.finish(span, engine.now,
                                  reply_code=code_name(reply.code),
                                  reply_bytes=reply.wire_bytes)
            self.obs.registry.histogram(
                "ipc.txn_seconds",
                op=code_name(current.message.code)).observe(span.duration)
        pid = current.sender
        sender = self.processes.get(pid.local_id)   # find_process, inlined
        if (sender is None or sender.pid.value != pid.value
                or sender.state is _DEAD
                or sender.pending_txn is not current):
            return
        sender.pending_txn = None
        self._m_transactions.value += 1
        self.counters["ipc.transactions"] += 1
        append = self._flight_append
        if append is not None:
            append((engine._fire_seq, engine._now, _K_COMPLETE,
                    current.dst.value, pid.value, current.txn_id))
        telemetry = self.domain.telemetry
        if telemetry is not None:
            telemetry.observe_txn(self, engine.now - current.sent_at)
        self._advance(sender, reply)

    # -- Receive ---------------------------------------------------------------

    def _do_receive(self, proc: Process, effect: ipc.Receive) -> Any:
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
        txn_id = delivery.txn_id
        presence = self._presence
        if not delivery.via_group:
            presence[txn_id] = ("queued", proc.pid)
        self._m_deliveries.value += 1
        self.counters["ipc.deliveries"] += 1
        if (self.obs is not None and delivery.message.trace is not None
                and not delivery.via_group):
            # The server-side hop: opens when the request lands at the
            # receiving process, closes at its Reply or Forward.  Group
            # deliveries are excluded -- non-owners silently discard, so
            # their spans would never close.
            span = self.obs.spans.start(
                f"server:{proc.name}", self.engine.now,
                parent=delivery.message.trace,
                actor=f"{self.name}/{proc.name}", txn=txn_id)
            self._hop_spans[(txn_id, proc.pid)] = span
        if proc.state is _RECV_BLOCKED and (
            proc.recv_filter is None or proc.recv_filter == delivery.sender
        ):
            proc.recv_filter = None
            proc.unreplied[txn_id] = delivery   # as in _do_receive
            if txn_id in presence:
                presence[txn_id] = ("received", proc.pid)
            self._advance(proc, delivery)
        else:
            proc.msg_queue.append(delivery)

    # -- Reply -------------------------------------------------------------------

    def _do_reply(self, proc: Process, effect: ipc.Reply) -> Any:
        unreplied = proc.unreplied
        for txn_id, delivery in unreplied.items():
            if delivery.sender == effect.to:
                del unreplied[txn_id]
                break
        else:
            raise NotAwaitingReply(
                f"{proc.name!r} tried to Reply to {effect.to!r}, "
                "which is not awaiting a reply from it")
        self._presence.pop(txn_id, None)
        self._m_replies.value += 1
        self.counters["ipc.replies"] += 1
        append = self._flight_append
        if append is not None:
            engine = self.engine
            append((engine._fire_seq, engine._now, _K_REPLY,
                    proc.pid.value, effect.to.value, delivery.txn_id))
        if self.obs is not None:
            span = self._hop_spans.pop((delivery.txn_id, proc.pid), None)
            if span is not None:
                self.obs.spans.finish(span, self.engine.now,
                                      reply_code=code_name(effect.message.code))
                # The reply frame's wire span hangs off this hop.
                effect.message.trace = span.context
        return self._route_reply(proc.pid, delivery, effect.message, busy=True,
                                 replier=proc)

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
                                 self._complete_local_txn, txn, message)
            else:
                self.metrics.incr("ipc.duplicate_replies")
            return None
        packet = Packet(_REPLY, from_pid, sender_pid,
                        delivery.txn_id, message)
        if self._retransmit_enabled:
            # Remember the reply for loss replay (the newest N survive).
            cache = self._reply_cache
            cache[delivery.txn_id] = packet
            cache.move_to_end(delivery.txn_id)
            while len(cache) > self.config.reply_cache_entries:
                cache.popitem(last=False)
        if busy and replier is not None:
            replier.state = _WAITING
            self.engine.post(self._kernel_cpu, self._transmit_put, packet,
                             sender_host, replier)
            return _BLOCKED
        self.engine.post(self._kernel_cpu,
                         self._transmit_put, packet, sender_host, None)
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
        append = self._flight_append
        if append is not None:
            engine = self.engine
            append((engine._fire_seq, engine._now, _K_FORWARD,
                    proc.pid.value, effect.dst.value, delivery.txn_id))
        if self.obs is not None:
            span = self._hop_spans.pop((delivery.txn_id, proc.pid), None)
            if span is not None:
                self.obs.spans.finish(span, self.engine.now,
                                      forwarded_to=str(effect.dst))
                # The next hop's span chains under this one: the span tree
                # *is* the Sec. 5.4 forwarding path.
                message.trace = span.context
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
            self.engine.post(self._local_hop,
                             self._deliver_local_request, shadow, proc.pid)
            return None
        self._presence[delivery.txn_id] = ("forwarded", effect.dst)
        packet = Packet(PacketKind.REQUEST, src_pid=delivery.sender,
                        dst_pid=effect.dst, txn_id=delivery.txn_id,
                        message=message, info={"forwarder": proc.pid})
        proc.state = _WAITING
        self._transmit(packet, effect.dst.logical_host, resume=proc)
        return _BLOCKED

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
        frame = self._acquire_frame(
            src_host, dst_host, packet, packet.payload_bytes)
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
        waiter_id = self._next_waiter_id()
        timeout = self.engine.schedule(self.config.getpid_timeout,
                                       self._getpid_timeout, waiter_id)
        self._getpid_waiters[waiter_id] = (proc, timeout,
                                           int(effect.service), 0)
        proc.state = _WAITING
        packet = Packet(PacketKind.GETPID_QUERY, src_pid=proc.pid, dst_pid=None,
                        txn_id=0,
                        info={"service": int(effect.service), "waiter": waiter_id})
        self.metrics.incr("services.getpid_broadcasts")
        self._transmit(packet, BROADCAST)
        return _BLOCKED

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
            timeout = self.engine.schedule(self.config.getpid_timeout,
                                           self._getpid_timeout, waiter_id)
            self._getpid_waiters[waiter_id] = (proc, timeout, service,
                                               attempts + 1)
            packet = Packet(PacketKind.GETPID_QUERY, src_pid=proc.pid,
                            dst_pid=None, txn_id=0,
                            info={"service": service, "waiter": waiter_id})
            self.metrics.incr("services.getpid_retries")
            self.counters["services.getpid_retries"] += 1
            self._transmit(packet, BROADCAST)
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
        txn = Transaction(txn_id=self._next_txn_id(), sender=proc.pid,
                          dst=proc.pid, message=effect.message,
                          sent_at=self.engine.now)
        proc.pending_txn = txn
        proc.state = _SEND_BLOCKED
        self._outstanding[txn.txn_id] = txn
        self.metrics.incr("ipc.group_sends")
        # The reply timeout sits in the probe slot (a group transaction has
        # no probes), so the paths that end a transaction -- a reply, the
        # sender's exit, a crash -- cancel it like any probe timer.
        txn.probe_event = self.engine.schedule(
            self.config.group_reply_timeout, self._group_send_timeout, txn)
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

    def _group_send_timeout(self, txn: Transaction) -> None:
        if txn.txn_id in self._outstanding:
            self.metrics.incr("ipc.group_send_timeouts")
            self._complete_local_txn(txn, Message.reply(ReplyCode.NO_SERVER))

    # -- misc ---------------------------------------------------------------------

    def _do_delay(self, proc: Process, effect: ipc.Delay) -> Any:
        proc.state = _WAITING
        self.engine.post(effect.seconds, self._advance, proc, None)
        return _BLOCKED

    def _do_annotate(self, proc: Process, effect: ipc.Annotate) -> Any:
        """Zero-cost: enrich the hop span of a held transaction, if traced."""
        if self.obs is not None:
            span = self._hop_spans.get((effect.txn_id, proc.pid))
            if span is not None:
                if effect.append:
                    for key, value in effect.attrs.items():
                        span.append_attr(key, value)
                else:
                    span.attrs.update(effect.attrs)
        return None

    def _do_profile_enter(self, proc: Process, effect: ipc.ProfileEnter) -> Any:
        """Zero-cost: open a per-process attribution frame (see ipc)."""
        if self.engine.profiling:
            label = "phase:" + effect.label
            proc.profile_frames += (label,)
            proc.scope_cache = None
            self.engine.profile_push(label)
        return None

    def _do_profile_exit(self, proc: Process, effect: ipc.ProfileExit) -> Any:
        if self.engine.profiling and proc.profile_frames:
            label = proc.profile_frames[-1]
            proc.profile_frames = proc.profile_frames[:-1]
            proc.scope_cache = None
            self.engine.profile_pop(label)
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
        proc.task.close()
        self._terminate(proc)
        return _BLOCKED

    # ------------------------------------------------------------ networking

    def _transmit(self, packet: Packet, dst, resume=None) -> None:
        """Charge send-side kernel CPU, then put one frame on the wire (then
        step the process ``resume``, if given)."""
        self.engine.post(self._kernel_cpu,
                         self._transmit_put, packet, dst, resume)

    def _transmit_put(self, packet: Packet, dst, resume) -> None:
        if self.crashed:
            return
        frame = self._acquire_frame(
            self.host_id, dst, packet, packet.payload_bytes)
        engine = self.engine
        if engine.profiling:
            # One message out: bump the current stack's message/byte
            # totals, and charge the propagation (the arrival event the
            # ethernet schedules) to a wire frame under this phase.
            engine.profile_count_message(packet.payload_bytes)
            saved_scope = engine.profile_enter("phase:wire")
            try:
                arrival = self.ethernet.transmit(frame)
            finally:
                engine.profile_restore(saved_scope)
        else:
            arrival = self.ethernet.transmit(frame)
        if resume is not None:
            engine.post_at(arrival, self._advance, resume)

    def _on_frame(self, frame: Frame) -> None:
        if self.crashed:
            return
        packet = frame.payload
        if type(packet) is not Packet:
            return
        if packet.kind is _MOVE_DATA:
            return  # pure timing/traffic; the move completion is scheduled
        self.engine.post(self._kernel_cpu,
                         self._handle_packet, packet, frame.src_host)

    def _handle_packet(self, packet: Packet, src_host: int) -> None:
        if self.crashed:
            return
        append = self._flight_append
        if append is not None:
            engine = self.engine
            src_pid = packet.src_pid
            dst_pid = packet.dst_pid
            append((engine._fire_seq, engine._now,
                    _FLIGHT_KINDS[packet.kind],
                    src_pid.value if src_pid is not None else 0,
                    dst_pid.value if dst_pid is not None else 0,
                    packet.txn_id or 0))
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
            self.metrics.incr("ipc.dup_suppressed")
            self.counters["ipc.dup_suppressed"] += 1
            if self.obs is not None:
                span = self._hop_spans.get((packet.txn_id, presence[1]))
                if span is not None:
                    span.append_attr("dup_suppressed", self.engine.now)
            return
        cached = self._reply_cache.get(packet.txn_id)
        if cached is not None and self._retransmit_enabled:
            # We already answered this transaction; the reply frame must
            # have been lost.  Replay it instead of re-executing anything.
            self.metrics.incr("ipc.dup_suppressed")
            self.metrics.incr("ipc.reply_resends")
            self.counters["ipc.reply_resends"] += 1
            self._transmit(cached, packet.src_pid.logical_host)
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
            cached = self._reply_cache.get(packet.txn_id)
            if cached is not None and self._retransmit_enabled:
                # Transaction done; its reply frame was lost.  Replay.
                self.metrics.incr("ipc.reply_resends")
                self.counters["ipc.reply_resends"] += 1
                self._transmit(cached, packet.src_pid.logical_host)
                return
            if (packet.dst_pid is not None
                    and self.find_process(packet.dst_pid) is not None):
                # The destination process is alive but we have no trace of
                # the transaction: the request frame itself was lost.  Tell
                # the sender so it can retransmit instead of (wrongly)
                # concluding the process is gone.
                response = Packet(PacketKind.PROBE_MISSING,
                                  src_pid=packet.dst_pid,
                                  dst_pid=packet.src_pid,
                                  txn_id=packet.txn_id)
                self._transmit(response, packet.src_pid.logical_host)
                return
            response = Packet(PacketKind.NACK, src_pid=packet.dst_pid or Pid(0),
                              dst_pid=packet.src_pid, txn_id=packet.txn_id,
                              message=Message.reply(ReplyCode.NONEXISTENT_PROCESS))
        elif presence[0] == "forwarded":
            response = Packet(PacketKind.PROBE_FORWARDED,
                              src_pid=packet.dst_pid or Pid(0),
                              dst_pid=packet.src_pid, txn_id=packet.txn_id,
                              info={"new_dst": presence[1]})
        else:
            response = Packet(PacketKind.PROBE_OK,
                              packet.dst_pid or Pid(0),
                              packet.src_pid, packet.txn_id)
        self.engine.post(self._kernel_cpu, self._transmit_put, response,
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
            txn.probes_unanswered = 0
            txn.acked = True

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

    # ---------------------------------------------------------------- probes

    def _schedule_probe(self, txn: Transaction) -> None:
        if self.engine.profiling:
            self.engine.profile_push("phase:probe")
            try:
                txn.probe_event = self.engine.schedule(
                    self._probe_interval, self._probe_fire, txn)
            finally:
                self.engine.profile_pop("phase:probe")
            return
        txn.probe_event = self.engine.schedule(self._probe_interval,
                                               self._probe_fire, txn)

    def _probe_fire(self, txn: Transaction) -> None:
        if txn.txn_id not in self._outstanding:
            return
        if txn.probes_unanswered >= self._max_failed_probes:
            self.metrics.incr("ipc.send_timeouts")
            self._complete_local_txn(txn, Message.reply(ReplyCode.TIMEOUT))
            return
        txn.probes_unanswered += 1
        dst_host = txn.dst.logical_host
        if dst_host == self.host_id:
            presence = self._presence.get(txn.txn_id)
            if presence is not None:
                if presence[0] == "forwarded":
                    txn.dst = presence[1]
                txn.probes_unanswered = 0
        else:
            probe = Packet(PacketKind.PROBE, txn.sender, txn.dst, txn.txn_id)
            self.engine.post(self._kernel_cpu,
                             self._transmit_put, probe, dst_host, None)
            self._m_probes.value += 1
        self._schedule_probe(txn)

    # --------------------------------------------------------- retransmission

    def _schedule_retransmit(self, txn: Transaction, interval: float) -> None:
        if self.engine.profiling:
            # The backoff wait and everything the timer causes (the re-sent
            # frames) are attributed to the retransmission phase.
            self.engine.profile_push("phase:retransmit")
            try:
                txn.retransmit_event = self.engine.schedule(
                    interval, self._retransmit_fire, txn, interval)
            finally:
                self.engine.profile_pop("phase:retransmit")
            return
        txn.retransmit_event = self.engine.schedule(
            interval, self._retransmit_fire, txn, interval)

    def _retransmit_fire(self, txn: Transaction, interval: float) -> None:
        if txn.txn_id not in self._outstanding or txn.acked:
            return
        next_interval = min(interval * self.config.retransmit_backoff,
                            self.config.retransmit_cap)
        if txn.dst.is_local_to(self.host_id):
            # Local delivery is reliable; keep the timer parked at the cap
            # in case a Forward moves the transaction onto the wire.
            self._schedule_retransmit(txn, self.config.retransmit_cap)
            return
        self._retransmit_now(txn)
        self._schedule_retransmit(txn, next_interval)

    def _retransmit_now(self, txn: Transaction) -> None:
        """Push one fresh copy of an outstanding request onto the wire."""
        packet = Packet(PacketKind.REQUEST, txn.sender, txn.dst,
                        txn.txn_id, txn.message)
        txn.retransmits += 1
        self.metrics.incr("ipc.retransmits")
        self.counters["ipc.retransmits"] += 1
        if self.obs is not None:
            span = self._txn_spans.get(txn.txn_id)
            if span is not None:
                span.append_attr("retransmit", self.engine.now)
        if self.engine.profiling:
            # Also reached outside the timer (PROBE_MISSING): make sure the
            # fresh copy is charged to the retransmission phase regardless.
            self.engine.profile_push("phase:retransmit")
            try:
                self._transmit(packet, txn.dst.logical_host)
            finally:
                self.engine.profile_pop("phase:retransmit")
            return
        self._transmit(packet, txn.dst.logical_host)

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
        if self.obs is not None:
            self.obs.registry.gauge(
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


_EFFECT_HANDLERS = {
    ipc.Send: Host._do_send,
    ipc.Receive: Host._do_receive,
    ipc.Reply: Host._do_reply,
    ipc.Forward: Host._do_forward,
    ipc.MoveFrom: Host._do_move_from,
    ipc.MoveTo: Host._do_move_to,
    ipc.SetPid: Host._do_set_pid,
    ipc.GetPid: Host._do_get_pid,
    ipc.JoinGroup: Host._do_join_group,
    ipc.LeaveGroup: Host._do_leave_group,
    ipc.GroupSend: Host._do_group_send,
    ipc.Delay: Host._do_delay,
    ipc.Annotate: Host._do_annotate,
    ipc.ProfileEnter: Host._do_profile_enter,
    ipc.ProfileExit: Host._do_profile_exit,
    ipc.Now: Host._do_now,
    ipc.MyPid: Host._do_my_pid,
    ipc.Spawn: Host._do_spawn,
    ipc.Exit: Host._do_exit,
}

#: CSNH phase labels for the profiler: the frame pushed while the effect's
#: handler runs (and inherited by everything it schedules).  Delay has no
#: phase on purpose -- it models the *process's own* CPU (a prefix parse, a
#: server handler), which belongs to the process/service frames, not to a
#: kernel protocol phase.
_EFFECT_PHASES = {
    ipc.Send: "phase:send",
    ipc.Reply: "phase:reply",
    ipc.Forward: "phase:forward_hop",
    ipc.MoveTo: "phase:move_to",
    ipc.MoveFrom: "phase:move_from",
    ipc.GetPid: "phase:getpid",
    ipc.GroupSend: "phase:group_send",
}

#: Flight-record kind codes for arriving packets: PACKET_BASE + definition
#: index, matching repro.obs.flight's static name table (pinned by
#: tests/obs/test_flight.py), so the recorder's packet site pays a dict
#: hit, not an enum-name lowering.
_FLIGHT_KINDS = {kind: _PACKET_BASE + index
                 for index, kind in enumerate(PacketKind)}

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
