"""Kernel process objects.

A :class:`Process` couples a :class:`~repro.sim.process.Task` (the generator
executing the program) with the kernel bookkeeping the IPC primitives need:
the queue of arrived-but-unreceived messages, receive-blocking state, the
single outstanding send transaction, and the set of received-but-unreplied
transactions (needed both for Reply validation and for error replies when a
process dies holding requests).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.kernel.ipc import Delivery, Segment
from repro.kernel.messages import Message
from repro.kernel.pids import Pid
from repro.sim.process import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import ScheduledEvent


class ProcessState(enum.Enum):
    READY = "ready"              # runnable / currently being stepped
    RECV_BLOCKED = "recv_blocked"  # inside Receive, queue empty
    SEND_BLOCKED = "send_blocked"  # awaiting a reply to its Send
    MOVE_BLOCKED = "move_blocked"  # inside MoveTo/MoveFrom
    WAITING = "waiting"          # Delay / GetPid broadcast / group send
    DEAD = "dead"


@dataclass(slots=True, init=False)
class Transaction:
    """One outstanding Send, tracked at the *sender's* kernel.

    Hand-written ``__init__`` (one transaction per Send; the generated
    initializer's default plumbing is measurable on the IPC hot path).
    """

    txn_id: int
    sender: Pid
    dst: Pid                       # current responder (updated on Forward)
    message: Message
    expose: Optional[Segment] = None
    #: Simulated send time; the telemetry collector's per-host resolution
    #: latency (p99) is measured from here to the completing reply.
    sent_at: float = 0.0
    probes_unanswered: int = 0
    #: The probe timer -- or, for a GroupSend, the reply timeout, so every
    #: path that ends a transaction cancels either one the same way.
    probe_event: Optional["ScheduledEvent"] = None
    #: Retransmission state (see KernelConfig): the pending timer, how many
    #: request copies have been re-sent, and whether the request is known to
    #: have reached the responder (a probe answer acks it; the reply both
    #: acks and completes).
    retransmit_event: Optional["ScheduledEvent"] = None
    retransmits: int = 0
    acked: bool = False

    def __init__(self, txn_id: int, sender: Pid, dst: Pid, message: Message,
                 expose: Optional[Segment] = None, sent_at: float = 0.0) -> None:
        self.txn_id = txn_id
        self.sender = sender
        self.dst = dst
        self.message = message
        self.expose = expose
        self.sent_at = sent_at
        self.probes_unanswered = 0
        self.probe_event = None
        self.retransmit_event = None
        self.retransmits = 0
        self.acked = False

    def cancel_probe(self) -> None:
        if self.probe_event is not None:
            self.probe_event.cancel()
            self.probe_event = None

    def cancel_retransmit(self) -> None:
        if self.retransmit_event is not None:
            self.retransmit_event.cancel()
            self.retransmit_event = None


class Process:
    """One V process: a task plus kernel IPC state."""

    __slots__ = ("pid", "task", "name", "state", "msg_queue", "recv_filter",
                 "pending_txn", "unreplied", "profile_frames", "scope_cache")

    def __init__(self, pid: Pid, task: Task, name: str) -> None:
        self.pid = pid
        self.task = task
        self.name = name
        self.state = ProcessState.READY

        #: Arrived requests not yet returned by Receive.
        self.msg_queue: deque[Delivery] = deque()
        #: Set when blocked in Receive; optional sender filter.
        self.recv_filter: Optional[Pid] = None
        #: The single outstanding Send (V senders block, so at most one).
        self.pending_txn: Optional[Transaction] = None
        #: txn_id -> Delivery for requests received but not yet replied to.
        self.unreplied: dict[int, Delivery] = {}
        #: Attribution frames this process opened with ProfileEnter and has
        #: not yet closed.  Kept per process (not on the engine) so frames
        #: survive generator suspension without leaking into the stacks of
        #: interleaved processes.
        self.profile_frames: tuple = ()
        #: The kernel's cached profiler scope for stepping this process, as
        #: ``(actor kind, host -> process (-> service) + profile_frames)``,
        #: or None when it must be rebuilt: whoever changes profile_frames
        #: resets it, and a changed kind misses.  The name is fixed at spawn.
        self.scope_cache: Optional[tuple] = None

    @property
    def alive(self) -> bool:
        return self.state is not ProcessState.DEAD

    def next_matching_delivery(self, from_pid: Optional[Pid]) -> Optional[Delivery]:
        """Pop the first queued delivery matching the receive filter."""
        for index, delivery in enumerate(self.msg_queue):
            if from_pid is None or delivery.sender == from_pid:
                del self.msg_queue[index]
                return delivery
        return None

    def __repr__(self) -> str:
        return f"Process({self.name!r}, {self.pid!r}, {self.state.value})"
