"""Kernel process objects.

A :class:`Process` couples its body (the generator executing the program)
with the kernel bookkeeping the IPC primitives need:
the queue of arrived-but-unreceived messages, receive-blocking state, the
single outstanding send transaction, and the set of received-but-unreplied
transactions (needed both for Reply validation and for error replies when a
process dies holding requests).
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.kernel.ipc import Delivery, Segment
from repro.kernel.messages import Message
from repro.kernel.pids import Pid


class ProcessState(enum.Enum):
    READY = "ready"              # runnable / currently being stepped
    RECV_BLOCKED = "recv_blocked"  # inside Receive, queue empty
    SEND_BLOCKED = "send_blocked"  # awaiting a reply to its Send
    MOVE_BLOCKED = "move_blocked"  # inside MoveTo/MoveFrom
    WAITING = "waiting"          # Delay / GetPid broadcast / group send
    DEAD = "dead"


class Transaction:
    """One outstanding Send, tracked at the *sender's* kernel.

    Its timers are deadlines it carries (``probe_*`` -- for a GroupSend, the
    reply timeout -- and ``retransmit_*``; see
    :class:`repro.sim.engine.DeadlineLane`), live while ``kernel`` is set,
    so whatever ends it -- a reply, a NACK, a timeout, the sender's exit, a
    crash -- cancels nothing: it clears ``kernel``.
    """

    __slots__ = ("txn_id", "sender", "dst", "message", "expose", "sent_at",
                 "kernel", "probes_unanswered", "retransmits", "acked",
                 "probe_at", "probe_seq", "probe_stamp",
                 "retransmit_at", "retransmit_seq", "retransmit_stamp")

    def __init__(self, txn_id: int, sender: Pid, dst: Pid, message: Message,
                 expose: Optional[Segment] = None, sent_at: float = 0.0,
                 kernel: Any = None) -> None:
        self.txn_id = txn_id
        self.sender = sender
        #: The current responder (updated on Forward).
        self.dst = dst
        self.message = message
        self.expose = expose
        #: Simulated send time; the telemetry collector's per-host
        #: resolution latency (p99) is measured from here to the reply.
        self.sent_at = sent_at
        #: The sender's Host while the transaction is outstanding there (it
        #: arms and fires the deadlines); None once it has ended.
        self.kernel = kernel
        self.probes_unanswered = 0
        #: Request copies re-sent, and whether the request is known to have
        #: reached the responder (a probe answer acks it; the reply both
        #: acks and completes).
        self.retransmits = 0
        self.acked = False


class Process:
    """One V process: a generator body plus kernel IPC state."""

    __slots__ = ("pid", "body", "name", "state", "msg_queue", "recv_filter",
                 "pending_txn", "unreplied", "profile_frames", "scope_cache")

    def __init__(self, pid: Pid, body: Any, name: str) -> None:
        self.pid = pid
        self.body = body
        self.name = name
        self.state = ProcessState.READY

        #: Arrived requests not yet returned by Receive.
        self.msg_queue: list[Delivery] = []
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
