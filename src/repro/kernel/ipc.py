"""The IPC effect vocabulary (paper Sec. 3.1).

Processes are generator functions that ``yield`` the effect objects defined
here; the kernel interprets each effect, charges its simulated cost, and
resumes the generator with the result.  Helpers that need to block are
themselves generators and are composed with ``yield from``.

The vocabulary mirrors the V primitives:

========================  =====================================================
``Send(dst, msg)``        message transaction; blocks until the reply arrives;
                          resumes with the reply :class:`Message`
``Receive()``             blocks for the next request; resumes with a
                          :class:`Delivery`
``Reply(to, msg)``        unblocks a sender; resumes after the reply is pushed
                          onto the wire (the replier is busy for that long)
``Forward(dv, dst, msg)`` pass a received request to a third process so it
                          appears the original sender sent it there
``MoveFrom/MoveTo``       bulk moves against the memory a blocked sender
                          exposed with its Send
``SetPid/GetPid``         kernel service registration and lookup (Sec. 4.2)
``JoinGroup/GroupSend``   process groups and one-to-many Send (Sec. 7)
``Delay(s)``              model CPU time or sleeping
``Now()``                 read the simulated clock
``Spawn(body, name)``     create a process on the same host
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.kernel.errors import BadSegmentAccess
from repro.kernel.messages import Message
from repro.kernel.pids import Pid
from repro.kernel.services import Scope


class Segment:
    """A region of the sender's memory exposed for the duration of a Send.

    V let the recipient of a message read and write "the memory space of the
    message sender up to the point that the reply message is sent"
    (Sec. 3.1); in practice senders designated a buffer.  ``MoveFrom`` reads
    it, ``MoveTo`` writes it (only if ``writable``).
    """

    __slots__ = ("_data", "writable")

    def __init__(self, data: bytes | bytearray = b"", writable: bool = False,
                 size: int | None = None) -> None:
        if size is not None:
            buf = bytearray(size)
            buf[: len(data)] = bytes(data)[:size]
            self._data = buf
        else:
            self._data = bytearray(data)
        self.writable = writable

    def __len__(self) -> int:
        return len(self._data)

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self._data):
            raise BadSegmentAccess(
                f"read [{offset}, {offset + nbytes}) outside segment of {len(self._data)}"
            )
        return bytes(self._data[offset : offset + nbytes])

    def write(self, offset: int, data: bytes) -> None:
        if not self.writable:
            raise BadSegmentAccess("segment is read-only")
        if offset < 0 or offset + len(data) > len(self._data):
            raise BadSegmentAccess(
                f"write [{offset}, {offset + len(data)}) outside segment of {len(self._data)}"
            )
        self._data[offset : offset + len(data)] = data

    def snapshot(self) -> bytes:
        return bytes(self._data)


@dataclass(slots=True, init=False)
class Delivery:
    """What ``Receive`` resumes with: a request plus its provenance.

    ``sender`` is always the *original* sender, even if the message arrived
    via ``Forward`` -- the defining property of V forwarding (Sec. 3.1).
    ``forwarder`` records who forwarded it here, when known.

    One delivery is built per received request (hand-written ``__init__``;
    the generated one is measurably slower on the IPC hot path).
    """

    message: Message
    sender: Pid
    txn_id: int
    forwarder: Optional[Pid] = None
    via_group: bool = False

    def __init__(self, message: Message, sender: Pid, txn_id: int,
                 forwarder: Optional[Pid] = None,
                 via_group: bool = False) -> None:
        self.message = message
        self.sender = sender
        self.txn_id = txn_id
        self.forwarder = forwarder
        self.via_group = via_group


# --------------------------------------------------------------------------
# Effects.  Plain dataclasses; the kernel dispatches on type.
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Send:
    """Blocking message transaction to ``dst``; resumes with the reply."""

    dst: Pid
    message: Message
    expose: Optional[Segment] = None


@dataclass(slots=True)
class Receive:
    """Block until a request arrives.  ``from_pid`` filters by sender."""

    from_pid: Optional[Pid] = None


@dataclass(slots=True)
class Reply:
    """Unblock ``to`` (which must be awaiting our reply) with ``message``."""

    to: Pid
    message: Message


@dataclass(slots=True)
class Forward:
    """Forward a received request to ``dst`` on behalf of its sender.

    ``message`` is the (possibly rewritten) request -- the name-handling
    protocol's mapping procedure rewrites the context id and name index
    before forwarding (Sec. 5.4).
    """

    delivery: Delivery
    dst: Pid
    message: Optional[Message] = None  # default: forward unchanged


@dataclass(slots=True)
class MoveFrom:
    """Read ``nbytes`` at ``offset`` from the segment ``src`` exposed."""

    src: Pid
    offset: int
    nbytes: int


@dataclass(slots=True)
class MoveTo:
    """Write ``data`` at ``offset`` into the segment ``dst`` exposed."""

    dst: Pid
    offset: int
    data: bytes


@dataclass(slots=True)
class Delay:
    """Advance simulated time by ``seconds`` (models CPU work or sleep)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"negative delay: {self.seconds}")


@dataclass(slots=True)
class SetPid:
    """Register the *current process* as providing ``service`` (Sec. 4.2)."""

    service: int
    scope: Scope = Scope.BOTH


@dataclass(slots=True)
class GetPid:
    """Look up the server for ``service``; resumes with a Pid or None."""

    service: int
    scope: Scope = Scope.ANY


@dataclass(slots=True)
class JoinGroup:
    """Add the current process to process group ``group_id`` (Sec. 7)."""

    group_id: int


@dataclass(slots=True)
class LeaveGroup:
    group_id: int


@dataclass(slots=True)
class GroupSend:
    """One-to-many Send: resumes with the *first* reply from the group."""

    group_id: int
    message: Message


@dataclass(slots=True)
class Annotate:
    """Attach observability attributes to the span of a held transaction.

    Servers yield this while handling the request identified by ``txn_id``
    (its :class:`Delivery`'s transaction id) to enrich the kernel-created
    hop span with protocol-level facts: which context was searched, how much
    of the name was consumed, what the mapping decided.  Costs **zero
    simulated time**.  It is a no-op unless the transaction has a hop span,
    and the kernel opens one only for a traced request (its message carries
    a ``trace`` context) in a domain with observability attached.  So span
    annotations are built only for traced requests: servers yield this only
    when ``delivery.message.trace is not None``, and behave identically
    either way.

    ``append=True`` accumulates each attribute onto a list instead of
    overwriting -- used for per-step mapping records, which grow when a
    server's name space links back into itself.
    """

    txn_id: int
    attrs: dict
    append: bool = False


@dataclass(slots=True)
class ProfileEnter:
    """Open an attribution frame ``phase:<label>`` for the current process.

    Server code brackets a protocol phase (the prefix server wraps its
    parse/lookup CPU in ``prefix_lookup``) so the attribution profiler
    (:mod:`repro.obs.profile`) charges the simulated time spent inside to
    that phase.  The frame is per-process state: it survives the generator's
    suspensions without leaking into interleaved processes.  Costs **zero
    simulated time** and is a no-op unless a profiler is attached, so
    instrumented servers behave identically either way.  Close with
    :class:`ProfileExit`; frames left open are dropped when the process
    exits.
    """

    label: str


@dataclass(slots=True)
class ProfileExit:
    """Close the innermost :class:`ProfileEnter` frame (zero cost)."""


@dataclass(slots=True)
class Now:
    """Resumes with the current simulated time (seconds)."""


@dataclass(slots=True)
class MyPid:
    """Resumes with the current process's Pid."""


@dataclass(slots=True)
class Spawn:
    """Create a process on this host; resumes with its Pid."""

    body: Any  # a generator (ProcessBody)
    name: str = "process"


@dataclass(slots=True)
class Exit:
    """Terminate the current process immediately."""


EffectResult = Any
Proc = Generator[Any, EffectResult, Any]


def request_reply(dst: Pid, message: Message,
                  expose: Segment | None = None) -> Proc:
    """``yield from`` helper: one Send, returning the reply message."""
    reply = yield Send(dst, message, expose)
    return reply
