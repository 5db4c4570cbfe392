"""Messages, request/reply codes, and kernel packets (paper Sec. 3.2).

V request messages are 32-byte short messages whose first 16-bit field is the
*request code* -- a tag that determines the format of the rest of the message,
"similar to tag fields in Pascal variant records."  Reply messages carry a
*reply code* (usually one of a set of standard system replies) in the same
position.

:class:`Message` models the short message as a code plus named fields; the
wire encoding in :mod:`repro.net.wire` enforces the 32-byte budget.  A message
may carry an *appended segment* of bytes (how CSnames and read/write data
travel with a request or reply); the segment is charged on the wire at the
size of the transported buffer.

:class:`Packet` is the kernel-to-kernel envelope: requests, replies, probe
traffic for failure detection, and GetPid broadcast queries all travel as
packets on the Ethernet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.kernel.pids import Pid
from repro.net.latency import SHORT_MESSAGE_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import SpanContext


class RequestCode(enum.IntEnum):
    """Standard system request codes.

    Ranges: ``0x01xx`` kernel-adjacent utility, ``0x02xx`` the V I/O protocol,
    ``0x03xx`` the name-handling protocol (Sec. 5.7), ``0x04xx`` and up are
    server-specific operations registered by individual servers.
    """

    # -- utility -----------------------------------------------------------
    GET_TIME = 0x0101
    SET_TIME = 0x0102

    # -- V I/O protocol (Sec. 3.2) ------------------------------------------
    CREATE_INSTANCE = 0x0201
    QUERY_INSTANCE = 0x0202
    READ_INSTANCE = 0x0203
    WRITE_INSTANCE = 0x0204
    RELEASE_INSTANCE = 0x0205
    SET_INSTANCE_OWNER = 0x0206

    # -- name-handling protocol (Sec. 5) -------------------------------------
    # CSname requests: carry the standard CSname header fields.
    OPEN_FILE = 0x0301            # open a file-like object by CSname
    CREATE_FILE = 0x0302
    DELETE_NAME = 0x0303
    RENAME_OBJECT = 0x0304
    QUERY_NAME = 0x0305           # get an object description by CSname
    MODIFY_NAME = 0x0306          # overwrite an object description by CSname
    NAME_TO_CONTEXT = 0x0307      # map a CSname naming a context -> (pid, ctx)
    OPEN_DIRECTORY = 0x0308       # open a context directory as a file
    CREATE_CONTEXT = 0x0309       # make a new sub-context (mkdir)
    DELETE_CONTEXT = 0x030A
    ADD_CONTEXT_NAME = 0x030B     # optional: define a name for a context
    DELETE_CONTEXT_NAME = 0x030C  # optional: remove such a definition
    # Non-CSname naming requests (inverse mapping, Sec. 5.7):
    CONTEXT_TO_NAME = 0x0310      # (pid, context-id) -> CSname
    INSTANCE_TO_NAME = 0x0311     # (pid, instance-id) -> CSname

    # -- server-specific bases ------------------------------------------------
    PRINT_JOB = 0x0401
    PRINT_STATUS = 0x0402
    TCP_CONNECT = 0x0411
    TCP_DISCONNECT = 0x0412
    MAIL_DELIVER = 0x0421
    MAIL_CHECK = 0x0422
    LOAD_PROGRAM = 0x0431
    RUN_PROGRAM = 0x0432
    KILL_PROGRAM = 0x0433
    RAISE_EXCEPTION = 0x0441
    TERMINAL_CREATE = 0x0451
    TERMINAL_DRAW = 0x0452
    # -- centralized-baseline name server ops (Sec. 2.1 model, for E8) --------
    NS_REGISTER = 0x0461
    NS_LOOKUP = 0x0462
    NS_UNREGISTER = 0x0463
    NS_LIST = 0x0464
    # -- centralized-baseline object servers (objects named by UID only) ------
    OBJ_CREATE = 0x0471
    OBJ_DELETE = 0x0472
    OBJ_OPEN = 0x0473
    OBJ_QUERY = 0x0474
    OBJ_LIST = 0x0475
    # -- sharded replicated prefix service (repro.core.shard) -----------------
    SHARD_FETCH = 0x0481       # replica/owner refresh of one leased binding
    SHARD_SYNC = 0x0482        # owner -> replica: install a leased binding
    SHARD_INVALIDATE = 0x0483  # owner -> replica: drop a binding
    SHARD_MAP = 0x0484         # fetch the current versioned shard map
    SHARD_PULL = 0x0485        # rejoining replica <- peer: bulk table transfer


class ReplyCode(enum.IntEnum):
    """Standard system reply codes (Sec. 3.2)."""

    OK = 0x0000
    NOT_FOUND = 0x0001            # no such name/object in this context
    NONEXISTENT_PROCESS = 0x0002  # kernel: destination process does not exist
    NO_PERMISSION = 0x0003
    ILLEGAL_REQUEST = 0x0004      # server does not implement the operation
    INVALID_CONTEXT = 0x0005      # context identifier not valid on this server
    BAD_NAME = 0x0006             # syntactically unacceptable CSname
    NOT_A_CONTEXT = 0x0007        # name resolved to a leaf where a context was needed
    NAME_EXISTS = 0x0008
    CONTEXT_NOT_EMPTY = 0x0009
    END_OF_FILE = 0x000A
    BAD_INSTANCE = 0x000B
    NO_SERVER = 0x000C            # GetPid failed / no server for prefix
    TIMEOUT = 0x000D              # transaction abandoned after failed probes
    RETRY = 0x000E
    DEVICE_ERROR = 0x000F
    BUSY = 0x0010
    NOT_SUPPORTED = 0x0011
    BAD_ARGS = 0x0012
    MODE_ERROR = 0x0013           # I/O: operation not allowed by open mode
    INCONSISTENT = 0x0014         # baseline: registry disagrees with the server


def code_name(code: int) -> str:
    """Symbolic name for a request/reply code (hex for unknown codes)."""
    try:
        return RequestCode(code).name
    except ValueError:
        try:
            return ReplyCode(code).name
        except ValueError:
            return f"{code:#06x}"


@dataclass(slots=True, init=False)
class Message:
    """A V short message: request/reply code + named fields (+ segment).

    ``fields`` is the variant part whose layout the code determines.  The
    wire encoding packs it into the 32-byte short message; the simulation
    charges exactly :data:`SHORT_MESSAGE_BYTES` for it regardless of content.

    ``segment`` is an appended byte string (CSnames, read/write data).  On
    the wire it occupies ``segment_wire_bytes``: the maximum of its length
    and ``segment_buffer`` -- V shipped fixed-size buffers for names, which
    is what makes remote Open cost what it costs (see latency.py).

    ``trace`` is the observability propagation token (see
    :mod:`repro.obs.span`): pure metadata, never charged on the wire.  The
    kernel rewrites it at each hop so span trees follow ``Forward`` chains;
    a real kernel would pack the three ids into the short-message header.

    ``__init__`` is hand-written (``init=False``): messages are built once
    per IPC hop, and the generated dataclass initializer plus a
    ``__post_init__`` costs several times the attribute stores it performs.
    Equality and repr still come from the dataclass machinery.
    """

    code: int
    fields: dict[str, Any] = field(default_factory=dict)
    segment: Optional[bytes] = None
    segment_buffer: int = 0
    trace: Optional["SpanContext"] = None
    #: Total wire size.  ``segment``/``segment_buffer`` are fixed after
    #: construction (only ``trace`` is rewritten per hop, and it is never
    #: charged), so this is computed once -- packet construction and frame
    #: transmission read it per message.
    wire_bytes: int = field(init=False, repr=False, compare=False, default=0)

    def __init__(self, code: int, fields: Optional[dict] = None,
                 segment: Optional[bytes] = None, segment_buffer: int = 0,
                 trace: Optional["SpanContext"] = None) -> None:
        self.code = code
        self.fields = {} if fields is None else fields
        self.segment = segment
        self.segment_buffer = segment_buffer
        self.trace = trace
        if segment is None:
            self.wire_bytes = SHORT_MESSAGE_BYTES + max(0, segment_buffer)
        else:
            if not isinstance(segment, (bytes, bytearray)):
                raise TypeError(
                    f"segment must be bytes (got {type(segment).__name__})")
            self.wire_bytes = SHORT_MESSAGE_BYTES + max(len(segment),
                                                        segment_buffer)
        if segment_buffer < 0:
            raise ValueError("segment_buffer must be non-negative")

    @property
    def segment_wire_bytes(self) -> int:
        actual = len(self.segment) if self.segment is not None else 0
        return max(actual, self.segment_buffer)

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    @property
    def reply_code(self) -> ReplyCode:
        """Interpret this message as a reply (first field = reply code)."""
        return ReplyCode(self.code)

    @property
    def ok(self) -> bool:
        return self.code == ReplyCode.OK

    @classmethod
    def request(cls, code: int, segment: bytes | None = None,
                segment_buffer: int = 0, **fields: Any) -> "Message":
        return cls(int(code), fields, segment, segment_buffer)

    @classmethod
    def reply(cls, code: int = ReplyCode.OK, segment: bytes | None = None,
              segment_buffer: int = 0, **fields: Any) -> "Message":
        return cls(int(code), fields, segment, segment_buffer)

    def __repr__(self) -> str:
        seg = f" +seg[{self.segment_wire_bytes}]" if self.segment_wire_bytes else ""
        return f"Message({code_name(self.code)}, {self.fields}{seg})"


class PacketKind(enum.Enum):
    """Kernel-to-kernel packet types."""

    REQUEST = "request"            # a Send in flight
    REPLY = "reply"                # a Reply in flight
    NACK = "nack"                  # destination process does not exist
    PROBE = "probe"                # sender kernel checking on a transaction
    PROBE_OK = "probe_ok"          # transaction alive at the destination
    PROBE_FORWARDED = "probe_fwd"  # transaction was forwarded; re-aim probes
    PROBE_MISSING = "probe_missing"  # dst process alive but request never arrived
    GETPID_QUERY = "getpid_query"        # broadcast service lookup
    GETPID_RESPONSE = "getpid_response"  # unicast answer to a query
    GROUP_REQUEST = "group_request"      # multicast Send to a process group
    MOVE_DATA = "move_data"              # one bulk-transfer data packet

    # Members are singletons and equality is identity, so the identity hash
    # is consistent -- and C-level, unlike enum's default hash-of-name,
    # which shows up in profiles because every received packet is dispatched
    # through a dict keyed by its kind.
    __hash__ = object.__hash__


#: Read on every packet construction: a module constant is a global load,
#: an Enum member off its class several times that.
_MOVE_DATA = PacketKind.MOVE_DATA

#: Packet kinds that carry a Message payload.
_MESSAGE_KINDS = {PacketKind.REQUEST, PacketKind.REPLY, PacketKind.NACK,
                  PacketKind.GROUP_REQUEST}

#: Shared ``info`` for the common case of a packet with no side-channel
#: data.  Packet info is read-only after construction (callers that need
#: entries pass their own dict), so one empty dict serves every such packet
#: instead of a fresh allocation per construction.
_EMPTY_INFO: dict = {}


@dataclass(slots=True, init=False)
class Packet:
    """One kernel-level packet: the unit the Ethernet carries.

    Like :class:`Message`, the initializer is hand-written: two to three
    packets are built per transaction, and the stores below are the whole
    job.  Equality and repr still come from the dataclass machinery.
    """

    kind: PacketKind
    src_pid: Pid
    dst_pid: Optional[Pid]
    txn_id: int
    message: Optional[Message] = None
    #: Side-channel fields (forwarder, group id, move parameters...).  None
    #: normalizes to a shared immutable-by-convention empty dict.
    info: Optional[dict] = None
    #: Wire payload size: control packets are short-message sized.  Computed
    #: once at construction -- kind, message and info are fixed for the
    #: packet's lifetime, and transmit/profiling read this several times per
    #: frame.
    payload_bytes: int = field(init=False, repr=False, compare=False,
                               default=0)

    def __init__(self, kind: PacketKind, src_pid: Pid, dst_pid: Optional[Pid],
                 txn_id: int, message: Optional[Message] = None,
                 info: Optional[dict] = None) -> None:
        self.kind = kind
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.txn_id = txn_id
        self.message = message
        self.info = info if info is not None else _EMPTY_INFO
        if kind is _MOVE_DATA:
            self.payload_bytes = int(self.info.get("data_bytes", 0))
        elif message is not None:
            self.payload_bytes = message.wire_bytes
        elif kind in _MESSAGE_KINDS:
            raise ValueError(f"{kind} packet requires a message")
        else:
            self.payload_bytes = SHORT_MESSAGE_BYTES
