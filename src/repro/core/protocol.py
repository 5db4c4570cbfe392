"""The standard CSname request format (paper Sec. 5.3).

"Each CSname request specifies the name, length of name, index into the name
at which interpretation is to begin (or continue), and a context identifier
specifying the context in which to interpret it.  The server-pid portion of
the context is implicitly specified by sending the message directly to the
server in question."

The standard fields are a fixed part of the message; the rest is a variant
part determined by the operation code.  Crucially, *a CSNH server can perform
some processing on any CSname request even if it does not understand the
operation code* -- it can run the mapping procedure and forward the request.
That property is what lets new operations be added without touching
intermediary servers, and this module is where it is enforced: the standard
fields live under reserved keys every server knows, independent of the op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.context import ContextPair
from repro.core.names import MAX_NAME_BYTES, as_name_bytes
from repro.kernel.messages import Message, RequestCode
from repro.kernel.pids import Pid

#: Reserved field names of the standard CSname header.
FIELD_CONTEXT_ID = "context_id"
FIELD_NAME_INDEX = "name_index"
FIELD_NAME_LENGTH = "name_length"

#: Binding-advice field names (Sec. 5 hint caching, see repro.core.namecache).
#: A CSNH server that answers a CSname request OK attaches the binding the
#: client could have used to reach it directly: its own pid, the context id
#: the request carried on arrival, and the name index at which its own
#: interpretation began.  A prefix server forwarding through a *generic*
#: binding additionally stamps ``FIELD_HINT_SERVICE`` onto the forwarded
#: request, and the final server echoes it, so the client learns the prefix
#: is generic and keeps re-resolving the service pid with GetPid.  All four
#: fields ride in the short-message variant part: zero extra wire cost.
FIELD_BOUND_SERVER = "bound_server"
FIELD_BOUND_CONTEXT = "bound_context"
FIELD_BOUND_INDEX = "bound_index"
FIELD_HINT_SERVICE = "hint_service"

#: Provenance fields (coherence observability, see repro.obs.audit).  A
#: prefix server additionally stamps the binding's mutation epoch and the
#: pid of the server that authored it onto the forwarded request; the
#: final server echoes both, so a caching client records *which version*
#: of the binding it learned -- staleness becomes a computable quantity.
#: Like the advice fields these ride the short-message variant part, so
#: they cost nothing on the wire.
FIELD_HINT_EPOCH = "hint_epoch"
FIELD_HINT_SOURCE = "hint_source"

#: Request codes defined by the base protocol that carry a CSname.  Servers
#: register additional ones with :func:`register_csname_request`; "there is
#: no limit to the number of request message types that may contain CSnames."
_CSNAME_REQUEST_CODES: set[int] = {
    int(RequestCode.OPEN_FILE),
    int(RequestCode.CREATE_FILE),
    int(RequestCode.DELETE_NAME),
    int(RequestCode.RENAME_OBJECT),
    int(RequestCode.QUERY_NAME),
    int(RequestCode.MODIFY_NAME),
    int(RequestCode.NAME_TO_CONTEXT),
    int(RequestCode.OPEN_DIRECTORY),
    int(RequestCode.CREATE_CONTEXT),
    int(RequestCode.DELETE_CONTEXT),
    int(RequestCode.ADD_CONTEXT_NAME),
    int(RequestCode.DELETE_CONTEXT_NAME),
}


def register_csname_request(code: int) -> int:
    """Declare that messages with ``code`` carry the standard CSname header.

    Returns the code, so it can be used at definition sites::

        MAIL_RESOLVE = register_csname_request(0x0423)
    """
    _CSNAME_REQUEST_CODES.add(int(code))
    return int(code)


def is_csname_request(message: Message) -> bool:
    """True if the message carries the standard CSname header fields."""
    return message.code in _CSNAME_REQUEST_CODES


def csname_request_codes() -> frozenset[int]:
    return frozenset(_CSNAME_REQUEST_CODES)


#: The standard header's fields, which no variant field may reuse.
_HEADER_FIELDS = frozenset({FIELD_CONTEXT_ID, FIELD_NAME_INDEX,
                            FIELD_NAME_LENGTH})


def make_csname_request(
    code: int,
    name: str | bytes,
    context_id: int,
    name_index: int = 0,
    **variant_fields: Any,
) -> Message:
    """Build a CSname request with the standard header.

    The name travels as the appended segment; on the wire it occupies the
    fixed :data:`~repro.core.names.MAX_NAME_BYTES` buffer the stubs ship
    (which is what makes remote CSname operations cost what they cost --
    see latency.py).
    """
    return csname_message(code, as_name_bytes(name), context_id, name_index,
                          variant_fields)


def csname_message(code: int, data: bytes, context_id: int, name_index: int,
                   variant_fields: dict) -> Message:
    """:func:`make_csname_request` for a name already through
    :func:`~repro.core.names.as_name_bytes` (the client stub converts once
    per request, not once per attempt)."""
    if not 0 <= name_index <= len(data):
        raise ValueError(f"name index {name_index} outside name of {len(data)} bytes")
    if variant_fields and not _HEADER_FIELDS.isdisjoint(variant_fields):
        clash = _HEADER_FIELDS.intersection(variant_fields)
        raise ValueError(f"variant fields clash with the standard header: {clash}")
    fields = {
        FIELD_CONTEXT_ID: int(context_id),
        FIELD_NAME_INDEX: int(name_index),
        FIELD_NAME_LENGTH: len(data),
        **variant_fields,
    }
    return Message(code=int(code), fields=fields, segment=data,
                   segment_buffer=MAX_NAME_BYTES)


@dataclass(frozen=True)
class CSNameHeader:
    """The decoded standard header of a CSname request."""

    name: bytes
    name_index: int
    context_id: int

    @property
    def remaining(self) -> bytes:
        """The uninterpreted part of the name."""
        return self.name[self.name_index:]


def read_csname_header(message: Message) -> CSNameHeader:
    """Decode the standard header.

    Raises KeyError when a header field is missing and ValueError when the
    header is malformed: no name segment, a field that is not an ``int``
    (``bool`` and ``None`` included -- the wire codec carries both), or
    indices outside ``0 <= name_index <= name_length <= len(segment)``.
    A server answers either with BAD_ARGS; it never interprets the name.
    """
    segment = message.segment
    if segment is None:
        raise ValueError(f"CSname request {message!r} carries no name segment")
    fields = message.fields
    length = fields[FIELD_NAME_LENGTH]
    index = fields[FIELD_NAME_INDEX]
    context_id = fields[FIELD_CONTEXT_ID]
    # type(), not isinstance(): True/False are ints to Python.
    if (type(length) is not int or type(index) is not int
            or type(context_id) is not int
            or not 0 <= index <= length <= len(segment)):
        raise ValueError(
            f"malformed CSname header: context_id={context_id!r}, "
            f"name_index={index!r}, name_length={length!r}, "
            f"segment of {len(segment)} bytes")
    return CSNameHeader(bytes(segment[:length]), index, context_id)


def make_binding_advice(server: Pid, context_id: int, name_index: int,
                        hint_service: Optional[int] = None,
                        hint_epoch: Optional[int] = None,
                        hint_source: Optional[int] = None) -> dict[str, Any]:
    """The advice fields a CSNH server attaches to an OK CSname reply."""
    advice: dict[str, Any] = {
        FIELD_BOUND_SERVER: int(server.value),
        FIELD_BOUND_CONTEXT: int(context_id),
        FIELD_BOUND_INDEX: int(name_index),
    }
    if hint_service is not None:
        advice[FIELD_HINT_SERVICE] = int(hint_service)
    if hint_epoch is not None:
        advice[FIELD_HINT_EPOCH] = int(hint_epoch)
    if hint_source is not None:
        advice[FIELD_HINT_SOURCE] = int(hint_source)
    return advice


def read_binding_advice(
    reply: Message,
) -> Optional[tuple[ContextPair, int, Optional[int]]]:
    """Decode a reply's binding advice: ``(pair, name_index, service|None)``.

    Returns None when the reply carries no advice (pre-advice servers, or
    non-CSname replies); a client must treat advice as strictly optional.
    """
    fields = reply.fields
    raw_server = fields.get(FIELD_BOUND_SERVER)
    raw_context = fields.get(FIELD_BOUND_CONTEXT)
    raw_index = fields.get(FIELD_BOUND_INDEX)
    if raw_server is None or raw_context is None or raw_index is None:
        return None
    service = fields.get(FIELD_HINT_SERVICE)
    pair = ContextPair(Pid(int(raw_server)), int(raw_context))
    return pair, int(raw_index), int(service) if service is not None else None


def read_binding_provenance(reply: Message) -> Optional[tuple[int, int]]:
    """Decode a reply's binding provenance: ``(epoch, source_pid)``.

    Returns None when the reply carries no provenance (pre-provenance
    servers, names never routed through a prefix server); like advice,
    provenance is strictly optional and purely advisory.
    """
    fields = reply.fields
    raw_epoch = fields.get(FIELD_HINT_EPOCH)
    if raw_epoch is None:
        return None
    raw_source = fields.get(FIELD_HINT_SOURCE)
    return int(raw_epoch), int(raw_source) if raw_source is not None else 0


def rewrite_for_forward(message: Message, context_id: int,
                        name_index: int) -> Message:
    """Rewrite the standard header before forwarding (Sec. 5.4).

    "the name index field in the request message is updated to point to the
    first character of the name not yet parsed, the context id field is set
    to the value of CurrentContext, and the request is forwarded."

    The variant part is untouched: the forwarding server need not understand
    the operation.
    """
    fields = dict(message.fields)
    fields[FIELD_CONTEXT_ID] = int(context_id)
    fields[FIELD_NAME_INDEX] = int(name_index)
    # The trace context rides along so causality survives the rewrite; the
    # kernel re-points it at the forwarding hop's span when one exists.
    return Message(code=message.code, fields=fields, segment=message.segment,
                   segment_buffer=message.segment_buffer, trace=message.trace)
