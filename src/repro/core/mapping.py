"""The name mapping procedure (paper Sec. 5.4).

"The server begins by looking at the name itself, not the operation code. ...
Names are ordinarily interpreted left-to-right ... As each component of the
name is parsed, it is looked up in the current context.  If the name
specifies a context, the variable CurrentContext is updated.  If the new
context is implemented by some other server, the name index field in the
request message is updated to point to the first character of the name not
yet parsed, the context id field is set to the value of CurrentContext, and
the request is forwarded to the server that implements the context."

The walk is generic over a :class:`NameSpace`: hierarchical servers (file
server, prefix server, team server ...) supply ``root``/``lookup`` and get
the protocol behaviour -- including cross-server forwarding -- for free.
Servers with exotic syntax (the mail server) skip this module entirely,
which the protocol explicitly permits ("If the server does not provide
pointers to contexts in other servers as part of its name space, it may
interpret the name in any way it chooses").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Union

from repro.core.context import ContextPair
from repro.core.names import SEPARATOR
from repro.kernel.messages import ReplyCode

# ---------------------------------------------------------------------------
# What a lookup can yield.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """The component names a non-context object (e.g. a file)."""

    ref: Any


@dataclass(frozen=True)
class SubContext:
    """The component names a context on *this* server."""

    ref: Any


@dataclass(frozen=True)
class RemoteLink:
    """The component names a context implemented by *another* server.

    This is the curved arrow in the paper's Figure 4: a pointer from one
    server's name space into another's, and the trigger for forwarding.
    """

    pair: ContextPair


LookupResult = Union[Leaf, SubContext, RemoteLink, None]


class NameSpace(Protocol):
    """What a hierarchical server exposes to the mapping procedure."""

    def root(self, context_id: int) -> Optional[Any]:
        """Map a context identifier to an internal context reference."""

    def lookup(self, context_ref: Any, component: bytes) -> LookupResult:
        """Look one component up in a context."""


# ---------------------------------------------------------------------------
# Outcomes of a mapping.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedObject:
    """The name mapped, on this server, to ``ref``."""

    ref: Any
    is_context: bool
    parent_ref: Optional[Any]   # context holding the final binding (None = root itself)
    component: bytes            # final component ("" when the name was empty)
    index: int                  # index just past the interpreted part


@dataclass(frozen=True)
class ResolvedParent:
    """For create-style ops: the parent context plus the unbound final component."""

    parent_ref: Any
    component: bytes
    index: int


@dataclass(frozen=True)
class ForwardName:
    """Interpretation must continue at another server (Sec. 5.4 forwarding).

    ``extra_fields`` lets the forwarding server stamp variant fields onto
    the rewritten request (beyond the standard header rewrite) -- the prefix
    server uses it to mark requests forwarded through a *generic* binding,
    so the final server's binding advice can tell the client to re-resolve
    the service pid rather than cache it (see repro.core.namecache).
    """

    pair: ContextPair
    index: int
    extra_fields: Optional[dict] = None


@dataclass(frozen=True)
class MappingFault:
    """The name cannot be mapped; reply with ``code``.

    ``extra_fields`` ride in the error reply's variant part -- the
    replicated prefix server (repro.core.shard) uses them to tell a
    refused client *which* replica currently owns the prefix, so the
    retry goes straight to the authority instead of groping the ring.
    """

    code: ReplyCode
    detail: str = ""
    extra_fields: Optional[dict] = None

    @property
    def not_found(self) -> bool:
        return self.code is ReplyCode.NOT_FOUND


MappingOutcome = Union[ResolvedObject, ResolvedParent, ForwardName, MappingFault]

#: Observability hook: called once per component examined, with the
#: component and what the lookup decided ("leaf", "context", "remote-link",
#: "missing", "not-a-context", "parent-slot").  See CSNHServer.run_mapping,
#: which feeds these steps into the request's hop span.
StepObserver = Callable[[bytes, str], None]


def map_name(
    namespace: NameSpace,
    context_id: int,
    name: bytes,
    index: int,
    want_parent: bool = False,
    observer: Optional[StepObserver] = None,
) -> MappingOutcome:
    """Run the Sec. 5.4 procedure over ``namespace``.

    ``want_parent=True`` is the create/add variant: stop at the context that
    would hold the final component, without requiring the component to be
    bound (CREATE_FILE needs the parent, not the -- nonexistent -- child).
    An already-bound final component still resolves the parent, letting the
    operation decide whether that is an error.

    Components are ``/``-separated and empty ones are skipped, exactly as
    :func:`~repro.core.names.next_component` splits them; the walk scans
    the name once.  ``end`` is where the last component ends, so a
    component is final when it stops there and the name is exhausted when
    ``index`` reaches it.
    """
    current = namespace.root(context_id)
    if current is None:
        return MappingFault(ReplyCode.INVALID_CONTEXT,
                            f"no context {context_id:#06x} on this server")
    end = len(name.rstrip(b"/"))
    lookup = namespace.lookup
    parent: Optional[Any] = None
    component = b""
    while index < end:
        start = index
        while name[start] == SEPARATOR:
            start += 1
        stop = name.find(b"/", start)
        if stop < 0:
            stop = end
        piece = name[start:stop]
        is_final = stop >= end
        if want_parent and is_final:
            if observer is not None:
                observer(piece, "parent-slot")
            return ResolvedParent(current, piece, stop)
        entry = lookup(current, piece)
        if entry is None:
            if observer is not None:
                observer(piece, "missing")
            return MappingFault(ReplyCode.NOT_FOUND,
                                f"no {piece!r} in context")
        if isinstance(entry, SubContext):
            if observer is not None:
                observer(piece, "context")
            parent = current
            current = entry.ref
            component = piece
            index = stop
            continue
        if isinstance(entry, RemoteLink):
            if observer is not None:
                observer(piece, "remote-link")
            return ForwardName(entry.pair, stop)
        if isinstance(entry, Leaf):
            if not is_final:
                if observer is not None:
                    observer(piece, "not-a-context")
                return MappingFault(
                    ReplyCode.NOT_A_CONTEXT,
                    f"{piece!r} is not a context but the name continues")
            if observer is not None:
                observer(piece, "leaf")
            return ResolvedObject(ref=entry.ref, is_context=False,
                                  parent_ref=current, component=piece,
                                  index=stop)
        raise TypeError(f"lookup returned {entry!r}")
    # Name exhausted: it denotes the current context itself.
    if want_parent:
        if parent is None:
            return MappingFault(ReplyCode.BAD_NAME,
                                "empty name cannot denote a new binding")
        return ResolvedParent(parent, component, index)
    return ResolvedObject(ref=current, is_context=True, parent_ref=parent,
                          component=component, index=index)
