"""Server wiring helpers and the flat-context server skeleton.

A server object (a :class:`~repro.core.csnh.CSNHServer`) is pure protocol
logic; :func:`start_server` turns it into a running kernel process on a host
and hands back a :class:`ServerHandle` tying the two together.

:class:`FlatContextServer` is the one name space of the servers whose
objects all sit in one flat context (terminal, pipe, printer, internet,
exception and team servers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.context import WellKnownContext
from repro.core.csnh import PARENT_RESOLUTION_OPS, CSNHServer
from repro.core.descriptors import ContextDescription, ObjectDescription
from repro.core.mapping import Leaf, MappingOutcome, ResolvedObject, ResolvedParent
from repro.core.names import BadName, validate_component
from repro.core.protocol import CSNameHeader
from repro.kernel.host import Host
from repro.kernel.ipc import Delivery
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.process import Process
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]

_DEFAULT = int(WellKnownContext.DEFAULT)
_OPEN_FILE = int(RequestCode.OPEN_FILE)
_DELETE_NAME = int(RequestCode.DELETE_NAME)


@dataclass
class ServerHandle:
    """A running server: the protocol object plus its kernel process."""

    server: CSNHServer
    process: Process
    host: Host

    @property
    def pid(self) -> Pid:
        return self.process.pid


def start_server(host: Host, server: CSNHServer,
                 name: str | None = None) -> ServerHandle:
    """Spawn ``server`` as a process on ``host``.

    The server's ``pid`` attribute is populated on its first step (it asks
    the kernel with ``MyPid``); the handle's ``pid`` is valid immediately.
    """
    process = host.spawn(server.body(), name=name or server.server_name)
    handle = ServerHandle(server=server, process=process, host=host)
    if host.domain.obs is not None:
        host.domain.obs.register_actor(handle.pid, server.server_name)
    return handle


class FlatContextServer(CSNHServer):
    """A server of transient objects named in one flat context (Sec. 4.3).

    "Servers that provide a small number of transient objects ... can store
    names and attributes of the objects in memory": :attr:`objects` maps
    each name to its object and is the DEFAULT well-known context.  The
    server is its own :class:`~repro.core.mapping.NameSpace`, so the
    Sec. 5.4 walk, QUERY_NAME, OPEN_DIRECTORY and CONTEXT_TO_NAME work on
    it unchanged.  A subclass supplies :meth:`record` and its own ops; it
    takes the shared OPEN_FILE and DELETE_NAME by registering
    :meth:`op_open` (with :meth:`open_object`) and :meth:`op_delete`.
    """

    #: The context's name and owner in its ContextDescription.
    context_name = ""
    user = ""
    #: OPEN_FILE in a mode other than "r" binds the name if it is new
    #: (:meth:`create_object`); such a server resolves only that open and
    #: Delete to the parent context.
    write_open_creates = False

    def __init__(self) -> None:
        super().__init__()
        self.objects: dict[bytes, Any] = {}
        self.contexts.register_well_known(WellKnownContext.DEFAULT, self.objects)

    # ------------------------------------------------------------ name space

    def namespace(self) -> FlatContextServer:
        return self

    def root(self, context_id: int) -> Optional[dict]:
        return self.objects if context_id == _DEFAULT else None

    def lookup(self, context_ref: Any, component: bytes) -> Optional[Leaf]:
        found = self.objects.get(component)
        return Leaf(found) if found is not None else None

    def map_request(self, delivery: Delivery, header: CSNameHeader) -> Gen:
        code = delivery.message.code
        if not self.write_open_creates:
            want_parent = code in PARENT_RESOLUTION_OPS
        elif code == _OPEN_FILE:
            want_parent = str(delivery.message.get("mode", "r")) != "r"
        else:
            want_parent = code == _DELETE_NAME
        return (yield from self.run_mapping(delivery, header,
                                            want_parent=want_parent))

    # ---------------------------------------------------------------- hooks

    def record(self, obj: Any) -> ObjectDescription:
        """The description record of one object (query and directory)."""
        raise NotImplementedError

    def open_object(self, owner: Pid, obj: Any,
                    mode: str) -> Instance | ReplyCode:
        """OPEN_FILE: the instance that opens ``obj``, or the refusal."""
        raise NotImplementedError

    def create_object(self, name: bytes) -> Gen:
        """A write open of ``name``: the object now bound to it, or the
        refusal (:attr:`write_open_creates` servers only)."""
        raise NotImplementedError

    def on_delete(self, obj: Any) -> Optional[ReplyCode]:
        """Delete of ``obj``: a ReplyCode refuses it; None unbinds it."""
        return None

    # ------------------------------------------------------------------ ops

    def op_open(self, delivery: Delivery, header: CSNameHeader,
                resolution: MappingOutcome) -> Gen:
        mode = str(delivery.message.get("mode", "r"))
        if isinstance(resolution, ResolvedParent):
            try:
                name = validate_component(resolution.component)
            except BadName:
                yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
                return
            target = yield from self.create_object(name)
        elif resolution.ref is self.objects:
            # The context itself: a read open where a write open creates,
            # and no openable object anywhere else.
            target = (ReplyCode.MODE_ERROR if self.write_open_creates
                      else ReplyCode.NOT_FOUND)
        else:
            target = resolution.ref
        if not isinstance(target, ReplyCode):
            target = self.open_object(delivery.sender, target, mode)
        if isinstance(target, ReplyCode):
            yield from self.reply_error(delivery, target)
            return
        instance_id = self.instances.insert(target)
        assert self.pid is not None
        yield from self.reply_ok(delivery, instance=instance_id,
                                 block_size=target.block_size,
                                 server_pid=self.pid.value)

    def op_delete(self, delivery: Delivery, header: CSNameHeader,
                  resolution: MappingOutcome) -> Gen:
        """The uniform Delete(object_name), on whatever the objects are."""
        assert isinstance(resolution, ResolvedParent)
        found = self.objects.get(resolution.component)
        refusal = ReplyCode.NOT_FOUND if found is None else self.on_delete(found)
        if refusal is not None:
            yield from self.reply_error(delivery, refusal)
            return
        del self.objects[resolution.component]
        yield from self.reply_ok(delivery)

    # ------------------------------------------------------------- protocol

    def describe(self, resolution: ResolvedObject) -> ObjectDescription:
        if resolution.ref is self.objects:
            return ContextDescription(name=self.context_name, owner=self.user,
                                      entry_count=len(self.objects))
        return self.record(resolution.ref)

    def directory_records(self, context_ref: Any) -> list[ObjectDescription]:
        return [self.record(self.objects[name]) for name in sorted(self.objects)]

    def name_of_context(self, context_id: int) -> Optional[bytes]:
        return b"" if context_id == _DEFAULT else None
