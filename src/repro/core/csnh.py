"""The CSNH server base class.

"The term character string name handling server (CSNH server) refers to any
server that performs character string name mapping as specified by the
name-handling protocol, regardless of what else it does." (Sec. 5.1)

:class:`CSNHServer` packages the protocol obligations so a concrete server
only supplies its name space and its operations:

- the receive loop and service registration;
- the standard CSname header handling and the Sec. 5.4 mapping procedure,
  including *forwarding* partially-interpreted names to other servers --
  even for operation codes the server does not understand;
- default implementations of the standard operations (Sec. 5.5-5.7):
  query/modify descriptions, NAME_TO_CONTEXT, context directories, inverse
  mappings, and the V I/O instance operations;
- group-delivery semantics for multicast naming (Sec. 7): mapping faults on
  a group-addressed request are silently discarded, because some *other*
  member presumably implements the name.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.context import ContextIdAllocator, WellKnownContext
from repro.core.descriptors import DescriptorError, ObjectDescription
from repro.core.mapping import (
    ForwardName,
    MappingFault,
    MappingOutcome,
    NameSpace,
    ResolvedObject,
    ResolvedParent,
    map_name,
)
from repro.core.protocol import (
    _CSNAME_REQUEST_CODES,
    FIELD_HINT_EPOCH,
    FIELD_HINT_SERVICE,
    FIELD_HINT_SOURCE,
    CSNameHeader,
    make_binding_advice,
    read_csname_header,
    rewrite_for_forward,
)
from repro.kernel.ipc import (
    Annotate,
    Delay,
    Delivery,
    JoinGroup,
    MyPid,
    ProfileEnter,
    ProfileExit,
    Receive,
    Reply,
    SetPid,
)
from repro.kernel.ipc import Forward as ForwardEffect
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope
from repro.vio.instance import Instance, InstanceTable

Gen = Generator[Any, Any, Any]

#: CSname operations resolved against the *parent* context (the final
#: component is the name being created/removed, so it need not be bound).
PARENT_RESOLUTION_OPS = frozenset({
    int(RequestCode.CREATE_FILE),
    int(RequestCode.CREATE_CONTEXT),
    int(RequestCode.DELETE_NAME),
    int(RequestCode.DELETE_CONTEXT),
    int(RequestCode.RENAME_OBJECT),
    int(RequestCode.ADD_CONTEXT_NAME),
    int(RequestCode.DELETE_CONTEXT_NAME),
})

_OK = int(ReplyCode.OK)


class ContextTable:
    """Bidirectional map between context ids and server-internal refs.

    Handles both well-known ids (fixed bindings, Sec. 5.2) and ordinary
    server-assigned ids fabricated on demand by NAME_TO_CONTEXT.
    """

    def __init__(self) -> None:
        self._by_id: dict[int, Any] = {}
        self._by_ref: dict[int, int] = {}  # id(ref) -> context id
        self._refs: dict[int, Any] = {}    # keep refs alive for id() stability
        self._allocator = ContextIdAllocator()

    def register_well_known(self, context_id: int, ref: Any) -> None:
        self._by_id[int(context_id)] = ref

    def resolve(self, context_id: int) -> Optional[Any]:
        return self._by_id.get(int(context_id))

    def id_for(self, ref: Any) -> int:
        """Context id for ``ref``, allocating an ordinary id on first use."""
        key = id(ref)
        existing = self._by_ref.get(key)
        if existing is not None:
            return existing
        context_id = self._allocator.allocate()
        self._by_ref[key] = context_id
        self._by_id[context_id] = ref
        self._refs[key] = ref
        return context_id

    def drop_ref(self, ref: Any) -> None:
        """Invalidate ids for a deleted context."""
        key = id(ref)
        context_id = self._by_ref.pop(key, None)
        self._refs.pop(key, None)
        if context_id is not None:
            self._by_id.pop(context_id, None)
            self._allocator.release(context_id)

    def known_ids(self) -> list[int]:
        return sorted(self._by_id)


class CSNHServer:
    """Base class for every name-handling server in the system."""

    #: Human-readable server kind (tracing and inverse mapping).
    server_name: str = "csnh"
    #: Kernel service id to register under (None = unregistered).
    service_id: Optional[int] = None
    service_scope: Scope = Scope.BOTH
    #: Attribution-frame label for the per-request CPU charge (profiling,
    #: see repro.obs.profile).  The prefix server sets "prefix_lookup" so
    #: its parse/lookup cost shows as its own CSNH phase; None leaves the
    #: charge on the process/service frames.
    profile_phase: Optional[str] = None

    def __init__(self) -> None:
        self.pid: Optional[Pid] = None
        self.instances = InstanceTable()
        self.contexts = ContextTable()
        self._csname_ops: dict[int, Any] = {}
        self._request_ops: dict[int, Any] = {}
        #: Per-transaction binding advice, stashed when the mapping lands on
        #: this server and attached to the reply by the reply glue below.
        self._advice: dict[int, dict] = {}
        self._register_standard_ops()

    # ------------------------------------------------------------- op tables

    def _register_standard_ops(self) -> None:
        self.register_csname_op(RequestCode.QUERY_NAME, self.op_query_name)
        self.register_csname_op(RequestCode.MODIFY_NAME, self.op_modify_name)
        self.register_csname_op(RequestCode.NAME_TO_CONTEXT, self.op_name_to_context)
        self.register_csname_op(RequestCode.OPEN_DIRECTORY, self.op_open_directory)
        self.register_request_op(RequestCode.CONTEXT_TO_NAME, self.op_context_to_name)
        self.register_request_op(RequestCode.INSTANCE_TO_NAME, self.op_instance_to_name)
        self.register_request_op(RequestCode.READ_INSTANCE, self.op_read_instance)
        self.register_request_op(RequestCode.WRITE_INSTANCE, self.op_write_instance)
        self.register_request_op(RequestCode.QUERY_INSTANCE, self.op_query_instance)
        self.register_request_op(RequestCode.RELEASE_INSTANCE, self.op_release_instance)

    def register_csname_op(self, code: int, handler) -> None:
        """Install a handler(dv, header, resolution) for a CSname op."""
        self._csname_ops[int(code)] = handler

    def register_request_op(self, code: int, handler) -> None:
        """Install a handler(dv) for a non-CSname request."""
        self._request_ops[int(code)] = handler

    # ------------------------------------------------------------------ hooks

    def namespace(self) -> Optional[NameSpace]:
        """The server's name space, if it uses the generic mapping procedure."""
        return None

    def on_start(self) -> Gen:
        """Extra startup effects (runs after registration)."""
        yield from ()

    def per_request_delay(self) -> float:
        """CPU time charged per incoming request (calibration hook)."""
        return 0.0

    def group_ids(self) -> list[int]:
        """Process groups to join at startup (multicast naming, Sec. 7)."""
        return []

    def describe(self, resolution: ResolvedObject) -> Optional[ObjectDescription]:
        """Build the description record for a resolved object (Sec. 5.5)."""
        return None

    def apply_description(self, resolution: ResolvedObject,
                          record: ObjectDescription) -> ReplyCode:
        """Apply a modification record to a resolved object (Sec. 5.5)."""
        return ReplyCode.ILLEGAL_REQUEST

    def directory_records(self, context_ref: Any) -> list[ObjectDescription]:
        """Fabricate the context directory records on demand (Sec. 5.6)."""
        return []

    def modify_record(self, context_ref: Any,
                      record: ObjectDescription) -> ReplyCode:
        """Apply a record written into a context directory (Sec. 5.6)."""
        return ReplyCode.ILLEGAL_REQUEST

    def name_of_context(self, context_id: int) -> Optional[bytes]:
        """Inverse mapping: context id -> CSname (Sec. 5.7, best effort)."""
        return None

    def name_of_instance(self, instance_id: int) -> Optional[bytes]:
        """Inverse mapping: instance id -> CSname (Sec. 5.7, best effort)."""
        return None

    def client_died(self, pid: Pid) -> None:
        """Called when a NONEXISTENT client is noticed (resource reclaim)."""
        self.instances.release_owned_by(pid)

    # ------------------------------------------------------------------ body

    def body(self) -> Gen:
        """The server process: register, then serve forever.

        Each request is charged :meth:`per_request_delay`, then goes to
        :meth:`handle_csname` if its code carries a CSname (the protocol
        module's registry) or else to the handler registered for its code.
        """
        self.pid = yield MyPid()
        if self.service_id is not None:
            yield SetPid(int(self.service_id), self.service_scope)
        for group_id in self.group_ids():
            yield JoinGroup(group_id)
        yield from self.on_start()
        request_ops = self._request_ops
        while True:
            delivery = yield Receive()
            cost = self.per_request_delay()
            if cost > 0:
                if self.profile_phase is not None:
                    yield ProfileEnter(self.profile_phase)
                    yield Delay(cost)
                    yield ProfileExit()
                else:
                    yield Delay(cost)
            code = delivery.message.code
            if code in _CSNAME_REQUEST_CODES:
                yield from self.handle_csname(delivery)
                continue
            handler = request_ops.get(code)
            if handler is None:
                yield from self.reply_error(delivery, ReplyCode.ILLEGAL_REQUEST)
            else:
                yield from handler(delivery)

    # ---------------------------------------------------------------- CSnames

    def map_request(self, delivery: Delivery,
                    header: CSNameHeader) -> Gen:
        """Resolve the request's name; returns a MappingOutcome.

        A generator so subclasses can yield effects while mapping (the
        prefix server's GetPid for generic bindings).  The default runs the
        Sec. 5.4 procedure over :meth:`namespace`.
        """
        want_parent = delivery.message.code in PARENT_RESOLUTION_OPS
        return (yield from self.run_mapping(delivery, header,
                                            want_parent=want_parent))

    def run_mapping(self, delivery: Delivery, header: CSNameHeader,
                    want_parent: bool = False) -> Gen:
        """Run the Sec. 5.4 walk over :meth:`namespace`.

        For a traced request (``delivery.message.trace`` set) each step of
        the walk is recorded on the request's hop span with ``Annotate``;
        an untraced one has no hop span, so the walk runs with no observer
        and yields nothing.  Subclasses overriding :meth:`map_request` for
        custom ``want_parent`` rules should delegate here so their hop spans
        still record the walk.
        """
        space = self.namespace()
        if space is None:
            return MappingFault(ReplyCode.ILLEGAL_REQUEST,
                                f"{self.server_name} has no name space")
        if delivery.message.trace is None:
            return map_name(space, header.context_id, header.name,
                            header.name_index, want_parent=want_parent)
        steps: list[str] = []
        outcome = map_name(
            space, header.context_id, header.name, header.name_index,
            want_parent=want_parent,
            observer=lambda piece, kind: steps.append(
                f"{piece.decode(errors='replace')}={kind}"))
        for step in steps:
            # Zero-cost: records the component-by-component walk on this
            # request's hop span.
            yield Annotate(delivery.txn_id, {"walk": step}, append=True)
        return outcome

    def handle_csname(self, delivery: Delivery) -> Gen:
        message = delivery.message
        try:
            header = read_csname_header(message)
        except (KeyError, ValueError):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        outcome: MappingOutcome = yield from self.map_request(delivery, header)
        if message.trace is not None:
            # Span annotations are built only for traced requests: only
            # those have a hop span to record them on.
            yield Annotate(delivery.txn_id,
                           {"mapping": _mapping_step(self, header, outcome)},
                           append=True)
        if isinstance(outcome, ForwardName):
            yield from self.forward_request(delivery, outcome)
            return
        if isinstance(outcome, MappingFault):
            yield from self.reply_error(delivery, outcome.code,
                                        detail=outcome.detail,
                                        **(outcome.extra_fields or {}))
            return
        # The mapping landed here: remember the binding the client could
        # have used to skip every upstream hop -- our pid plus the header as
        # it arrived at this server.  The reply glue attaches it to an OK
        # reply (repro.core.namecache learns from it); advice fields ride in
        # the short-message variant part, so this costs nothing on the wire.
        assert self.pid is not None
        fields = message.fields
        self._advice[delivery.txn_id] = make_binding_advice(
            self.pid, header.context_id, header.name_index,
            hint_service=fields.get(FIELD_HINT_SERVICE),
            hint_epoch=fields.get(FIELD_HINT_EPOCH),
            hint_source=fields.get(FIELD_HINT_SOURCE))
        handler = self._csname_ops.get(message.code)
        if handler is None:
            # We own the name but not the operation: the request reached the
            # right server, which genuinely does not implement the op.
            yield from self.reply_error(delivery, ReplyCode.ILLEGAL_REQUEST)
            return
        yield from handler(delivery, header, outcome)

    def forward_request(self, delivery: Delivery, outcome: ForwardName) -> Gen:
        """Sec. 5.4: rewrite the standard header and forward."""
        if outcome.pair.server == self.pid:
            # A link back into this server: continue interpreting here
            # rather than sending ourselves a message.
            rewritten = rewrite_for_forward(delivery.message,
                                            outcome.pair.context_id,
                                            outcome.index)
            if outcome.extra_fields:
                rewritten.fields.update(outcome.extra_fields)
            patched = Delivery(message=rewritten, sender=delivery.sender,
                               txn_id=delivery.txn_id,
                               forwarder=delivery.forwarder,
                               via_group=delivery.via_group)
            yield from self.handle_csname(patched)
            return
        rewritten = rewrite_for_forward(delivery.message,
                                        outcome.pair.context_id, outcome.index)
        if outcome.extra_fields:
            rewritten.fields.update(outcome.extra_fields)
        yield ForwardEffect(delivery, outcome.pair.server, rewritten)

    # ------------------------------------------------------------- reply glue

    def ok_reply(self, delivery: Delivery, segment: bytes | None = None,
                 **fields: Any) -> Reply:
        """The OK ``Reply`` effect, plus the binding advice stashed for this
        transaction (a field of the same name the handler passed wins).
        Hot handlers yield it directly: one generator level less than
        :meth:`reply_ok`."""
        advice = self._advice.pop(delivery.txn_id, None)
        if advice is not None:
            for key, value in advice.items():
                fields.setdefault(key, value)
        return Reply(delivery.sender, Message(_OK, fields, segment))

    def reply_ok(self, delivery: Delivery, segment: bytes | None = None,
                 **fields: Any) -> Gen:
        """:meth:`ok_reply`, for ``yield from`` in a handler."""
        yield self.ok_reply(delivery, segment, **fields)

    def reply_error(self, delivery: Delivery, code: ReplyCode,
                    **fields: Any) -> Gen:
        """Error reply -- silently dropped for group-addressed requests.

        With multicast naming, "each server would compare the specified name
        with its own name" and non-owners simply discard (Sec. 2.2): exactly
        one member is expected to answer.
        """
        self._advice.pop(delivery.txn_id, None)
        if not delivery.via_group:
            yield Reply(delivery.sender, Message(int(code), fields))

    # ----------------------------------------------------- standard CSname ops

    def op_query_name(self, delivery: Delivery, header: CSNameHeader,
                      resolution: MappingOutcome) -> Gen:
        record = self.describe(resolution)  # type: ignore[arg-type]
        if record is None:
            yield from self.reply_error(delivery, ReplyCode.ILLEGAL_REQUEST)
            return
        yield from self.reply_ok(delivery, segment=record.encode())

    def op_modify_name(self, delivery: Delivery, header: CSNameHeader,
                       resolution: MappingOutcome) -> Gen:
        # The segment holds the name (standard header); the modification
        # record rides in the variant part under the "record" field.
        raw = delivery.message.get("record")
        if raw is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        try:
            record, __ = ObjectDescription.decode(bytes(raw))
        except DescriptorError:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        code = self.apply_description(resolution, record)  # type: ignore[arg-type]
        if code is ReplyCode.OK:
            yield from self.reply_ok(delivery)
        else:
            yield from self.reply_error(delivery, code)

    def op_name_to_context(self, delivery: Delivery, header: CSNameHeader,
                           resolution: MappingOutcome) -> Gen:
        if not isinstance(resolution, ResolvedObject) or not resolution.is_context:
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        context_id = self.contexts.id_for(resolution.ref)
        assert self.pid is not None
        yield from self.reply_ok(delivery, server_pid=self.pid.value,
                                 context_id=context_id)

    def op_open_directory(self, delivery: Delivery, header: CSNameHeader,
                          resolution: MappingOutcome) -> Gen:
        """Open a context directory as a file (Sec. 5.6).

        Supports the extension the paper proposes at the end of Sec. 5.6:
        an optional ``pattern`` field (shell glob) "would cause the server
        to only include objects that match the given pattern in the
        returned context directory" -- trading server-side filtering for
        collation/transmission of unwanted records.
        """
        from repro.core.directory import ContextDirectoryInstance

        if not isinstance(resolution, ResolvedObject) or not resolution.is_context:
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        records = self.directory_records(resolution.ref)
        pattern = delivery.message.get("pattern")
        if pattern is not None:
            import fnmatch

            records = [record for record in records
                       if fnmatch.fnmatchcase(record.name, str(pattern))]
        instance = ContextDirectoryInstance(
            owner=delivery.sender, server=self, context_ref=resolution.ref,
            records=records)
        instance_id = self.instances.insert(instance)
        assert self.pid is not None
        yield from self.reply_ok(delivery, instance=instance_id,
                                 block_size=instance.block_size,
                                 entry_count=len(records),
                                 server_pid=self.pid.value)

    # -------------------------------------------------------- inverse mapping

    def op_context_to_name(self, delivery: Delivery) -> Gen:
        context_id = int(delivery.message.get("context_id", -1))
        name = self.name_of_context(context_id)
        if name is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        yield from self.reply_ok(delivery, segment=name)

    def op_instance_to_name(self, delivery: Delivery) -> Gen:
        instance_id = int(delivery.message.get("instance", -1))
        name = self.name_of_instance(instance_id)
        if name is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        yield from self.reply_ok(delivery, segment=name)

    # ---------------------------------------------------------- instance ops

    def _instance_for(self, delivery: Delivery) -> Optional[Instance]:
        instance_id = int(delivery.message.get("instance", -1))
        return self.instances.get(instance_id)

    def op_read_instance(self, delivery: Delivery) -> Gen:
        instance = self._instance_for(delivery)
        if instance is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_INSTANCE)
            return
        block = int(delivery.message.get("block", 0))
        code, data = yield from instance.read_block(block)
        if code is ReplyCode.OK:
            yield self.ok_reply(delivery, segment=data, bytes=len(data))
        else:
            yield from self.reply_error(delivery, code)

    def op_write_instance(self, delivery: Delivery) -> Gen:
        instance = self._instance_for(delivery)
        if instance is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_INSTANCE)
            return
        block = int(delivery.message.get("block", 0))
        data = bytes(delivery.message.segment or b"")
        code, written = yield from instance.write_block(block, data)
        if code is ReplyCode.OK:
            yield from self.reply_ok(delivery, bytes=written)
        else:
            yield from self.reply_error(delivery, code)

    def op_query_instance(self, delivery: Delivery) -> Gen:
        instance = self._instance_for(delivery)
        if instance is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_INSTANCE)
            return
        yield from self.reply_ok(delivery, **instance.query_fields())

    def op_release_instance(self, delivery: Delivery) -> Gen:
        instance = self._instance_for(delivery)
        if instance is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_INSTANCE)
            return
        yield from instance.release()
        self.instances.release(instance.instance_id or 0)
        yield self.ok_reply(delivery)


def _mapping_step(server: CSNHServer, header: CSNameHeader,
                  outcome: MappingOutcome) -> dict:
    """Summarize one server's share of a name's interpretation (for spans).

    ``consumed`` counts the name bytes this server interpreted -- on a
    forwarded resolution each hop span carries its own share, so the trace
    shows exactly how the name was split across servers (Sec. 5.4).
    """
    step: dict[str, Any] = {
        "server": server.server_name,
        "context_id": header.context_id,
        "name_index": header.name_index,
    }
    if isinstance(outcome, ForwardName):
        step["outcome"] = "forward"
        step["consumed"] = outcome.index - header.name_index
    elif isinstance(outcome, MappingFault):
        step["outcome"] = "fault"
        step["fault"] = outcome.code.name
    elif isinstance(outcome, ResolvedParent):
        step["outcome"] = "parent"
        step["consumed"] = outcome.index - header.name_index
    else:
        step["outcome"] = "resolved"
        step["consumed"] = outcome.index - header.name_index
    return step
