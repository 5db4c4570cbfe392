"""The V file server: storage plus naming in one server (paper Sec. 2.2, 6).

"The file server software maps context identifiers onto directories that act
as starting points for interpreting relative pathnames, similar to the
current working directory in Unix.  A pathname is interpreted as a context
prefix specifying the directory with the final file name component being
interpreted in the context defined by the directory."

Contexts are directories; well-known context ids bind to the standard
directories (home, programs, public, temp); cross-server links in any
directory trigger the protocol's forwarding; and every object fabricates its
description record on demand.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.context import WellKnownContext
from repro.core.csnh import BAD_FIELD, PARENT_RESOLUTION_OPS, CSNHServer
from repro.core.descriptors import (
    ContextDescription,
    FileDescription,
    ObjectDescription,
    PrefixDescription,
)
from repro.core.context import ContextPair
from repro.core.mapping import (
    ForwardName,
    Leaf,
    MappingFault,
    MappingOutcome,
    RemoteLink,
    ResolvedObject,
    ResolvedParent,
    SubContext,
    map_name,
)
from repro.core.names import BadName, as_name_bytes, as_text
from repro.core.protocol import CSNameHeader, register_csname_request
from repro.kernel.ipc import Delivery, MoveTo, Now
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.servers.fileserver.disk import DiskModel, NullDisk
from repro.servers.fileserver.storage import (
    DirectoryNode,
    FileNode,
    FileStore,
    RemoteLinkEntry,
    StorageError,
)
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]

_OPEN_FILE = int(RequestCode.OPEN_FILE)


class FileInstance(Instance):
    """An open file: block access with disk timing and read-ahead."""

    def __init__(self, owner: Pid, node: FileNode, disk: DiskModel,
                 mode: str) -> None:
        super().__init__(owner, block_size=disk.page_bytes,
                         readable=True, writable=mode in ("w", "a"))
        self.node = node
        self.disk = disk
        self.mode = mode

    def size_bytes(self) -> int:
        return self.node.size

    def read_block(self, block: int) -> Gen:
        start = block * self.block_size
        if start >= self.node.size:
            return ReplyCode.END_OF_FILE, b""
        yield from self.disk.read_page(self.node.inode, block)
        return ReplyCode.OK, bytes(self.node.data[start : start + self.block_size])

    def readahead(self, block: int) -> Gen:
        """Prefetch the next page (called by the server *after* replying)."""
        next_start = (block + 1) * self.block_size
        if next_start < self.node.size:
            yield from self.disk.prefetch(self.node.inode, block + 1)

    def write_block(self, block: int, data: bytes) -> Gen:
        if not self.writable:
            return ReplyCode.MODE_ERROR, 0
        if len(data) > self.block_size:
            return ReplyCode.BAD_ARGS, 0
        yield from self.disk.write_page(self.node.inode, block)
        start = block * self.block_size
        end = start + len(data)
        if end > self.node.size:
            self.node.data.extend(b"\x00" * (end - self.node.size))
        self.node.data[start:end] = data
        self.node.modified = yield Now()
        return ReplyCode.OK, len(data)


class _FileServerNameSpace:
    """Adapter from the store to the generic mapping procedure."""

    def __init__(self, server: "VFileServer") -> None:
        self.server = server

    def root(self, context_id: int) -> Optional[DirectoryNode]:
        ref = self.server.contexts.resolve(context_id)
        return ref if isinstance(ref, DirectoryNode) else None

    def lookup(self, context_ref: Any, component: bytes):
        if not isinstance(context_ref, DirectoryNode):
            return None
        entry = self.server.store.get(context_ref, component)
        if entry is None:
            return None
        if isinstance(entry, FileNode):
            return Leaf(entry)
        if isinstance(entry, RemoteLinkEntry):
            return RemoteLink(entry.pair)
        return SubContext(entry)


class VFileServer(CSNHServer):
    """A storage server implementing the full name-handling protocol."""

    server_name = "fileserver"
    service_id = int(ServiceId.STORAGE)

    #: Standard directory layout created at construction.
    STANDARD_DIRECTORIES = ("bin", "tmp", "public")

    def __init__(self, user: str = "user", disk: DiskModel | None = None,
                 group_ids: tuple[int, ...] = (),
                 readahead: bool = True) -> None:
        super().__init__()
        self.user = user
        self.disk = disk if disk is not None else NullDisk()
        #: Ablation switch for the post-reply prefetch (E3 / bench_ablation).
        self.readahead_enabled = readahead
        self.store = FileStore(owner=user)
        self._group_ids = list(group_ids)
        self._namespace = _FileServerNameSpace(self)

        for directory in self.STANDARD_DIRECTORIES:
            self.store.make_path(directory)
        home = self.store.make_path(f"users/{user}")
        assert isinstance(home, DirectoryNode)
        self.home = home

        self.contexts.register_well_known(WellKnownContext.DEFAULT, self.store.root)
        self.contexts.register_well_known(WellKnownContext.HOME, home)
        self.contexts.register_well_known(
            WellKnownContext.PROGRAMS, self.store.resolve_path("bin"))
        self.contexts.register_well_known(
            WellKnownContext.PUBLIC, self.store.resolve_path("public"))
        self.contexts.register_well_known(
            WellKnownContext.TEMP, self.store.resolve_path("tmp"))

        self.register_csname_op(RequestCode.OPEN_FILE, self.op_open_file)
        self.register_csname_op(RequestCode.CREATE_FILE, self.op_create_file)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete_name)
        self.register_csname_op(RequestCode.RENAME_OBJECT, self.op_rename)
        self.register_csname_op(RequestCode.CREATE_CONTEXT, self.op_create_context)
        self.register_csname_op(RequestCode.DELETE_CONTEXT, self.op_delete_context)
        self.register_csname_op(RequestCode.ADD_CONTEXT_NAME, self.op_add_remote_link)
        self.register_csname_op(RequestCode.DELETE_CONTEXT_NAME, self.op_delete_remote_link)
        self.register_csname_op(register_csname_request(RequestCode.LOAD_PROGRAM),
                                self.op_load_program)

    # ----------------------------------------------------------------- hooks

    def namespace(self) -> _FileServerNameSpace:
        return self._namespace

    def group_ids(self) -> list[int]:
        return list(self._group_ids)

    def map_request(self, delivery: Delivery, header: CSNameHeader) -> Gen:
        """Like the base procedure, but creating opens resolve the parent."""
        message = delivery.message
        if message.code == _OPEN_FILE:
            want_parent = str(message.fields.get("mode", "r")) != "r"
        else:
            want_parent = message.code in PARENT_RESOLUTION_OPS
        return (yield from self.run_mapping(delivery, header,
                                            want_parent=want_parent))

    # ------------------------------------------------------------------ open

    def op_open_file(self, delivery: Delivery, header: CSNameHeader,
                     resolution: MappingOutcome) -> Gen:
        mode = str(delivery.message.fields.get("mode", "r"))
        if mode not in ("r", "w", "a"):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        if mode == "r":
            assert isinstance(resolution, ResolvedObject)
            if resolution.is_context:
                yield from self.reply_error(delivery, ReplyCode.MODE_ERROR)
                return
            node = resolution.ref
        else:
            assert isinstance(resolution, ResolvedParent)
            node = yield from self._file_for_writing(delivery, resolution, mode)
            if node is None:
                return  # error already replied
        instance = FileInstance(delivery.sender, node, self.disk, mode)
        instance_id = self.instances.insert(instance)
        assert self.pid is not None
        yield self.ok_reply(delivery, instance=instance_id,
                            block_size=instance.block_size,
                            size_bytes=node.size, server_pid=self.pid.value)

    def _file_for_writing(self, delivery: Delivery,
                          resolution: ResolvedParent, mode: str) -> Gen:
        """Find or create the file a w/a-mode open names.  None on error."""
        parent = resolution.parent_ref
        if not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return None
        entry = self.store.get(parent, resolution.component)
        if entry is None:
            now = yield Now()
            try:
                node = self.store.create_file(parent, resolution.component,
                                              owner=self.user, now=now)
            except (BadName, StorageError):
                yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
                return None
            # Directory update hits the disk.
            yield from self.disk.write_page(parent.inode, 0)
            return node
        if not isinstance(entry, FileNode):
            yield from self.reply_error(delivery, ReplyCode.MODE_ERROR)
            return None
        if mode == "w" and entry.size:
            entry.data.clear()
            entry.modified = yield Now()
            yield from self.disk.write_page(entry.inode, 0)
        return entry

    # ------------------------------------------------------- create / delete

    def op_create_file(self, delivery: Delivery, header: CSNameHeader,
                       resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedParent)
        parent = resolution.parent_ref
        if not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        now = yield Now()
        try:
            self.store.create_file(parent, resolution.component,
                                   owner=self.user, now=now)
        except StorageError:
            yield from self.reply_error(delivery, ReplyCode.NAME_EXISTS)
            return
        except BadName:
            yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
            return
        yield from self.disk.write_page(parent.inode, 0)
        yield from self.reply_ok(delivery)

    def op_create_context(self, delivery: Delivery, header: CSNameHeader,
                          resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedParent)
        parent = resolution.parent_ref
        if not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        try:
            self.store.create_directory(parent, resolution.component,
                                        owner=self.user)
        except StorageError:
            yield from self.reply_error(delivery, ReplyCode.NAME_EXISTS)
            return
        except BadName:
            yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
            return
        yield from self.disk.write_page(parent.inode, 0)
        yield from self.reply_ok(delivery)

    def _delete_common(self, delivery: Delivery,
                       resolution: MappingOutcome,
                       require=None) -> Gen:
        """Shared unbind path for DELETE_NAME / DELETE_CONTEXT / link removal.

        Deletion is purely local: name and object live on the same server, so
        there is no registry to keep consistent -- the property E8b measures
        against the centralized baseline.
        """
        assert isinstance(resolution, ResolvedParent)
        parent = resolution.parent_ref
        if not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        entry = self.store.get(parent, resolution.component)
        if entry is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        if require is not None and not isinstance(entry, require):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        try:
            removed = self.store.remove(parent, resolution.component)
        except StorageError:
            yield from self.reply_error(delivery, ReplyCode.CONTEXT_NOT_EMPTY)
            return
        if isinstance(removed, DirectoryNode):
            self.contexts.drop_ref(removed)
        yield from self.disk.write_page(parent.inode, 0)
        yield from self.reply_ok(delivery)

    def op_delete_name(self, delivery: Delivery, header: CSNameHeader,
                       resolution: MappingOutcome) -> Gen:
        """The paper's uniform Delete(object_name): works on any entry kind."""
        yield from self._delete_common(delivery, resolution)

    def op_delete_context(self, delivery: Delivery, header: CSNameHeader,
                          resolution: MappingOutcome) -> Gen:
        yield from self._delete_common(delivery, resolution,
                                       require=DirectoryNode)

    def op_delete_remote_link(self, delivery: Delivery, header: CSNameHeader,
                              resolution: MappingOutcome) -> Gen:
        yield from self._delete_common(delivery, resolution,
                                       require=RemoteLinkEntry)

    # ----------------------------------------------------------------- rename

    def op_rename(self, delivery: Delivery, header: CSNameHeader,
                  resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedParent)
        parent = resolution.parent_ref
        new_name = delivery.message.get("new_name")
        if new_name is None or not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        target = map_name(self._namespace, header.context_id,
                          as_name_bytes(new_name), 0, want_parent=True)
        if isinstance(target, ForwardName):
            # Cross-server rename would need a multi-server transaction the
            # protocol deliberately does not promise (Sec. 2.2 Consistency).
            yield from self.reply_error(delivery, ReplyCode.NOT_SUPPORTED)
            return
        if isinstance(target, MappingFault):
            yield from self.reply_error(delivery, target.code)
            return
        assert isinstance(target, ResolvedParent)
        if not isinstance(target.parent_ref, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.NOT_A_CONTEXT)
            return
        try:
            self.store.rename(parent, resolution.component,
                              target.parent_ref, target.component)
        except StorageError:
            yield from self.reply_error(delivery, ReplyCode.NAME_EXISTS)
            return
        yield from self.disk.write_page(parent.inode, 0)
        yield from self.reply_ok(delivery)

    # ----------------------------------------------------- cross-server links

    def op_add_remote_link(self, delivery: Delivery, header: CSNameHeader,
                           resolution: MappingOutcome) -> Gen:
        """ADD_CONTEXT_NAME: bind a name to a context on another server."""
        assert isinstance(resolution, ResolvedParent)
        parent = resolution.parent_ref
        message = delivery.message
        target_pid = message.get("target_pid")
        if target_pid is None or not isinstance(parent, DirectoryNode):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        try:
            pair = ContextPair(Pid(int(target_pid)),
                               int(message.get("target_context", 0)))
        except BAD_FIELD:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        try:
            self.store.link_remote(parent, resolution.component, pair)
        except StorageError:
            yield from self.reply_error(delivery, ReplyCode.NAME_EXISTS)
            return
        except BadName:
            yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
            return
        yield from self.disk.write_page(parent.inode, 0)
        yield from self.reply_ok(delivery)

    # --------------------------------------------------------- program load

    def op_load_program(self, delivery: Delivery, header: CSNameHeader,
                        resolution: MappingOutcome) -> Gen:
        """Load a program image into the requester's memory with MoveTo.

        This is Sec. 3.1's diskless program-loading path (E2): the client
        exposes a writable segment with its request; the server moves the
        whole image in one bulk transfer, then replies.  The paper's number
        assumes "the program text is already in the file server's memory
        buffers", so no disk time is charged here.
        """
        assert isinstance(resolution, ResolvedObject)
        if resolution.is_context:
            yield from self.reply_error(delivery, ReplyCode.MODE_ERROR)
            return
        node = resolution.ref
        if node.size:
            yield MoveTo(delivery.sender, 0, bytes(node.data))
        yield from self.reply_ok(delivery, size_bytes=node.size)

    # ---------------------------------------------------- descriptions (5.5)

    def describe(self, resolution: ResolvedObject) -> Optional[ObjectDescription]:
        return self._describe_entry(resolution.ref)

    def _describe_entry(self, entry: Any) -> Optional[ObjectDescription]:
        if isinstance(entry, FileNode):
            return FileDescription(
                name=as_text(entry.name), size_bytes=entry.size,
                owner=entry.owner, access=entry.access,
                created=entry.created, modified=entry.modified,
                block_size=self.disk.page_bytes)
        if isinstance(entry, DirectoryNode):
            return ContextDescription(
                name=as_text(entry.name) or "/",
                entry_count=len(entry.entries), owner=entry.owner,
                access=entry.access,
                context_id=self.contexts.id_for(entry))
        if isinstance(entry, RemoteLinkEntry):
            return PrefixDescription(
                name=as_text(entry.name), server_pid=entry.pair.server.value,
                context_id=entry.pair.context_id, generic=False)
        return None

    def apply_description(self, resolution: ResolvedObject,
                          record: ObjectDescription) -> ReplyCode:
        return self._apply_to_entry(resolution.ref, record)

    def _apply_to_entry(self, entry: Any, record: ObjectDescription) -> ReplyCode:
        current = self._describe_entry(entry)
        if current is None or type(current) is not type(record):
            return ReplyCode.BAD_ARGS
        updated = current.apply_modification(record)
        if isinstance(entry, (FileNode, DirectoryNode)):
            entry.owner = updated.owner        # type: ignore[union-attr]
            entry.access = updated.access      # type: ignore[union-attr]
            return ReplyCode.OK
        # Remote links have no mutable fields; ignoring the write is the
        # protocol-sanctioned behaviour.
        return ReplyCode.OK

    # -------------------------------------------------- context directories

    def directory_records(self, context_ref: Any) -> list[ObjectDescription]:
        if not isinstance(context_ref, DirectoryNode):
            return []
        records = []
        for name in sorted(context_ref.entries):
            record = self._describe_entry(context_ref.entries[name])
            if record is not None:
                records.append(record)
        return records

    def modify_record(self, context_ref: Any,
                      record: ObjectDescription) -> ReplyCode:
        if not isinstance(context_ref, DirectoryNode):
            return ReplyCode.BAD_ARGS
        entry = context_ref.entries.get(record.name.encode())
        if entry is None:
            return ReplyCode.NOT_FOUND
        return self._apply_to_entry(entry, record)

    # ------------------------------------------------------- inverse mapping

    def name_of_context(self, context_id: int) -> Optional[bytes]:
        ref = self.contexts.resolve(context_id)
        if not isinstance(ref, DirectoryNode):
            return None
        try:
            return self.store.path_of(ref)
        except StorageError:
            return None

    def name_of_instance(self, instance_id: int) -> Optional[bytes]:
        instance = self.instances.get(instance_id)
        if not isinstance(instance, FileInstance):
            return None
        try:
            return self.store.path_of(instance.node)
        except StorageError:
            # The file was deleted while open: no inverse exists (Sec. 6).
            return None

    # -------------------------------------------------- read-ahead modelling

    def op_read_instance(self, delivery: Delivery) -> Gen:
        try:
            instance = self._instance_for(delivery)
            block = int(delivery.message.get("block", 0))
        except BAD_FIELD:   # the base op answers BAD_ARGS
            instance = None
        if not isinstance(instance, FileInstance):
            yield from CSNHServer.op_read_instance(self, delivery)
            return
        code, data = yield from instance.read_block(block)
        if code is ReplyCode.OK:
            yield self.ok_reply(delivery, segment=data, bytes=len(data))
            # Prefetch the next page after the reply is on the wire; the
            # server is busy for the duration, which is exactly the E3
            # steady-state the paper measured (17.1 ms/page).
            if self.readahead_enabled:
                yield from instance.readahead(block)
        else:
            yield from self.reply_error(delivery, code)
