"""The virtual graphics terminal server (paper Sec. 4.3, 6).

The paper's example of *transient* objects: "servers that provide a small
number of transient objects -- for instance, virtual terminal servers -- can
store names and attributes of the objects in memory."  Terminals are created
with TERMINAL_CREATE, named ``vt1``, ``vt2``, ... in a flat context, opened
as file-like display streams, and disappear with the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.csnh import BAD_FIELD
from repro.core.descriptors import ObjectDescription, TerminalDescription
from repro.core.mapping import ResolvedObject
from repro.kernel.ipc import Delivery
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId
from repro.servers.base import FlatContextServer
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]


@dataclass
class VirtualTerminal:
    """One virtual terminal: a scrollback buffer plus geometry."""

    name: bytes
    terminal_id: int
    owner: str
    rows: int = 24
    cols: int = 80
    lines: list[bytes] = field(default_factory=list)

    def display(self, data: bytes) -> None:
        for line in data.split(b"\n"):
            if line:
                self.lines.append(line[: self.cols])
        overflow = len(self.lines) - 1000
        if overflow > 0:
            del self.lines[:overflow]


class TerminalInstance(Instance):
    """An open terminal: writes display, reads return the scrollback."""

    def __init__(self, owner: Pid, terminal: VirtualTerminal) -> None:
        super().__init__(owner, block_size=1024, readable=True, writable=True)
        self.terminal = terminal

    def _image(self) -> bytes:
        return b"\n".join(self.terminal.lines)

    def size_bytes(self) -> int:
        return len(self._image())

    def read_block(self, block: int) -> Gen:
        yield from ()
        image = self._image()
        start = block * self.block_size
        if start >= len(image):
            return ReplyCode.END_OF_FILE, b""
        return ReplyCode.OK, image[start : start + self.block_size]

    def write_block(self, block: int, data: bytes) -> Gen:
        yield from ()
        self.terminal.display(data)
        return ReplyCode.OK, len(data)


class TerminalServer(FlatContextServer):
    """Per-workstation virtual terminal service (registered locally)."""

    server_name = "terminalserver"
    service_id = int(ServiceId.TERMINAL)
    service_scope = Scope.LOCAL
    context_name = "terminals"

    def __init__(self, user: str = "user") -> None:
        super().__init__()
        self.user = user
        self._counter = 0
        self.register_request_op(RequestCode.TERMINAL_CREATE, self.op_create)
        self.register_csname_op(RequestCode.OPEN_FILE, self.op_open)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete)

    # ------------------------------------------------------------------- ops

    def op_create(self, delivery: Delivery) -> Gen:
        message = delivery.message
        try:
            rows, cols = int(message.get("rows", 24)), int(message.get("cols", 80))
        except BAD_FIELD:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        self._counter += 1
        name = f"vt{self._counter}".encode()
        terminal = VirtualTerminal(name=name, terminal_id=self._counter,
                                   owner=self.user, rows=rows, cols=cols)
        self.objects[name] = terminal
        yield from self.reply_ok(delivery, terminal=name.decode(),
                                 terminal_id=terminal.terminal_id)

    def open_object(self, owner: Pid, terminal: VirtualTerminal,
                    mode: str) -> TerminalInstance:
        return TerminalInstance(owner, terminal)

    # -------------------------------------------------------------- protocol

    def apply_description(self, resolution: ResolvedObject,
                          record: ObjectDescription) -> ReplyCode:
        terminal = resolution.ref
        if not isinstance(terminal, VirtualTerminal) or not isinstance(
                record, TerminalDescription):
            return ReplyCode.BAD_ARGS
        # rows/cols are the mutable fields (a window resize).
        terminal.rows = record.rows
        terminal.cols = record.cols
        return ReplyCode.OK

    def record(self, terminal: VirtualTerminal) -> TerminalDescription:
        return TerminalDescription(
            name=terminal.name.decode(), terminal_id=terminal.terminal_id,
            rows=terminal.rows, cols=terminal.cols, owner=terminal.owner)
