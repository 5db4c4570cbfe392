"""The pipe server: pipes as named file-like objects (paper Sec. 3.2).

Pipes are one of the I/O protocol's advertised sources/sinks.  Here they are
*named* transient objects in a flat context: create a pipe by opening
``[pipe]name`` for writing, attach a reader by opening it for reading, and
the ordinary READ/WRITE_INSTANCE operations move the data.

A read on an empty pipe that still has writers answers ``RETRY`` (the V I/O
protocol's flow-control reply) rather than blocking the single-threaded
server; :func:`drain_pipe` shows the client-side retry idiom.  A read on an
empty pipe with no writers is END_OF_FILE.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.descriptors import PipeDescription
from repro.kernel.ipc import Delay
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.servers.base import FlatContextServer
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]

#: Maximum bytes a pipe buffers before writers get RETRY.
PIPE_CAPACITY = 16 * 1024


@dataclass
class PipeObject:
    """One pipe: a bounded byte queue plus attachment counts."""

    name: bytes
    chunks: deque = field(default_factory=deque)
    buffered: int = 0
    readers: int = 0
    writers: int = 0

    def push(self, data: bytes) -> bool:
        if self.buffered + len(data) > PIPE_CAPACITY:
            return False
        self.chunks.append(bytes(data))
        self.buffered += len(data)
        return True

    def pull(self, limit: int) -> bytes:
        out = bytearray()
        while self.chunks and len(out) < limit:
            chunk = self.chunks[0]
            take = min(len(chunk), limit - len(out))
            out += chunk[:take]
            if take == len(chunk):
                self.chunks.popleft()
            else:
                self.chunks[0] = chunk[take:]
            self.buffered -= take
        return bytes(out)


class PipeInstance(Instance):
    """One end of a pipe."""

    def __init__(self, owner: Pid, pipe: PipeObject, mode: str) -> None:
        super().__init__(owner, block_size=1024,
                         readable=mode == "r", writable=mode in ("w", "a"))
        self.pipe = pipe
        if self.readable:
            pipe.readers += 1
        if self.writable:
            pipe.writers += 1

    def size_bytes(self) -> int:
        return self.pipe.buffered

    def read_block(self, block: int) -> Gen:
        yield from ()
        if not self.readable:
            return ReplyCode.MODE_ERROR, b""
        data = self.pipe.pull(self.block_size)
        if data:
            return ReplyCode.OK, data
        if self.pipe.writers > 0:
            return ReplyCode.RETRY, b""
        return ReplyCode.END_OF_FILE, b""

    def write_block(self, block: int, data: bytes) -> Gen:
        yield from ()
        if not self.writable:
            return ReplyCode.MODE_ERROR, 0
        if not self.pipe.push(data):
            return ReplyCode.RETRY, 0
        return ReplyCode.OK, len(data)

    def release(self) -> Gen:
        yield from ()
        if self.readable:
            self.pipe.readers -= 1
        if self.writable:
            self.pipe.writers -= 1


class PipeServer(FlatContextServer):
    """Named pipes behind the standard protocol."""

    server_name = "pipeserver"
    service_id = int(ServiceId.PIPE)
    context_name = "pipes"
    write_open_creates = True

    def __init__(self) -> None:
        super().__init__()
        self.register_csname_op(RequestCode.OPEN_FILE, self.op_open)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete)

    def create_object(self, name: bytes) -> Gen:
        yield from ()
        pipe = self.objects.get(name)
        if pipe is None:
            pipe = self.objects[name] = PipeObject(name=name)
        return pipe

    def open_object(self, owner: Pid, pipe: PipeObject,
                    mode: str) -> PipeInstance:
        return PipeInstance(owner, pipe, mode)

    def on_delete(self, pipe: PipeObject) -> Optional[ReplyCode]:
        return ReplyCode.BUSY if pipe.readers or pipe.writers else None

    def record(self, pipe: PipeObject) -> PipeDescription:
        return PipeDescription(name=pipe.name.decode(),
                               buffered_bytes=pipe.buffered,
                               readers=pipe.readers, writers=pipe.writers)


def pipe_write(stream, data: bytes) -> Gen:
    """Client helper: push bytes into a pipe stream.

    Pipes are sequential, so the FileStream read-modify-write path does not
    apply; writes go block-op by block-op, retrying when the pipe is full.
    """
    from repro.vio.client import read_block, write_block  # noqa: F401

    view = memoryview(bytes(data))
    while len(view):
        chunk = bytes(view[: stream.block_size])
        code, written = yield from write_block(stream.server, stream.instance,
                                               0, chunk)
        if code is ReplyCode.RETRY:
            yield Delay(0.001)
            continue
        if code is not ReplyCode.OK:
            raise RuntimeError(f"pipe write failed: {code.name}")
        view = view[written:]
    return len(data)


def drain_pipe(stream, poll_interval: float = 0.001,
               max_polls: int = 10_000) -> Gen:
    """Client helper: read a pipe to EOF, retrying on RETRY replies."""
    from repro.vio.client import read_block

    out = bytearray()
    polls = 0
    while True:
        code, data = yield from read_block(stream.server, stream.instance, 0)
        if code is ReplyCode.OK:
            out += data
            polls = 0
        elif code is ReplyCode.RETRY:
            polls += 1
            if polls > max_polls:
                raise RuntimeError("pipe reader starved")
            yield Delay(poll_interval)
        elif code is ReplyCode.END_OF_FILE:
            return bytes(out)
        else:
            raise RuntimeError(f"pipe read failed: {code.name}")
