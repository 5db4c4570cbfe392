"""Client side of the V I/O protocol: block operations and byte streams.

All functions here are generators over kernel effects, composed with
``yield from`` inside a process body.  They speak to any server that
implements the instance operations -- file server, pipe server, terminal
server, context directories -- which is precisely the protocol's point:
"uniform connection of program input and output to a variety of data sources
and sinks."
"""

from __future__ import annotations

from typing import Any, Generator

from repro.kernel.ipc import Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid

Gen = Generator[Any, Any, Any]

_OK = int(ReplyCode.OK)
_END_OF_FILE = int(ReplyCode.END_OF_FILE)


class IoError(RuntimeError):
    """An I/O operation failed with the given reply code."""

    def __init__(self, operation: str, code: ReplyCode) -> None:
        super().__init__(f"{operation} failed: {code.name}")
        self.operation = operation
        self.code = code


def read_block(server: Pid, instance: int, block: int) -> Gen:
    """One READ_INSTANCE; returns (ReplyCode, bytes)."""
    reply = yield Send(server, Message.request(
        RequestCode.READ_INSTANCE, instance=instance, block=block))
    data = bytes(reply.segment) if reply.segment is not None else b""
    return reply.reply_code, data


def write_block(server: Pid, instance: int, block: int, data: bytes) -> Gen:
    """One WRITE_INSTANCE; returns (ReplyCode, bytes_written)."""
    reply = yield Send(server, Message.request(
        RequestCode.WRITE_INSTANCE, instance=instance, block=block,
        segment=bytes(data)))
    return reply.reply_code, int(reply.get("bytes", 0))


def query_instance(server: Pid, instance: int) -> Gen:
    """QUERY_INSTANCE; returns the reply Message."""
    reply = yield Send(server, Message.request(
        RequestCode.QUERY_INSTANCE, instance=instance))
    return reply


def release_instance(server: Pid, instance: int) -> Gen:
    """RELEASE_INSTANCE; returns the ReplyCode."""
    reply = yield Send(server, Message.request(
        RequestCode.RELEASE_INSTANCE, instance=instance))
    return reply.reply_code


def read_all_bytes(server: Pid, instance: int, max_blocks: int = 1 << 20) -> Gen:
    """Read an instance sequentially until END_OF_FILE; returns bytes."""
    chunks: list[bytes] = []
    for block in range(max_blocks):
        code, data = yield from read_block(server, instance, block)
        if code is ReplyCode.END_OF_FILE:
            break
        if code is not ReplyCode.OK:
            raise IoError("read", code)
        chunks.append(data)
        if not data:
            break
    return b"".join(chunks)


class FileStream:
    """A sequential byte-stream view over a block instance.

    Mirrors the run-time library's stream package: buffered, positioned
    reads and writes over block-granularity server operations.  All methods
    are generators (``yield from stream.read(n)``).
    """

    def __init__(self, server: Pid, instance: int, block_size: int) -> None:
        self.server = server
        self.instance = instance
        self.block_size = block_size
        self.position = 0
        self._eof = False
        # One-block write-back cache for partial writes.
        self._dirty_block: int | None = None
        self._dirty_data: bytearray | None = None

    @classmethod
    def open(cls, server: Pid, instance: int) -> Gen:
        """Build a stream, querying the server for the block size."""
        reply = yield from query_instance(server, instance)
        if not reply.ok:
            raise IoError("query", reply.reply_code)
        return cls(server, instance, int(reply["block_size"]))

    # ----------------------------------------------------------------- read

    def read(self, nbytes: int) -> Gen:
        """Read up to ``nbytes`` from the current position.

        Sends READ_INSTANCE itself rather than through :func:`read_block`:
        one generator level less on every block a stream reads.
        """
        out = bytearray()
        while len(out) < nbytes and not self._eof:
            block, offset = divmod(self.position, self.block_size)
            reply = yield Send(self.server, Message.request(
                RequestCode.READ_INSTANCE, instance=self.instance,
                block=block))
            if reply.code == _END_OF_FILE:
                self._eof = True
                break
            if reply.code != _OK:
                raise IoError("read", reply.reply_code)
            data = bytes(reply.segment) if reply.segment is not None else b""
            chunk = data[offset : offset + (nbytes - len(out))]
            if not chunk:
                self._eof = True
                break
            out += chunk
            self.position += len(chunk)
            if offset + len(chunk) >= len(data) and len(data) < self.block_size:
                self._eof = True
        return bytes(out)

    def read_all(self) -> Gen:
        """Read from the current position to end of stream."""
        out = bytearray()
        while not self._eof:
            chunk = yield from self.read(self.block_size)
            if not chunk:
                break
            out += chunk
        return bytes(out)

    # ----------------------------------------------------------------- write

    def write(self, data: bytes) -> Gen:
        """Write ``data`` at the current position (read-modify-write on
        partial blocks)."""
        view = memoryview(bytes(data))
        while len(view):
            block, offset = divmod(self.position, self.block_size)
            take = min(self.block_size - offset, len(view))
            if offset == 0 and take == self.block_size:
                payload = bytes(view[:take])
            else:
                # Partial block: fetch, patch, rewrite.
                code, existing = yield from read_block(
                    self.server, self.instance, block)
                if code not in (ReplyCode.OK, ReplyCode.END_OF_FILE):
                    raise IoError("read-modify-write", code)
                buffer = bytearray(existing)
                if len(buffer) < offset + take:
                    buffer.extend(b"\x00" * (offset + take - len(buffer)))
                buffer[offset : offset + take] = bytes(view[:take])
                payload = bytes(buffer)
            code, written = yield from write_block(
                self.server, self.instance, block, payload)
            if code is not ReplyCode.OK:
                raise IoError("write", code)
            self.position += take
            view = view[take:]
        return len(data)

    # ------------------------------------------------------------------ misc

    def seek(self, position: int) -> None:
        if position < 0:
            raise ValueError("negative seek position")
        self.position = position
        self._eof = False

    def close(self) -> Gen:
        reply = yield Send(self.server, Message.request(
            RequestCode.RELEASE_INSTANCE, instance=self.instance))
        if reply.code != _OK:
            raise IoError("close", reply.reply_code)
