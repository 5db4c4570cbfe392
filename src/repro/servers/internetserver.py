"""The internet server (paper Sec. 6: "an Internet server that runs a V
kernel-based implementation of IP/TCP").

TCP connections are named, transient, file-like objects: TCP_CONNECT creates
``tcp-N``, opening the name yields a bidirectional stream instance, and the
connection context directory lists live connections with their endpoints and
byte counts -- one of the object kinds the paper's single "list directory"
command displays.

The remote end is simulated by a pluggable :class:`RemoteEndpoint`; the
default echoes.  What the reproduction needs from TCP is not congestion
control but *named connection objects behind the uniform protocol*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.core.csnh import BAD_FIELD
from repro.core.descriptors import TcpConnectionDescription
from repro.kernel.ipc import Delivery
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.servers.base import FlatContextServer
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]

#: remote(data) -> response bytes pushed into the receive queue.
RemoteEndpoint = Callable[[bytes], bytes]


def echo_endpoint(data: bytes) -> bytes:
    """The default simulated remote host: echoes what it receives."""
    return data


@dataclass
class TcpConnection:
    name: bytes
    local_port: int
    remote_host: str
    remote_port: int
    state: str = "established"
    bytes_in: int = 0
    bytes_out: int = 0
    receive_queue: deque = field(default_factory=deque)
    endpoint: RemoteEndpoint = echo_endpoint

    def send(self, data: bytes) -> None:
        self.bytes_out += len(data)
        response = self.endpoint(data)
        if response:
            self.receive_queue.append(response)
            self.bytes_in += len(response)

    def recv(self, limit: int) -> bytes:
        out = bytearray()
        while self.receive_queue and len(out) < limit:
            chunk = self.receive_queue[0]
            take = min(len(chunk), limit - len(out))
            out += chunk[:take]
            if take == len(chunk):
                self.receive_queue.popleft()
            else:
                self.receive_queue[0] = chunk[take:]
        return bytes(out)


class TcpInstance(Instance):
    """An open connection stream."""

    def __init__(self, owner: Pid, connection: TcpConnection) -> None:
        super().__init__(owner, block_size=1024, readable=True, writable=True)
        self.connection = connection

    def read_block(self, block: int) -> Gen:
        yield from ()
        if self.connection.state != "established":
            return ReplyCode.END_OF_FILE, b""
        data = self.connection.recv(self.block_size)
        if not data:
            return ReplyCode.RETRY, b""
        return ReplyCode.OK, data

    def write_block(self, block: int, data: bytes) -> Gen:
        yield from ()
        if self.connection.state != "established":
            return ReplyCode.MODE_ERROR, 0
        self.connection.send(data)
        return ReplyCode.OK, len(data)


class InternetServer(FlatContextServer):
    """IP/TCP service with connections as named objects."""

    server_name = "internetserver"
    service_id = int(ServiceId.INTERNET)
    context_name = "tcp-connections"

    def __init__(self, endpoint: RemoteEndpoint = echo_endpoint) -> None:
        super().__init__()
        self._counter = 0
        self._next_local_port = 1024
        self.default_endpoint = endpoint
        self.register_request_op(RequestCode.TCP_CONNECT, self.op_connect)
        self.register_request_op(RequestCode.TCP_DISCONNECT, self.op_disconnect)
        self.register_csname_op(RequestCode.OPEN_FILE, self.op_open)

    # ------------------------------------------------------------------ ops

    def op_connect(self, delivery: Delivery) -> Gen:
        message = delivery.message
        remote_host = str(message.get("host", ""))
        try:
            remote_port = int(message.get("port", 0))
        except BAD_FIELD:
            remote_host = ""
        if not remote_host:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        self._counter += 1
        self._next_local_port += 1
        name = f"tcp-{self._counter}".encode()
        connection = TcpConnection(
            name=name, local_port=self._next_local_port,
            remote_host=remote_host, remote_port=remote_port,
            endpoint=self.default_endpoint)
        self.objects[name] = connection
        yield from self.reply_ok(delivery, connection=name.decode(),
                                 local_port=connection.local_port)

    def op_disconnect(self, delivery: Delivery) -> Gen:
        name = str(delivery.message.get("connection", "")).encode()
        connection = self.objects.pop(name, None)
        if connection is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        connection.state = "closed"
        yield from self.reply_ok(delivery)

    def open_object(self, owner: Pid, connection: TcpConnection,
                    mode: str) -> TcpInstance:
        return TcpInstance(owner, connection)

    def record(self, connection: TcpConnection) -> TcpConnectionDescription:
        return TcpConnectionDescription(
            name=connection.name.decode(), local_port=connection.local_port,
            remote_host=connection.remote_host,
            remote_port=connection.remote_port, state=connection.state,
            bytes_in=connection.bytes_in, bytes_out=connection.bytes_out)
