"""Program loading and execution (paper Sec. 3.1 and 6).

"we are using diskless personal workstations with all file access and
program loading via IPC messages to network file servers" -- loading uses
``MoveTo`` into the requester's memory, which is E2's 64 KB / 338 ms path.
Execution goes through the team server (the "program manager"), which names
running programs as context objects.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.names import as_name_bytes
from repro.core.protocol import make_csname_request
from repro.core.resolver import expect_ok
from repro.kernel.ipc import Cpu, GetPid, Segment, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId
from repro.runtime.session import Session

Gen = Generator[Any, Any, Any]


def load_program(session: Session, name: str | bytes) -> Gen:
    """Load a program image by CSname; returns its bytes.

    Two steps, as a real loader would do: query the image size, then issue
    LOAD_PROGRAM exposing a buffer that size for the server's ``MoveTo``.
    """
    record = yield from session.query(name)
    size = int(getattr(record, "size_bytes", 0))
    buffer = Segment(size=size, writable=True)

    data = as_name_bytes(name)
    dst, context_id = session.env.route(data)
    yield Cpu("stub_pre")
    request = make_csname_request(RequestCode.LOAD_PROGRAM, data, context_id)
    reply = yield Send(dst, request, buffer)
    yield Cpu("stub_post")
    expect_ok("load_program", name, reply)
    loaded = int(reply.get("size_bytes", 0))
    return buffer.read(0, loaded)


def find_team_server(scope: Scope = Scope.ANY) -> Gen:
    """Locate the program manager via kernel service naming."""
    pid = yield GetPid(int(ServiceId.TEAM), scope)
    return pid


def run_program(team_server: Pid, program: str, duration: float = 0.0,
                body: Optional[Any] = None) -> Gen:
    """Start a program; returns (name, pid) of the running instance."""
    reply = yield Send(team_server, Message.request(
        RequestCode.RUN_PROGRAM, program=program, duration=duration,
        body=body))
    if not reply.ok:
        raise RuntimeError(f"RUN_PROGRAM failed: {reply.reply_code.name}")
    return str(reply["name"]), Pid(int(reply["pid"]))


def kill_program(team_server: Pid, name: str) -> Gen:
    """Kill by low-level operation (the CSname route is session.remove)."""
    reply = yield Send(team_server, Message.request(
        RequestCode.KILL_PROGRAM, name=name))
    if not reply.ok:
        raise RuntimeError(f"KILL_PROGRAM failed: {reply.reply_code.name}")
