"""The bytes the six flat-context servers answer with, pinned.

Terminal, pipe, printer, internet, exception and team servers each name
their objects in one flat context.  For each, two objects are created
through the server's own path; then the encoded ``ContextDescription`` and
each object's record (QUERY_NAME), the raw directory (OPEN_DIRECTORY) and
the reply codes of an open, a Delete and a second Delete of the first
object are compared with ``golden_flat_context.json``.
"""

import json
from pathlib import Path

import pytest

from repro.core.context import ContextPair
from repro.kernel.ipc import Delay, GetPid, Send
from repro.kernel.messages import Message, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId
from repro.servers import (
    ExceptionServer,
    InternetServer,
    PipeServer,
    PrinterServer,
    TeamServer,
    TerminalServer,
    start_server,
)
from repro.servers.pipeserver import pipe_write
from repro.vio.client import read_all_bytes, release_instance
from tests.helpers import standard_system

GOLDEN = Path(__file__).with_name("golden_flat_context.json")


def _open_write_close(kind, session, name):
    stream = yield from session.open(f"[flat]{name}", "w")
    if kind == "pipe":
        yield from pipe_write(stream, b"x" * 3000)
    else:
        yield from stream.write(b"x" * 3000)
    yield from stream.close()
    return name


def _create_two(kind, session, pid):
    """Create two objects the way clients of ``kind`` do; their names."""
    if kind in ("pipe", "printer"):
        names = []
        for name in ("alpha", "beta"):
            names.append((yield from _open_write_close(kind, session, name)))
        return names
    requests = {
        "terminal": (RequestCode.TERMINAL_CREATE, "terminal",
                     [{"rows": 30, "cols": 100}, {}]),
        "internet": (RequestCode.TCP_CONNECT, "connection",
                     [{"host": "su-score.arpa", "port": 25},
                      {"host": "mit-mc.arpa", "port": 79}]),
        "exception": (RequestCode.RAISE_EXCEPTION, "incident",
                      [{"exc_code": "segv", "detail": "edit"},
                       {"exc_code": "fpe", "detail": "calc"}]),
        "team": (RequestCode.RUN_PROGRAM, "name",
                 [{"program": "edit", "duration": 60.0},
                  {"program": "calc", "duration": 30.0}]),
    }
    code, field, argument_sets = requests[kind]
    names = []
    for fields in argument_sets:
        yield Delay(0.25)
        reply = yield Send(pid, Message.request(code, **fields))
        assert reply.ok, reply.reply_code
        names.append(str(reply[field]))
    return names


SERVERS = {
    "terminal": (lambda: TerminalServer("mann"), ServiceId.TERMINAL),
    "pipe": (PipeServer, ServiceId.PIPE),
    "printer": (lambda: PrinterServer("op"), ServiceId.PRINT),
    "internet": (InternetServer, ServiceId.INTERNET),
    "exception": (ExceptionServer, ServiceId.EXCEPTION),
    "team": (TeamServer, ServiceId.TEAM),
}


def observe(kind: str) -> dict:
    """Everything the pin compares, as JSON-ready values."""
    make, service = SERVERS[kind]
    system = standard_system()
    host = (system.workstation.host if kind == "terminal"
            else system.domain.create_host("extra"))
    start_server(host, make())

    def client(session):
        yield Delay(0.01)
        pid = yield GetPid(int(service), Scope.ANY)
        yield from session.add_prefix("flat", ContextPair(pid, 0))
        names = yield from _create_two(kind, session, pid)
        seen = {"names": names, "records": []}
        for name in [""] + names:
            reply = yield from session.csname_request(
                RequestCode.QUERY_NAME, f"[flat]{name}")
            assert reply.ok, reply.reply_code
            seen["records"].append(bytes(reply.segment).hex())
        reply = yield from session.csname_request(
            RequestCode.OPEN_DIRECTORY, "[flat]")
        server = Pid(int(reply["server_pid"]))
        raw = yield from read_all_bytes(server, int(reply["instance"]))
        yield from release_instance(server, int(reply["instance"]))
        seen["directory"] = raw.hex()
        codes = []
        reply = yield from session.csname_request(
            RequestCode.OPEN_FILE, f"[flat]{names[0]}", mode="r")
        codes.append(reply.reply_code.name)
        if reply.ok:
            yield from release_instance(Pid(int(reply["server_pid"])),
                                        int(reply["instance"]))
        for __ in range(2):
            reply = yield from session.csname_request(
                RequestCode.DELETE_NAME, f"[flat]{names[0]}")
            codes.append(reply.reply_code.name)
        seen["codes"] = codes
        return seen

    return system.run_client(client(system.session()))


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_flat_context_bytes_and_codes(kind):
    assert observe(kind) == json.loads(GOLDEN.read_text())[kind]


if __name__ == "__main__":
    print(json.dumps({kind: observe(kind) for kind in sorted(SERVERS)},
                     indent=1))
