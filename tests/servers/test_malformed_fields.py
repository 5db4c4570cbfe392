"""A malformed request field gets BAD_ARGS; the server lives on.

The UDP codec delivers a peer's variant fields as sent, so a number field
can arrive as ``"x"``.  Every request field a server converts with
``int()``/``float()`` answers that with BAD_ARGS, and the next well-formed
request to the same server is served as usual.
"""

import pytest

from repro.core.context import ContextPair
from repro.kernel.ipc import Delay, GetPid, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.services import Scope, ServiceId
from repro.servers import (
    InternetServer,
    PipeServer,
    TeamServer,
    TerminalServer,
    TimeServer,
    start_server,
)
from tests.helpers import standard_system


def _request(code, **fields):
    def send(session, pid):
        return (yield Send(pid, Message.request(code, **fields)))
    return send


def _csname(code, name, **fields):
    def send(session, pid):
        return (yield from session.csname_request(code, name, **fields))
    return send


def _on_open_file(code, **fields):
    """``code`` with ``fields`` on an instance of a freshly written file."""
    def send(session, pid):
        stream = yield from session.open("[home]f", "w")
        yield from stream.write(b"data")
        return (yield Send(stream.server, Message.request(
            code, instance=stream.instance, **fields)))
    return send


#: (case, server to start or None, service it registers, malformed request)
CASES = [
    ("terminal-rows", TerminalServer, ServiceId.TERMINAL,
     _request(RequestCode.TERMINAL_CREATE, rows="x")),
    ("tcp-port", InternetServer, ServiceId.INTERNET,
     _request(RequestCode.TCP_CONNECT, host="su-score", port="x")),
    ("program-duration", TeamServer, ServiceId.TEAM,
     _request(RequestCode.RUN_PROGRAM, program="edit", duration="x")),
    ("set-time", TimeServer, ServiceId.TIME,
     _request(RequestCode.SET_TIME, time="x")),
    ("context-to-name", PipeServer, ServiceId.PIPE,
     _request(RequestCode.CONTEXT_TO_NAME, context_id="x")),
    ("instance-to-name", None, ServiceId.STORAGE,
     _request(RequestCode.INSTANCE_TO_NAME, instance="x")),
    ("read-instance", PipeServer, ServiceId.PIPE,
     _request(RequestCode.READ_INSTANCE, instance="x")),
    ("write-instance", PipeServer, ServiceId.PIPE,
     _request(RequestCode.WRITE_INSTANCE, instance="x")),
    ("query-instance", PipeServer, ServiceId.PIPE,
     _request(RequestCode.QUERY_INSTANCE, instance="x")),
    ("release-instance", PipeServer, ServiceId.PIPE,
     _request(RequestCode.RELEASE_INSTANCE, instance="x")),
    ("file-read-block", None, ServiceId.STORAGE,
     _on_open_file(RequestCode.READ_INSTANCE, block="x")),
    ("file-write-block", None, ServiceId.STORAGE,
     _on_open_file(RequestCode.WRITE_INSTANCE, block="x")),
    ("file-link-pid", None, ServiceId.STORAGE,
     _csname(RequestCode.ADD_CONTEXT_NAME, "link", target_pid="x")),
    ("prefix-service", None, ServiceId.STORAGE,
     _csname(RequestCode.ADD_CONTEXT_NAME, "[bad]", service_id="x")),
    ("prefix-pid", None, ServiceId.STORAGE,
     _csname(RequestCode.ADD_CONTEXT_NAME, "[bad]", target_pid="x",
             target_context="y")),
]


@pytest.mark.parametrize("make, service, malformed",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_malformed_field_is_bad_args_and_the_server_survives(
        make, service, malformed):
    system = standard_system()
    if make is not None:
        start_server(system.workstation.host, make())

    def client(session):
        yield Delay(0.01)
        pid = yield GetPid(int(service), Scope.ANY)
        reply = yield from malformed(session, pid)
        # The same server (and the prefix server) still answers.
        yield from session.add_prefix("again", ContextPair(pid, 0))
        after = yield Send(pid, Message.request(RequestCode.CONTEXT_TO_NAME,
                                                context_id=0))
        return reply.reply_code, after.reply_code

    code, after = system.run_client(client(system.session()))
    assert code is ReplyCode.BAD_ARGS
    assert after in (ReplyCode.OK, ReplyCode.NOT_FOUND)
    assert system.domain.failures == []
