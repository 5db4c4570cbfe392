"""One kernel, two clocks: the same seeded client script on both drivers.

``Domain`` runs ``kernel.Host`` on the discrete-event engine and Ethernet
model; ``AsyncDomain`` runs the same ``Host`` on a loop clock and real
loopback UDP sockets.  Whatever the clock, a client must see the same
reply codes and the same bytes: an echo, a direct and a ``[home]``
forwarded Open, 16 KB written and moved back (MoveTo and MoveFrom), a
directory listing, a GroupSend, a GetPid miss and a Send to a dead pid.
"""

import asyncio
import random

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.kernel.domain import Domain
from repro.kernel.ipc import (
    GetPid,
    GroupSend,
    JoinGroup,
    MoveFrom,
    MoveTo,
    Receive,
    Reply,
    Segment,
    Send,
)
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope
from repro.net.asyncio_transport import AsyncDomain
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.program import load_program
from repro.runtime.session import Session
from repro.servers.fileserver.server import VFileServer

HOME = int(WellKnownContext.HOME)
GROUP = 0x5151


def echo_server():
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(
            ReplyCode.OK, n=delivery.message.get("n")))


def mover_server():
    """Reads the sender's segment, writes it back reversed, replies a sum."""
    while True:
        delivery = yield Receive()
        nbytes = delivery.message.get("nbytes")
        data = yield MoveFrom(delivery.sender, 0, nbytes)
        yield MoveTo(delivery.sender, 0, data[::-1])
        yield Reply(delivery.sender, Message.reply(
            ReplyCode.OK, checksum=sum(data) % 65521))


def group_member(key):
    def body():
        yield JoinGroup(GROUP)
        while True:
            delivery = yield Receive()
            if delivery.message.get("key") == key:
                yield Reply(delivery.sender,
                            Message.reply(ReplyCode.OK, owner=key))
    return body()


def client_script(env, seed):
    """The client: a transcript of (step, reply code, bytes) tuples."""
    rng = random.Random(seed)
    note, blob = rng.randbytes(64), rng.randbytes(16 * 1024)
    session, log = env["session"], []

    reply = yield Send(env["echo"], Message.request(RequestCode.QUERY_NAME,
                                                    n=seed))
    log.append(("echo", reply.reply_code, reply.get("n")))

    yield from files.write_file(session, "note.txt", note)
    for name in ("note.txt", "[home]note.txt"):
        stream = yield from session.open(name, "r")
        data = yield from stream.read_all()
        yield from stream.close()
        log.append(("open " + name, data))

    yield from files.write_file(session, "[home]blob", blob)
    log.append(("move_to", (yield from load_program(session, "[home]blob"))))
    segment = Segment(blob[:4096], writable=True)
    reply = yield Send(env["mover"], Message.request(1, nbytes=4096), segment)
    log.append(("move_from", reply.reply_code, reply.get("checksum"),
                segment.snapshot()))

    records = yield from session.list_directory(".")
    log.append(("list", [(r.name, r.size_bytes) for r in records]))

    reply = yield GroupSend(GROUP, Message.request(1, key="right"))
    log.append(("group", reply.reply_code, reply.get("owner")))

    log.append(("getpid miss", (yield GetPid(99, Scope.ANY))))

    echo = env["echo"]
    dead = Pid.make(echo.logical_host, echo.local_id ^ 0x8000)
    reply = yield Send(dead, Message.request(1))
    log.append(("dead pid", reply.reply_code))
    return log


def boot(ws, fs, pid_of):
    """Start the servers; ``pid_of`` turns a spawn result into its Pid."""
    fs_pid = pid_of(fs.spawn(VFileServer(user="mann").body(), "fileserver"))
    prefix = ContextPrefixServer(user="mann")
    prefix_pid = pid_of(ws.spawn(prefix.body(), "prefix"))
    prefix.define_prefix("home", ContextPair(fs_pid, HOME))
    for key in ("left", "right"):
        fs.spawn(group_member(key), key)
    return {"session": Session(ContextPair(fs_pid, HOME), prefix_pid,
                               STANDARD_3MBIT),
            "echo": pid_of(fs.spawn(echo_server(), "echo")),
            "mover": pid_of(fs.spawn(mover_server(), "mover"))}


def collect(box, gen):
    box["log"] = yield from gen


def on_des(seed):
    domain = Domain(seed=0)
    ws, fs = domain.create_host("ws"), domain.create_host("fs")
    env = boot(ws, fs, lambda proc: proc.pid)
    box = {}
    ws.spawn(collect(box, client_script(env, seed)), "client")
    domain.run()
    domain.check_healthy()
    return box["log"]


def on_sockets(seed):
    async def scenario():
        domain = AsyncDomain()
        ws, fs = await domain.create_host("ws"), await domain.create_host("fs")
        env = boot(ws, fs, lambda pid: pid)
        done, box = asyncio.Event(), {}

        def client():
            yield from collect(box, client_script(env, seed))
            done.set()

        ws.spawn(client(), "client")
        try:
            await asyncio.wait_for(done.wait(), 20)
        finally:
            await domain.shutdown()
        domain.check_healthy()
        return box["log"]

    return asyncio.run(scenario())


@pytest.mark.parametrize("seed", [1, 7])
def test_both_drivers_give_the_same_codes_and_bytes(seed):
    des, sockets = on_des(seed), on_sockets(seed)
    assert sockets == des
    assert [step for step, *__ in des] == [
        "echo", "open note.txt", "open [home]note.txt", "move_to",
        "move_from", "list", "group", "getpid miss", "dead pid"]
    codes = {step: rest[0] for step, *rest in des}
    assert codes["echo"] is ReplyCode.OK and codes["group"] is ReplyCode.OK
    assert codes["dead pid"] is ReplyCode.NONEXISTENT_PROCESS
    assert codes["getpid miss"] is None
