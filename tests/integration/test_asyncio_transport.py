"""The same servers over real UDP sockets (repro.net.asyncio_transport).

These tests prove the protocol stack is a genuine message protocol: the
file server, prefix server, and mail server run *unmodified* over loopback
datagrams with the binary wire encoding.
"""

import asyncio

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.kernel.ipc import Segment, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.net.asyncio_transport import AsyncDomain, AsyncHost
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers.fileserver.server import VFileServer
from repro.servers.mailserver import MailServer


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def run_client(domain, host, gen, name="client"):
    """Spawn a client generator and await its completion."""
    done = asyncio.Event()
    box = {}

    def wrapper():
        box["result"] = yield from gen
        done.set()

    host.spawn(wrapper(), name)
    await done.wait()
    domain.check_healthy()
    return box["result"]


async def base_system():
    domain = AsyncDomain()
    ws = await domain.create_host("ws")
    fs_host = await domain.create_host("fs")
    fileserver = VFileServer(user="mann")
    fs_pid = fs_host.spawn(fileserver.body(), "fileserver")
    prefix = ContextPrefixServer(user="mann")
    prefix_pid = ws.spawn(prefix.body(), "prefix")
    await asyncio.sleep(0.05)  # let both register
    prefix.define_prefix("home",
                         ContextPair(fs_pid, int(WellKnownContext.HOME)))
    session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                      prefix_pid, STANDARD_3MBIT)
    return domain, ws, fs_host, fileserver, fs_pid, session


class TestFileServiceOverUdp:
    def test_write_read_roundtrip(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "u.txt", b"over udp")
                return (yield from files.read_file(session, "u.txt"))
            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"over udp"

    def test_prefix_forwarding_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "[home]p.txt", b"fw")
                return (yield from files.read_file(session, "[home]p.txt"))
            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"fw"

    def test_profiled_prefix_server_survives_udp(self):
        # A nonzero parse_cpu makes dispatch() yield ProfileEnter/Exit
        # around its Delay; the socket interpreter must treat them as
        # no-ops (like Annotate), not IllegalEffect.
        async def scenario():
            domain = AsyncDomain()
            ws = await domain.create_host("ws")
            fs_host = await domain.create_host("fs")
            fs_pid = fs_host.spawn(VFileServer(user="mann").body(),
                                   "fileserver")
            prefix = ContextPrefixServer(parse_cpu=0.001, user="mann")
            prefix_pid = ws.spawn(prefix.body(), "prefix")
            await asyncio.sleep(0.05)
            prefix.define_prefix(
                "home", ContextPair(fs_pid, int(WellKnownContext.HOME)))
            session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                              prefix_pid, STANDARD_3MBIT)

            def client():
                yield from files.write_file(session, "[home]prof.txt", b"ok")
                return (yield from files.read_file(session, "[home]prof.txt"))

            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"ok"

    def test_directory_listing_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "a.txt", b"1")
                yield from files.write_file(session, "b.txt", b"22")
                return (yield from session.list_directory("."))
            records = await run_client(domain, ws, client())
            await domain.shutdown()
            return records

        records = run_async(scenario())
        assert [r.name for r in records] == ["a.txt", "b.txt"]
        assert records[1].size_bytes == 2

    def test_moveto_program_load_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            image = bytes(range(256)) * 64  # 16 KB
            def client():
                yield from files.write_file(session, "[home]img", image)
                from repro.runtime.program import load_program
                return (yield from load_program(session, "[home]img"))
            loaded = await run_client(domain, ws, client())
            await domain.shutdown()
            return loaded == image

        assert run_async(scenario())

    def test_send_to_dead_pid_nacks(self):
        async def scenario():
            domain, ws, fs_host, *__ = await base_system()
            from repro.kernel.pids import Pid
            dead = Pid.make(fs_host.host_id, 0xBEEF)
            def client():
                reply = yield Send(dead, Message.request(1))
                return reply.reply_code
            code = await run_client(domain, ws, client())
            await domain.shutdown()
            return code

        assert run_async(scenario()) is ReplyCode.NONEXISTENT_PROCESS

    def test_mail_forwarding_over_sockets(self):
        async def scenario():
            domain, ws, fs_host, __, fs_pid, session = await base_system()
            mail_host = await domain.create_host("mail")
            stanford = MailServer(hostname="su-score.ARPA")
            mail_pid = mail_host.spawn(stanford.body(), "mail")
            await asyncio.sleep(0.05)
            stanford.add_mailbox("cheriton")

            def client():
                from repro.core.protocol import make_csname_request
                request = make_csname_request(
                    RequestCode.MAIL_DELIVER, "cheriton@su-score.ARPA", 0,
                    body=b"sockets!")
                reply = yield Send(mail_pid, request)
                return reply
            reply = await run_client(domain, ws, client())
            await domain.shutdown()
            return reply, stanford

        reply, stanford = run_async(scenario())
        assert reply.ok
        assert stanford.mailboxes["cheriton"].messages[0].body == b"sockets!"


class TestAsyncExtras:
    def test_group_send_over_udp(self):
        """GroupSend fans out as datagrams; first reply wins."""
        from repro.kernel.ipc import GroupSend, JoinGroup, Receive, Reply

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            client_host = await domain.create_host("client")
            members = [await domain.create_host(f"m{i}") for i in range(2)]

            def member(key):
                def body():
                    yield JoinGroup(0x5555)
                    while True:
                        delivery = yield Receive()
                        if delivery.message.get("key") == key:
                            yield Reply(delivery.sender,
                                        Message.reply(ReplyCode.OK,
                                                      owner=key))
                return body

            members[0].spawn(member("left")(), "left")
            members[1].spawn(member("right")(), "right")
            await asyncio.sleep(0.05)

            done = asyncio.Event()
            box = {}

            def client():
                reply = yield GroupSend(0x5555, Message.request(1,
                                                                key="right"))
                box["owner"] = reply.get("owner")
                done.set()

            client_host.spawn(client(), "client")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return box["owner"]

        assert run_async(scenario()) == "right"

    def test_spawn_effect_over_udp(self):
        from repro.kernel.ipc import Delay, Spawn

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            host = await domain.create_host("solo")
            done = asyncio.Event()
            marks = []

            def child():
                marks.append("child-ran")
                yield Delay(0.001)

            def parent():
                child_pid = yield Spawn(child(), "child")
                marks.append(child_pid.logical_host)
                yield Delay(0.01)
                done.set()

            host.spawn(parent(), "parent")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return marks, host.host_id

        marks, host_id = run_async(scenario())
        assert "child-ran" in marks
        assert host_id in marks

    def test_getpid_timeout_returns_none_over_udp(self):
        from repro.kernel.ipc import GetPid
        from repro.kernel.services import Scope

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            host = await domain.create_host("lonely")
            await domain.create_host("other")
            done = asyncio.Event()
            box = {}

            def client():
                box["pid"] = yield GetPid(99, Scope.ANY)
                done.set()

            host.spawn(client(), "client")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return box["pid"]

        assert run_async(scenario()) is None


async def bare_domain(*names):
    domain = AsyncDomain()
    return domain, [await domain.create_host(name) for name in names]


def silent_server():
    """Receives everything, answers nothing."""
    from repro.kernel.ipc import Receive

    while True:
        yield Receive()


def echo_server():
    from repro.kernel.ipc import Receive, Reply

    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def live_timers(loop):
    """The transport's own armed, uncancelled timer handles."""
    return [handle for handle in loop._scheduled
            if not handle.cancelled() and isinstance(
                getattr(handle._callback, "__self__", None), AsyncHost)]


class TestKeepsTime:
    """Delay is wall-clock accurate below the selector's 1 ms rounding."""

    def test_sub_millisecond_delays_are_neither_early_nor_rounded_up(self):
        import statistics
        import time

        from repro.kernel.ipc import Delay

        async def scenario():
            domain, (host,) = await bare_domain("solo")
            elapsed = []

            def client():
                for __ in range(200):
                    start = time.monotonic()
                    yield Delay(300e-6)
                    elapsed.append(time.monotonic() - start)

            await run_client(domain, host, client())
            await domain.shutdown()
            return elapsed

        elapsed = run_async(scenario())
        assert len(elapsed) == 200
        assert min(elapsed) >= 300e-6
        # The parent rounded every one of these up to ~1.17 ms.
        assert statistics.median(elapsed) < 0.6e-3

    def test_long_delay_spins_only_its_tail(self):
        import time

        from repro.kernel.ipc import Delay

        async def scenario():
            domain, (host,) = await bare_domain("solo")

            def client():
                wall, cpu = time.monotonic(), time.process_time()
                yield Delay(0.2)
                return time.monotonic() - wall, time.process_time() - cpu

            result = await run_client(domain, host, client())
            await domain.shutdown()
            return result

        wall, cpu = run_async(scenario())
        assert 0.2 <= wall < 0.25
        assert cpu < 0.020

    def test_delay_tail_keeps_serving_sockets(self):
        import time

        from repro.kernel.ipc import Delay

        async def scenario():
            domain, (left, right) = await bare_domain("left", "right")
            echo_pid = right.spawn(echo_server(), "echo")
            naps, replies = [], []

            def talker():
                while len(naps) < 10:
                    yield Send(echo_pid, Message.request(1))
                    replies.append(time.monotonic())

            def sleeper():
                for __ in range(10):
                    start = time.monotonic()
                    yield Delay(0.9e-3)     # all tail: polled turn by turn
                    naps.append((start, time.monotonic()))

            left.spawn(sleeper(), "sleeper")
            await run_client(domain, left, talker())
            await domain.shutdown()
            return naps, replies

        naps, replies = run_async(scenario())
        during = [at for at in replies
                  if any(start < at < end for start, end in naps)]
        # A tail that held the loop would let replies in only between naps.
        assert len(during) >= 3


class TestTimersAndLifecycle:
    def test_reply_timeout_cleans_up_its_waiter(self, monkeypatch):
        from repro.net import asyncio_transport

        monkeypatch.setattr(asyncio_transport, "REPLY_TIMEOUT", 0.05)

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            silent = far.spawn(silent_server(), "silent")

            def client():
                reply = yield Send(silent, Message.request(1),
                                   Segment(b"exposed"))
                return reply.reply_code

            code = await run_client(domain, ws, client())
            leftovers = (dict(ws._reply_waiters), dict(ws._exposed),
                         live_timers(asyncio.get_running_loop()))
            await domain.shutdown()
            return code, leftovers

        code, leftovers = run_async(scenario())
        assert code is ReplyCode.TIMEOUT
        assert leftovers == ({}, {}, [])

    def test_completed_sends_leave_no_live_timer(self):
        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            echo_pid = far.spawn(echo_server(), "echo")

            def client():
                for __ in range(1000):
                    reply = yield Send(echo_pid, Message.request(1))
                    assert reply.ok

            await run_client(domain, ws, client())
            loop = asyncio.get_running_loop()
            counts = len(live_timers(loop)), len(loop._scheduled)
            leftovers = dict(ws._reply_waiters)
            await domain.shutdown()
            return counts, leftovers

        (live, scheduled), leftovers = run_async(scenario())
        assert live == 0 and leftovers == {}
        # Cancelled handles are swept by the loop, not hoarded per Send.
        assert scheduled < 500

    def test_shutdown_silences_parked_processes(self, monkeypatch):
        import gc
        import warnings

        from repro.kernel.ipc import Delay, Receive
        from repro.net import asyncio_transport

        monkeypatch.setattr(asyncio_transport, "REPLY_TIMEOUT", 0.03)

        async def scenario():
            baseline = asyncio.all_tasks()
            domain, (ws, far) = await bare_domain("ws", "far")
            silent = far.spawn(silent_server(), "silent")
            woke = []

            def in_send():
                yield Send(silent, Message.request(1))
                woke.append("send")

            def in_receive():
                yield Receive()
                woke.append("receive")

            def in_long_delay():
                yield Delay(0.03)
                woke.append("delay")

            def in_delay_tail():
                while True:
                    yield Delay(0.5e-3)
                    woke.append("tail")

            for body in (in_send, in_receive, in_long_delay, in_delay_tail):
                ws.spawn(body(), body.__name__)
            await asyncio.sleep(0.01)
            await domain.shutdown()
            before = list(woke)
            loop = asyncio.get_running_loop()
            timers = live_timers(loop)
            await asyncio.sleep(0.08)   # past every armed timeout
            tasks = asyncio.all_tasks() - baseline
            return before, woke, timers, tasks, domain.failures

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before, woke, timers, tasks, failures = run_async(scenario())
            gc.collect()
        assert "tail" in before and woke == before
        assert set(woke) == {"tail"}
        assert timers == [] and tasks == set() and failures == []
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class TestRunToBlock:
    """The stepping rules the DES kernel has, kept by the socket driver."""

    def test_selective_receive_skips_queued_strangers(self):
        from repro.kernel.ipc import Delay, Receive, Reply

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            pids, served, done = {}, [], asyncio.Event()

            def server():
                yield Delay(0.02)       # a's and c's requests queue up
                for wanted in ("c", "b", None):   # b's arrives while parked
                    delivery = yield Receive(
                        from_pid=pids[wanted] if wanted else None)
                    served.append(delivery.message.get("who"))
                    yield Reply(delivery.sender, Message.reply(ReplyCode.OK))
                done.set()

            def sender(who, wait):
                def body():
                    yield Delay(wait)
                    reply = yield Send(server_pid,
                                       Message.request(1, who=who))
                    assert reply.ok
                return body()

            server_pid = far.spawn(server(), "server")
            for who, wait in (("a", 0.0), ("c", 0.005), ("b", 0.04)):
                pids[who] = ws.spawn(sender(who, wait), who)
            await asyncio.wait_for(done.wait(), 10)
            await asyncio.sleep(0.01)
            domain.check_healthy()
            await domain.shutdown()
            return served

        assert run_async(scenario()) == ["c", "b", "a"]

    def test_failed_body_is_recorded_and_its_senders_are_released(self):
        from repro.kernel.ipc import Delay, Receive

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            codes, done = {}, asyncio.Event()

            def doomed():
                yield Receive()         # "held": received, never replied
                yield Delay(0.02)       # "queued" arrives meanwhile
                raise RuntimeError("server bug")

            def sender(who, wait):
                def body():
                    yield Delay(wait)
                    reply = yield Send(doomed_pid, Message.request(1))
                    codes[who] = reply.reply_code
                    if len(codes) == 2:
                        done.set()
                return body()

            doomed_pid = far.spawn(doomed(), "doomed")
            ws.spawn(sender("held", 0.0), "held")
            ws.spawn(sender("queued", 0.005), "queued")
            await asyncio.wait_for(done.wait(), 10)
            alive = far.find_process(doomed_pid)
            await domain.shutdown()
            return codes, domain.failures, alive

        codes, failures, alive = run_async(scenario())
        assert codes == {"held": ReplyCode.NONEXISTENT_PROCESS,
                         "queued": ReplyCode.NONEXISTENT_PROCESS}
        assert alive is None
        [(name, error)] = failures
        assert name == "far/doomed"
        assert isinstance(error, RuntimeError)

    def test_exit_terminates_cleanly(self):
        from repro.kernel.ipc import Exit

        async def scenario():
            domain, (host,) = await bare_domain("solo")
            marks = []

            def body():
                marks.append("before")
                yield Exit()
                marks.append("after")

            pid = host.spawn(body(), "quitter")
            await asyncio.sleep(0.01)
            gone = host.find_process(pid) is None and not host.processes
            await domain.shutdown()
            return marks, gone, domain.failures

        assert run_async(scenario()) == (["before"], True, [])

    def test_a_process_is_never_stepped_reentrantly(self):
        from repro.kernel.ipc import MyPid

        async def scenario():
            domain, (host,) = await bare_domain("solo")

            def body():
                pid = yield MyPid()
                host._step(host.find_process(pid))

            host.spawn(body(), "meddler")
            await asyncio.sleep(0.01)
            await domain.shutdown()
            return domain.failures

        [(name, error)] = run_async(scenario())
        assert isinstance(error, AssertionError)
        assert "re-entrantly" in str(error)

    def test_unencodable_field_raises_inside_the_sender(self):
        from repro.net.wire import WireError

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            echo_pid = far.spawn(echo_server(), "echo")

            def client():
                try:
                    yield Send(echo_pid, Message.request(1, body=object()))
                except WireError:
                    reply = yield Send(echo_pid, Message.request(1))
                    return reply.reply_code, dict(ws._reply_waiters)

            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == (ReplyCode.OK, {})

    def test_malformed_datagrams_are_counted_and_dropped(self):
        import socket

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            echo_pid = far.spawn(echo_server(), "echo")
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
                for junk in (b"", b"not a packet", b"VK\x00" + b"\xff" * 30):
                    raw.sendto(junk, far.address)
            await asyncio.sleep(0.01)

            def client():
                reply = yield Send(echo_pid, Message.request(1))
                return reply.reply_code

            code = await run_client(domain, ws, client())
            await domain.shutdown()
            return code, domain.malformed_datagrams

        assert run_async(scenario()) == (ReplyCode.OK, 3)
