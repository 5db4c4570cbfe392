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
from repro.net.asyncio_transport import AsyncDomain, _LoopClock
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
        # A nonzero parse_cpu makes the server loop yield ProfileEnter/Exit
        # around its Delay; with no profiler on the loop clock the kernel
        # treats them as no-ops (like Annotate), not IllegalEffect.
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


def live_timers(domain):
    """The clock's timers that are neither cancelled nor fired."""
    clock = domain.engine
    return [timer for __, __, timer in clock._timers + clock._later
            if timer.callback is not None]


def armed_handles(loop):
    """Loop handles armed by the transport's clock, pending or scheduled."""
    handles = list(loop._ready) + list(loop._scheduled)
    return [handle for handle in handles if not handle.cancelled()
            and isinstance(getattr(handle._callback, "__self__", None),
                           _LoopClock)]


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
    def test_reply_timeout_cleans_up_its_waiter(self):
        # A Send to a crashed host fails once the probe protocol gives up:
        # probe_interval * (max_failed_probes + 1) = 0.4 s.
        import time

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            silent = far.spawn(silent_server(), "silent")
            await asyncio.sleep(0.01)
            far.crash()

            def client():
                start = time.monotonic()
                reply = yield Send(silent, Message.request(1),
                                   Segment(b"exposed"))
                return reply.reply_code, time.monotonic() - start

            code, waited = await run_client(domain, ws, client())
            leftovers = dict(ws._outstanding), live_timers(domain)
            await domain.shutdown()
            return code, waited, leftovers

        code, waited, leftovers = run_async(scenario())
        assert code is ReplyCode.TIMEOUT
        assert 0.4 <= waited < 0.4 + 0.3
        assert leftovers == ({}, [])

    def test_send_to_a_silent_live_server_stays_outstanding(self):
        # V's rule: a server that holds a request without replying keeps
        # its sender blocked; the probes find it alive, so no TIMEOUT.
        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            silent = far.spawn(silent_server(), "silent")
            woke = []

            def client():
                woke.append((yield Send(silent, Message.request(1))))

            ws.spawn(client(), "client")
            await asyncio.sleep(0.5)
            outstanding = len(ws._outstanding)
            probes = domain.metrics.count("ipc.probes")
            await domain.shutdown()
            return woke, outstanding, probes

        woke, outstanding, probes = run_async(scenario())
        assert woke == [] and outstanding == 1
        assert probes >= 3

    def test_completed_sends_leave_no_live_timer(self):
        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            echo_pid = far.spawn(echo_server(), "echo")

            def client():
                for __ in range(1000):
                    reply = yield Send(echo_pid, Message.request(1))
                    assert reply.ok

            await run_client(domain, ws, client())
            leftovers = (dict(ws._outstanding), live_timers(domain),
                         armed_handles(asyncio.get_running_loop()))
            await domain.shutdown()
            return leftovers

        # Each Send arms a probe and a retransmit timer; once the last reply
        # is in, none is live and no loop handle stays armed.
        assert run_async(scenario()) == ({}, [], [])

    def test_shutdown_silences_parked_processes(self):
        import gc
        import warnings

        from repro.kernel.ipc import Delay, Receive

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
            timers = (live_timers(domain),
                      armed_handles(asyncio.get_running_loop()))
            open_transports = [
                host.host_id for host in domain.hosts.values()
                if not domain.ethernet._transports[host.host_id].is_closing()]
            await asyncio.sleep(0.15)   # past every timer the kernel had armed
            tasks = asyncio.all_tasks() - baseline
            return before, woke, timers, open_transports, tasks, domain.failures

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before, woke, timers, open_transports, tasks, failures = run_async(
                scenario())
            gc.collect()
        assert "tail" in before and woke == before
        assert set(woke) == {"tail"}
        assert timers == ([], []) and open_transports == []
        assert tasks == set() and failures == []
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class TestRunToBlock:
    """The kernel's stepping rules, on the loop clock."""

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
        # A datagram that arrives while the clock is draining -- here handed
        # to the endpoint from inside a running process -- is queued behind
        # the current step, never run inside it.
        from repro.kernel.ipc import Delay, Receive, Reply
        from repro.kernel.messages import Packet, PacketKind
        from repro.kernel.pids import Pid
        from repro.net.wire import encode_packet

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            order = []

            def server():
                while True:
                    delivery = yield Receive()
                    order.append("served")
                    yield Reply(delivery.sender, Message.reply(ReplyCode.OK))

            server_pid = far.spawn(server(), "server")
            endpoint = domain.ethernet._transports[far.host_id].get_protocol()
            request = encode_packet(Packet(
                PacketKind.REQUEST, Pid.make(ws.host_id, 0xBEEF), server_pid,
                1, Message.request(1)))

            def meddler():
                yield Delay(0.001)      # the server is parked in Receive
                order.append("meddler")
                endpoint.datagram_received(request, ws.address)
                order.append("meddler, still stepping")
                yield Delay(0.001)

            far.spawn(meddler(), "meddler")
            await asyncio.sleep(0.02)
            await domain.shutdown()
            return order, domain.failures

        assert run_async(scenario()) == (
            ["meddler", "meddler, still stepping", "served"], [])

    def test_unencodable_message_gets_bad_args(self):
        from repro.kernel.ipc import Receive, Reply

        def rude_server():
            while True:
                delivery = yield Receive()
                yield Reply(delivery.sender,
                            Message.reply(ReplyCode.OK, body=object()))

        async def scenario():
            domain, (ws, far) = await bare_domain("ws", "far")
            echo_pid = far.spawn(echo_server(), "echo")
            rude_pid = far.spawn(rude_server(), "rude")

            def client():
                codes = []
                for dst, message in ((echo_pid, Message.request(1, body=object())),
                                     (rude_pid, Message.request(1)),
                                     (echo_pid, Message.request(1))):
                    reply = yield Send(dst, message)
                    codes.append(reply.reply_code)
                return codes

            codes = await run_client(domain, ws, client())
            leftovers = (dict(ws._outstanding), dict(far._presence),
                         live_timers(domain))
            await domain.shutdown()
            return codes, leftovers, domain.failures

        # The unencodable request, then the unencodable reply, each fail
        # their own transaction; the kernel is left with nothing pending.
        assert run_async(scenario()) == (
            [ReplyCode.BAD_ARGS, ReplyCode.BAD_ARGS, ReplyCode.OK],
            ({}, {}, []), [])

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

    def test_a_stray_malformed_csname_request_does_not_kill_the_server(self):
        # A decodable REQUEST datagram whose CSname header carries None: the
        # file server answers BAD_ARGS (to a pid nobody waits for) and the
        # next well-formed request is served.
        from repro.core.protocol import make_csname_request
        from repro.kernel.messages import Packet, PacketKind
        from repro.kernel.pids import Pid
        from repro.net.wire import encode_packet

        async def scenario():
            domain, ws, fs_host, fileserver, fs_pid, session = \
                await base_system()
            stray = make_csname_request(RequestCode.OPEN_FILE, "x", 0)
            stray.fields["context_id"] = None
            datagram = encode_packet(Packet(
                PacketKind.REQUEST, Pid.make(ws.host_id, 0x3FF), fs_pid,
                0xBEEF, stray))
            domain.ethernet._transports[ws.host_id].sendto(
                datagram, fs_host.address)
            await asyncio.sleep(0.02)

            def client():
                yield from files.write_file(session, "after.txt", b"ok")
                return (yield from files.read_file(session, "after.txt"))

            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result, domain.malformed_datagrams

        assert run_async(scenario()) == (b"ok", 0)


class TestLoopClock:
    """The engine seam under the kernel, on its own."""

    @staticmethod
    def on_clock(scenario):
        async def main():
            clock = _LoopClock()
            clock.bind(asyncio.get_running_loop())
            try:
                return await scenario(clock, asyncio.get_running_loop())
            finally:
                clock.close()

        return run_async(main())

    def test_zero_delay_posts_run_fifo_from_one_call_soon(self):
        async def scenario(clock, loop):
            order = []

            def first():
                order.append(1)
                clock.post(0.0, order.append, 4)    # mid-drain: goes last

            clock.post(0.0, first)
            clock.post(0.0, order.append, 2)
            clock.post(0.0, order.append, 3)
            handles = len(armed_handles(loop))
            await asyncio.sleep(0.005)
            return order, handles

        assert self.on_clock(scenario) == ([1, 2, 3, 4], 1)

    def test_a_cancelled_timer_never_fires(self):
        async def scenario(clock, loop):
            fired = []
            doomed = clock.schedule(0.002, fired.append, "cancelled")
            clock.schedule(0.004, fired.append, "kept")
            doomed.cancel()
            doomed.cancel()                         # idempotent
            await asyncio.sleep(0.03)
            return fired, clock._live, armed_handles(loop)

        assert self.on_clock(scenario) == (["kept"], 0, [])

    def test_an_earlier_deadline_rearms_the_single_handle(self):
        async def scenario(clock, loop):
            fired = []
            clock.schedule(0.5, fired.append, "late")
            [late] = armed_handles(loop)
            clock.schedule(0.01, fired.append, "early")
            [early] = armed_handles(loop)
            clock.schedule(1.0, fired.append, "later still")
            [still] = armed_handles(loop)           # no re-arm for a later one
            await asyncio.sleep(0.03)
            return (late.cancelled(), early.when() < late.when(),
                    still is early, fired, len(armed_handles(loop)))

        assert self.on_clock(scenario) == (True, True, True, ["early"], 1)
