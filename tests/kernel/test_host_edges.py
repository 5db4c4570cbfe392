"""Kernel edge cases: crashes mid-transaction, probe redirection, misuse."""

import pytest

from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.errors import HostDown, IllegalEffect, NotAwaitingReply
from repro.kernel.ipc import (
    Delay,
    Exit,
    Forward,
    GetPid,
    Now,
    Receive,
    Reply,
    Send,
    SetPid,
)
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope
from repro.runtime import files
from tests.helpers import run_on, standard_system


def registered_server(service=1, work=0.0):
    def body():
        yield SetPid(service, Scope.BOTH)
        while True:
            delivery = yield Receive()
            if work:
                yield Delay(work)
            yield Reply(delivery.sender, Message.reply(ReplyCode.OK))
    return body


def wait_for(service=1):
    while True:
        pid = yield GetPid(service, Scope.ANY)
        if pid is not None:
            return pid
        yield Delay(0.001)


class TestCrashMidTransaction:
    def test_server_crash_after_receive_times_out_sender(self, domain):
        ws = domain.create_host("ws")
        far = domain.create_host("far")

        def black_hole():
            yield SetPid(1, Scope.BOTH)
            yield Receive()
            yield Delay(10.0)  # never replies; host dies first

        far.spawn(black_hole(), "hole")
        domain.engine.schedule_at(0.2, far.crash)

        def client():
            pid = yield from wait_for()
            t0 = yield Now()
            reply = yield Send(pid, Message.request(1))
            t1 = yield Now()
            return reply.reply_code, t1 - t0

        code, elapsed = run_on(domain, ws, client())
        assert code is ReplyCode.TIMEOUT
        # Probes kept the transaction alive until the crash, then detected
        # it within the probe budget.
        assert 0.2 < elapsed < 0.8

    def test_slow_server_is_kept_alive_by_probes(self, domain):
        """A legitimately slow reply must NOT be timed out."""
        ws = domain.create_host("ws")
        far = domain.create_host("far")
        far.spawn(registered_server(work=1.0)(), "slow")  # 10x probe interval

        def client():
            pid = yield from wait_for()
            reply = yield Send(pid, Message.request(1))
            return reply.reply_code

        assert run_on(domain, ws, client()) is ReplyCode.OK
        assert domain.metrics.count("ipc.probes") >= 5

    def test_probe_redirect_after_remote_forward(self, domain):
        """Probes follow a transaction that was forwarded to a third host,
        even when the backend is slow enough for many probe rounds."""
        hosts = [domain.create_host(f"h{i}") for i in range(3)]

        def frontend():
            yield SetPid(1, Scope.BOTH)
            delivery = yield Receive()
            backend_pid = yield from wait_for(2)
            yield Forward(delivery, backend_pid)

        hosts[1].spawn(frontend(), "front")
        hosts[2].spawn(registered_server(service=2, work=0.9)(), "back")

        def client():
            pid = yield from wait_for(1)
            reply = yield Send(pid, Message.request(1))
            return reply.reply_code

        assert run_on(domain, hosts[0], client()) is ReplyCode.OK

    def test_backend_crash_after_forward_detected(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(3)]

        def frontend():
            yield SetPid(1, Scope.BOTH)
            delivery = yield Receive()
            backend_pid = yield from wait_for(2)
            yield Forward(delivery, backend_pid)

        def doomed_backend():
            yield SetPid(2, Scope.BOTH)
            yield Receive()
            yield Delay(10.0)

        hosts[1].spawn(frontend(), "front")
        hosts[2].spawn(doomed_backend(), "back")
        domain.engine.schedule_at(0.3, hosts[2].crash)

        def client():
            pid = yield from wait_for(1)
            reply = yield Send(pid, Message.request(1))
            return reply.reply_code

        assert run_on(domain, hosts[0], client()) is ReplyCode.TIMEOUT


class TestHostMisuse:
    def test_spawn_on_crashed_host_rejected(self, domain):
        host = domain.create_host("h")
        host.crash()
        with pytest.raises(HostDown):
            host.spawn(registered_server()(), "late")

    def test_send_to_logical_pid_is_an_error(self, domain):
        host = domain.create_host("h")
        from repro.kernel.services import ServiceId

        def client():
            try:
                yield Send(ServiceId.STORAGE.logical_pid, Message.request(1))
            except Exception as err:  # noqa: BLE001
                return type(err).__name__

        assert run_on(domain, host, client()) == "IllegalEffect"

    def test_double_reply_is_an_error(self, domain):
        host = domain.create_host("h")

        def server():
            yield SetPid(1, Scope.BOTH)
            delivery = yield Receive()
            yield Reply(delivery.sender, Message.reply(ReplyCode.OK))
            try:
                yield Reply(delivery.sender, Message.reply(ReplyCode.OK))
            except Exception as err:  # noqa: BLE001
                results.append(type(err).__name__)

        results = []
        host.spawn(server(), "server")

        def client():
            pid = yield from wait_for()
            yield Send(pid, Message.request(1))
            yield Delay(0.01)

        run_on(domain, host, client())
        assert results == ["NotAwaitingReply"]

    def test_unknown_effect_object_is_an_error(self, domain):
        host = domain.create_host("h")

        def confused():
            try:
                yield {"not": "an effect"}
            except Exception as err:  # noqa: BLE001
                return type(err).__name__

        assert run_on(domain, host, confused()) == "IllegalEffect"

    def test_negative_delay_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Delay(-1.0)


class TestStepLoop:
    """Every exit from the kernel's step loop, and the profiled loop."""

    def test_raising_body_is_recorded_and_its_held_requests_nacked(self,
                                                                   domain):
        host = domain.create_host("h")
        boom = ValueError("boom")

        def broken():
            yield SetPid(1, Scope.BOTH)
            yield Receive()
            raise boom

        host.spawn(broken(), "broken")

        def client():
            pid = yield from wait_for()
            reply = yield Send(pid, Message.request(1))
            return reply.reply_code

        code = run_on(domain, host, client(), check=False)
        assert code is ReplyCode.NONEXISTENT_PROCESS
        assert domain.failures == [("h/broken", boom)]
        assert domain.failures[0][1] is boom

    def test_kernel_error_is_thrown_into_a_defensive_server(self, domain):
        host = domain.create_host("h")
        caught = []

        def defensive():
            yield SetPid(1, Scope.BOTH)
            while True:
                delivery = yield Receive()
                try:
                    # Nobody at this pid awaits a reply from us.
                    yield Reply(Pid(delivery.sender.value + 1),
                                Message.reply(ReplyCode.OK))
                except NotAwaitingReply as err:
                    caught.append(err)
                yield Reply(delivery.sender, Message.reply(ReplyCode.OK))

        host.spawn(defensive(), "defensive")

        def client():
            pid = yield from wait_for()
            first = yield Send(pid, Message.request(1))
            second = yield Send(pid, Message.request(1))
            return first.reply_code, second.reply_code

        assert run_on(domain, host, client()) == (ReplyCode.OK, ReplyCode.OK)
        assert len(caught) == 2
        assert domain.failures == []

    def test_uncaught_illegal_effect_fails_the_process(self, domain):
        host = domain.create_host("h")

        def confused():
            yield "not an effect"

        host.spawn(confused(), "confused")
        domain.run()
        ((name, error),) = domain.failures
        assert name == "h/confused"
        assert isinstance(error, IllegalEffect)
        assert not host.processes

    def test_body_returning_before_its_first_yield(self, domain):
        host = domain.create_host("h")

        def instant():
            return 42
            yield  # pragma: no cover - makes this a generator

        proc = host.spawn(instant(), "instant")
        domain.run()
        assert not proc.alive
        assert not host.processes
        assert domain.failures == []
        assert domain.metrics.count("kernel.process_exits") == 1

    def test_exit_mid_loop_nacks_held_requests(self, domain):
        host = domain.create_host("h")
        after_exit = []

        def quitter():
            yield SetPid(1, Scope.BOTH)
            for round_number in range(3):
                yield Receive()
                if round_number == 0:
                    yield Exit()
                    after_exit.append(round_number)

        host.spawn(quitter(), "quitter")

        def client():
            pid = yield from wait_for()
            reply = yield Send(pid, Message.request(1))
            return reply.reply_code

        assert run_on(domain, host, client()) is ReplyCode.NONEXISTENT_PROCESS
        assert after_exit == []
        assert domain.failures == []
        assert not [proc for proc in host.processes.values()
                    if proc.name == "quitter"]

    @staticmethod
    def open_read_run(profiled: bool):
        system = standard_system(seed=11)
        if profiled:
            system.domain.enable_profiler()
        codes = []

        def client(session):
            yield from files.write_file(session, "[home]a.txt", b"a" * 300)
            yield from files.write_file(session, "[home]b.txt", b"b" * 1500)
            for name in ("[home]a.txt", "b.txt", "[home]missing.txt",
                         "[nowhere]x", "[home]b.txt", "[storage]x"):
                try:
                    data = yield from files.read_file(session, name)
                except NameError_ as err:
                    codes.append(err.code)
                else:
                    codes.append((ReplyCode.OK, len(data)))

        system.run_client(client(system.session()))
        domain = system.domain
        return codes, domain.engine.events_processed, domain.now

    def test_profiled_run_matches_the_bare_run(self):
        bare = self.open_read_run(profiled=False)
        assert self.open_read_run(profiled=True) == bare
        codes = bare[0]
        assert codes[0] == (ReplyCode.OK, 300)
        assert codes[1] == (ReplyCode.OK, 1500)
        assert codes[2:4] == [ReplyCode.NOT_FOUND, ReplyCode.NOT_FOUND]


class TestMetricsAccounting:
    def test_transaction_counters(self, domain):
        host = domain.create_host("h")
        host.spawn(registered_server()(), "server")

        def client():
            pid = yield from wait_for()
            for __ in range(5):
                yield Send(pid, Message.request(1))

        run_on(domain, host, client())
        assert domain.metrics.count("ipc.sends") == 5
        assert domain.metrics.count("ipc.replies") == 5
        assert domain.metrics.count("ipc.transactions") == 5

    def test_network_byte_accounting_matches_frames(self, two_hosts):
        domain, alpha, beta = two_hosts
        beta.spawn(registered_server()(), "server")

        def client():
            pid = yield from wait_for()
            yield Send(pid, Message.request(1, segment=b"x" * 100))

        run_on(domain, alpha, client())
        # At least: query broadcast + response + request + reply frames.
        assert domain.metrics.count("net.frames") >= 4
        assert domain.metrics.count("net.bytes") >= 32 * 4 + 100
