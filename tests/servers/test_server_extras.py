"""Additional server behaviours: dismissal, directory-write modification,
pipe draining, instance-table hygiene."""

import pytest

from repro.core.context import ContextPair
from repro.core.descriptors import PrintJobDescription
from repro.kernel.ipc import Delay, GetPid, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId
from repro.servers import ExceptionServer, PipeServer, PrinterServer, start_server
from repro.servers.pipeserver import drain_pipe, pipe_write
from repro.vio.client import release_instance, write_block
from tests.helpers import standard_system


def system_with(server):
    system = standard_system()
    handle = start_server(system.domain.create_host("extra"), server)
    return system, handle


class TestExceptionDismissal:
    def test_dismiss_incident_by_uniform_delete(self):
        system, handle = system_with(ExceptionServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.EXCEPTION), Scope.ANY)
            reply = yield Send(pid, Message.request(
                RequestCode.RAISE_EXCEPTION, exc_code="page-fault"))
            name = reply["incident"]
            yield from session.add_prefix("exc", ContextPair(pid, 0))
            yield from session.remove(f"[exc]{name}")
            return (yield from session.list_directory("[exc]"))

        assert system.run_client(client(system.session())) == []

    def test_dismiss_unknown_incident(self):
        system, handle = system_with(ExceptionServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.EXCEPTION), Scope.ANY)
            yield from session.add_prefix("exc", ContextPair(pid, 0))
            from repro.core.resolver import NameError_

            try:
                yield from session.remove("[exc]exc-99")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND


class TestPrinterDirectoryWrites:
    def test_cancel_via_directory_record_write(self):
        """Sec. 5.6: writing a record into the queue directory == modify."""
        system, handle = system_with(PrinterServer())
        from repro.servers.printerserver import PrintJob

        job = PrintJob(name=b"stuck", owner="op")
        job.data.extend(b"x" * 4096)
        job.state = "queued"
        handle.server.objects[b"stuck"] = job

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            reply = yield from session.csname_request(
                RequestCode.OPEN_DIRECTORY, "[lp]")
            server = Pid(int(reply["server_pid"]))
            instance = int(reply["instance"])
            record = PrintJobDescription(name="stuck", state="cancelled")
            code, __ = yield from write_block(server, instance, 0,
                                              record.encode())
            yield from release_instance(server, instance)
            final = yield from session.query("[lp]stuck")
            return code, final.state

        code, state = system.run_client(client(system.session()))
        assert code is ReplyCode.OK
        assert state == "cancelled"

    def test_record_write_for_unknown_job(self):
        system, handle = system_with(PrinterServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            reply = yield from session.csname_request(
                RequestCode.OPEN_DIRECTORY, "[lp]")
            server = Pid(int(reply["server_pid"]))
            instance = int(reply["instance"])
            record = PrintJobDescription(name="ghost", state="cancelled")
            code, __ = yield from write_block(server, instance, 0,
                                              record.encode())
            yield from release_instance(server, instance)
            return code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND


class TestPipeDraining:
    def test_drain_pipe_collects_everything_to_eof(self):
        system, handle = system_with(PipeServer())
        payload = bytes(range(256)) * 8

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PIPE), Scope.ANY)
            yield from session.add_prefix("pipe", ContextPair(pid, 0))
            writer = yield from session.open("[pipe]d", "w")
            reader = yield from session.open("[pipe]d", "r")
            yield from pipe_write(writer, payload)
            yield from writer.close()
            data = yield from drain_pipe(reader)
            yield from reader.close()
            return data

        assert system.run_client(client(system.session())) == payload

    def test_interleaved_producer_consumer(self):
        system, handle = system_with(PipeServer())
        chunks = [f"chunk-{i};".encode() for i in range(20)]

        def producer(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PIPE), Scope.ANY)
            yield from session.add_prefix("pipe", ContextPair(pid, 0))
            writer = yield from session.open("[pipe]feed", "w")
            for chunk in chunks:
                yield from pipe_write(writer, chunk)
                yield Delay(0.002)
            yield from writer.close()

        def consumer(session):
            yield Delay(0.05)  # after the pipe exists
            pid = yield GetPid(int(ServiceId.PIPE), Scope.ANY)
            yield from session.add_prefix("pipe2", ContextPair(pid, 0))
            reader = yield from session.open("[pipe2]feed", "r")
            data = yield from drain_pipe(reader)
            return data

        from tests.helpers import run_on

        system.workstation.host.spawn(
            producer(system.session()), "producer")
        result = run_on(system.domain, system.workstation.host,
                        consumer(system.session()), name="consumer")
        assert result == b"".join(chunks)


class TestInstanceHygiene:
    def test_instances_released_on_close_do_not_accumulate(self):
        system = standard_system()

        def client(session):
            from repro.runtime import files

            yield from files.write_file(session, "f.txt", b"x")
            for __ in range(25):
                stream = yield from session.open("f.txt", "r")
                yield from stream.close()
            return len(system.fs.instances)

        assert system.run_client(client(system.session())) == 0

    def test_directory_instances_released_too(self):
        system = standard_system()

        def client(session):
            for __ in range(10):
                yield from session.list_directory(".")
            return len(system.fs.instances)

        assert system.run_client(client(system.session())) == 0
