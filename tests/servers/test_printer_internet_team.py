"""Tests for the printer spooler, internet server, and team server."""

import pytest

from repro.core.context import ContextPair
from repro.core.descriptors import (
    PrintJobDescription,
    ProcessDescription,
    TcpConnectionDescription,
)
from repro.core.resolver import NameError_
from repro.kernel.ipc import Delay, GetPid, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.services import Scope, ServiceId
from repro.runtime.program import kill_program, run_program
from repro.servers import InternetServer, PrinterServer, TeamServer, start_server
from repro.servers.pipeserver import pipe_write  # block-write helper
from tests.helpers import standard_system


def system_with(server):
    system = standard_system()
    host = system.domain.create_host("extra")
    handle = start_server(host, server)
    return system, handle


class TestPrinterServer:
    def test_submit_job_and_watch_it_print(self):
        system, handle = system_with(PrinterServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            spool = yield from session.open("[lp]thesis", "w")
            yield from spool.write(b"P" * 5000)  # ~3 pages
            yield from spool.close()             # queues + prints
            record = yield from session.query("[lp]thesis")
            reply = yield Send(pid, Message.request(RequestCode.PRINT_STATUS))
            return record, reply

        record, status = system.run_client(client(system.session()))
        assert isinstance(record, PrintJobDescription)
        assert record.state == "done"
        assert record.pages == 3
        assert status["pages_printed"] == 3

    def test_duplicate_job_name_rejected(self):
        system, handle = system_with(PrinterServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            spool = yield from session.open("[lp]dup", "w")
            yield from spool.close()
            try:
                yield from session.open("[lp]dup", "w")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NAME_EXISTS

    def test_cancel_job_via_modify(self):
        """Sec. 5.5 modification on a non-file object."""
        system, handle = system_with(PrinterServer())
        printer = handle.server

        # Pre-queue a job directly so it is still cancellable.
        from repro.servers.printerserver import PrintJob

        job = PrintJob(name=b"stuck", owner="mann")
        job.data.extend(b"x" * 100)
        job.state = "queued"
        printer.objects[b"stuck"] = job

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            record = yield from session.query("[lp]stuck")
            record.state = "cancelled"
            yield from session.modify("[lp]stuck", record)
            return (yield from session.query("[lp]stuck"))

        assert system.run_client(client(system.session())).state == "cancelled"

    def test_queue_directory_lists_jobs(self):
        system, handle = system_with(PrinterServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.PRINT), Scope.ANY)
            yield from session.add_prefix("lp", ContextPair(pid, 0))
            for name in ("a", "b"):
                spool = yield from session.open(f"[lp]{name}", "w")
                yield from spool.write(b"x")
                yield from spool.close()
            return (yield from session.list_directory("[lp]"))

        records = system.run_client(client(system.session()))
        assert [r.name for r in records] == ["a", "b"]


class TestInternetServer:
    def test_connect_write_read_echo(self):
        system, handle = system_with(InternetServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.INTERNET), Scope.ANY)
            reply = yield Send(pid, Message.request(
                RequestCode.TCP_CONNECT, host="su-score.arpa", port=25))
            name = reply["connection"]
            yield from session.add_prefix("tcp0", ContextPair(pid, 0))
            stream = yield from session.open(f"[tcp0]{name}", "r")
            from repro.vio.client import read_block, write_block

            yield from write_block(stream.server, stream.instance, 0,
                                   b"HELO stanford")
            code, data = yield from read_block(stream.server, stream.instance, 0)
            return name, code, data

        name, code, data = system.run_client(client(system.session()))
        assert name == "tcp-1"
        assert code is ReplyCode.OK
        assert data == b"HELO stanford"  # echo endpoint

    def test_connections_listed_with_endpoints(self):
        system, handle = system_with(InternetServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.INTERNET), Scope.ANY)
            yield Send(pid, Message.request(RequestCode.TCP_CONNECT,
                                            host="mit-ai", port=23))
            yield from session.add_prefix("tcp0", ContextPair(pid, 0))
            return (yield from session.list_directory("[tcp0]"))

        records = system.run_client(client(system.session()))
        assert len(records) == 1
        record = records[0]
        assert isinstance(record, TcpConnectionDescription)
        assert record.remote_host == "mit-ai"
        assert record.state == "established"

    def test_disconnect_removes_the_object(self):
        system, handle = system_with(InternetServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.INTERNET), Scope.ANY)
            reply = yield Send(pid, Message.request(
                RequestCode.TCP_CONNECT, host="x", port=1))
            yield Send(pid, Message.request(RequestCode.TCP_DISCONNECT,
                                            connection=reply["connection"]))
            yield from session.add_prefix("tcp0", ContextPair(pid, 0))
            try:
                yield from session.query(f"[tcp0]{reply['connection']}")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND

    def test_byte_counters_track_traffic(self):
        system, handle = system_with(InternetServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.INTERNET), Scope.ANY)
            reply = yield Send(pid, Message.request(
                RequestCode.TCP_CONNECT, host="x", port=1))
            name = reply["connection"]
            yield from session.add_prefix("tcp0", ContextPair(pid, 0))
            stream = yield from session.open(f"[tcp0]{name}", "r")
            from repro.vio.client import write_block

            yield from write_block(stream.server, stream.instance, 0, b"12345")
            return (yield from session.query(f"[tcp0]{name}"))

        record = system.run_client(client(system.session()))
        assert record.bytes_out == 5
        assert record.bytes_in == 5  # echoed


class TestTeamServer:
    def test_run_program_and_list_it(self):
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            name, prog_pid = yield from run_program(pid, "edit", duration=60.0)
            records = yield from session.list_directory("[team]")
            return name, prog_pid, records

        name, prog_pid, records = system.run_client(client(system.session()))
        assert name == "edit.1"
        assert len(records) == 1
        assert isinstance(records[0], ProcessDescription)
        assert records[0].pid_value == prog_pid.value
        assert records[0].state == "running"

    def test_uniform_delete_kills_a_program(self):
        """Delete(object_name) on a program in execution (Sec. 1)."""
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            name, __ = yield from run_program(pid, "runaway", duration=3600.0)
            yield from session.remove(f"[team]{name}")
            return (yield from session.list_directory("[team]"))

        assert system.run_client(client(system.session())) == []

    def test_kill_program_low_level(self):
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            name, __ = yield from run_program(pid, "spin", duration=3600.0)
            yield from kill_program(pid, name)
            return (yield from session.list_directory("[team]"))

        assert system.run_client(client(system.session())) == []

    def test_query_program_by_name(self):
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            name, __ = yield from run_program(pid, "cc", duration=10.0)
            return (yield from session.query(f"[team]{name}"))

        record = system.run_client(client(system.session()))
        assert record.program == "cc"

    def test_modify_changes_priority_only(self):
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            name, __ = yield from run_program(pid, "nice", duration=10.0)
            record = yield from session.query(f"[team]{name}")
            record.priority = 15
            record.state = "cheating"  # not mutable
            yield from session.modify(f"[team]{name}", record)
            return (yield from session.query(f"[team]{name}"))

        record = system.run_client(client(system.session()))
        assert record.priority == 15
        assert record.state == "running"

    def test_program_names_are_unique_per_invocation(self):
        system, handle = system_with(TeamServer())

        def client(session):
            yield Delay(0.01)
            pid = yield GetPid(int(ServiceId.TEAM), Scope.ANY)
            first, __ = yield from run_program(pid, "edit", duration=5.0)
            second, __ = yield from run_program(pid, "edit", duration=5.0)
            return first, second

        first, second = system.run_client(client(system.session()))
        assert first != second
