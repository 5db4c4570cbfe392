"""Behavioural tests for the V file server through the full protocol stack."""

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.descriptors import (
    ContextDescription,
    FileDescription,
    PrefixDescription,
)
from repro.core.protocol import make_csname_request
from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.ipc import Send
from repro.kernel.messages import ReplyCode, RequestCode
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from tests.helpers import run_on, standard_system


class TestFileOperations:
    def test_write_then_read_roundtrip(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "doc.txt", b"hello world")
            return (yield from files.read_file(session, "doc.txt"))

        assert system.run_client(client(system.session())) == b"hello world"

    def test_multiblock_file_roundtrip(self):
        system = standard_system()
        payload = bytes(range(256)) * 9  # 2304 bytes, several 512B blocks

        def client(session):
            yield from files.write_file(session, "big.bin", payload)
            return (yield from files.read_file(session, "big.bin"))

        assert system.run_client(client(system.session())) == payload

    def test_open_missing_file_not_found(self):
        system = standard_system()

        def client(session):
            try:
                yield from files.read_file(session, "ghost.txt")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND

    def test_write_mode_truncates(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "t.txt", b"long content here")
            yield from files.write_file(session, "t.txt", b"short")
            return (yield from files.read_file(session, "t.txt"))

        assert system.run_client(client(system.session())) == b"short"

    def test_append_mode_appends(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "log.txt", b"one ")
            yield from files.append_file(session, "log.txt", b"two")
            return (yield from files.read_file(session, "log.txt"))

        assert system.run_client(client(system.session())) == b"one two"

    def test_open_directory_as_file_is_mode_error(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("adir")
            try:
                yield from session.open("adir", "r")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.MODE_ERROR

    def test_read_mode_on_stream_is_enforced(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "ro.txt", b"data")
            stream = yield from session.open("ro.txt", "r")
            from repro.vio.client import write_block

            code, __ = yield from write_block(stream.server, stream.instance,
                                              0, b"nope")
            yield from stream.close()
            return code

        assert system.run_client(
            client(system.session())) is ReplyCode.MODE_ERROR

    def test_remove_file(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "dead.txt", b"x")
            yield from session.remove("dead.txt")
            try:
                yield from files.read_file(session, "dead.txt")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND

    def test_rename_file(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "old.txt", b"content")
            yield from session.rename("old.txt", b"new.txt")
            return (yield from files.read_file(session, "new.txt"))

        assert system.run_client(client(system.session())) == b"content"

    def test_create_without_open(self):
        system = standard_system()

        def client(session):
            yield from session.create("empty.txt")
            record = yield from session.query("empty.txt")
            return record

        record = system.run_client(client(system.session()))
        assert isinstance(record, FileDescription)
        assert record.size_bytes == 0


class TestContexts:
    def test_mkdir_and_nested_paths(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("src")
            yield from session.mkdir("src/core")
            yield from files.write_file(session, "src/core/m.py", b"code")
            return (yield from files.read_file(session, "src/core/m.py"))

        assert system.run_client(client(system.session())) == b"code"

    def test_rmdir_requires_empty(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("full")
            yield from files.write_file(session, "full/f", b"x")
            try:
                yield from session.rmdir("full")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.CONTEXT_NOT_EMPTY

    def test_chdir_changes_interpretation(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("project")
            yield from files.write_file(session, "project/notes.txt", b"notes")
            yield from session.chdir("project")
            return (yield from files.read_file(session, "notes.txt"))

        assert system.run_client(client(system.session())) == b"notes"

    def test_same_name_different_contexts(self):
        """The paper's 'naming.mss' example (Sec. 5.2)."""
        system = standard_system()

        def client(session):
            for directory, content in (("ng/mann", b"mann's draft"),
                                       ("ng/cheriton", b"dc's draft")):
                yield from session.mkdir(directory.split("/")[0]) \
                    if directory == "ng/mann" else iter(())
                yield from session.mkdir(directory)
                yield from files.write_file(
                    session, f"{directory}/naming.mss", content)
            a = yield from files.read_file(session, "ng/mann/naming.mss")
            yield from session.chdir("ng/cheriton")
            b = yield from files.read_file(session, "naming.mss")
            return a, b

        a, b = system.run_client(client(system.session()))
        assert a == b"mann's draft" and b == b"dc's draft"

    def test_name_to_context_returns_usable_pair(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("ctx")
            pair = yield from session.name_to_context("ctx")
            return pair

        pair = system.run_client(client(system.session()))
        assert pair.server == system.fileserver.pid
        assert pair.context_id != int(WellKnownContext.HOME)

    def test_dot_dot_navigation(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("a")
            yield from files.write_file(session, "sibling.txt", b"s")
            yield from session.chdir("a")
            return (yield from files.read_file(session, "../sibling.txt"))

        assert system.run_client(client(system.session())) == b"s"


class TestDescriptions:
    def test_query_file_returns_typed_record(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "q.txt", b"12345")
            return (yield from session.query("q.txt"))

        record = system.run_client(client(system.session()))
        assert isinstance(record, FileDescription)
        assert record.name == "q.txt"
        assert record.size_bytes == 5
        assert record.owner == "mann"

    def test_query_directory_returns_context_record(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("d")
            yield from files.write_file(session, "d/f", b"x")
            return (yield from session.query("d"))

        record = system.run_client(client(system.session()))
        assert isinstance(record, ContextDescription)
        assert record.entry_count == 1

    def test_modify_applies_only_mutable_fields(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "m.txt", b"hello")
            record = yield from session.query("m.txt")
            record.owner = "cheriton"
            record.access = 0o600
            record.size_bytes = 9999  # immutable: must be ignored
            yield from session.modify("m.txt", record)
            return (yield from session.query("m.txt"))

        updated = system.run_client(client(system.session()))
        assert updated.owner == "cheriton"
        assert updated.access == 0o600
        assert updated.size_bytes == 5

    def test_list_directory_fabricates_records(self):
        system = standard_system()

        def client(session):
            yield from session.mkdir("listed")
            yield from files.write_file(session, "listed/a.txt", b"a")
            yield from files.write_file(session, "listed/b.txt", b"bb")
            yield from session.mkdir("listed/sub")
            return (yield from session.list_directory("listed"))

        records = system.run_client(client(system.session()))
        assert [r.name for r in records] == ["a.txt", "b.txt", "sub"]
        assert isinstance(records[0], FileDescription)
        assert isinstance(records[2], ContextDescription)
        assert records[1].size_bytes == 2

    def test_writing_directory_record_modifies_object(self):
        """Sec. 5.6: writing a record == the modification operation."""
        system = standard_system()

        def client(session):
            yield from session.mkdir("dw")
            yield from files.write_file(session, "dw/t.txt", b"x")
            reply = yield from session.csname_request(
                0x0308, "dw")  # OPEN_DIRECTORY
            from repro.kernel.pids import Pid
            from repro.vio.client import write_block, release_instance

            server = Pid(int(reply["server_pid"]))
            instance = int(reply["instance"])
            record = FileDescription(name="t.txt", owner="newowner")
            code, __ = yield from write_block(server, instance, 0,
                                              record.encode())
            yield from release_instance(server, instance)
            updated = yield from session.query("dw/t.txt")
            return code, updated.owner

        code, owner = system.run_client(client(system.session()))
        assert code is ReplyCode.OK
        assert owner == "newowner"


class TestCrossServerForwarding:
    def build_two_servers(self):
        domain = Domain()
        ws = setup_workstation(domain, "mann")
        host_a = domain.create_host("vax1")
        host_b = domain.create_host("vax2")
        fs_a = start_server(host_a, VFileServer(user="mann"))
        fs_b = start_server(host_b, VFileServer(user="mann"))
        standard_prefixes(ws, fs_a)
        return domain, ws, fs_a, fs_b

    def test_remote_link_forwards_transparently(self):
        domain, ws, fs_a, fs_b = self.build_two_servers()
        # fs_a:/users/mann/other -> fs_b home directory
        fs_a.server.store.link_remote(
            fs_a.server.home, b"other",
            ContextPair(fs_b.pid, int(WellKnownContext.HOME)))

        def client(session):
            yield from files.write_file(session, "other/x.txt", b"via-link")
            return (yield from files.read_file(session, "other/x.txt"))

        result = run_on(domain, ws.host, client(ws.session()))
        assert result == b"via-link"
        node = fs_b.server.store.resolve_path("users/mann/x.txt")
        assert node is not None and bytes(node.data) == b"via-link"
        assert domain.metrics.count("ipc.forwards") > 0

    def test_add_remote_link_by_message(self):
        domain, ws, fs_a, fs_b = self.build_two_servers()

        def client(session):
            pair_b = ContextPair(fs_b.pid, int(WellKnownContext.PUBLIC))
            from repro.kernel.messages import RequestCode

            reply = yield from session.csname_request(
                RequestCode.ADD_CONTEXT_NAME, "shared",
                target_pid=pair_b.server.value,
                target_context=pair_b.context_id)
            assert reply.ok, reply
            yield from files.write_file(session, "shared/pub.txt", b"pub")
            return (yield from files.read_file(session, "shared/pub.txt"))

        assert run_on(domain, ws.host, client(ws.session())) == b"pub"
        assert fs_b.server.store.resolve_path("public/pub.txt") is not None

    def test_link_appears_in_directory_listing(self):
        domain, ws, fs_a, fs_b = self.build_two_servers()
        fs_a.server.store.link_remote(
            fs_a.server.home, b"other",
            ContextPair(fs_b.pid, int(WellKnownContext.HOME)))

        def client(session):
            return (yield from session.list_directory("."))

        records = run_on(domain, ws.host, client(ws.session()))
        links = [r for r in records if isinstance(r, PrefixDescription)]
        assert len(links) == 1
        assert links[0].name == "other"
        assert links[0].server_pid == fs_b.pid.value

    def test_cross_server_rename_not_supported(self):
        domain, ws, fs_a, fs_b = self.build_two_servers()
        fs_a.server.store.link_remote(
            fs_a.server.home, b"other",
            ContextPair(fs_b.pid, int(WellKnownContext.HOME)))

        def client(session):
            yield from files.write_file(session, "here.txt", b"x")
            try:
                yield from session.rename("here.txt", b"other/there.txt")
            except NameError_ as err:
                return err.code

        assert run_on(domain, ws.host,
                      client(ws.session())) is ReplyCode.NOT_SUPPORTED

    def test_forwarded_not_found_reported_to_client(self):
        """The Sec. 6 'deficiency': errors deep in a forwarding chain."""
        domain, ws, fs_a, fs_b = self.build_two_servers()
        fs_a.server.store.link_remote(
            fs_a.server.home, b"other",
            ContextPair(fs_b.pid, int(WellKnownContext.HOME)))

        def client(session):
            try:
                yield from files.read_file(session, "other/ghost.txt")
            except NameError_ as err:
                return err.code

        assert run_on(domain, ws.host,
                      client(ws.session())) is ReplyCode.NOT_FOUND


class TestInverseMapping:
    def test_instance_to_name(self):
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "inv.txt", b"x")
            stream = yield from session.open("inv.txt", "r")
            from repro.core.inverse import instance_to_name

            name = yield from instance_to_name(stream.server, stream.instance)
            yield from stream.close()
            return name

        assert system.run_client(
            client(system.session())) == b"users/mann/inv.txt"

    def test_deleted_open_file_has_no_inverse(self):
        """Sec. 6: 'no guarantee that there is an inverse mapping'."""
        system = standard_system()

        def client(session):
            yield from files.write_file(session, "doomed.txt", b"x")
            stream = yield from session.open("doomed.txt", "r")
            yield from session.remove("doomed.txt")
            from repro.core.inverse import instance_to_name

            return (yield from instance_to_name(stream.server,
                                                stream.instance))

        assert system.run_client(client(system.session())) is None

    def test_context_to_name_of_current_context(self):
        system = standard_system()

        def client(session):
            from repro.core.inverse import context_to_name

            return (yield from context_to_name(session.current.server,
                                               session.current.context_id))

        assert system.run_client(client(system.session())) == b"users/mann"


class TestMalformedCSnameHeader:
    """A request whose standard header is not well-formed is refused with
    BAD_ARGS, and the server keeps serving (the wire codec carries ``None``
    and floats, so one stray datagram can carry any of these)."""

    @pytest.mark.parametrize("patch", [
        {"context_id": None}, {"name_length": None}, {"name_index": None},
        {"context_id": True}, {"name_index": 2.5}, {"name_length": "7"},
        {"name_index": -3}, {"name_index": 99}, {"name_length": 99},
        {"name_length": -1}, {"name_index": 5, "name_length": 4},
    ])
    def test_bad_header_gets_bad_args_and_the_server_stays_up(self, patch):
        system = standard_system()
        home = int(WellKnownContext.HOME)

        def client(session):
            yield from files.write_file(session, "doc.txt", b"body")
            bad = make_csname_request(RequestCode.OPEN_FILE,
                                      "users/mann/doc.txt", home, mode="r")
            bad.fields.update(patch)
            refused = yield Send(system.fileserver.pid, bad)
            data = yield from files.read_file(session, "doc.txt")
            return refused.reply_code, data

        assert system.run_client(client(system.session())) == (
            ReplyCode.BAD_ARGS, b"body")
