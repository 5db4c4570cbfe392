"""Tests for the centralized name-server baseline (paper Sec. 2.1-2.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.baseline import (
    BaselineClient,
    CentralNameServer,
    UidAllocator,
    UidObjectServer,
    audit,
)
from repro.baseline.client import BaselineError, ClientCrashed, CrashPoint
from repro.baseline.uids import ALLOCATOR_MAX, allocator_of, sequence_of
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.kernel.messages import ReplyCode
from repro.servers.base import start_server
from tests.helpers import run_on


class TestUids:
    def test_uids_unique_within_allocator(self):
        allocator = UidAllocator(7)
        uids = [allocator.allocate() for __ in range(1000)]
        assert len(set(uids)) == 1000

    def test_uids_unique_across_allocators(self):
        a, b = UidAllocator(1), UidAllocator(2)
        assert not {a.allocate() for __ in range(100)} & {
            b.allocate() for __ in range(100)}

    def test_structure_roundtrip(self):
        allocator = UidAllocator(5)
        uid = allocator.allocate()
        assert allocator_of(uid) == 5
        assert sequence_of(uid) == 0

    def test_allocator_id_range_checked(self):
        with pytest.raises(ValueError):
            UidAllocator(ALLOCATOR_MAX + 1)

    @given(st.integers(0, ALLOCATOR_MAX), st.integers(0, 10_000))
    def test_structure_property(self, allocator_id, steps):
        allocator = UidAllocator(allocator_id)
        allocator._sequence = steps
        uid = allocator.allocate()
        assert allocator_of(uid) == allocator_id
        assert sequence_of(uid) == steps


def baseline_system(object_server_count=2):
    """A domain with a client host, the name server, and object servers."""
    domain = Domain()
    client_host = domain.create_host("ws")
    ns_host = domain.create_host("ns")
    ns = CentralNameServer()
    ns_handle = start_server(ns_host, ns)
    object_servers = []
    handles = []
    for index in range(object_server_count):
        host = domain.create_host(f"obj{index}")
        server = UidObjectServer(allocator_id=index + 1)
        handles.append(start_server(host, server))
        object_servers.append(server)
    return domain, client_host, ns, ns_handle, object_servers, handles


class TestNameServerProtocol:
    def test_create_then_open_by_name(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def client():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("data/a.txt", handles[0].pid, data=b"abc")
            stream = yield from lib.open("data/a.txt")
            from repro.vio.client import read_block

            code, data = yield from read_block(stream.server, stream.instance, 0)
            return code, data, lib.name_server_transactions

        code, data, transactions = run_on(domain, ws, client())
        assert code is ReplyCode.OK and data == b"abc"
        assert transactions == 2  # one register, one lookup

    def test_lookup_missing_name_fails(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def client():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            try:
                yield from lib.lookup("ghost")
            except BaselineError as err:
                return err.code

        assert run_on(domain, ws, client()) is ReplyCode.NOT_FOUND

    def test_duplicate_registration_rejected(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def client():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("dup", handles[0].pid)
            try:
                yield from lib.create("dup", handles[1].pid)
            except BaselineError as err:
                return err.code

        assert run_on(domain, ws, client()) is ReplyCode.NAME_EXISTS

    def test_clean_delete_is_consistent(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def client():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("tmp/x", handles[0].pid)
            yield from lib.delete("tmp/x")

        run_on(domain, ws, client())
        report = audit(ns, servers)
        assert report.consistent
        assert report.bindings == 0 and report.objects == 0


class TestClientCache:
    def test_cache_avoids_repeat_lookups(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def client():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid, cache_enabled=True)
            yield from lib.create("hot", handles[0].pid, data=b"x")
            for __ in range(5):
                stream = yield from lib.open("hot")
            return lib.name_server_transactions, lib.cache_hits

        transactions, hits = run_on(domain, ws, client())
        assert transactions == 2  # register + first lookup only
        assert hits == 4

    def test_stale_cache_is_the_papers_inconsistency(self):
        """Sec. 2.2: 'Caching the name in the client would introduce
        inconsistency problems.'"""
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def deleter():
            yield Delay(0.02)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("victim", handles[0].pid)
            # another, cache-less path deletes it properly:
            yield from lib.delete("victim")

        def cached_client():
            lib = BaselineClient(ns_handle.pid, cache_enabled=True)
            yield Delay(0.01)
            yield from lib.create("decoy", handles[0].pid)
            yield Delay(0.05)
            # warm the cache while the name exists:
            try:
                yield from lib.lookup("victim")
            except BaselineError:
                return "missed"
            return lib

        # Interleave: create+cache, then delete elsewhere, then reuse cache.
        def scenario():
            lib = BaselineClient(ns_handle.pid, cache_enabled=True)
            yield Delay(0.01)
            yield from lib.create("victim", handles[0].pid)
            yield from lib.lookup("victim")          # cached
            clean = BaselineClient(ns_handle.pid)
            yield from clean.delete("victim")        # object + binding gone
            try:
                yield from lib.open("victim")        # stale cache entry
            except BaselineError as err:
                return err.code

        assert run_on(domain, ws, scenario()) is ReplyCode.INCONSISTENT


class TestCrashWindows:
    def test_crash_after_object_delete_leaves_dangling_name(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def scenario():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("frag/x", handles[0].pid)
            try:
                yield from lib.delete("frag/x",
                                      crash_at=CrashPoint.AFTER_OBJECT_DELETE)
            except ClientCrashed:
                return "crashed"

        assert run_on(domain, ws, scenario()) == "crashed"
        report = audit(ns, servers)
        assert report.dangling_names == [b"frag/x"]
        assert not report.consistent

    def test_crash_after_create_leaves_orphan_object(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def scenario():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            try:
                yield from lib.create("orphan", handles[0].pid,
                                      crash_at=CrashPoint.AFTER_OBJECT_CREATE)
            except ClientCrashed:
                return "crashed"

        assert run_on(domain, ws, scenario()) == "crashed"
        report = audit(ns, servers)
        assert len(report.orphan_objects) == 1
        assert report.dangling_names == []

    def test_dangling_name_poisons_later_use(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def scenario():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            yield from lib.create("p", handles[0].pid)
            try:
                yield from lib.delete("p",
                                      crash_at=CrashPoint.AFTER_OBJECT_DELETE)
            except ClientCrashed:
                pass
            other = BaselineClient(ns_handle.pid)
            try:
                yield from other.open("p")
            except BaselineError as err:
                return err.code

        assert run_on(domain, ws, scenario()) is ReplyCode.INCONSISTENT


class TestAudit:
    def test_empty_system_consistent(self):
        ns = CentralNameServer()
        assert audit(ns, []).consistent

    def test_report_counts(self):
        domain, ws, ns, ns_handle, servers, handles = baseline_system()

        def scenario():
            yield Delay(0.01)
            lib = BaselineClient(ns_handle.pid)
            for index in range(4):
                yield from lib.create(f"f{index}",
                                      handles[index % 2].pid)

        run_on(domain, ws, scenario())
        report = audit(ns, servers)
        assert report.bindings == 4
        assert report.objects == 4
        assert report.inconsistency_count == 0
