"""Unit + property tests for structured pids (paper Sec. 4.1, Figure 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.domain import Domain
from repro.kernel.pids import (
    LOCAL_ID_MAX,
    LOGICAL_HOST_MAX,
    LOGICAL_SERVICE_HOST,
    NULL_PID,
    Pid,
    PidAllocator,
    logical_service_pid,
)


class TestPidStructure:
    def test_subfields_roundtrip(self):
        pid = Pid.make(7, 300)
        assert pid.logical_host == 7
        assert pid.local_id == 300

    def test_value_packing_matches_figure_2(self):
        # logical host in the high 16 bits, local id in the low 16.
        pid = Pid.make(0x0102, 0x0304)
        assert pid.value == 0x01020304

    def test_locality_test_is_a_field_comparison(self):
        pid = Pid.make(3, 9)
        assert pid.is_local_to(3)
        assert not pid.is_local_to(4)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ValueError):
            Pid.make(LOGICAL_HOST_MAX + 1, 1)
        with pytest.raises(ValueError):
            Pid.make(1, LOCAL_ID_MAX + 1)
        with pytest.raises(ValueError):
            Pid(-1)
        with pytest.raises(ValueError):
            Pid(1 << 32)

    def test_logical_service_pids(self):
        pid = logical_service_pid(4)
        assert pid.is_logical_service
        assert pid.local_id == 4
        assert not Pid.make(3, 4).is_logical_service

    def test_null_pid(self):
        assert NULL_PID.value == 0
        assert not NULL_PID.is_logical_service

    def test_ordering_and_hashing(self):
        a, b = Pid.make(1, 2), Pid.make(1, 3)
        assert a < b
        assert len({a, b, Pid.make(1, 2)}) == 2

    @given(st.integers(0, LOGICAL_HOST_MAX), st.integers(0, LOCAL_ID_MAX))
    def test_pack_unpack_roundtrip_property(self, host, local):
        pid = Pid.make(host, local)
        assert (pid.logical_host, pid.local_id) == (host, local)
        assert Pid(pid.value) == pid


class TestPidAllocator:
    def test_allocations_are_unique_while_live(self):
        allocator = PidAllocator(5)
        pids = [allocator.allocate() for __ in range(500)]
        assert len(set(pids)) == 500
        assert all(p.logical_host == 5 for p in pids)

    def test_never_allocates_null_local_id(self):
        allocator = PidAllocator(1, start=LOCAL_ID_MAX)  # forces wrap past 0
        pids = [allocator.allocate() for __ in range(3)]
        assert all(p.local_id != 0 for p in pids)

    def test_released_id_not_reused_until_wrap(self):
        allocator = PidAllocator(1, start=1)
        first = allocator.allocate()
        allocator.release(first)
        soon = [allocator.allocate() for __ in range(100)]
        assert first not in soon  # time-before-reuse maximized

    def test_release_of_foreign_pid_rejected(self):
        allocator = PidAllocator(1)
        with pytest.raises(ValueError):
            allocator.release(Pid.make(2, 10))

    def test_reserved_service_host_rejected(self):
        with pytest.raises(ValueError):
            PidAllocator(LOGICAL_SERVICE_HOST)

    def test_live_count_tracks(self):
        allocator = PidAllocator(1)
        a = allocator.allocate()
        allocator.allocate()
        assert allocator.live_count == 2
        allocator.release(a)
        assert allocator.live_count == 1

    def test_exhaustion_detected(self):
        allocator = PidAllocator(1)
        allocator._live = set(range(LOCAL_ID_MAX))  # simulate a full table
        with pytest.raises(RuntimeError, match="exhausted"):
            allocator.allocate()


class TestHostPidStart:
    """Each host's allocator starts at a seeded draw that keeps no stream."""

    #: (seed, logical host) -> the start drawn from the kept "pids.<host>"
    #: stream before the draw stopped keeping it; pids must not move.
    PINNED = {(0, 1): 16998, (0, 2): 9020, (0, 100): 47643, (0, 200): 57033,
              (7, 1): 36251, (7, 2): 1135, (7, 100): 12745, (7, 200): 16224}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_start_is_pinned_and_no_pid_stream_is_kept(self, seed):
        domain = Domain(seed=seed)
        hosts = {host.host_id: host for host in domain.create_hosts(200)}
        for (pinned_seed, host_id), start in self.PINNED.items():
            if pinned_seed == seed:
                assert hosts[host_id].allocator._next == start
        assert not [name for name in domain.rng._streams
                    if name.startswith("pids.")]
