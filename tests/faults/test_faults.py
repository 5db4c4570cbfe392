"""Tests for crash and partition injection, and the availability claims."""

import pytest

from repro.core.resolver import NameError_
from repro.faults import (
    ChaosSchedule,
    CrashSchedule,
    crash_at,
    heal_partition,
    partition_between,
    restart_at,
)
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now, Send
from repro.kernel.messages import Message, ReplyCode
from repro.net.packet import Frame
from repro.kernel.services import Scope
from repro.runtime import files
from repro.servers import VFileServer, start_server
from tests.helpers import run_on, standard_system


class TestCrashInjection:
    def test_crashed_server_times_out_clients(self):
        system = standard_system()
        crash_at(system.domain, system.fileserver.host, 0.05)

        def client(session):
            yield Delay(0.1)
            try:
                yield from files.read_file(session, "anything.txt")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.TIMEOUT

    def test_restart_without_respawn_leaves_no_service(self):
        system = standard_system()
        host = system.fileserver.host
        crash_at(system.domain, host, 0.05)
        restart_at(system.domain, host, 0.1)

        def client(session):
            yield Delay(0.2)
            reply = yield Send(system.fileserver.pid, Message.request(1))
            return reply.reply_code

        # Machine is back, the old process is not: immediate NACK.
        assert system.run_client(
            client(system.session())) is ReplyCode.NONEXISTENT_PROCESS

    def test_restart_with_respawn_restores_service(self):
        system = standard_system()
        host = system.fileserver.host
        schedule = CrashSchedule(system.domain, host)
        schedule.down_between(
            0.05, 0.1,
            respawn=lambda h: start_server(h, VFileServer(user="mann")))

        def client(session):
            yield Delay(0.2)
            from repro.kernel.services import ServiceId

            pid = yield GetPid(int(ServiceId.STORAGE), Scope.ANY)
            return pid

        pid = system.run_client(client(system.session()))
        assert pid is not None
        assert pid != system.fileserver.pid  # a new process (Sec. 4.2)

    def test_crash_is_idempotent_and_schedule_cancellable(self):
        system = standard_system()
        host = system.fileserver.host
        schedule = CrashSchedule(system.domain, host)
        schedule.down_between(0.05, 0.1)
        schedule.cancel()
        host.crash()
        host.crash()  # no-op
        assert host.crashed
        host.restart()
        host.restart()
        assert not host.crashed

    def test_bad_schedule_rejected(self):
        system = standard_system()
        schedule = CrashSchedule(system.domain, system.fileserver.host)
        with pytest.raises(ValueError):
            schedule.down_between(0.2, 0.1)


class TestPartitions:
    def test_partition_cuts_both_directions(self):
        system = standard_system()
        ws_host = system.workstation.host
        fs_host = system.fileserver.host
        partition_between(system.domain, [ws_host.host_id],
                          [fs_host.host_id])

        def client(session):
            try:
                yield from files.read_file(session, "x")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.TIMEOUT

    def test_heal_restores_connectivity(self):
        system = standard_system()
        ws_host = system.workstation.host
        fs_host = system.fileserver.host
        cut = partition_between(system.domain, [ws_host.host_id],
                                [fs_host.host_id])
        system.domain.engine.schedule(
            0.2, lambda: heal_partition(system.domain, cut))

        def client(session):
            yield Delay(0.5)
            yield from files.write_file(session, "healed.txt", b"ok")
            return (yield from files.read_file(session, "healed.txt"))

        assert system.run_client(client(system.session())) == b"ok"

    def test_overlapping_partition_rejected(self):
        system = standard_system()
        with pytest.raises(ValueError, match="both sides"):
            partition_between(system.domain, [1, 2], [2, 3])

    def test_cuts_compose_and_each_heal_removes_only_its_cut(self):
        domain = Domain()
        ethernet = domain.ethernet
        received = {host_id: [] for host_id in (1, 2, 3)}
        for host_id, frames in received.items():
            ethernet.attach(host_id, frames.append)

        def delivered():
            for src, dst in ((1, 2), (2, 1), (1, 3), (2, 3)):
                ethernet.transmit(Frame(src, dst, "p", 64))
            domain.engine.run()
            pairs = sorted((frame.src_host, dst)
                           for dst, frames in received.items()
                           for frame in frames)
            for frames in received.values():
                frames.clear()
            return pairs

        # A test's own rule, then two overlapping cuts.
        own = ethernet.add_drop_predicate(
            lambda frame, dst: frame.src_host == 2 and dst == 3)
        first = partition_between(domain, [1], [2])
        second = partition_between(domain, [1], [2, 3])
        assert delivered() == []
        heal_partition(domain, first)
        assert delivered() == []
        heal_partition(domain, second)
        assert delivered() == [(1, 2), (1, 3), (2, 1)]
        ethernet.remove_drop_predicate(own)
        assert delivered() == [(1, 2), (1, 3), (2, 1), (2, 3)]

    def test_schedule_heals_only_the_cut_it_made(self):
        domain = Domain()
        received = []
        domain.ethernet.attach(1, received.append)
        domain.ethernet.attach(2, received.append)
        (ChaosSchedule(domain)
         .partition_between(0.1, 0.3, [1], [2])
         .partition_between(0.2, 0.4, [2], [1]))
        for time in (0.05, 0.15, 0.25, 0.35, 0.45):
            domain.engine.schedule_at(time, domain.ethernet.transmit,
                                      Frame(1, 2, time, 64))
        domain.engine.run()
        assert [frame.payload for frame in received] == [0.05, 0.45]

    def test_unaffected_hosts_keep_working(self):
        system = standard_system()
        other_host = system.domain.create_host("bystander")
        fs2 = start_server(other_host, VFileServer(user="mann"))
        partition_between(system.domain, [system.workstation.host.host_id],
                          [system.fileserver.host.host_id])

        from repro.core.context import ContextPair, WellKnownContext

        def client(session):
            lsession = system.workstation.session(
                ContextPair(fs2.pid, int(WellKnownContext.HOME)))
            yield from files.write_file(lsession, "alive.txt", b"y")
            return (yield from files.read_file(lsession, "alive.txt"))

        assert system.run_client(client(system.session())) == b"y"


class TestDistributedNamingUnderFaults:
    def test_names_live_and_die_with_their_objects(self):
        """Sec. 2.2 Reliability: if the object's server is up, its name
        works; no third party can take the name down."""
        domain = Domain()
        from repro.runtime.workstation import setup_workstation, standard_prefixes
        from repro.core.context import ContextPair, WellKnownContext

        ws = setup_workstation(domain, "mann")
        fs_a = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
        fs_b = start_server(domain.create_host("vax2"), VFileServer(user="mann"))
        standard_prefixes(ws, fs_a)
        ws.prefix_server.define_prefix(
            "b", ContextPair(fs_b.pid, int(WellKnownContext.HOME)))

        def setup(session):
            yield from files.write_file(session, "[home]on-a.txt", b"a")
            yield from files.write_file(session, "[b]on-b.txt", b"b")

        run_on(domain, ws.host, setup(ws.session()), name="setup")
        fs_a.host.crash()

        def client(session):
            survived = yield from files.read_file(session, "[b]on-b.txt")
            try:
                yield from files.read_file(session, "[home]on-a.txt")
                lost = None
            except NameError_ as err:
                lost = err.code
            return survived, lost

        survived, lost = run_on(domain, ws.host, client(ws.session()))
        assert survived == b"b"
        assert lost is ReplyCode.TIMEOUT


class TestCrashAfterDetach:
    def test_crash_tolerates_detached_host(self):
        # Regression: a host whose NIC was already detach()ed from the wire
        # used to blow up in crash() trying to set_link() on an unknown host.
        system = standard_system()
        host = system.fileserver.host
        system.domain.ethernet.detach(host.host_id)
        host.crash()  # must not raise
        assert host.crashed

    def test_restart_tolerates_detached_host(self):
        system = standard_system()
        host = system.fileserver.host
        system.domain.ethernet.detach(host.host_id)
        host.crash()
        host.restart()  # must not raise either
        assert not host.crashed


class TestChaosSchedule:
    def test_loss_phase_installs_and_removes_faults(self):
        from repro.faults import ChaosSchedule
        from repro.net.latency import WireFaultModel

        system = standard_system()
        schedule = ChaosSchedule(system.domain)
        schedule.loss_between(0.1, 0.2, WireFaultModel(drop_rate=0.5))
        engine = system.domain.engine
        assert system.domain.ethernet.fault_model is None
        engine.run(until=0.15)
        assert system.domain.ethernet.fault_model.drop_rate == 0.5
        engine.run(until=0.25)
        assert system.domain.ethernet.fault_model is None

    def test_bad_loss_phase_rejected(self):
        from repro.faults import ChaosSchedule
        from repro.net.latency import WireFaultModel

        system = standard_system()
        with pytest.raises(ValueError):
            ChaosSchedule(system.domain).loss_between(
                0.2, 0.1, WireFaultModel(drop_rate=0.5))

    def test_cancel_undoes_everything(self):
        from repro.faults import ChaosSchedule
        from repro.net.latency import WireFaultModel

        system = standard_system()
        schedule = ChaosSchedule(system.domain)
        schedule.loss_between(0.1, 0.2, WireFaultModel(drop_rate=1.0))
        schedule.crash_between(system.fileserver.host, 0.1, 0.2)
        schedule.cancel()
        system.domain.engine.run(until=0.3)
        assert system.domain.ethernet.fault_model is None
        assert not system.fileserver.host.crashed


class TestChaosHarness:
    def test_short_run_meets_invariants_and_succeeds(self):
        from repro.faults import run_chaos

        report = run_chaos(seed=7, duration=2.0, drop=0.10, crash=True)
        assert report.reads > 0
        assert report.reads_wrong == 0
        assert report.success_rate >= 0.9
        assert report.metrics["ipc.retransmits"] > 0
        assert report.metrics["net.drops"] > 0

    def test_same_seed_reproduces_exactly(self):
        from repro.faults import run_chaos

        first = run_chaos(seed=11, duration=1.0, crash=False)
        second = run_chaos(seed=11, duration=1.0, crash=False)
        assert first.to_dict() == second.to_dict()

    def test_wrong_bytes_fail_the_run(self, monkeypatch):
        from repro.faults import InvariantViolation, chaos

        def corrupted():
            server = VFileServer(user="mann")
            node = server.store.make_path("data/f0.dat", directory=False)
            node.data[:] = b"not-the-payload"
            return server

        monkeypatch.setattr(chaos, "populated_fileserver", corrupted)
        with pytest.raises(InvariantViolation) as raised:
            chaos.run_chaos(seed=7, duration=1.0)
        (problem,) = raised.value.problems
        assert problem.endswith("read(s) returned wrong data")

    def test_every_problem_is_collected_before_the_raise(self, monkeypatch):
        # A kernel invariant failure no longer hides the alert delivery
        # check: both land in the one violation.
        from repro.faults import InvariantViolation, chaos
        from repro.runtime import files

        monkeypatch.setattr(chaos, "check_no_stuck_transactions",
                            lambda domain: ["seeded stuck transaction"])
        monkeypatch.setattr(files, "read_files",
                            lambda workstation, names, process: {})
        with pytest.raises(InvariantViolation) as raised:
            chaos.run_chaos(seed=7, duration=5.0, watchdogs=True)
        problems = raised.value.problems
        assert problems[0] == "seeded stuck transaction"
        assert "disagrees with the watchdog engine" in problems[-1]

    def test_invariant_checks_flag_seeded_violations(self):
        from repro.faults import InvariantViolation, check_invariants
        from repro.faults.chaos import (
            check_cache_accounting,
            check_no_stuck_transactions,
            check_timeouts_explained,
        )

        system = standard_system()
        # Fabricate an unexplained timeout: metered, but no loss or crash.
        system.domain.metrics.incr("ipc.send_timeouts")
        assert check_timeouts_explained(system.domain)
        with pytest.raises(InvariantViolation):
            check_invariants(system.domain)
        assert check_no_stuck_transactions(system.domain) == []

        class FakeStats:
            fallbacks = 3
            invalidations = 1

        class FakeCache:
            stats = FakeStats()

        assert check_cache_accounting(FakeCache())

    def test_timer_leak_check_reads_every_heap_slot_state(self):
        # Regression: under a profiler a posted entry's heap slot is its
        # attribution tuple, and the check read ``.cancelled`` off it.
        from repro.faults.chaos import check_no_timer_leaks

        domain = Domain()
        host = domain.create_host("h")

        def short_lived():
            yield Delay(0.001)

        dead = host.spawn(short_lived(), "dead")
        domain.run()
        assert not dead.alive
        engine = domain.engine
        engine.post(1.0, print, dead)               # slot: None
        domain.enable_profiler()
        engine.post(1.0, print, dead)               # slot: attribution tuple
        engine.schedule(2.0, print, dead)           # slot: live timer
        engine.schedule(3.0, print, dead).cancel()  # slot: cancelled timer
        engine.schedule(4.0, print, "no process")
        problems = check_no_timer_leaks(domain)
        assert len(problems) == 3
        assert all("references dead process 'dead'" in p for p in problems)

    def test_cli_runs_and_reports_json(self, capsys):
        import json as json_module

        from repro.obs.__main__ import main

        code = main(["chaos", "--seed", "7", "--duration", "1.5",
                     "--drop", "0.1", "--require-retransmits"])
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["metrics"]["ipc.retransmits"] > 0

    def test_cli_require_retransmits_fails_on_a_clean_wire(self, capsys):
        from repro.obs.__main__ import main

        assert main(["chaos", "--duration", "1", "--drop", "0", "--dup", "0",
                     "--delay-rate", "0", "--no-crash",
                     "--require-retransmits"]) == 1
        assert "ipc.retransmits == 0" in capsys.readouterr().err

    def test_cli_require_alert_cycle_gates_on_fire_and_resolve(self, capsys):
        from repro.obs.__main__ import main

        # 1.5 s: the retransmit-rate alert fires and has not resolved yet.
        assert main(["chaos", "--duration", "1.5",
                     "--require-alert-cycle"]) == 1
        assert "never completed a fire/resolve cycle" in \
            capsys.readouterr().err
        assert main(["chaos", "--duration", "5",
                     "--require-alert-cycle"]) == 0

    def test_cli_invariant_violation_exits_1_with_black_boxes(
            self, capsys, monkeypatch, tmp_path):
        from repro.faults import chaos
        from repro.obs.__main__ import main

        monkeypatch.setattr(chaos, "check_no_stuck_transactions",
                            lambda domain: ["seeded stuck transaction"])
        assert main(["chaos", "--duration", "1", "--flight",
                     "--flight-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "seeded stuck transaction" in err
        assert "postmortem dump:" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "postmortem-seed7-vax1-0.json", "postmortem-seed7-ws-mann-0.json"]
