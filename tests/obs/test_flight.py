"""Flight recorder: lanes, digest chains, postmortems, replay, bisection.

The determinism properties (same seed -> bit-identical chains, different
seed -> localized fork) live in tests/property/test_engine_equivalence.py;
here the machinery is pinned directly: ring/window accounting, the engine's
recording dispatch swap, kernel record sites, crash freezing, the
``[obs]/hosts/<host>/flightlog`` leaf, divergence verdicts, and the
``python -m repro.obs.replay`` CLI.
"""

import json

import pytest

from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from repro.obs import Observability
from repro.obs.flight import (
    KIND_NAMES,
    KIND_SEND,
    PACKET_BASE,
    FlightRecorder,
    chain_divergence,
    compare,
    disable_flight_recorder,
    dump_postmortems,
    enable_flight_recorder,
    export_dump,
    load_postmortem,
    record_divergence,
    record_dict,
    write_postmortem,
)
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, enable_obs_namespace, start_server
from repro.sim.engine import Engine, SimulationError
from tests.helpers import run_on


class _FakeEngine:
    """Just enough engine for direct FlightRecorder feeding."""

    def __init__(self):
        self._fire_seq = 0
        self._now = 0.0
        self.now = 0.0


class _FakeHost:
    def __init__(self, name="h1"):
        self.name = name
        self.engine = _FakeEngine()


def _feed(recorder, host, count, start_seq=0):
    for index in range(count):
        host.engine._fire_seq = start_seq + index
        host.engine._now = float(start_seq + index)
        recorder.record(host, "send", 1, 2, index + 1, "phase:send")


class TestLaneAccounting:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(window=0)

    def test_ring_bounds_and_dropped(self):
        recorder = FlightRecorder(capacity=4, window=2)
        host = _FakeHost()
        _feed(recorder, host, 11)
        snap = recorder.snapshot("h1")
        assert snap["records_seen"] == 11
        # 5 sealed windows of 2 went through the ring (cap 4) and one
        # record sits in the open tail: 11 - 4 - 1 dropped.
        assert snap["dropped"] == 6
        assert len(snap["records"]) == 5
        assert len(snap["chain"]) == 5
        # Retained records are the newest ones, in order.
        assert [r["seq"] for r in snap["records"]] == [6, 7, 8, 9, 10]

    def test_unknown_host_snapshot_is_empty(self):
        recorder = FlightRecorder()
        snap = recorder.snapshot("ghost")
        assert snap["records_seen"] == 0
        assert snap["records"] == [] and snap["chain"] == []
        assert recorder.records("ghost") == []
        assert recorder.chain("ghost") == []

    def test_digest_chain_is_deterministic_and_chained(self):
        first = FlightRecorder(window=3)
        second = FlightRecorder(window=3)
        for recorder in (first, second):
            _feed(recorder, _FakeHost(), 9)
        assert first.chain("h1") == second.chain("h1")
        digests = [entry[3] for entry in first.chain("h1")]
        assert len(digests) == 3 and len(set(digests)) == 3
        # Chaining: a different first window changes every later digest.
        forked = FlightRecorder(window=3)
        host = _FakeHost()
        host.engine._fire_seq = 999
        forked.record(host, "send", 1, 2, 1, "phase:send")
        _feed(forked, host, 8, start_seq=1)
        unforked = [entry[3] for entry in first.chain("h1")]
        assert all(a != b for a, b in
                   zip(unforked, (e[3] for e in forked.chain("h1"))))

    def test_finalize_seals_tails_idempotently(self):
        recorder = FlightRecorder(window=4)
        _feed(recorder, _FakeHost(), 6)
        assert len(recorder.chain("h1")) == 1
        recorder.finalize()
        assert len(recorder.chain("h1")) == 2
        chain = recorder.chain("h1")
        recorder.finalize()             # empty tails: nothing changes
        assert recorder.chain("h1") == chain

    def test_record_and_chain_dicts(self):
        assert record_dict((3, 0.5, KIND_SEND, 1, 2, 7)) == {
            "seq": 3, "t": 0.5, "kind": "send", "src": 1, "dst": 2,
            "txn": 7, "phase": "phase:send"}
        recorder = FlightRecorder(window=1)
        _feed(recorder, _FakeHost(), 1)
        entry = recorder.snapshot("h1")["chain"][0]
        assert entry["window"] == 0 and entry["end_seq"] == 0
        int(entry["digest"], 16)        # 16-hex-digit digest

    def test_packet_kind_codes_match_the_wire_enum(self):
        # flight.py keeps a static copy of the PacketKind vocabulary so it
        # never needs a kernel import; pin it against the real enum.
        from repro.kernel.messages import PacketKind

        assert KIND_NAMES[PACKET_BASE:] == tuple(
            kind.name.lower() for kind in PacketKind)


class TestEngineDispatch:
    def test_attach_installs_only_run(self):
        engine = Engine()
        sink = object()
        engine.attach_recorder(sink)
        assert engine.recording
        assert "run" in engine.__dict__
        # Scheduling stays on the class fast path: zero cost at post time.
        for name in ("schedule", "schedule_at", "post", "post_at"):
            assert name not in engine.__dict__
        engine.detach_recorder(sink)
        assert not engine.recording
        assert "run" not in engine.__dict__
        assert engine._fire_seq == -1

    def test_second_recorder_rejected_same_sink_idempotent(self):
        engine = Engine()
        sink = object()
        engine.attach_recorder(sink)
        engine.attach_recorder(sink)    # no-op
        with pytest.raises(SimulationError):
            engine.attach_recorder(object())
        # Detaching a sink that is not attached is a no-op.
        engine.detach_recorder(object())
        assert engine.recording

    def test_fire_seq_stamps_the_firing_event(self):
        engine = Engine()
        engine.attach_recorder(FlightRecorder())
        seen = []
        engine.schedule(0.1, lambda: seen.append(engine._fire_seq))
        engine.schedule(0.2, lambda: seen.append(engine._fire_seq))
        engine.run()
        assert seen == [0, 1]

    def test_fire_seq_in_bounded_run(self):
        engine = Engine()
        engine.attach_recorder(FlightRecorder())
        seen = []
        engine.schedule(0.1, lambda: seen.append(engine._fire_seq))
        engine.schedule(5.0, lambda: seen.append(engine._fire_seq))
        engine.run(until=1.0)
        assert seen == [0] and engine.now == 1.0
        engine.run(until=10.0)
        assert seen == [0, 1]
        assert engine.events_processed == 2

    def test_profiler_wins_and_recorder_rides_along(self):
        from repro.obs.profile import Profiler

        domain = Domain(seed=0)
        engine = domain.engine
        enable_flight_recorder(domain)
        profiler = Profiler(engine)
        engine.attach_profiler(profiler)
        # The instrumented set (which also maintains _fire_seq) took over.
        assert engine.__dict__["run"].__func__ is Engine._run_instrumented
        engine.detach_profiler(profiler)
        # Back to the recording loop, not the bare fast path.
        assert engine.__dict__["run"].__func__ is Engine._run_recording
        disable_flight_recorder(domain)
        assert "run" not in engine.__dict__


    def test_run_loop_flushes_so_tails_stay_bounded(self):
        # Regression: the instrumented loop a profiler installs never
        # flushed the recorder, so lane tails grew with the run.
        chains = []
        for profiled in (False, True):
            domain = Domain(seed=3)
            recorder = enable_flight_recorder(domain)
            if profiled:
                domain.enable_profiler()
            workstation = domain.create_host("ws")
            domain.create_host("far").spawn(_echo_server(), "server")
            tails = []

            def client():
                yield from _pingers(1500)
                tails.append(max(len(lane.tail)
                                 for lane in recorder._lanes.values()))

            def watcher():
                # Samples mid-run, between flushes, from inside the sim.
                for __ in range(200):
                    yield Delay(0.05)
                    tails.append(max(len(lane.tail)
                                     for lane in recorder._lanes.values()))

            workstation.spawn(watcher(), "watcher")
            run_on(domain, workstation, client())
            assert domain.engine.events_processed > 4 * Engine._FLUSH_EVERY
            assert max(tails) <= Engine._FLUSH_EVERY + recorder.window
            recorder.finalize()
            chains.append(recorder.chains())
        # The profiler observes; it must not perturb what is recorded.
        assert chains[0] == chains[1]


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _small_flight_domain(seed=0):
    """Two hosts, an echo server, a recorder; returns (domain, ws, far)."""
    domain = Domain(seed=seed)
    enable_flight_recorder(domain, window=4)
    workstation = domain.create_host("ws")
    far = domain.create_host("far")
    far.spawn(_echo_server(), "server")
    return domain, workstation, far


def _pingers(count=5):
    yield Delay(0.01)
    pid = yield GetPid(1, Scope.ANY)
    for __ in range(count):
        reply = yield Send(pid, Message.request(0x0101))
        assert reply.ok


class TestKernelRecordSites:
    def test_send_reply_complete_and_packets_recorded(self):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        recorder = domain.flight
        recorder.finalize()
        assert recorder.hosts() == ["far", "ws"]
        ws_kinds = {KIND_NAMES[r[2]] for r in recorder.records("ws")}
        far_kinds = {KIND_NAMES[r[2]] for r in recorder.records("far")}
        assert {"send", "complete"} <= ws_kinds
        assert "reply" in far_kinds
        # Arriving packets are recorded with lowered PacketKind names.
        assert "request" in far_kinds and "reply" in ws_kinds
        # Every record is stamped with the firing event's seq and a time.
        for record in recorder.records("ws"):
            assert record[0] >= 0 and record[1] >= 0.0

    def test_txn_ids_are_per_domain(self):
        # Two same-seed domains allocate identical txn ids -- the property
        # that makes flight records comparable across runs at all.
        streams = []
        for __ in range(2):
            domain, workstation, __far = _small_flight_domain(seed=5)
            run_on(domain, workstation, _pingers())
            domain.flight.finalize()
            streams.append(domain.flight.records("ws"))
        assert streams[0] == streams[1]

    def test_disable_stops_recording(self):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        seen = domain.flight.snapshot("ws")["records_seen"]
        assert seen > 0
        recorder = domain.flight
        disable_flight_recorder(domain)
        assert domain.flight is None
        run_on(domain, workstation, _pingers())
        assert recorder.snapshot("ws")["records_seen"] == seen

    def test_crash_freezes_a_postmortem_and_lane_keeps_flying(self):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        recorder = domain.flight
        seen_at_crash = recorder.snapshot("far")["records_seen"]
        far.crash()
        dumps = recorder.postmortems["far"]
        assert len(dumps) == 1
        dump = dumps[0]
        assert dump["kind"] == "postmortem"
        assert dump["frozen_t"] == domain.engine.now
        assert dump["records_seen"] == seen_at_crash
        assert dump["records"]      # the black box holds the last records
        # The live lane keeps recording after a restart; the dump does not.
        far.restart()
        far.spawn(_echo_server(), "server")
        run_on(domain, workstation, _pingers())
        assert recorder.snapshot("far")["records_seen"] > seen_at_crash
        assert dump["records_seen"] == seen_at_crash

    def test_freeze_inside_first_window_still_carries_a_chain(self):
        # A host that dies before its first window seals must still get a
        # chain in its black box: freeze provisionally seals the partial
        # tail (same digest finalize would produce) without touching the
        # live lane's window cadence.
        recorder = FlightRecorder(window=256)
        host = _FakeHost("young")
        _feed(recorder, host, 28)
        dump = recorder.freeze(host)
        assert len(dump["records"]) == 28
        assert len(dump["chain"]) == 1
        assert dump["chain"][0][1] == dump["records"][-1][0]  # last seq
        # The live lane stays unsealed -- its chain is its own business.
        assert recorder.chain("young") == []
        # The provisional digest equals what finalize produces here.
        recorder.finalize()
        assert recorder.chain("young") == dump["chain"]

    def test_double_crash_keeps_both_dumps(self):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        far.crash()
        far.restart()
        far.spawn(_echo_server(), "server")
        run_on(domain, workstation, _pingers())
        far.crash()
        assert len(domain.flight.postmortems["far"]) == 2


class TestFlightlogLeaf:
    def _obs_system(self, flight):
        domain = Domain(obs=Observability())
        if flight:
            enable_flight_recorder(domain)
        workstation = setup_workstation(domain, "mann", name="ws1")
        handle = start_server(domain.create_host("vax1"),
                              VFileServer(user="mann"))
        standard_prefixes(workstation, handle)
        enable_obs_namespace(domain, root_host=workstation.host)
        return domain, workstation

    def _read(self, domain, workstation, name):
        def client(session):
            return (yield from session.read_file(name))

        payload = run_on(domain, workstation.host,
                         client(workstation.session()))
        return [json.loads(line)
                for line in payload.decode().splitlines() if line.strip()]

    def test_live_lane_served_as_jsonl(self):
        domain, workstation = self._obs_system(flight=True)
        records = self._read(domain, workstation,
                             "[obs]/hosts/vax1/flightlog")
        meta = records[0]
        assert meta["kind"] == "meta" and meta["enabled"]
        assert meta["host"] == "vax1" and meta["schema"] == 1
        # The read itself flowed through vax1's kernel, so its lane holds
        # flight records by the time the payload was rendered; the flight
        # kind rides as "event" (the line discriminator stays "kind").
        lines = [r for r in records[1:] if r["kind"] == "record"]
        assert lines and all("event" in line and "seq" in line
                             for line in lines)

    def test_disabled_domain_serves_a_stub(self):
        domain, workstation = self._obs_system(flight=False)
        records = self._read(domain, workstation,
                             "[obs]/hosts/vax1/flightlog")
        assert records == [
            {"kind": "meta", "host": "vax1", "enabled": False}]

    def test_postmortem_markers_ride_on_the_leaf(self):
        domain, workstation = self._obs_system(flight=True)
        vax = next(h for h in domain.hosts.values() if h.name == "vax1")
        self._read(domain, workstation, "[obs]/hosts/vax1/flightlog")
        vax.crash()
        vax.restart()       # the [obs] namespace respawns its stat server
        records = self._read(domain, workstation,
                             "[obs]/hosts/vax1/flightlog")
        marks = [r for r in records if r["kind"] == "postmortem"]
        assert len(marks) == 1 and marks[0]["records"] > 0


class TestDivergence:
    def test_chain_divergence(self):
        a = [(0, 5, 1.0, 0xAA), (1, 9, 2.0, 0xBB)]
        assert chain_divergence(a, list(a)) is None
        assert chain_divergence(a, [a[0], (1, 9, 2.0, 0xCC)]) == 1
        assert chain_divergence(a, a[:1]) == 1
        assert chain_divergence([], []) is None

    def test_record_divergence(self):
        a = [(0, 0.0, "send", 1, 2, 1, ""), (1, 0.1, "reply", 2, 1, 1, "")]
        assert record_divergence(a, list(a)) is None
        forked = [a[0], (1, 0.1, "reply", 2, 1, 99, "")]
        index, rec_a, rec_b = record_divergence(a, forked)
        assert index == 1 and rec_a == a[1] and rec_b == forked[1]
        # Strict prefix: the longer side supplies the record, the shorter
        # side is None.
        index, rec_a, rec_b = record_divergence(a, a[:1])
        assert index == 1 and rec_a == a[1] and rec_b is None
        index, rec_a, rec_b = record_divergence(a[:1], a)
        assert index == 1 and rec_a is None and rec_b == a[1]

    def test_compare_localizes_the_lowest_seq_fork(self):
        first = FlightRecorder(window=2)
        second = FlightRecorder(window=2)
        host_a, host_b = _FakeHost("a"), _FakeHost("b")
        for recorder in (first, second):
            _feed(recorder, _FakeHost("a"), 4)
            _feed(recorder, _FakeHost("b"), 4)
        # Fork host b with one extra record (seq 4) in the second run only.
        host = _FakeHost("b")
        host.engine._fire_seq = 4
        second.record(host, "probe", 9, 9, 9, "phase:packet")
        first.finalize()
        second.finalize()
        verdict = compare(first, second)
        assert not verdict["identical"]
        assert verdict["hosts"]["a"]["chains_equal"]
        assert not verdict["hosts"]["b"]["chains_equal"]
        fork = verdict["fork"]
        assert fork["host"] == "b" and fork["seq"] == 4
        assert fork["a"] is None and fork["b"]["kind"] == "probe"

    def test_identical_recorders_compare_identical(self):
        first, second = FlightRecorder(window=2), FlightRecorder(window=2)
        for recorder in (first, second):
            _feed(recorder, _FakeHost(), 5)
            recorder.finalize()
        verdict = compare(first, second)
        assert verdict["identical"] and verdict["fork"] is None


class TestPostmortemDumps:
    def test_write_load_roundtrip(self, tmp_path):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        far.crash()
        dump = domain.flight.postmortems["far"][0]
        path = tmp_path / "far.json"
        write_postmortem(str(path), dump)
        # Crash-time dumps hold raw record tuples (freeze runs inside the
        # measured run); the written form is the named export, and loading
        # it back is a fixed point.
        loaded = load_postmortem(str(path))
        assert loaded == json.loads(json.dumps(export_dump(dump)))
        assert loaded["records"] and isinstance(loaded["records"][0], dict)
        assert export_dump(loaded) == loaded

    def test_dump_postmortems_covers_every_lane(self, tmp_path):
        domain, workstation, far = _small_flight_domain()
        run_on(domain, workstation, _pingers())
        far.crash()
        domain.flight.finalize()
        paths = dump_postmortems(domain.flight, str(tmp_path), seed=5)
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        # far crashed (frozen dump); ws never did (end-of-run dump).
        assert names == ["postmortem-seed5-far-0.json",
                         "postmortem-seed5-ws-0.json"]
        ws_dump = load_postmortem(
            str(tmp_path / "postmortem-seed5-ws-0.json"))
        assert ws_dump["frozen_t"] is None and ws_dump["records"]


class TestReplayCli:
    KNOBS = ["--seed", "3", "--duration", "1.5"]

    def test_verify_identical_runs_exit_zero(self, capsys):
        from repro.obs.replay import main

        assert main([*self.KNOBS, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "digest chains identical" in out

    def test_verify_json_document(self, capsys):
        from repro.obs.replay import main

        assert main([*self.KNOBS, "--verify", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "flight-verify"
        assert document["identical"] is True
        assert document["fork"] is None

    def test_bisect_seed_pair_localizes_the_fork(self, capsys):
        from repro.obs.flight import record_divergence
        from repro.obs.replay import main, replay

        assert main([*self.KNOBS, "--bisect", "seed=3,4", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "flight-bisect"
        assert not document["identical"]
        fork = document["fork"]
        # Recompute the expected fork seq from the raw streams.
        first = replay(seed=3, duration=1.5)
        second = replay(seed=4, duration=1.5)
        expected = None
        for host in set(first.hosts()) | set(second.hosts()):
            diverged = record_divergence(first.records(host),
                                         second.records(host))
            if diverged is None:
                continue
            __, rec_a, rec_b = diverged
            seq = min(r[0] for r in (rec_a, rec_b) if r is not None)
            if expected is None or seq < expected:
                expected = seq
        assert fork["seq"] == expected
        assert fork["a"] is not None or fork["b"] is not None

    def test_bisect_text_mode_prints_both_records(self, capsys):
        from repro.obs.replay import main

        assert main([*self.KNOBS, "--bisect", "seed=3,4"]) == 0
        out = capsys.readouterr().out
        assert "fork: event seq" in out
        assert "run a:" in out and "run b:" in out

    def test_default_mode_renders_crash_window(self, capsys):
        from repro.obs.replay import main

        assert main(self.KNOBS) == 0
        out = capsys.readouterr().out
        assert "around the crash at" in out
        assert "lane vax1" in out or "lane ws-mann" in out

    def test_postmortem_mode_time_travels_into_a_dump(self, capsys,
                                                      tmp_path):
        from repro.obs.replay import main, replay

        recorder = replay(seed=3, duration=1.5)
        dump = recorder.postmortems["vax1"][0]
        path = tmp_path / "vax1.json"
        write_postmortem(str(path), dump)
        assert main(["--postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "host vax1 frozen at" in out

    def test_parse_bisect_rejects_bad_specs(self):
        from repro.obs.replay import parse_bisect

        assert parse_bisect("seed=7,8") == ("seed", 7, 8)
        assert parse_bisect("drop=0.1,0.3") == ("drop", 0.1, 0.3)
        with pytest.raises(ValueError):
            parse_bisect("flux=1,2")
        with pytest.raises(ValueError):
            parse_bisect("seed=7")


class TestChaosFlight:
    def test_flight_summary_and_recorder_on_the_report(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=7, duration=2.0, drop=0.10, flight=True)
        assert report.recorder is not None
        assert report.flight["postmortems"] == {"vax1": 1}
        hosts = report.flight["hosts"]
        assert set(hosts) == {"ws-mann", "vax1"}
        for entry in hosts.values():
            assert entry["records_seen"] > 0 and entry["windows"] > 0
        assert "flight" in report.to_dict()

    def test_without_flight_nothing_changes(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=7, duration=2.0, drop=0.10)
        assert report.recorder is None and report.flight == {}
        assert "flight" not in report.to_dict()

    def test_recorder_does_not_perturb_the_run(self):
        from repro.faults.chaos import run_chaos

        bare = run_chaos(seed=7, duration=2.0, drop=0.10)
        flown = run_chaos(seed=7, duration=2.0, drop=0.10, flight=True)
        assert bare.to_dict()["metrics"] == flown.to_dict()["metrics"]
        assert bare.reads == flown.reads
