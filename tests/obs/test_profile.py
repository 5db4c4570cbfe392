"""Tests for the attribution profiler (repro.obs.profile).

The profiler's core guarantee is *partition accounting*: clock advances
are charged to exactly one attribution stack, so frame totals sum to
end-to-end simulated time -- checked here on the pinned E7 forwarding
scenario, along with a golden collapsed-stack flamegraph of that run
(any drift in how the kernel attributes work fails loudly).
"""

import json
from pathlib import Path

import pytest

from repro.kernel.domain import Domain
from repro.kernel.ipc import (Delay, GetPid, ProfileEnter, ProfileExit,
                              Receive, Reply, Send, SetPid)
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from repro.obs.__main__ import main
from repro.sim.engine import Engine
from repro.obs.profile import (
    PROFILE_SCHEMA,
    UNATTRIBUTED,
    Profiler,
    forwarding_profile,
)


class TestProfilerUnit:
    def test_account_partitions_into_stacks(self):
        prof = Profiler()
        prof.account(("host:a", "proc:x"), 0.002)
        prof.account(("host:a", "proc:x"), 0.001)
        prof.account(("host:b",), 0.004)
        prof.account((), 0.0005)  # empty stack -> unattributed bucket
        assert prof.total_seconds == pytest.approx(0.0075)
        assert prof.stats[("host:a", "proc:x")].events == 2
        assert prof.stats[UNATTRIBUTED].seconds == pytest.approx(0.0005)

    def test_count_message_accumulates_bytes(self):
        prof = Profiler()
        prof.count_message(("host:a",), 256)
        prof.count_message(("host:a",), 96)
        assert prof.total_messages == 2
        assert prof.total_bytes == 352
        # Messages alone charge no time.
        assert prof.stats[("host:a",)].seconds == 0.0

    def test_root_filter_scopes_reporting_not_accounting(self):
        prof = Profiler()
        prof.account(("host:a", "proc:x"), 0.002)
        prof.account(("host:b", "proc:y"), 0.003)
        prof.root = "host:a"
        assert prof.total_seconds == pytest.approx(0.002)
        document = prof.profile()
        assert document["schema"] == PROFILE_SCHEMA
        assert [f["stack"] for f in document["frames"]] == [
            ["host:a", "proc:x"]]
        # The other host's charge is still in the raw stats.
        assert prof.stats[("host:b", "proc:y")].seconds == pytest.approx(0.003)

    def test_collapsed_is_folded_format(self):
        prof = Profiler()
        prof.account(("host:a", "proc:x", "phase:wire"), 0.0015)
        prof.account(("host:a",), 2e-9)  # rounds to 0 us -> dropped
        assert prof.collapsed() == ["host:a;proc:x;phase:wire 1500"]


# Regenerate with:
#   PYTHONPATH=src python -m repro.obs profile --flame
GOLDEN_E7_FLAME = """\
host:ws-mann;proc:client;phase:send;phase:wire 24984
host:vax4;proc:fileserver;phase:reply;phase:wire 17472
host:vax0;proc:fileserver;phase:forward_hop;phase:wire 15517
host:vax1;proc:fileserver;phase:forward_hop;phase:wire 15517
host:vax2;proc:fileserver;phase:forward_hop;phase:wire 15517
host:vax3;proc:fileserver;phase:forward_hop;phase:wire 15517
host:ws-mann;proc:client;phase:send 13248
host:vax4;proc:fileserver;phase:reply 13248
host:vax0;proc:fileserver;phase:forward_hop 6072
host:vax1;proc:fileserver;phase:forward_hop 6072
host:vax2;proc:fileserver;phase:forward_hop 6072
host:vax3;proc:fileserver;phase:forward_hop 6072
host:ws-mann;proc:client 4840"""


class TestForwardingProfile:
    def test_attribution_sums_to_elapsed_within_one_percent(self):
        """The E7 acceptance check: no simulated time goes missing."""
        prof, elapsed, mean_open_ms = forwarding_profile(hops=4, rounds=10,
                                                         seed=0)
        assert elapsed > 0
        assert prof.total_seconds == pytest.approx(elapsed, rel=0.01)
        # The four-hop open is well above the direct-open baseline.
        assert mean_open_ms > 10.0
        assert prof.total_messages > 0
        assert prof.total_bytes > prof.total_messages  # frames carry payload

    def test_golden_collapsed_stacks(self):
        """Pinned folded output: same stacks, same charges.

        Equal-cost forward hops tie only after ~1e-18 s float-accumulation
        noise, so their relative order is not meaningful; the *content* is
        pinned exactly (sorted), which is what flamegraph tools consume.
        """
        prof, __, __ = forwarding_profile(hops=4, rounds=10, seed=0)
        golden = sorted(GOLDEN_E7_FLAME.splitlines())
        flame = sorted(prof.render_flame().splitlines())
        assert len(flame) == len(golden)
        for got, expected in zip(flame, golden):
            assert got == expected
        # Folded-format sanity: "frame;frame;... <int>" per line.
        for line in flame:
            stack, __, value = line.rpartition(" ")
            assert stack and int(value) > 0


class TestCli:
    def test_flame_output(self, capsys):
        assert main(["profile", "--flame", "--hops", "1",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase:wire" in out
        for line in out.strip().splitlines():
            stack, __, value = line.rpartition(" ")
            assert int(value) > 0

    def test_json_output_carries_scenario(self, capsys):
        assert main(["profile", "--hops", "1", "--rounds", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == PROFILE_SCHEMA
        assert document["scenario"]["hops"] == 1
        assert document["frames"]
        charged = sum(f["seconds"] for f in document["frames"])
        assert charged == pytest.approx(document["total_seconds"])


class TestDomainIntegration:
    def test_scoped_profile_composes_with_domain_profiler(self):
        """A `with domain.profile()` window nests inside enable_profiler()."""
        domain = Domain(seed=0)
        domain.enable_profiler()
        host = domain.create_host("m1")

        def worker():
            from repro.kernel.ipc import Delay
            yield Delay(0.010)

        host.spawn(worker(), name="w")
        domain.run()
        before = domain.profiler.total_seconds
        assert before == pytest.approx(domain.now)

        host.spawn(worker(), name="w2")
        with domain.profile() as scoped:
            start = domain.now
            domain.run()
            window = domain.now - start
        assert scoped.total_seconds == pytest.approx(window)
        # The long-lived profiler kept accumulating through the window.
        assert domain.profiler.total_seconds == pytest.approx(domain.now)


    def test_storm_profile_matches_golden(self, monkeypatch):
        """The always-on profiler of an audited storm, pinned whole.

        The golden is ``domain.profiler.profile()`` of this exact call as
        captured on the commit *before* the attribution path was made cheap
        (stamped heap entries, cached process scopes, inlined event loop),
        so any drift in what is charged where fails loudly.  Regenerate by
        dumping the ``document`` below with ``json.dumps(sort_keys=True)``.
        """
        from repro.faults import chaos

        domains = []

        class CapturingDomain(Domain):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                domains.append(self)

        monkeypatch.setattr(chaos, "Domain", CapturingDomain)
        chaos.run_replica_storm(seed=11, duration=6.0, watchdogs=True)
        (domain,) = domains
        document = domain.profiler.profile()
        golden = json.loads(
            Path(__file__).with_name("golden_storm_profile.json").read_text())
        assert document["frames"] == golden["frames"]
        assert document == golden
        # Partition accounting: nothing of the run went missing.
        assert document["window"] == {"start": 0.0, "end": domain.now}
        assert sum(frame["seconds"] for frame in document["frames"]) == \
            pytest.approx(domain.now, rel=1e-12)

    def test_actor_kind_registered_late_reaches_the_cached_scope(self):
        from repro.kernel.ipc import Delay
        from repro.obs import Observability

        domain = Domain(seed=0, obs=Observability())
        domain.enable_profiler()
        host = domain.create_host("m1")

        def worker():
            yield Delay(0.010)
            yield Delay(0.010)

        proc = host.spawn(worker(), name="w")
        domain.run(until=0.005)          # first step taken, scope cached
        domain.obs.register_actor(proc.pid, "fileserver")
        domain.run()
        stats = domain.profiler.stats
        # (the first 5 ms of the first Delay went to the run's idle frame)
        assert stats[("host:m1", "proc:w")].seconds == pytest.approx(0.005)
        assert stats[("host:m1", "proc:w", "svc:fileserver")].seconds == \
            pytest.approx(0.010)


    def test_refused_mid_run_enable_leaves_no_dead_profiler(self):
        from repro.sim.engine import SimulationError

        domain = Domain(seed=0)
        refused = []

        def enable_from_callback():
            try:
                domain.enable_profiler()
            except SimulationError:
                refused.append(True)

        domain.engine.post(0.001, enable_from_callback)
        domain.run()
        assert refused == [True]
        assert domain.profiler is None
        # Between runs the same call attaches a live sink.
        profiler = domain.enable_profiler()
        domain.run(until=0.010)
        assert profiler.stats[("idle",)].seconds == pytest.approx(0.009)


class TestPushPopBalance:
    """profile_push deduplicates; profile_pop must stay depth-balanced.

    Regression test: a push of a label equal to the innermost frame is a
    counted no-op, and the matching pop must consume that count instead of
    removing the frame somebody else pushed.
    """

    def test_deduplicated_push_pop_leaves_outer_frame(self):
        engine = Engine()
        engine.profile_push("phase:wire")
        engine.profile_push("phase:wire")   # dedup: counted, not stacked
        assert engine._attr_stack == ("phase:wire",)
        engine.profile_pop("phase:wire")    # consumes the dup count
        assert engine._attr_stack == ("phase:wire",)
        engine.profile_pop("phase:wire")    # now removes the real frame
        assert engine._attr_stack == ()

    def test_nested_dedup_depths_balance(self):
        engine = Engine()
        engine.profile_push("a")
        engine.profile_push("b")
        engine.profile_push("b")
        engine.profile_push("b")
        engine.profile_pop("b")
        engine.profile_pop("b")
        assert engine._attr_stack == ("a", "b")
        engine.profile_pop("b")
        engine.profile_pop("a")
        assert engine._attr_stack == ()

    def test_process_step_restores_the_outer_dup_counts(self):
        domain = Domain(seed=0)
        domain.enable_profiler()
        host = domain.create_host("m1")

        def worker():
            yield ProfileEnter("x")
            yield ProfileEnter("x")     # a dup inside the process scope
            yield Delay(0.001)

        proc = host.spawn(worker(), name="w")
        engine = domain.engine
        engine.profile_push("a")
        engine.profile_push("a")            # one outstanding dup
        host._advance(proc)                 # the step replaces the stack
        assert engine._attr_stack == ("a",)
        engine.profile_pop("a")             # the dup, restored by the step
        assert engine._attr_stack == ("a",)
        engine.profile_pop("a")
        assert engine._attr_stack == ()

    def test_phase_frame_already_innermost_opens_nothing(self):
        domain = Domain(seed=0)
        profiler = domain.enable_profiler()
        host = domain.create_host("m1")

        def server():
            yield SetPid(7, Scope.BOTH)
            delivery = yield Receive()
            yield Reply(delivery.sender, Message.reply(ReplyCode.OK))

        host.spawn(server(), "server")

        def client():
            pid = yield GetPid(7, Scope.ANY)
            yield ProfileEnter("send")      # phase:send is innermost ...
            yield Send(pid, Message.request(1))   # ... so Send opens none
            yield ProfileExit()

        host.spawn(client(), name="client")
        domain.run()
        stacks = list(profiler.stats)
        assert ("host:m1", "proc:client", "phase:send") in stacks
        assert not [stack for stack in stacks
                    if stack[-2:] == ("phase:send", "phase:send")]
