"""Probabilistic wire-fault injection: drop/dup/delay, seeded and metered."""

import pytest

from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, GetPid, Now, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from repro.net.ethernet import Ethernet, NetworkError
from repro.net.latency import LOSSLESS_WIRE, STANDARD_3MBIT, WireFaultModel
from repro.net.packet import Frame
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng
from tests.helpers import run_on


@pytest.fixture
def net():
    engine = Engine()
    ethernet = Ethernet(engine, STANDARD_3MBIT, MetricsRegistry())
    return engine, ethernet


def attach_collector(ethernet, host_id):
    received = []
    ethernet.attach(host_id, received.append)
    return received


class TestWireFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            WireFaultModel(drop_rate=1.5)
        with pytest.raises(ValueError):
            WireFaultModel(dup_rate=-0.1)
        with pytest.raises(ValueError):
            WireFaultModel(delay_rate=0.1, delay_min=2e-3, delay_max=1e-3)

    def test_null_detection(self):
        assert LOSSLESS_WIRE.is_null
        assert WireFaultModel().is_null
        assert not WireFaultModel(drop_rate=0.1).is_null

    def test_nonzero_rates_require_rng(self, net):
        __, ethernet = net
        with pytest.raises(NetworkError):
            ethernet.set_fault_model(WireFaultModel(drop_rate=0.5))
        # The null model installs fine without one.
        ethernet.set_fault_model(LOSSLESS_WIRE)
        assert ethernet.fault_model is LOSSLESS_WIRE


class TestInjection:
    def _rng(self, seed=0):
        return DeterministicRng(seed).stream("net.faults")

    def test_drop_everything(self, net):
        engine, ethernet = net
        rx = attach_collector(ethernet, 2)
        ethernet.attach(1, lambda f: None)
        ethernet.set_fault_model(WireFaultModel(drop_rate=1.0), self._rng())
        for __ in range(5):
            ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert rx == []
        assert ethernet.metrics.count("net.drops") == 5

    def test_duplicate_everything(self, net):
        engine, ethernet = net
        rx = attach_collector(ethernet, 2)
        ethernet.attach(1, lambda f: None)
        ethernet.set_fault_model(WireFaultModel(dup_rate=1.0), self._rng())
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert len(rx) == 2
        assert ethernet.metrics.count("net.dups") == 1

    def test_delay_everything(self, net):
        engine, ethernet = net
        arrivals = []
        ethernet.attach(2, lambda f: arrivals.append(engine.now))
        ethernet.attach(1, lambda f: None)
        on_time = ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        ethernet.set_fault_model(
            WireFaultModel(delay_rate=1.0, delay_min=1e-3, delay_max=1e-3),
            self._rng())
        base = engine.now
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert arrivals[0] == on_time
        # The second frame arrived its wire time *plus* the injected 1 ms.
        assert arrivals[1] == pytest.approx(base + (on_time - 0.0) + 1e-3)
        assert ethernet.metrics.count("net.delayed_frames") == 1

    def test_clearing_the_model_stops_injection(self, net):
        engine, ethernet = net
        rx = attach_collector(ethernet, 2)
        ethernet.attach(1, lambda f: None)
        ethernet.set_fault_model(WireFaultModel(drop_rate=1.0), self._rng())
        ethernet.set_fault_model(None)
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert len(rx) == 1
        assert ethernet.metrics.count("net.drops") == 0


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _lossy_run(seed: int) -> tuple[float, dict]:
    """A fixed workload on a 10%-lossy wire; returns (duration, counters)."""
    domain = Domain(seed=seed)
    ws = domain.create_host("ws")
    far = domain.create_host("far")
    far.spawn(_echo_server(), "server")
    domain.set_wire_faults(WireFaultModel(drop_rate=0.10, dup_rate=0.05))

    def client():
        yield Delay(0.01)
        pid = yield GetPid(1, Scope.ANY)
        t0 = yield Now()
        for __ in range(50):
            reply = yield Send(pid, Message.request(0x0101))
            assert reply.ok
        t1 = yield Now()
        return t1 - t0

    duration = run_on(domain, ws, client())
    counters = {key: domain.metrics.count(key)
                for key in ("net.drops", "net.dups", "ipc.retransmits",
                            "ipc.dup_suppressed", "ipc.reply_resends")}
    return duration, counters


class TestDeterminism:
    def test_same_seed_same_fault_pattern(self):
        first = _lossy_run(seed=42)
        second = _lossy_run(seed=42)
        assert first == second

    def test_different_seed_different_pattern(self):
        duration_a, counters_a = _lossy_run(seed=1)
        duration_b, counters_b = _lossy_run(seed=2)
        # Astronomically unlikely to collide on both timing and counters.
        assert (duration_a, counters_a) != (duration_b, counters_b)

    def test_loss_is_survived(self):
        __, counters = _lossy_run(seed=42)
        assert counters["net.drops"] > 0
        assert counters["ipc.retransmits"] > 0
