"""Tests for the shared-bus Ethernet model."""

import pytest

from repro.net.ethernet import Ethernet, NetworkError
from repro.net.latency import STANDARD_3MBIT
from repro.net.packet import BROADCAST, Frame, GroupAddress
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine


@pytest.fixture
def net():
    engine = Engine()
    ethernet = Ethernet(engine, STANDARD_3MBIT, MetricsRegistry())
    return engine, ethernet


def attach_collector(ethernet, host_id):
    received = []
    ethernet.attach(host_id, received.append)
    return received


class TestDelivery:
    def test_unicast_reaches_only_destination(self, net):
        engine, ethernet = net
        rx1 = attach_collector(ethernet, 1)
        rx2 = attach_collector(ethernet, 2)
        rx3 = attach_collector(ethernet, 3)
        ethernet.transmit(Frame(1, 2, "payload", 64))
        engine.run()
        assert [f.payload for f in rx2] == ["payload"]
        assert rx1 == [] and rx3 == []

    def test_broadcast_reaches_everyone_but_sender(self, net):
        engine, ethernet = net
        collectors = {h: attach_collector(ethernet, h) for h in (1, 2, 3, 4)}
        ethernet.transmit(Frame(1, BROADCAST, "hello", 64))
        engine.run()
        assert collectors[1] == []
        for host in (2, 3, 4):
            assert len(collectors[host]) == 1

    def test_multicast_reaches_only_members(self, net):
        engine, ethernet = net
        collectors = {h: attach_collector(ethernet, h) for h in (1, 2, 3, 4)}
        group = GroupAddress(7)
        ethernet.join_group(2, group)
        ethernet.join_group(3, group)
        ethernet.transmit(Frame(1, group, "mc", 64))
        engine.run()
        assert len(collectors[2]) == 1 and len(collectors[3]) == 1
        assert collectors[1] == [] and collectors[4] == []

    def test_sender_in_group_does_not_hear_itself(self, net):
        engine, ethernet = net
        rx1 = attach_collector(ethernet, 1)
        group = GroupAddress(7)
        ethernet.join_group(1, group)
        ethernet.transmit(Frame(1, group, "mc", 64))
        engine.run()
        assert rx1 == []

    def test_leave_group_stops_delivery(self, net):
        engine, ethernet = net
        rx2 = attach_collector(ethernet, 2)
        group = GroupAddress(9)
        ethernet.join_group(2, group)
        ethernet.leave_group(2, group)
        ethernet.transmit(Frame(1, group, "mc", 64))
        engine.run()
        assert rx2 == []

    def test_unknown_destination_counts_lost(self, net):
        engine, ethernet = net
        attach_collector(ethernet, 1)
        ethernet.transmit(Frame(1, 99, "void", 64))
        engine.run()
        assert ethernet.metrics.count("net.frames_lost") == 1


class TestTiming:
    def test_arrival_time_is_wire_time(self, net):
        engine, ethernet = net
        attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        arrival = ethernet.transmit(Frame(1, 2, "p", 66))
        assert arrival == pytest.approx(STANDARD_3MBIT.wire_time(66))

    def test_bus_serializes_concurrent_transmissions(self, net):
        engine, ethernet = net
        attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        first = ethernet.transmit(Frame(1, 2, "a", 1000))
        second = ethernet.transmit(Frame(2, 1, "b", 1000))
        assert second == pytest.approx(2 * STANDARD_3MBIT.wire_time(1000))
        assert second > first

    def test_bus_frees_up_after_transmissions(self, net):
        engine, ethernet = net
        attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        ethernet.transmit(Frame(1, 2, "a", 100))
        engine.run()
        later = ethernet.transmit(Frame(1, 2, "b", 100))
        assert later == pytest.approx(
            engine.now + STANDARD_3MBIT.wire_time(100))


class TestFaults:
    def test_down_link_drops_incoming(self, net):
        engine, ethernet = net
        rx2 = attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        ethernet.set_link(2, False)
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert rx2 == []
        assert ethernet.metrics.count("net.frames_lost") == 1

    def test_down_link_drops_outgoing(self, net):
        engine, ethernet = net
        rx2 = attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        ethernet.set_link(1, False)
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert rx2 == []

    def test_link_recovery(self, net):
        engine, ethernet = net
        rx2 = attach_collector(ethernet, 2)
        attach_collector(ethernet, 1)
        ethernet.set_link(2, False)
        ethernet.set_link(2, True)
        ethernet.transmit(Frame(1, 2, "p", 64))
        engine.run()
        assert len(rx2) == 1

    def test_drop_predicate_partitions(self, net):
        engine, ethernet = net
        rx2 = attach_collector(ethernet, 2)
        rx3 = attach_collector(ethernet, 3)
        attach_collector(ethernet, 1)
        ethernet.set_drop_predicate(lambda frame, dst: dst == 2)
        ethernet.transmit(Frame(1, 2, "p", 64))
        ethernet.transmit(Frame(1, 3, "p", 64))
        engine.run()
        assert rx2 == [] and len(rx3) == 1
        assert ethernet.metrics.count("net.frames_dropped") == 1

    def test_detach_forgets_host_and_groups(self, net):
        engine, ethernet = net
        attach_collector(ethernet, 2)
        group = GroupAddress(3)
        ethernet.join_group(2, group)
        ethernet.detach(2)
        assert ethernet.group_members(group) == set()
        assert 2 not in ethernet.attached_hosts()


class TestConfigErrors:
    def test_duplicate_attach_rejected(self, net):
        __, ethernet = net
        ethernet.attach(1, lambda f: None)
        with pytest.raises(NetworkError):
            ethernet.attach(1, lambda f: None)

    def test_set_link_on_unknown_host_rejected(self, net):
        __, ethernet = net
        with pytest.raises(NetworkError):
            ethernet.set_link(5, False)

    def test_join_group_requires_attachment(self, net):
        __, ethernet = net
        with pytest.raises(NetworkError):
            ethernet.join_group(5, GroupAddress(1))

    def test_negative_group_id_rejected(self):
        with pytest.raises(ValueError):
            GroupAddress(-1)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame(1, 2, "p", -5)

    def test_frame_kind_predicates(self):
        assert Frame(1, BROADCAST, "p", 1).is_broadcast
        assert Frame(1, GroupAddress(1), "p", 1).is_multicast
        assert Frame(1, 2, "p", 1).is_unicast
