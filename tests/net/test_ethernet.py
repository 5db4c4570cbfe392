"""Tests for the shared-bus Ethernet model."""

import pytest

from repro.kernel.domain import Domain
from repro.kernel.ipc import Receive, Reply, Send
from repro.kernel.messages import (
    Message,
    Packet,
    PacketKind,
    ReplyCode,
    RequestCode,
)
from repro.net.ethernet import Ethernet, NetworkError
from repro.net.latency import STANDARD_3MBIT
from repro.net.packet import BROADCAST, Frame, GroupAddress
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
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
        ethernet.add_drop_predicate(lambda frame, dst: dst == 2)
        ethernet.transmit(Frame(1, 2, "p", 64))
        ethernet.transmit(Frame(1, 3, "p", 64))
        engine.run()
        assert rx2 == [] and len(rx3) == 1
        assert ethernet.metrics.count("net.frames_dropped") == 1

    def test_frames_a_drop_predicate_keeps_stay_as_shown(self):
        # The kernel builds the frames here: each transmit is its own
        # Frame, so one held past delivery still carries its own packet
        # and addresses.
        domain = Domain()
        client_host, server_host = domain.create_hosts(2)

        def echo():
            while True:
                delivery = yield Receive()
                yield Reply(delivery.sender, Message.reply(
                    ReplyCode.OK, n=delivery.message.get("n")))

        server = server_host.spawn(echo(), name="echo")

        def client():
            for n in range(3):
                yield Send(server.pid, Message.request(
                    RequestCode.QUERY_NAME, n=n))

        shown = []
        domain.ethernet.add_drop_predicate(
            lambda frame, dst: shown.append(frame) or False)
        run_on(domain, client_host, client())

        assert len(shown) == 6
        assert len({id(frame) for frame in shown}) == 6
        client_id, server_id = client_host.host_id, server_host.host_id
        for index, frame in enumerate(shown):
            packet, request = frame.payload, index % 2 == 0
            assert type(packet) is Packet
            assert packet.kind is (PacketKind.REQUEST if request
                                   else PacketKind.REPLY)
            assert packet.message.get("n") == index // 2
            assert frame.src_host == (client_id if request else server_id)
            assert frame.dst == (server_id if request else client_id)

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
