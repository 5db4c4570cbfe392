"""Tests for process groups and group Send (paper Sec. 7)."""

import pytest

from repro.kernel.domain import Domain
from repro.kernel.groups import GroupRegistry
from repro.kernel.ipc import (
    Delay,
    GroupSend,
    JoinGroup,
    LeaveGroup,
    MyPid,
    Now,
    Receive,
    Reply,
)
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.pids import Pid
from tests.helpers import run_on

GROUP = 0x1234


def member(answer_if=None):
    """A group member that answers only when it owns the key (or always)."""
    def body():
        yield JoinGroup(GROUP)
        while True:
            delivery = yield Receive()
            key = delivery.message.get("key")
            if answer_if is None or key == answer_if:
                me = yield MyPid()
                yield Reply(delivery.sender,
                            Message.reply(ReplyCode.OK, owner=me.value))
            # else: silently discard, as the multicast model prescribes
    return body


class TestGroupRegistry:
    def test_join_and_members(self):
        registry = GroupRegistry()
        registry.join(1, Pid.make(1, 2))
        registry.join(1, Pid.make(2, 3))
        assert registry.members(1) == {Pid.make(1, 2), Pid.make(2, 3)}

    def test_members_on_host(self):
        registry = GroupRegistry()
        registry.join(1, Pid.make(1, 2))
        registry.join(1, Pid.make(2, 3))
        assert registry.members_on_host(1, 1) == [Pid.make(1, 2)]
        assert registry.hosts_with_members(1) == {1, 2}

    def test_leave_and_remove_pid(self):
        registry = GroupRegistry()
        pid = Pid.make(1, 2)
        registry.join(1, pid)
        registry.join(2, pid)
        registry.leave(1, pid)
        assert registry.members(1) == set()
        registry.remove_pid(pid)
        assert registry.members(2) == set()


class TestGroupSend:
    def test_first_reply_wins(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(3)]
        hosts[1].spawn(member()(), "m1")
        hosts[2].spawn(member()(), "m2")

        def client():
            yield Delay(0.01)
            reply = yield GroupSend(GROUP, Message.request(1, key="anything"))
            return reply

        reply = run_on(domain, hosts[0], client())
        assert reply.ok
        assert reply["owner"] != 0

    def test_only_the_owner_answers(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(4)]
        owners = {}
        for index, host in enumerate(hosts[1:], start=1):
            proc = host.spawn(member(answer_if=f"key{index}")(), f"m{index}")
            owners[f"key{index}"] = proc.pid.value

        def client():
            yield Delay(0.01)
            reply = yield GroupSend(GROUP, Message.request(1, key="key2"))
            return reply["owner"]

        assert run_on(domain, hosts[0], client()) == owners["key2"]

    def test_no_answer_times_out_with_no_server(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(2)]
        hosts[1].spawn(member(answer_if="never")(), "m")

        def client():
            yield Delay(0.01)
            reply = yield GroupSend(GROUP, Message.request(1, key="miss"))
            return reply.reply_code

        assert run_on(domain, hosts[0], client()) is ReplyCode.NO_SERVER

    def test_empty_group_times_out(self, domain):
        host = domain.create_host("h")

        def client():
            reply = yield GroupSend(0x9999, Message.request(1))
            return reply.reply_code

        assert run_on(domain, host, client()) is ReplyCode.NO_SERVER

    def test_same_host_members_also_reached(self, domain):
        host = domain.create_host("solo")
        host.spawn(member()(), "m")

        def client():
            yield Delay(0.01)
            reply = yield GroupSend(GROUP, Message.request(1))
            return reply.ok

        assert run_on(domain, host, client()) is True

    def test_three_local_members_and_one_remote(self, domain):
        # The local fan-out is one posted delivery per member, in pid
        # order, all one local hop after the send; the remote member is
        # reached by the multicast frame.  Order, instants and the event
        # count are pinned so the fan-out mechanism cannot move them.
        local, remote = domain.create_host("local"), domain.create_host("far")
        deliveries = []

        def recorder(label, answers):
            yield JoinGroup(GROUP)
            delivery = yield Receive()
            deliveries.append((label, (yield Now())))
            if answers:
                yield Reply(delivery.sender, Message.reply(ReplyCode.OK))
            yield Receive()     # discard silently; exiting would NACK it

        for label in ("a", "b", "c"):
            local.spawn(recorder(label, answers=False), label)
        remote.spawn(recorder("far", answers=True), "far")
        sent = []

        def client():
            yield Delay(0.01)
            sent.append((yield Now()))
            reply = yield GroupSend(GROUP, Message.request(1))
            return reply.ok

        assert run_on(domain, local, client()) is True
        at_local = sent[0] + domain.latency.local_hop
        assert deliveries[:3] == [("a", at_local), ("b", at_local),
                                  ("c", at_local)]
        assert deliveries[3] == ("far", pytest.approx(0.01128, abs=1e-9))
        # 16: the reply cancels the 50 ms group timeout.  (This count was
        # once 17 -- the leaked timeout firing as a no-op.)
        assert domain.engine.events_processed == 16

    def test_reply_cancels_the_group_timeout(self, domain):
        # One remote member answers at once; the drained clock must stop at
        # the reply, not at send + group_reply_timeout.
        local, remote = domain.create_host("local"), domain.create_host("far")
        remote.spawn(member()(), "m")
        replied_at = []

        def client():
            yield Delay(0.001)
            reply = yield GroupSend(GROUP, Message.request(1))
            replied_at.append((yield Now()))
            return reply.ok

        assert run_on(domain, local, client()) is True
        assert replied_at == [pytest.approx(0.00356, abs=1e-9)]
        assert domain.now == replied_at[0]      # not 0.051
        assert domain.engine.events_processed == 10   # not 11
        assert list(domain.engine.pending_events()) == []

    @pytest.mark.parametrize("end", ["exit", "crash"])
    def test_sender_gone_mid_group_send_cancels_the_timeout(self, domain,
                                                            end):
        host = domain.create_host("h")
        domain.create_host("far").spawn(member(answer_if="never")(), "m")

        def sender():
            yield GroupSend(GROUP, Message.request(1, key="miss"))

        proc = host.spawn(sender(), "sender")
        if end == "exit":
            domain.engine.schedule_at(0.02, host._terminate, proc)
        else:
            domain.engine.schedule_at(0.02, host.crash)
        domain.run(until=0.03)
        assert not proc.alive
        assert list(domain.engine.pending_events()) == []

    def test_leave_group_stops_delivery(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(2)]

        def leaver():
            yield JoinGroup(GROUP)
            yield LeaveGroup(GROUP)
            yield Delay(10.0)

        hosts[1].spawn(leaver(), "leaver")

        def client():
            yield Delay(0.01)
            reply = yield GroupSend(GROUP, Message.request(1))
            return reply.reply_code

        assert run_on(domain, hosts[0], client()) is ReplyCode.NO_SERVER

    def test_multicast_does_not_touch_nonmember_hosts(self, domain):
        hosts = [domain.create_host(f"h{i}") for i in range(5)]
        hosts[1].spawn(member()(), "m")
        baseline = {
            h.host_id: domain.metrics.count(f"net.delivered_to.{h.host_id}")
            for h in hosts
        }

        def client():
            yield Delay(0.01)
            yield GroupSend(GROUP, Message.request(1))

        run_on(domain, hosts[0], client())
        # Hosts 2..4 have no members: the multicast frame must not be
        # delivered to them (E10's wasted-work distinction vs broadcast).
        for host in hosts[2:]:
            delivered = domain.metrics.count(
                f"net.delivered_to.{host.host_id}") - baseline[host.host_id]
            assert delivered == 0
