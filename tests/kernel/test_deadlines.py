"""A transaction's deadlines end with it, and forwarded markers age out.

A Send arms a probe and a retransmit deadline, a GroupSend a reply timeout
(``repro.sim.engine.DeadlineLane``); whatever ends the transaction cancels
nothing, so the table below checks each way it can end: afterwards nothing
queued refers to it, ``engine.pending`` is exact, and the drained clock
stops where the transaction ended rather than at a deadline's time.
"""

import pytest

from repro.kernel import tap
from repro.kernel.domain import Domain
from repro.kernel.ipc import (
    Delay,
    Forward,
    GroupSend,
    JoinGroup,
    Now,
    Receive,
    Reply,
    Send,
)
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid

GROUP = 0x4321


def answering():
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def holding():
    while True:
        yield Receive()


def forwarding(to):
    while True:
        delivery = yield Receive()
        yield Forward(delivery, to())


def group_member(answers):
    yield JoinGroup(GROUP)
    while True:
        delivery = yield Receive()
        if answers:
            yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def sends(domain):
    """The transactions of every Send, as they are made."""
    seen = []
    domain.attach_tap(lambda kind, host, proc, txn: seen.append(txn),
                      (tap.SEND,))
    return seen


def outstanding_at(domain, time):
    """The transactions outstanding anywhere at ``time``."""
    seen = []
    domain.engine.schedule_at(time, lambda: seen.extend(
        txn for host in domain.hosts.values()
        for txn in host._outstanding.values()))
    return seen


def client(target, ended, group=False):
    yield Delay(0.01)
    if group:
        reply = yield GroupSend(GROUP, Message.request(1))
    else:
        reply = yield Send(target, Message.request(1))
    ended.append(((yield Now()), reply.reply_code))


def local_reply(domain, ended):
    host = domain.create_host("h")
    server = host.spawn(answering(), "server").pid
    host.spawn(client(server, ended), "client")
    return ReplyCode.OK


def remote_reply(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    server = far.spawn(answering(), "server").pid
    host.spawn(client(server, ended), "client")
    return ReplyCode.OK


def nack(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    host.spawn(client(Pid.make(far.host_id, 0x7777), ended), "client")
    return ReplyCode.NONEXISTENT_PROCESS


def probe_timeout(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    server = far.spawn(answering(), "server").pid
    domain.engine.schedule_at(0.005, far.crash)
    host.spawn(client(server, ended), "client")
    return ReplyCode.TIMEOUT


def sender_exit(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    server = far.spawn(holding(), "server").pid
    proc = host.spawn(client(server, ended), "client")
    domain.engine.schedule_at(0.02, host._terminate, proc)
    domain.engine.schedule_at(0.02, ended.append, (0.02, None))
    return None


def host_crash(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    server = far.spawn(holding(), "server").pid
    host.spawn(client(server, ended), "client")
    domain.engine.schedule_at(0.02, host.crash)
    domain.engine.schedule_at(0.02, ended.append, (0.02, None))
    return None


def forward_then_reply(domain, ended):
    host = domain.create_host("h")
    middle, far = domain.create_host("middle"), domain.create_host("far")
    server = far.spawn(answering(), "server").pid
    forwarder = middle.spawn(forwarding(lambda: server), "forwarder").pid
    host.spawn(client(forwarder, ended), "client")
    return ReplyCode.OK


def group_reply(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    far.spawn(group_member(answers=True), "member")
    host.spawn(client(None, ended, group=True), "client")
    return ReplyCode.OK


def group_timeout(domain, ended):
    host, far = domain.create_host("h"), domain.create_host("far")
    far.spawn(group_member(answers=False), "member")
    host.spawn(client(None, ended, group=True), "client")
    return ReplyCode.NO_SERVER


ENDINGS = [local_reply, remote_reply, nack, probe_timeout, sender_exit,
           host_crash, forward_then_reply, group_reply, group_timeout]


@pytest.mark.parametrize("ending", ENDINGS, ids=lambda f: f.__name__)
def test_every_way_a_transaction_ends_leaves_nothing_armed(ending):
    domain = Domain()
    ended = []
    expected = ending(domain, ended)
    made = outstanding_at(domain, 0.0100001)    # just after the client's send
    domain.run()
    [(end, code)] = ended
    assert code == expected
    [txn] = made
    assert txn.kernel is None           # ended at its kernel
    engine = domain.engine
    queued = list(engine.pending_events())
    assert not any(txn in args for __, __, args in queued)
    assert engine.pending == len(queued) == 0
    assert domain.now == end            # not a deadline's time


class TestForwardedMarkers:
    """A host that forwards a remote sender's request keeps a marker so the
    sender's retransmitted copies are suppressed and its probes redirected;
    markers age out once the sender can no longer reach the host."""

    SENDS = 12
    GAP = 0.2       # between Sends: the 12 forwards span 2.4 s

    def system(self):
        domain = Domain()
        client_host = domain.create_host("client")
        middle, far = domain.create_host("middle"), domain.create_host("far")
        server = far.spawn(answering(), "server").pid
        forwarder = middle.spawn(forwarding(lambda: server), "forwarder")
        forwards = []
        domain.attach_tap(lambda kind, host, proc, effect, message:
                          forwards.append(domain.now), (tap.FORWARD,))
        made = sends(domain)

        def body():
            for __ in range(self.SENDS):
                yield Delay(self.GAP)
                reply = yield Send(forwarder.pid, Message.request(1))
                assert reply.ok
        client_host.spawn(body(), "client")
        domain.run()
        return domain, client_host, middle, forwarder, forwards, made

    @staticmethod
    def markers(host):
        return [txn_id for txn_id, entry in host._presence.items()
                if entry[0] == "forwarded"]

    @staticmethod
    def life(domain):
        """Two spans of a sender's probe budget (see Host._marker_life)."""
        config = domain.config
        return 2 * (config.max_failed_probes + 1) * config.probe_interval

    def test_markers_age_out(self):
        domain, __, middle, __, forwards, made = self.system()
        assert len(forwards) == self.SENDS
        life = self.life(domain)
        kept = self.markers(middle)
        # Only the forwards of the last marker life remain (12 before).
        assert 0 < len(kept) <= life / self.GAP + 1 < self.SENDS
        assert kept == [txn.txn_id for txn in made[-len(kept):]]

    def test_a_copy_inside_the_window_is_still_suppressed(self):
        domain, client_host, middle, forwarder, forwards, made = self.system()
        last = made[-1]
        copy = Packet(PacketKind.REQUEST, last.sender, forwarder.pid,
                      last.txn_id, Message.request(1))
        delivered = middle.counters["ipc.deliveries"]
        at = forwards[-1] + self.life(domain) - 0.01
        domain.engine.schedule_at(at, middle._handle_packet, copy,
                                  client_host.host_id)
        domain.run()
        assert middle.counters["ipc.dup_suppressed"] == 1
        assert middle.counters["ipc.deliveries"] == delivered

    def test_a_local_sender_leaves_no_marker(self):
        domain = Domain()
        host, far = domain.create_host("h"), domain.create_host("far")
        server = far.spawn(answering(), "server").pid
        forwarder = host.spawn(forwarding(lambda: server), "forwarder").pid
        ended = []
        host.spawn(client(forwarder, ended), "client")
        domain.run()
        assert ended[0][1] is ReplyCode.OK
        assert host._presence == {}
