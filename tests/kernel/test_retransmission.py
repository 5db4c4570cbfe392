"""Kernel Send retransmission: recovery, dedup, reply replay, GetPid retry.

These tests use the Ethernet's drop *predicate* (not the probabilistic
fault model) to lose exactly the frames under study, so each scenario is
deterministic without any rng.
"""

import pytest

from repro.kernel.config import DEFAULT_CONFIG, KernelConfig
from repro.kernel.domain import Domain
from repro.kernel.ipc import (Delay, GetPid, MyPid, Receive, Reply, Send,
                              SetPid)
from repro.kernel.messages import Message, PacketKind, ReplyCode
from repro.kernel.services import Scope
from tests.helpers import run_on


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _slow_server(work: float):
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Delay(work)
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _two_host_domain(server, config=DEFAULT_CONFIG):
    domain = Domain(config=config)
    ws = domain.create_host("ws")
    far = domain.create_host("far")
    far.spawn(server, "server")
    return domain, ws


def _drop_first(ethernet, kind: PacketKind):
    """Drop the first frame carrying ``kind``, deliver everything after."""
    state = {"dropped": False}

    def predicate(frame, dst):
        packet = frame.payload
        if not state["dropped"] and getattr(packet, "kind", None) is kind:
            state["dropped"] = True
            return True
        return False

    ethernet.add_drop_predicate(predicate)
    return state


def _client(result):
    yield Delay(0.01)
    pid = yield GetPid(1, Scope.ANY)
    reply = yield Send(pid, Message.request(0x0101))
    result["reply"] = reply


def test_lost_request_recovered_by_retransmit():
    domain, ws = _two_host_domain(_echo_server())
    state = _drop_first(domain.ethernet, PacketKind.REQUEST)
    result = {}
    run_on(domain, ws, _client(result))
    assert state["dropped"]
    assert result["reply"].ok
    assert domain.metrics.count("ipc.retransmits") >= 1
    assert domain.metrics.count("ipc.send_timeouts") == 0


def test_lost_reply_replayed_from_cache():
    domain, ws = _two_host_domain(_echo_server())
    _drop_first(domain.ethernet, PacketKind.REPLY)
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    # The retransmitted REQUEST hit the receiver's reply cache: the reply
    # was replayed verbatim, not recomputed, and the dup was suppressed.
    assert domain.metrics.count("ipc.reply_resends") >= 1
    assert domain.metrics.count("ipc.dup_suppressed") >= 1


def test_duplicate_request_suppressed_while_server_holds_it():
    # Server is slower than one retransmission interval, so the kernel
    # retransmits while the original request is still being served; the
    # receiver must swallow the duplicate rather than re-queue it.
    work = DEFAULT_CONFIG.retransmit_initial * 1.5
    domain, ws = _two_host_domain(_slow_server(work))
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    assert domain.metrics.count("ipc.retransmits") >= 1
    assert domain.metrics.count("ipc.dup_suppressed") >= 1
    # Exactly one reply reached the client -- no double-execution.
    assert domain.metrics.count("ipc.replies") == 1


def test_ack_by_probe_parks_retransmission():
    # A server slower than several backoff steps: probes answer PROBE_OK,
    # which acks the transaction, so retransmission stops growing.
    work = DEFAULT_CONFIG.probe_interval * 1.5
    domain, ws = _two_host_domain(_slow_server(work))
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    # Once the first probe round-trips, the txn is acked; the retransmit
    # count stays bounded by the pre-ack window rather than the full wait.
    assert domain.metrics.count("ipc.retransmits") <= 4


def test_retransmission_off_surfaces_timeout():
    config = KernelConfig(retransmit_enabled=False)
    domain, ws = _two_host_domain(_echo_server(), config=config)
    _drop_first(domain.ethernet, PacketKind.REQUEST)
    result = {}
    run_on(domain, ws, _client(result))
    assert int(result["reply"].code) == int(ReplyCode.TIMEOUT)
    assert domain.metrics.count("ipc.retransmits") == 0
    assert domain.metrics.count("ipc.send_timeouts") == 1


def test_lost_getpid_broadcast_retried():
    domain, ws = _two_host_domain(_echo_server())
    _drop_first(domain.ethernet, PacketKind.GETPID_QUERY)
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    assert domain.metrics.count("services.getpid_retries") >= 1
    assert domain.metrics.count("services.getpid_timeouts") == 0


def test_getpid_retries_exhausted_returns_none():
    domain, ws = _two_host_domain(_echo_server())
    domain.ethernet.add_drop_predicate(
        lambda frame, dst:
        getattr(frame.payload, "kind", None) is PacketKind.GETPID_QUERY)
    result = {}

    def client():
        yield Delay(0.01)
        result["pid"] = yield GetPid(1, Scope.ANY)

    run_on(domain, ws, client())
    assert result["pid"] is None
    rounds = 1 + domain.config.getpid_retries
    assert domain.metrics.count("services.getpid_retries") == rounds - 1
    assert domain.metrics.count("services.getpid_timeouts") == 1


def test_loss_free_run_never_retransmits():
    domain, ws = _two_host_domain(_echo_server())
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    assert domain.metrics.count("ipc.retransmits") == 0
    assert domain.metrics.count("ipc.dup_suppressed") == 0
    assert domain.metrics.count("ipc.reply_resends") == 0


def _counting_server(work: float, served: list):
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        served.append(delivery.sender)
        yield Delay(work)
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


@pytest.mark.parametrize("work, asker", [
    (0.0, PacketKind.REQUEST),
    # Slower than a probe interval: a probe acks the request before the
    # reply is lost, so the next probe, not a retransmit, asks again.
    (DEFAULT_CONFIG.probe_interval * 1.5, PacketKind.PROBE),
])
def test_a_lost_reply_is_replayed_inside_the_window(work, asker):
    served = []
    domain, ws = _two_host_domain(_counting_server(work, served))
    sent = []
    domain.ethernet.add_drop_predicate(
        lambda frame, dst: sent.append(frame.payload.kind))
    _drop_first(domain.ethernet, PacketKind.REPLY)
    result = {}
    run_on(domain, ws, _client(result))
    assert result["reply"].ok
    assert domain.metrics.count("ipc.reply_resends") == 1
    assert len(served) == 1                 # replayed, not re-executed
    replay = [at for at, kind in enumerate(sent)
              if kind is PacketKind.REPLY][1]
    assert sent[replay - 1] is asker


def _far(domain):
    return next(host for host in domain.hosts.values() if host.name == "far")


def _noting(kind, frames):
    """A drop predicate that drops nothing and keeps each ``kind`` frame."""
    def predicate(frame, dst):
        if frame.payload.kind is kind:
            frames.append(frame)
        return False
    return predicate


def _held(host):
    """Sender pid value -> the reply ``host`` would replay to it."""
    return {**host._reply_cache_old, **host._reply_cache}


def _sends(count, gap=0.0):
    yield Delay(0.01)
    pid = yield GetPid(1, Scope.ANY)
    for __ in range(count):
        assert (yield Send(pid, Message.request(0x0101))).ok
        if gap:
            yield Delay(gap)
    return (yield MyPid())


@pytest.mark.parametrize("gap", [0.0, 0.1])
def test_one_sender_leaves_one_cached_reply(gap):
    # A sender's next request proves it has its last reply: 30 sequential
    # Sends leave one reply held, the last, where a cache keyed by
    # transaction holds all 30 (or, 100 ms apart, those of two windows).
    domain, ws = _two_host_domain(_echo_server())
    far = _far(domain)
    replies = []
    domain.ethernet.add_drop_predicate(_noting(PacketKind.REPLY, replies))
    client = run_on(domain, ws, _sends(30, gap))
    assert len(replies) == 30
    assert len(far._reply_cache) == 1
    assert len(far._reply_cache_old) == 0
    assert _held(far) == {client.value: replies[-1].payload}


def test_silent_senders_lose_their_replies_after_two_windows():
    # Three senders are answered once and fall silent while a fourth asks
    # every 100 ms for three seconds, against a 0.8 s window: the three are
    # held at first, and gone two window turns later.
    domain, ws = _two_host_domain(_echo_server())
    far = _far(domain)
    silent = [ws.spawn(_sends(1), "once").pid.value for __ in range(3)]
    counts = []

    def steady():
        pid = yield from _sends(1)
        counts.append(len(_held(far)))
        yield from _sends(29, gap=0.1)
        return pid

    client = run_on(domain, ws, steady())
    assert 30 * 0.1 > 2 * far._marker_life
    assert counts == [4] and client.value not in silent
    assert list(_held(far)) == [client.value]


def test_a_crash_empties_both_generations_of_the_reply_cache():
    # One sender answered once and another ten times 100 ms apart, across
    # a window turn: both generations hold a reply when the host crashes.
    # After the restart only a reply sent since is held.
    domain, ws = _two_host_domain(_echo_server())
    far = _far(domain)
    ws.spawn(_sends(1), "once")
    run_on(domain, ws, _sends(10, gap=0.1))
    assert far._reply_cache and far._reply_cache_old
    far.crash()
    assert not far._reply_cache and not far._reply_cache_old
    far.restart()
    far.spawn(_echo_server(), "server")
    replies = []
    domain.ethernet.add_drop_predicate(_noting(PacketKind.REPLY, replies))
    client = run_on(domain, ws, _sends(1))
    assert _held(far) == {client.value: replies[-1].payload}


def test_a_delayed_copy_of_a_superseded_request_is_dropped():
    # A copy of the first request reaches the server's host after the
    # second Send was answered: its sender has given up on it, so the copy
    # runs no server body and gets no replay of a reply nobody awaits.
    served = []
    domain, ws = _two_host_domain(_counting_server(0.0, served))
    requests = []
    domain.ethernet.add_drop_predicate(_noting(PacketKind.REQUEST, requests))

    def client():
        yield from _sends(2)
        domain.ethernet.transmit(requests[0])
        yield Delay(0.05)

    run_on(domain, ws, client())
    assert len(requests) == 3 and len(served) == 2
    assert domain.metrics.count("ipc.dup_suppressed") == 1
    assert domain.metrics.count("ipc.reply_resends") == 0
    assert domain.metrics.count("ipc.duplicate_replies") == 0
