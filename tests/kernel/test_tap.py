"""The kernel event tap is bound per kind (``repro.kernel.tap``).

Each subscriber hears exactly the kinds it declared to
``Domain.attach_tap``; a kind nobody declared leaves its host attribute
None, as with nothing attached; attach and detach rebind every host, the
ones created later included.
"""

from repro.kernel import tap
from repro.kernel.domain import Domain
from repro.kernel.ipc import GetPid, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from tests.helpers import run_on


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _client():
    pid = yield GetPid(1, Scope.ANY)
    for __ in range(3):
        reply = yield Send(pid, Message.request(0x0101))
        assert reply.ok


def _run_echo(domain):
    workstation = domain.create_host("ws")
    domain.create_host("far").spawn(_echo_server(), "server")
    run_on(domain, workstation, _client())


class _Heard:
    def __init__(self):
        self.kinds = []

    def __call__(self, kind, host, a, b=None, c=None):
        self.kinds.append(kind)


def _bound(host):
    """Kind code -> the tap the host fires for it (packets included)."""
    taps = {code: getattr(host, slot) for code, slot in tap.SLOTS.items()}
    packets = host._tap_packet or {}
    taps.update((code, packets.get(kind)) for kind, code in tap.PACKET.items())
    return taps


def test_overlapping_subscribers_each_hear_exactly_their_kinds():
    everything = _Heard()
    domain = Domain(seed=0)
    domain.attach_tap(everything)
    _run_echo(domain)
    request = tap.PACKET[next(iter(tap.PACKET))]
    assert {tap.SEND, tap.COMPLETE, tap.REPLY, tap.DELIVER,
            request} <= set(everything.kinds)

    first, second = _Heard(), _Heard()
    first_kinds = {tap.SEND, tap.COMPLETE, request}
    second_kinds = {tap.COMPLETE, tap.REPLY, tap.DELIVER}
    domain = Domain(seed=0)
    domain.attach_tap(first, first_kinds)
    domain.attach_tap(second, second_kinds)
    _run_echo(domain)
    assert first.kinds == [k for k in everything.kinds if k in first_kinds]
    assert second.kinds == [k for k in everything.kinds if k in second_kinds]


def test_telemetry_hears_only_complete():
    domain = Domain(seed=0)
    host = domain.create_host("h1")
    telemetry = domain.enable_telemetry()
    bound = _bound(host)
    assert bound.pop(tap.COMPLETE) == telemetry.on_event
    assert set(bound.values()) == {None}
    assert host._tap_packet is None


def test_attach_and_detach_rebind_existing_and_later_hosts():
    domain = Domain(seed=0)
    early = domain.create_host("early")
    heard = _Heard()
    domain.attach_tap(heard, {tap.SEND, tap.CRASH})
    late = domain.create_host("late")
    for host in (early, late):
        bound = _bound(host)
        assert bound.pop(tap.SEND) is heard
        assert bound.pop(tap.CRASH) is heard
        assert set(bound.values()) == {None}

    other = _Heard()
    domain.attach_tap(other, {tap.CRASH})
    early.crash()
    assert heard.kinds == other.kinds == [tap.CRASH]

    domain.detach_tap(heard)
    domain.detach_tap(other)
    later = domain.create_host("later")
    for host in (early, late, later):
        assert set(_bound(host).values()) == {None}
        assert host._tap_packet is None
