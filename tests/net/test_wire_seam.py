"""One table of frame-level cases, run on both wires the kernel can use.

``Host`` attaches ``_on_frame`` to whichever wire its domain made: the DES
:class:`~repro.net.ethernet.Ethernet` or ``AsyncDomain``'s UDP wire.  Both
must hand that callback the same shape, a :class:`~repro.net.packet.Frame`
carrying the sender's host id and its packet, and agree on who hears a
frame: not a host whose link is down, every other attached host exactly
once for a broadcast, only the joined hosts for a multicast.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.kernel.messages import Message, Packet, PacketKind
from repro.kernel.pids import Pid
from repro.net.asyncio_transport import AsyncDomain
from repro.net.ethernet import Ethernet
from repro.net.latency import STANDARD_3MBIT
from repro.net.packet import BROADCAST, Frame, GroupAddress
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine

HOSTS = (1, 2, 3, 4)
GROUP = GroupAddress(7)


@dataclass(frozen=True)
class Case:
    name: str
    src: int
    dst: object
    #: host -> frames it must receive; every other host receives none.
    expect: dict
    down: tuple = ()
    members: tuple = ()


CASES = [
    Case("unicast", 1, 2, {2: 1}),
    Case("unicast to a down link", 1, 2, {}, down=(2,)),
    Case("unicast from a down link", 1, 2, {}, down=(1,)),
    Case("broadcast", 1, BROADCAST, {2: 1, 3: 1, 4: 1}),
    Case("broadcast past a down link", 1, BROADCAST, {2: 1, 4: 1},
         down=(3,)),
    Case("multicast", 1, GROUP, {2: 1, 3: 1}, members=(2, 3)),
    Case("multicast, sender a member", 1, GROUP, {3: 1}, members=(1, 3)),
    Case("multicast, no members", 1, GROUP, {}),
]


def packet_from(src: int) -> Packet:
    return Packet(PacketKind.REQUEST, Pid.make(src, 5), Pid.make(2, 6), 41,
                  Message.request(0x0101, n=7))


def frame_for(case: Case, packet: Packet) -> Frame:
    return Frame(case.src, case.dst, packet, packet.payload_bytes)


def wire_up(wire, case: Case) -> dict[int, list]:
    """Attach a collector per host, then apply the case's links and groups."""
    received = {}
    for host_id in HOSTS:
        received[host_id] = []
        wire.attach(host_id, received[host_id].append)
    for host_id in case.down:
        wire.set_link(host_id, False)
    for host_id in case.members:
        wire.join_group(host_id, GROUP)
    return received


def on_ethernet(case: Case, packet: Packet) -> dict[int, list]:
    engine = Engine()
    ethernet = Ethernet(engine, STANDARD_3MBIT, MetricsRegistry())
    received = wire_up(ethernet, case)
    ethernet.transmit(frame_for(case, packet))
    engine.run()
    return received


def on_udp(case: Case, packet: Packet) -> dict[int, list]:
    async def scenario():
        domain = AsyncDomain()
        clock, wire = domain.engine, domain.ethernet
        clock.bind(asyncio.get_running_loop())
        try:
            for host_id in HOSTS:
                wire.open(host_id)
            received = wire_up(wire, case)
            # As a kernel does: the transmit runs inside the clock's drain.
            clock.post(0.0, wire.transmit, frame_for(case, packet))
            await asyncio.sleep(0.05)
            return received
        finally:
            await domain.shutdown()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30))


@pytest.mark.parametrize("run", [on_ethernet, on_udp],
                         ids=["ethernet", "udp"])
@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_both_wires_hand_the_kernel_the_same_frames(run, case):
    packet = packet_from(case.src)
    received = run(case, packet)
    for host_id in HOSTS:
        frames = received[host_id]
        assert len(frames) == case.expect.get(host_id, 0), host_id
        for frame in frames:
            assert type(frame) is Frame
            assert frame.src_host == case.src
            assert frame.payload == packet
