"""Frames and addressing, as both wires carry them.

A :class:`Frame` is the one unit the kernel and a wire exchange: the kernel
builds one per transmit and hands it to the DES Ethernet
(:mod:`repro.net.ethernet`) or the UDP wire
(:mod:`repro.net.asyncio_transport`), and each wire hands the receiving
kernel a ``Frame`` too.  A frame's destination is a host id (unicast),
:data:`BROADCAST`, or a :class:`GroupAddress` (multicast).  The payload is
opaque to the network -- the kernel puts :class:`repro.kernel.messages.Packet`
objects in it -- but the frame declares its payload size so the Ethernet can
charge accurate wire time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union


@dataclass(frozen=True)
class _Broadcast:
    """Singleton marker for the all-hosts destination."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BROADCAST"


BROADCAST = _Broadcast()


@dataclass(frozen=True)
class GroupAddress:
    """A multicast group address.

    Membership is managed by :meth:`repro.net.ethernet.Ethernet.join_group`;
    delivery reaches exactly the member hosts, modelling an Ethernet
    multicast address filter (as opposed to broadcast, which interrupts every
    host on the wire -- the distinction E10 measures).
    """

    group_id: int

    def __post_init__(self) -> None:
        if self.group_id < 0:
            raise ValueError(f"group id must be non-negative (got {self.group_id})")


Destination = Union[int, _Broadcast, GroupAddress]

@dataclass(slots=True, init=False)
class Frame:
    """One link-level frame in flight.

    Both wires carry it: the kernel builds one per transmit, and the DES
    Ethernet and the UDP wire each hand one to the receiving kernel.  A frame
    is never reused, so a reference held past delivery (a drop predicate's,
    a delayed or duplicated copy's) keeps what it was shown.
    """

    src_host: int
    dst: Destination
    payload: Any
    payload_bytes: int

    def __init__(self, src_host: int, dst: Destination, payload: Any,
                 payload_bytes: int) -> None:
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.src_host = src_host
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes

    @property
    def is_broadcast(self) -> bool:
        return isinstance(self.dst, _Broadcast)

    @property
    def is_multicast(self) -> bool:
        return isinstance(self.dst, GroupAddress)

    @property
    def is_unicast(self) -> bool:
        return isinstance(self.dst, int)
