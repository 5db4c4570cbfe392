"""A real transport: the V kernel over asyncio UDP sockets.

The DES answers the paper's *quantitative* questions; this backend answers
"is it a real protocol?".  Every host is a UDP endpoint on 127.0.0.1, every
kernel packet crosses a socket in the :mod:`repro.net.wire` encoding, and
the kernel is the simulation's own :class:`~repro.kernel.host.Host` -- step
loop, effect and packet tables, probes, retransmission, duplicate
suppression, reply cache, GetPid retries.  :class:`AsyncDomain` is a
:class:`~repro.kernel.domain.Domain` whose engine and Ethernet are two
adapters behind the seams ``Host`` already uses:

- the **loop clock**: ``now`` is ``loop.time()``; a zero-delay post joins a
  FIFO drained before control returns to the loop; timed posts go into the
  clock's own heap (cancel drops the callback), with at most one loop handle
  armed for the earliest deadline, a selector grain early, then polled once
  per loop turn -- so a sub-millisecond ``Delay`` is neither early nor
  rounded up.  Datagrams and timers enter through the same drain, so no
  kernel callback runs re-entrantly.
- the **UDP wire**: ``transmit`` encodes and sends to one host, every other
  host (broadcast) or a group's hosts (multicast).  A datagram that does not
  decode, or comes from outside the domain, is counted in
  ``malformed_datagrams`` and dropped; the rest reach ``Host._on_frame``
  through the clock.  A packet that cannot be encoded fails its transaction
  with a ``BAD_ARGS`` NACK to the waiting side.

Known divergences from the DES, exactly two: time is the wall clock (no
modelled kernel CPU, hop, wire or bulk-move time; servers' own ``Delay``
sleeps for real), and bulk-move data is copied in-process by the kernel, as
on the DES, so ``MOVE_DATA`` datagrams carry sizes only.
``examples/asyncio_demo.py`` is the worked example.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid
from repro.net.latency import LatencyModel
from repro.net.packet import BROADCAST, GroupAddress
from repro.net.wire import WireError, decode_packet, encode_packet

#: The selector rounds timeouts *up* to a whole millisecond: the clock arms
#: its loop handle this much early and polls the rest.
_TIMER_GRAIN = 1e-3
_INF = float("inf")
_WALL_CLOCK_ONLY = LatencyModel(bandwidth_bps=_INF, kernel_cpu_per_packet=0.0,
                                local_hop=0.0, raw_packet_write=0.0,
                                local_move_per_byte=0.0)


class _Timer:
    """A clock entry and its handle; cancelling or firing drops the callback
    (and with it the transaction a probe or retransmit timer holds)."""

    __slots__ = ("callback", "args", "clock")

    def cancel(self) -> None:
        if self.callback is not None:
            self.callback = self.args = None
            self.clock._live -= 1


class _LoopClock:
    """The engine seam ``Host`` uses, over the running asyncio loop."""

    profiling = False

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._time = time.monotonic
        self._ready: deque = deque()      # (callback, args), due now
        self._timers: list = []           # heap of (deadline, seq, _Timer)
        #: Entries due no earlier than the armed handle: the next tick heaps
        #: the ones still live -- most die first (a Send's probe and
        #: retransmit timers die with its reply) and never cost a heap push.
        self._later: list = []
        self._live = 0                    # timers neither cancelled nor fired
        self._seq = 0
        self._draining = False
        self._handle: Optional[asyncio.Handle] = None
        self._handle_at = _INF            # loop time the handle fires at

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        if type(loop).time is not asyncio.BaseEventLoop.time:
            self._time = loop.time        # the stock one *is* time.monotonic

    @property
    def now(self) -> float:
        return self._time()

    _now = now

    def post(self, delay: float, callback: Callable, *args: Any) -> None:
        if delay > 0.0:
            self.schedule(delay, callback, *args)
            return
        self._ready.append((callback, args))
        if not self._draining:
            self._arm_at(-_INF)

    def post_at(self, when: float, callback: Callable, *args: Any) -> None:
        self.post(when - self._time(), callback, *args)

    def schedule(self, delay: float, callback: Callable, *args: Any) -> _Timer:
        timer = _Timer()
        timer.callback, timer.args, timer.clock = callback, args, self
        self._live += 1
        deadline = self._time() + delay
        self._seq += 1
        if deadline - _TIMER_GRAIN < self._handle_at:
            heappush(self._timers, (deadline, self._seq, timer))
            self._arm_at(deadline - _TIMER_GRAIN)
        else:
            self._later.append((deadline, self._seq, timer))
        return timer

    def close(self) -> None:
        """Forget every pending callback and disarm the loop handle."""
        self._disarm()
        self._ready.clear()

    def _disarm(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle, self._handle_at = None, _INF
        self._timers.clear()
        self._later.clear()
        self._live = 0

    def _drain(self) -> None:
        self._draining = True
        ready = self._ready
        try:
            while ready:
                callback, args = ready.popleft()
                callback(*args)
        finally:
            self._draining = False
            if ready:                     # a callback raised: go on next turn
                self._arm_at(-_INF)
            elif not self._live:
                if self._handle is not None:
                    self._disarm()
            else:                         # _later never needs an earlier arm
                timers = self._timers
                while timers and timers[0][2].callback is None:
                    heappop(timers)
                if timers and timers[0][0] - _TIMER_GRAIN < self._handle_at:
                    self._arm_at(timers[0][0] - _TIMER_GRAIN)

    def _tick(self) -> None:
        self._handle, self._handle_at = None, _INF
        timers, ready = self._timers, self._ready
        if self._later:
            for entry in self._later:
                if entry[2].callback is not None:
                    heappush(timers, entry)
            self._later.clear()
        now = self._time()
        while timers and timers[0][0] <= now:
            timer = heappop(timers)[2]
            if timer.callback is not None:
                ready.append((timer.callback, timer.args))
                timer.callback = timer.args = None
                self._live -= 1
        if ready or not self._live:
            self._drain()
            return
        while timers[0][2].callback is None:   # polling: nothing due yet
            heappop(timers)
        self._arm_at(timers[0][0] - _TIMER_GRAIN)

    def _arm_at(self, when: float) -> None:
        if self._handle is not None:
            if self._handle_at <= when:
                return
            self._handle.cancel()
        if when > self._time():
            self._handle = self._loop.call_at(when, self._tick)
        else:
            self._handle = self._loop.call_soon(self._tick)
        self._handle_at = when


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, receive: Callable[[bytes, Any], None]) -> None:
        self.datagram_received = receive  # one call per datagram


class _Arrival:
    """A received datagram, as ``Host._on_frame`` reads a frame."""

    __slots__ = ("src_host", "payload")


class _UdpWire:
    """The Ethernet seam ``Host`` uses, over one UDP socket per host."""

    #: ``Host`` acquires its frames here; a datagram needs no frame object.
    frame_pool = SimpleNamespace(
        acquire=lambda src_host, dst, packet, nbytes: (src_host, dst, packet))

    def __init__(self, clock: _LoopClock) -> None:
        self._clock = clock
        self.malformed = 0
        self._transports: dict[int, asyncio.DatagramTransport] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._host_at: dict[tuple[str, int], int] = {}
        self._attached: dict[int, Callable] = {}
        self._live: dict[int, Optional[Callable]] = {}   # None: link down
        self._groups: dict[int, set[int]] = {}

    async def open(self, host_id: int) -> None:
        transport, __ = await self._clock._loop.create_datagram_endpoint(
            lambda: _Endpoint(functools.partial(self._receive, host_id)),
            local_addr=("127.0.0.1", 0))
        address = transport.get_extra_info("sockname")[:2]
        self._transports[host_id] = transport
        self._addresses[host_id] = address
        self._host_at[address] = host_id

    def close(self) -> None:
        for transport in self._transports.values():
            transport.close()

    def address_of(self, host_id: int) -> Optional[tuple[str, int]]:
        return self._addresses.get(host_id)

    def attach(self, host_id: int, deliver: Callable) -> None:
        self._attached[host_id] = self._live[host_id] = deliver

    def is_attached(self, host_id: int) -> bool:
        return host_id in self._attached

    def set_link(self, host_id: int, up: bool) -> None:
        self._live[host_id] = self._attached[host_id] if up else None

    def join_group(self, host_id: int, group: GroupAddress) -> None:
        self._groups.setdefault(group.group_id, set()).add(host_id)

    def leave_group(self, host_id: int, group: GroupAddress) -> None:
        self._groups.get(group.group_id, set()).discard(host_id)

    def transmit(self, frame: tuple) -> float:
        src, dst, packet = frame
        if self._live.get(src) is not None:
            try:
                data = encode_packet(packet)
            except WireError:
                data, dst = self._refusal(packet)
            if type(dst) is int:
                address = self._addresses.get(dst)
                if address is not None:
                    self._transports[src].sendto(data, address)
            else:
                hosts = (self._addresses if dst is BROADCAST
                         else sorted(self._groups.get(dst.group_id, ())))
                for host_id in hosts:
                    if host_id != src:
                        self._transports[src].sendto(
                            data, self._addresses[host_id])
        return self._clock._time()

    @staticmethod
    def _refusal(packet: Packet) -> tuple[bytes, int]:
        """A packet that cannot be encoded fails its transaction: a BAD_ARGS
        NACK to whoever waits on it (a reply's receiver, else the sender)."""
        waiter, other = packet.src_pid, packet.dst_pid
        if packet.kind is PacketKind.REPLY:
            waiter, other = other, waiter
        nack = Packet(PacketKind.NACK, other or Pid(0), waiter, packet.txn_id,
                      Message.reply(ReplyCode.BAD_ARGS))
        return encode_packet(nack), waiter.logical_host

    def _receive(self, host_id: int, data: bytes, addr: Any) -> None:
        src = self._host_at.get(addr)
        try:
            packet = decode_packet(data)
        except WireError:
            src = None
        if src is None:
            self.malformed += 1
            return
        deliver = self._live.get(host_id)
        if deliver is not None:
            arrival = _Arrival()
            arrival.src_host, arrival.payload = src, packet
            clock = self._clock
            clock._ready.append((deliver, (arrival,)))
            if not clock._draining:
                clock._drain()


class AsyncHost(Host):
    """A kernel :class:`~repro.kernel.host.Host` on a UDP socket."""

    def spawn(self, body, name: str = "process") -> Pid:
        """Start a process; returns its Pid (the DES returns the Process)."""
        return Host.spawn(self, body, name).pid

    @property
    def address(self) -> Optional[tuple[str, int]]:
        """This host's UDP endpoint."""
        return self.ethernet.address_of(self.host_id)


class AsyncDomain(Domain):
    """A V domain over loopback UDP: the kernel on a loop clock and UDP wire."""

    def __init__(self) -> None:
        super().__init__(latency=_WALL_CLOCK_ONLY)

    def _make_engine(self) -> _LoopClock:
        return _LoopClock()

    def _make_ethernet(self) -> _UdpWire:
        return _UdpWire(self.engine)

    @property
    def malformed_datagrams(self) -> int:
        """Datagrams dropped: undecodable, or from outside the domain."""
        return self.ethernet.malformed

    async def create_host(self, name: str | None = None) -> AsyncHost:
        self.engine.bind(asyncio.get_running_loop())
        host_id = self._next_host_id
        self._next_host_id += 1
        await self.ethernet.open(host_id)
        host = AsyncHost(self, host_id, name or f"host{host_id}")
        self.hosts[host_id] = host
        return host

    async def shutdown(self) -> None:
        self.engine.close()
        self.ethernet.close()
        await asyncio.sleep(0)
