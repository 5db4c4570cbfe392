"""A real transport: the V kernel over UDP sockets on an asyncio loop.

The DES answers the paper's *quantitative* questions; this backend answers
"is it a real protocol?".  Every host is a UDP endpoint on 127.0.0.1, every
kernel packet crosses a socket in the :mod:`repro.net.wire` encoding, and
the kernel is the simulation's own :class:`~repro.kernel.host.Host` -- step
loop, effect and packet tables, probes, retransmission, duplicate
suppression, reply cache, GetPid retries.  :class:`AsyncDomain` is a
:class:`~repro.kernel.domain.Domain` whose engine and Ethernet are two
adapters behind the seams ``Host`` already uses:

- the **loop clock**: ``now`` is ``loop.time()``; a zero-delay post joins a
  FIFO drained before control returns to the loop; timed posts go into a
  heap of the engine's entries, and a transaction's deadlines into the DES
  engine's lanes, whose heads the clock reads itself; each is checked as
  its turn to fire comes (a cancelled timer, or a deadline whose
  transaction has ended, is dropped unfired); at most one loop handle is
  armed for the earliest of them, a selector grain early, then polled once
  per loop turn -- so a sub-millisecond ``Delay`` is neither early nor
  rounded up.  Datagrams, timers and deadlines enter through the same
  drain, so no kernel callback runs re-entrantly, and the drain's end
  re-arms the handle for whatever the kernel armed inside it.
- the **UDP wire**: one non-blocking socket per host on the loop's reader.
  It carries the DES Ethernet's unit, a :class:`~repro.net.packet.Frame`,
  both ways: ``transmit(frame)`` encodes the frame's packet and sends it to
  one host, every other host (broadcast) or a group's hosts (multicast),
  recording each socket it sent to, and a decoded datagram reaches the
  receiving kernel's ``Host._on_frame`` as a ``Frame``.  On loopback the
  datagram is there when ``sendto`` returns, so the drain reads it once its
  ready queue empties (until a timer is due, or a fixed number of reads),
  and a request/reply chain needs no loop turn per datagram.  A datagram
  that does not decode, or comes from outside the domain, is counted in
  ``malformed_datagrams`` and dropped.  A packet that cannot be encoded, or
  exceeds a datagram, fails its transaction with a ``BAD_ARGS`` NACK to the
  waiting side; a failed ``sendto``/``recvfrom`` is a lost frame.

Known divergences from the DES, exactly two: time is the wall clock (every
modelled cost is zero: kernel CPU, hops, wire, bulk moves, the client stub's
``Cpu``; servers' own ``Delay`` sleeps for real), and bulk-move data is
copied in-process by the kernel, so ``MOVE_DATA`` datagrams carry sizes only.
``examples/asyncio_demo.py`` is the worked example.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid
from repro.net.latency import LatencyModel
from repro.net.packet import BROADCAST, Frame, GroupAddress
from repro.net.wire import WireError, decode_packet, encode_packet
from repro.sim.engine import Engine, ScheduledEvent

#: The selector rounds timeouts *up* to a whole millisecond: the clock arms
#: its loop handle this much early and polls the rest.
_TIMER_GRAIN = 1e-3
_INF = float("inf")
_POLL_BUDGET = 32        # reads after sends per drain, then the loop's turn
_MAX_DATAGRAM = 65507    # the IPv4 UDP payload limit
#: Allocated whole per read: asyncio's stock 256 KiB put glibc into a heap
#: trim/grow cycle on every datagram.
_RECEIVE_BYTES = 65536
#: Every modelled cost zero: on sockets the time is this implementation's.
_WALL_CLOCK_ONLY = LatencyModel(**dict(dict.fromkeys(
    LatencyModel.__dataclass_fields__, 0.0), bandwidth_bps=_INF))


class _LoopClock:
    """The engine seam ``Host`` uses, over the running asyncio loop."""

    profiling = False
    #: The DES engine's deadline lanes, kept off any heap: the drain's end
    #: reads their heads for the handle to arm.  (A lane head on a heap
    #: lives from its Send to its reply, and on this clock that raised the
    #: peak RSS of a UDP echo run by most of a MiB.)
    deadline_lane = Engine.deadline_lane
    _queue = None

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._time = time.monotonic
        self._ready: deque = deque()      # (callback, args), due now
        self._sent: deque = deque()       # a socket read per datagram sent
        #: Timers as engine heap entries (time, seq, callback, args, event).
        self._timers: list = []
        self._lanes: dict = {}
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

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEvent:
        event = ScheduledEvent()
        seq = self._seq
        self._seq = seq + 1
        heappush(self._timers, (self._time() + delay, seq, callback, args,
                                event))
        if not self._draining:            # else the drain's end arms
            self._rearm()
        return event

    def close(self) -> None:
        """Forget every pending callback and disarm the loop handle."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle, self._handle_at = None, _INF
        self._timers.clear()
        for lane in self._lanes.values():
            lane.fifo.clear()
        self._ready.clear()

    def _drain(self) -> None:
        self._draining = True
        ready, sent = self._ready, self._sent
        polls = _POLL_BUDGET
        try:
            while True:
                while ready:
                    callback, args = ready.popleft()
                    callback(*args)
                # A loopback datagram is in its socket when sendto returns:
                # read it now, unless a timer is due or the budget is spent.
                if not sent or not polls or self._handle_at <= self._time():
                    break
                polls -= 1
                sent.popleft()()
        finally:
            sent.clear()
            self._draining = False
            if ready:                     # a callback raised: go on next turn
                self._arm_at(-_INF)
            else:
                self._rearm()

    def _rearm(self) -> None:
        """Arm the handle for the earliest live timer or deadline (dropping
        dead ones), or disarm it if there is none."""
        timers = self._timers
        while timers and timers[0][4].cancelled:
            heappop(timers)
        first = timers[0][0] if timers else _INF
        for lane in self._lanes.values():
            fifo = lane.fifo
            while fifo and fifo[0].kernel is None:
                fifo.popleft()
            if fifo:
                first = min(first, lane.entry(fifo[0])[0])
        if first == _INF:
            if self._handle is not None:
                self._handle.cancel()
                self._handle, self._handle_at = None, _INF
        elif first - _TIMER_GRAIN < self._handle_at:
            self._arm_at(first - _TIMER_GRAIN)

    def _tick(self) -> None:
        """Drain, after anything already ready, every timer and deadline
        now due."""
        self._handle, self._handle_at = None, _INF
        self._ready.append((self._fire_due, (self._time(),)))
        self._drain()

    def _fire_due(self, now: float) -> None:
        """Fire the timers and deadlines due by ``now`` in ``(time, seq)``
        order, each only if still live at its turn: an earlier one may have
        cancelled it or ended its transaction."""
        timers, due = self._timers, []
        while timers and timers[0][0] <= now:
            due.append(heappop(timers))
        for lane in self._lanes.values():
            fifo = lane.fifo
            while fifo and lane.entry(fifo[0])[0] <= now:
                due.append(lane.entry(fifo.popleft()))
        due.sort()
        for __, __, callback, args, slot in due:
            if (slot.cancelled if slot.__class__ is ScheduledEvent
                    else args[0].kernel is None):
                continue
            callback(*args)

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


class _UdpWire:
    """The Ethernet seam ``Host`` uses, over one UDP socket per host."""

    def __init__(self, clock: _LoopClock) -> None:
        self._clock = clock
        self.malformed = 0
        self._sockets: dict[int, socket.socket] = {}
        self._reads: dict[int, Callable[[], bool]] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._host_at: dict[tuple[str, int], int] = {}
        self._attached: dict[int, Callable] = {}
        self._live: dict[int, Optional[Callable]] = {}   # None: link down
        self._groups: dict[int, set[int]] = {}

    def open(self, host_id: int) -> None:
        sock = self._sockets[host_id] = socket.socket(socket.AF_INET,
                                                      socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.bind(("127.0.0.1", 0))
        address = sock.getsockname()[:2]
        self._reads[host_id] = functools.partial(self._read, host_id,
                                                 sock.recvfrom)
        self._addresses[host_id] = address
        self._host_at[address] = host_id
        self._clock._loop.add_reader(sock.fileno(), self._readable, host_id)

    def close(self) -> None:
        for sock in self._sockets.values():
            if sock.fileno() != -1:           # not closed by an earlier call
                self._clock._loop.remove_reader(sock.fileno())
                sock.close()

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

    def transmit(self, frame: Frame) -> float:
        src, dst, packet = frame.src_host, frame.dst, frame.payload
        if self._live.get(src) is not None:
            try:
                data = encode_packet(packet)
                if len(data) > _MAX_DATAGRAM:
                    raise WireError("packet exceeds a UDP datagram")
            except WireError:
                data, dst = self._refusal(packet)
            if type(dst) is int:
                self._sendto(src, dst, data)
            else:
                hosts = (self._addresses if dst is BROADCAST
                         else sorted(self._groups.get(dst.group_id, ())))
                for host_id in hosts:
                    if host_id != src:
                        self._sendto(src, host_id, data)
        return self._clock._time()

    def _sendto(self, src: int, dst: int, data: bytes) -> None:
        address = self._addresses.get(dst)
        if address is not None:
            try:
                self._sockets[src].sendto(data, address)
            except OSError:               # a lost frame: the kernel retries
                return
            self._clock._sent.append(self._reads[dst])

    @staticmethod
    def _refusal(packet: Packet) -> tuple[bytes, int]:
        """A packet that cannot be sent fails its transaction: a BAD_ARGS
        NACK to whoever waits on it (a reply's receiver, else the sender)."""
        waiter, other = packet.src_pid, packet.dst_pid
        if packet.kind is PacketKind.REPLY:
            waiter, other = other, waiter
        nack = Packet(PacketKind.NACK, other or Pid(0), waiter, packet.txn_id,
                      Message.reply(ReplyCode.BAD_ARGS))
        return encode_packet(nack), waiter.logical_host

    def _readable(self, host_id: int) -> None:
        while self._reads[host_id]():
            pass
        if self._clock._ready:
            self._clock._drain()

    def _read(self, host_id: int, recvfrom: Callable) -> bool:
        """Queue one datagram from a host's socket; False if there was none."""
        try:
            data, addr = recvfrom(_RECEIVE_BYTES)
        except OSError:                   # EAGAIN, or an ICMP error
            return False
        src = self._host_at.get(addr)
        try:
            packet = decode_packet(data)
        except WireError:
            src = None
        if src is None:
            self.malformed += 1
            return True
        deliver = self._live.get(host_id)
        if deliver is not None:
            # A datagram does not say whether it went to a group: the
            # frame's dst is the host that read it.
            frame = Frame(src, host_id, packet, packet.payload_bytes)
            self._clock._ready.append((deliver, (frame,)))
        return True


class AsyncHost(Host):
    """A kernel :class:`~repro.kernel.host.Host` on a UDP socket."""

    __slots__ = ()

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
        self.ethernet.open(host_id)
        host = AsyncHost(self, host_id, name or f"host{host_id}")
        self.hosts[host_id] = host
        return host

    async def shutdown(self) -> None:
        self.engine.close()
        self.ethernet.close()
        await asyncio.sleep(0)
