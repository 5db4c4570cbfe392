"""A real transport: the V kernel protocol over asyncio UDP sockets.

The discrete-event backend answers the paper's *quantitative* questions; this
backend answers the "is it a real protocol?" one.  Every host is a UDP
endpoint on 127.0.0.1, every kernel packet crosses a socket in the
:mod:`repro.net.wire` encoding, and -- the point of the whole effects design
-- the *same server generators* (file server, prefix server, mail server,
...) run unmodified: ``AsyncHost`` is simply a second interpreter for the
effect vocabulary of :mod:`repro.kernel.ipc`.

The interpreter has the DES kernel's shape.  ``_step`` runs a process
synchronously from effect to effect through a type-keyed handler table until
one blocks; a blocked process is parked (in the reply / GetPid / move waiter
table, or on its own ``receiving`` flag) with at most one ``loop.call_later``
handle for its timeout, and the datagram that ends the wait resumes the
generator inside ``datagram_received`` -- no ``asyncio.Task``, ``Future`` or
``Event`` on the way.  ``loop.time``, ``loop.call_later`` and ``_sendto`` are
all it asks of its driver.

Supported effects: Send, Receive, Reply, Forward, MoveTo, MoveFrom, SetPid,
GetPid, Delay, Now, MyPid, Spawn, Exit, JoinGroup/LeaveGroup/GroupSend (group
sends fan out as unicast datagrams; membership is shared in-process, standing
in for the kernel group protocol); Annotate and ProfileEnter/ProfileExit are
accepted and ignored.  Known divergences from the DES backend: time is the
wall clock (``Delay(s)`` never returns early, and stays accurate below the
selector's one-millisecond timeout granularity by polling the last
millisecond cooperatively -- paid in CPU, not in latency); there is no probe
protocol, retransmission or duplicate suppression (plain reply timeouts); no
instruments attach; and message fields must be wire-encodable (one that is
not raises ``WireError`` inside the sending process).

``examples/asyncio_demo.py`` is the worked example.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Optional

from repro.kernel import ipc
from repro.kernel.errors import IllegalEffect, KernelError, NotAwaitingReply
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid, PidAllocator
from repro.kernel.services import Scope, ServiceRegistry
from repro.net.wire import WireError, decode_packet, encode_packet
from repro.sim.process import Task, TaskFailure

#: How long a Send waits for a reply before failing with TIMEOUT (seconds,
#: wall clock).  Generous: loopback RTTs are microseconds.
REPLY_TIMEOUT = 5.0
GETPID_TIMEOUT = 0.25
MOVE_TIMEOUT = 5.0

#: The selector rounds every timeout *up* to a whole millisecond, so a timer
#: is only good to within this much; a Delay arms one for all but this tail.
_TIMER_GRAIN = 1e-3

#: Transaction, GetPid-waiter and move ids come from one counter, so a key
#: names one parked process across all of a host's waiter tables.
_ids = itertools.count(1)

#: What an effect handler returns when it parked the process.
_BLOCKED = object()


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, host: "AsyncHost") -> None:
        # The host's handler *is* the protocol method: one call per datagram.
        self.datagram_received = host._on_datagram


class _AsyncProcess:
    __slots__ = ("pid", "task", "name", "queue", "unreplied", "alive",
                 "stepping", "receiving", "receive_from", "timer")

    def __init__(self, pid: Pid, task: Task, name: str) -> None:
        self.pid = pid
        self.task = task
        self.name = name
        self.queue: deque[ipc.Delivery] = deque()
        self.unreplied: dict[int, ipc.Delivery] = {}
        self.alive = True
        self.stepping = False
        #: Parked in Receive, for a request from ``receive_from`` (None: any).
        self.receiving = False
        self.receive_from: Optional[Pid] = None
        #: The one pending loop handle of a parked process: its first step,
        #: its Delay, or the timeout of its Send / GetPid / move.
        self.timer: Optional[asyncio.Handle] = None


class AsyncHost:
    """One machine: kernel tables + a run-to-block effect interpreter."""

    def __init__(self, domain: "AsyncDomain", host_id: int, name: str) -> None:
        self.domain = domain
        self.host_id = host_id
        self.name = name
        self.allocator = PidAllocator(host_id)
        self.registry = ServiceRegistry()
        self.processes: dict[int, _AsyncProcess] = {}
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.address: Optional[tuple[str, int]] = None
        #: txn -> process blocked in Send / GroupSend.
        self._reply_waiters: dict[int, _AsyncProcess] = {}
        #: waiter id -> process blocked in a GetPid broadcast.
        self._getpid_waiters: dict[int, _AsyncProcess] = {}
        #: move id -> process blocked in MoveTo / MoveFrom.
        self._move_waiters: dict[int, _AsyncProcess] = {}
        #: txn of a Send in flight -> exposed Segment (for moves).
        self._exposed: dict[int, ipc.Segment] = {}

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.transport, __ = await self._loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=("127.0.0.1", 0))
        self.address = self.transport.get_extra_info("sockname")[:2]

    def close(self) -> None:
        for proc in self.processes.values():
            proc.alive = False
            if proc.timer is not None:
                proc.timer.cancel()
        for table in (self.processes, self._reply_waiters, self._exposed,
                      self._getpid_waiters, self._move_waiters):
            table.clear()
        if self.transport is not None:
            self.transport.close()

    # ------------------------------------------------------------- processes

    def spawn(self, body, name: str = "process") -> Pid:
        pid = self.allocator.allocate()
        if callable(body) and not hasattr(body, "send"):
            body = body(pid)
        proc = _AsyncProcess(pid, Task(body, name=f"{self.name}/{name}"), name)
        self.processes[pid.local_id] = proc
        proc.timer = self._loop.call_soon(self._step, proc, None, None, True)
        return pid

    def _step(self, proc: _AsyncProcess, value: Any = None,
              exc: BaseException | None = None, first: bool = False) -> None:
        """Run ``proc`` from the result of its last effect until it blocks."""
        if not proc.alive:
            return
        assert not proc.stepping, f"{proc.name!r} stepped re-entrantly"
        proc.stepping = True
        proc.timer = None
        task = proc.task
        handlers = self._EFFECT_HANDLERS
        try:
            while True:
                try:
                    if first:
                        finished, effect = task.start()
                        first = False
                    elif exc is not None:
                        err, exc = exc, None
                        finished, effect = task.throw(err)
                    else:
                        finished, effect = task.resume(value)
                except TaskFailure as failure:
                    self.domain.failures.append((task.name, failure.original))
                    break
                if finished:
                    break
                try:
                    handler = handlers.get(type(effect))
                    if handler is None:
                        raise IllegalEffect(
                            f"{effect!r} is not a kernel effect")
                    value = handler(self, proc, effect)
                except (KernelError, WireError) as err:
                    # API misuse becomes an exception *inside* the process;
                    # an unhandled one lands in domain.failures.
                    value, exc = None, err
                    continue
                if value is _BLOCKED:
                    return
        finally:
            proc.stepping = False
        self._terminate(proc)

    def _terminate(self, proc: _AsyncProcess) -> None:
        if not proc.alive:
            return
        proc.alive = False
        for delivery in list(proc.queue) + list(proc.unreplied.values()):
            self._send_reply_packet(
                proc.pid, delivery, Message.reply(ReplyCode.NONEXISTENT_PROCESS))
        proc.queue.clear()
        proc.unreplied.clear()
        self.registry.remove_pid(proc.pid)
        self.domain.groups.pop_pid(proc.pid)
        self.processes.pop(proc.pid.local_id, None)

    def find_process(self, pid: Pid) -> Optional[_AsyncProcess]:
        proc = self.processes.get(pid.local_id)
        if proc is not None and proc.pid == pid and proc.alive:
            return proc
        return None

    # ---------------------------------------------------------- park and wake

    def _park(self, proc: _AsyncProcess, table: dict, key: int, timeout: float,
              code: ReplyCode | None, exc: BaseException | None = None) -> Any:
        """Block ``proc`` as ``table[key]`` until ``_wake`` -- or ``timeout``,
        which resumes it with a ``code`` reply (None: with None) or throws
        ``exc`` into it."""
        table[key] = proc
        proc.timer = self._loop.call_later(timeout, self._expire, table, key,
                                           code, exc)
        return _BLOCKED

    def _wake(self, table: dict, key: int) -> Optional[_AsyncProcess]:
        proc = table.pop(key, None)
        if proc is not None:
            proc.timer.cancel()
            self._exposed.pop(key, None)
        return proc

    def _expire(self, table: dict, key: int, code: ReplyCode | None,
                exc: BaseException | None) -> None:
        self._step(self._wake(table, key),
                   Message.reply(code) if code is not None else None, exc)

    # --------------------------------------------------------------- effects

    def _do_nothing(self, proc: _AsyncProcess, effect: Any) -> None:
        # Annotate and ProfileEnter/ProfileExit are simulation-side
        # observability: the socket transport carries no trace contexts and
        # has no simulated time to charge.
        return None

    def _do_delay(self, proc: _AsyncProcess, effect: ipc.Delay) -> Any:
        """Keep wall time: one coarse timer for all but the selector's last
        millisecond, then ``_delay_tick`` once per loop turn."""
        loop, seconds = self._loop, effect.seconds
        deadline = loop.time() + seconds
        if seconds > _TIMER_GRAIN:
            proc.timer = loop.call_later(seconds - _TIMER_GRAIN,
                                         self._delay_tick, proc, deadline)
        else:
            proc.timer = loop.call_soon(self._delay_tick, proc, deadline)
        return _BLOCKED

    def _delay_tick(self, proc: _AsyncProcess, deadline: float) -> None:
        # A full loop turn passes between ticks, so sockets and the other
        # processes keep being served while this one waits out its tail.
        if self._loop.time() >= deadline:
            self._step(proc)
        else:
            proc.timer = self._loop.call_soon(self._delay_tick, proc, deadline)

    def _do_now(self, proc: _AsyncProcess, effect: ipc.Now) -> float:
        return self._loop.time()

    def _do_my_pid(self, proc: _AsyncProcess, effect: ipc.MyPid) -> Pid:
        return proc.pid

    def _do_set_pid(self, proc: _AsyncProcess, effect: ipc.SetPid) -> None:
        self.registry.set_pid(effect.service, proc.pid, effect.scope)

    def _do_spawn(self, proc: _AsyncProcess, effect: ipc.Spawn) -> Pid:
        return self.spawn(effect.body, effect.name)

    def _do_join_group(self, proc: _AsyncProcess, effect: ipc.JoinGroup) -> None:
        self.domain.groups.join(effect.group_id, proc.pid)

    def _do_leave_group(self, proc: _AsyncProcess,
                        effect: ipc.LeaveGroup) -> None:
        self.domain.groups.leave(effect.group_id, proc.pid)

    def _do_exit(self, proc: _AsyncProcess, effect: ipc.Exit) -> Any:
        proc.task.close()
        self._terminate(proc)
        return _BLOCKED

    # ------------------------------------------------------------------ send

    def _sendto(self, data: bytes, host_id: int) -> None:
        address = self.domain.address_of(host_id)
        if address is not None and self.transport is not None:
            self.transport.sendto(data, address)

    def _send_packet(self, packet: Packet, host_id: int) -> None:
        self._sendto(encode_packet(packet), host_id)

    def _do_send(self, proc: _AsyncProcess, effect: ipc.Send) -> Any:
        dst = effect.dst
        if dst.is_logical_service:
            raise IllegalEffect(f"cannot Send to logical pid {dst!r}")
        txn = next(_ids)
        packet = Packet(PacketKind.REQUEST, src_pid=proc.pid, dst_pid=dst,
                        txn_id=txn, message=effect.message)
        self._send_packet(packet, dst.logical_host)
        if effect.expose is not None:
            self._exposed[txn] = effect.expose
        return self._park(proc, self._reply_waiters, txn, REPLY_TIMEOUT,
                          ReplyCode.TIMEOUT)

    def _do_receive(self, proc: _AsyncProcess, effect: ipc.Receive) -> Any:
        from_pid = effect.from_pid
        for index, delivery in enumerate(proc.queue):
            if from_pid is None or delivery.sender == from_pid:
                del proc.queue[index]
                proc.unreplied[delivery.txn_id] = delivery
                return delivery
        proc.receiving = True
        proc.receive_from = from_pid
        return _BLOCKED

    def _do_reply(self, proc: _AsyncProcess, effect: ipc.Reply) -> None:
        for txn_id, delivery in proc.unreplied.items():
            if delivery.sender == effect.to:
                del proc.unreplied[txn_id]
                return self._send_reply_packet(proc.pid, delivery,
                                               effect.message)
        raise NotAwaitingReply(
            f"{effect.to!r} is not awaiting a reply from {proc.name!r}")

    def _send_reply_packet(self, from_pid: Pid, delivery: ipc.Delivery,
                           message: Message) -> None:
        packet = Packet(PacketKind.REPLY, src_pid=from_pid,
                        dst_pid=delivery.sender, txn_id=delivery.txn_id,
                        message=message)
        self._send_packet(packet, delivery.sender.logical_host)

    def _do_forward(self, proc: _AsyncProcess, effect: ipc.Forward) -> None:
        delivery = effect.delivery
        if delivery.txn_id not in proc.unreplied:
            raise NotAwaitingReply(
                f"txn {delivery.txn_id} is not held by {proc.name!r}")
        message = effect.message if effect.message is not None else delivery.message
        packet = Packet(PacketKind.REQUEST, src_pid=delivery.sender,
                        dst_pid=effect.dst, txn_id=delivery.txn_id,
                        message=message, info={"forwarder": proc.pid})
        self._send_packet(packet, effect.dst.logical_host)
        del proc.unreplied[delivery.txn_id]

    # ----------------------------------------------------------------- moves

    def _do_move(self, proc: _AsyncProcess,
                 effect: ipc.MoveFrom | ipc.MoveTo) -> Any:
        if type(effect) is ipc.MoveFrom:
            other, direction, nbytes, data = effect.src, "from", effect.nbytes, None
        else:
            other, direction, nbytes, data = (effect.dst, "to",
                                              len(effect.data), effect.data)
        txn = next((d.txn_id for d in proc.unreplied.values()
                    if d.sender == other), None)
        if txn is None:
            raise NotAwaitingReply(
                f"bulk move with {other!r}, which is not blocked on us")
        move_id = next(_ids)
        message = Message.request(0, segment=data) if data is not None else None
        packet = Packet(PacketKind.MOVE_REQUEST, src_pid=proc.pid,
                        dst_pid=other, txn_id=txn, message=message,
                        info={"direction": direction, "offset": effect.offset,
                              "nbytes": nbytes, "move_id": move_id})
        self._send_packet(packet, other.logical_host)
        return self._park(proc, self._move_waiters, move_id, MOVE_TIMEOUT,
                          None, KernelError("bulk move timed out"))

    # ------------------------------------------------------------------ pids

    def _do_get_pid(self, proc: _AsyncProcess, effect: ipc.GetPid) -> Any:
        if effect.scope is not Scope.REMOTE:
            local = self.registry.lookup_local(effect.service)
            if local is not None:
                return local
        if effect.scope is Scope.LOCAL:
            return None
        waiter = next(_ids)
        packet = Packet(PacketKind.GETPID_QUERY, src_pid=Pid.make(self.host_id, 1),
                        dst_pid=None, txn_id=0,
                        info={"service": int(effect.service), "waiter": waiter,
                              "origin": self.host_id})
        data = encode_packet(packet)
        for host_id in self.domain.host_ids():
            if host_id != self.host_id:
                self._sendto(data, host_id)
        return self._park(proc, self._getpid_waiters, waiter, GETPID_TIMEOUT,
                          None)

    def _do_group_send(self, proc: _AsyncProcess, effect: ipc.GroupSend) -> Any:
        members = [pid for pid in self.domain.groups.members(effect.group_id)
                   if pid != proc.pid]
        if not members:
            return Message.reply(ReplyCode.NO_SERVER)
        txn = next(_ids)
        for member in members:
            packet = Packet(PacketKind.GROUP_REQUEST, src_pid=proc.pid,
                            dst_pid=member, txn_id=txn, message=effect.message,
                            info={"group": effect.group_id})
            self._send_packet(packet, member.logical_host)
        return self._park(proc, self._reply_waiters, txn, REPLY_TIMEOUT,
                          ReplyCode.NO_SERVER)

    _EFFECT_HANDLERS = {
        ipc.Send: _do_send, ipc.Receive: _do_receive, ipc.Reply: _do_reply,
        ipc.Forward: _do_forward, ipc.MoveFrom: _do_move,
        ipc.MoveTo: _do_move, ipc.Delay: _do_delay, ipc.Now: _do_now,
        ipc.MyPid: _do_my_pid, ipc.SetPid: _do_set_pid,
        ipc.GetPid: _do_get_pid, ipc.Spawn: _do_spawn,
        ipc.JoinGroup: _do_join_group, ipc.LeaveGroup: _do_leave_group,
        ipc.GroupSend: _do_group_send, ipc.Exit: _do_exit,
        ipc.Annotate: _do_nothing, ipc.ProfileEnter: _do_nothing,
        ipc.ProfileExit: _do_nothing,
    }

    # --------------------------------------------------------------- receive

    def _on_datagram(self, data: bytes, addr: Any = None) -> None:
        try:
            packet = decode_packet(data)
        except WireError:
            self.domain._malformed += 1
            return
        handler = self._PACKET_HANDLERS.get(packet.kind)
        if handler is not None:
            handler(self, packet)

    def _on_request(self, packet: Packet) -> None:
        assert packet.dst_pid is not None and packet.message is not None
        proc = self.find_process(packet.dst_pid)
        if proc is None:
            nack = Packet(PacketKind.NACK, src_pid=packet.dst_pid,
                          dst_pid=packet.src_pid, txn_id=packet.txn_id,
                          message=Message.reply(ReplyCode.NONEXISTENT_PROCESS))
            self._send_packet(nack, packet.src_pid.logical_host)
            return
        delivery = ipc.Delivery(
            message=packet.message, sender=packet.src_pid,
            txn_id=packet.txn_id, forwarder=packet.info.get("forwarder"),
            via_group=packet.kind is PacketKind.GROUP_REQUEST)
        if proc.receiving and (proc.receive_from is None
                               or proc.receive_from == delivery.sender):
            proc.receiving = False
            proc.unreplied[delivery.txn_id] = delivery
            self._step(proc, delivery)
        else:
            proc.queue.append(delivery)

    def _on_reply(self, packet: Packet) -> None:
        proc = self._wake(self._reply_waiters, packet.txn_id)
        if proc is not None:
            self._step(proc, packet.message)

    def _on_getpid_query(self, packet: Packet) -> None:
        found = self.registry.lookup_remote(packet.info["service"])
        if found is None or self.find_process(found) is None:
            return
        response = Packet(PacketKind.GETPID_RESPONSE, src_pid=found,
                          dst_pid=None, txn_id=0,
                          info={"waiter": packet.info["waiter"], "pid": found})
        self._send_packet(response, packet.info["origin"])

    def _on_getpid_response(self, packet: Packet) -> None:
        proc = self._wake(self._getpid_waiters, packet.info["waiter"])
        if proc is not None:
            self._step(proc, packet.info["pid"])

    def _on_move_request(self, packet: Packet) -> None:
        """The mover wants at a segment our local blocked sender exposed."""
        info = packet.info
        segment = self._exposed.get(packet.txn_id)
        response_info = {"move_id": info["move_id"], "ok": segment is not None}
        message = None
        if segment is not None:
            try:
                if info["direction"] == "from":
                    data = segment.read(int(info["offset"]), int(info["nbytes"]))
                    message = Message.request(0, segment=data)
                else:
                    assert packet.message is not None
                    segment.write(int(info["offset"]),
                                  packet.message.segment or b"")
            except KernelError as err:
                response_info["ok"] = False
                response_info["error"] = str(err)
        response = Packet(PacketKind.MOVE_RESPONSE, src_pid=packet.dst_pid or Pid(0),
                          dst_pid=packet.src_pid, txn_id=packet.txn_id,
                          message=message, info=response_info)
        self._send_packet(response, packet.src_pid.logical_host)

    def _on_move_response(self, packet: Packet) -> None:
        proc = self._wake(self._move_waiters, packet.info["move_id"])
        if proc is None:
            return
        if not packet.info.get("ok", False):
            self._step(proc, None, KernelError(
                packet.info.get("error", "bulk move rejected")))
        elif packet.message is not None:
            self._step(proc, packet.message.segment or b"")
        else:
            self._step(proc)

    _PACKET_HANDLERS = {
        PacketKind.REQUEST: _on_request,
        PacketKind.GROUP_REQUEST: _on_request,
        PacketKind.REPLY: _on_reply,
        PacketKind.NACK: _on_reply,
        PacketKind.GETPID_QUERY: _on_getpid_query,
        PacketKind.GETPID_RESPONSE: _on_getpid_response,
        PacketKind.MOVE_REQUEST: _on_move_request,
        PacketKind.MOVE_RESPONSE: _on_move_response,
    }


class _AsyncGroups:
    def __init__(self) -> None:
        self._members: dict[int, set[Pid]] = {}

    def join(self, group_id: int, pid: Pid) -> None:
        self._members.setdefault(group_id, set()).add(pid)

    def leave(self, group_id: int, pid: Pid) -> None:
        self._members.get(group_id, set()).discard(pid)

    def members(self, group_id: int) -> set[Pid]:
        return set(self._members.get(group_id, set()))

    def pop_pid(self, pid: Pid) -> None:
        for members in self._members.values():
            members.discard(pid)


class AsyncDomain:
    """A V domain over loopback UDP."""

    def __init__(self) -> None:
        self.hosts: dict[int, AsyncHost] = {}
        self.groups = _AsyncGroups()
        self.failures: list[tuple[str, BaseException]] = []
        self._next_host_id = 1
        self._malformed = 0

    @property
    def malformed_datagrams(self) -> int:
        """Datagrams any host dropped because they did not decode."""
        return self._malformed

    async def create_host(self, name: str | None = None) -> AsyncHost:
        host_id = self._next_host_id
        self._next_host_id += 1
        host = AsyncHost(self, host_id, name or f"host{host_id}")
        await host.start()
        self.hosts[host_id] = host
        return host

    def host_ids(self) -> list[int]:
        return sorted(self.hosts)

    def address_of(self, host_id: int) -> Optional[tuple[str, int]]:
        host = self.hosts.get(host_id)
        return host.address if host is not None else None

    async def shutdown(self) -> None:
        for host in self.hosts.values():
            host.close()
        await asyncio.sleep(0)

    def check_healthy(self) -> None:
        if self.failures:
            name, exc = self.failures[0]
            raise AssertionError(f"process {name} failed: {exc!r}") from exc
