"""The team server / program manager (paper Sec. 6).

"A single 'list directory' command lists the objects in any one of several
different contexts, including *programs in execution*" -- so running
programs are named objects in a context, described by typed records, and the
uniform Delete works on them: removing ``[team]edit.3`` kills the program.

RUN_PROGRAM spawns a (simulated) program process on the server's host;
programs are named ``<program>.<n>`` in a flat context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.core.csnh import BAD_FIELD
from repro.core.descriptors import ObjectDescription, ProcessDescription
from repro.core.mapping import ResolvedObject
from repro.kernel.ipc import Delay, Delivery, Now, Spawn
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.servers.base import FlatContextServer

Gen = Generator[Any, Any, Any]


@dataclass
class RunningProgram:
    name: bytes
    program: str
    pid: Pid
    start_time: float
    state: str = "running"
    priority: int = 8


def _program_body(duration: float):
    """The default simulated program: compute (sleep) then exit."""
    if duration > 0:
        yield Delay(duration)


class TeamServer(FlatContextServer):
    """Programs in execution as a CSNH context."""

    server_name = "teamserver"
    service_id = int(ServiceId.TEAM)
    context_name = "programs"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0
        self.register_request_op(RequestCode.RUN_PROGRAM, self.op_run)
        self.register_request_op(RequestCode.KILL_PROGRAM, self.op_kill)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete)

    # ------------------------------------------------------------------ ops

    def op_run(self, delivery: Delivery) -> Gen:
        message = delivery.message
        program = str(message.get("program", ""))
        try:
            duration = float(message.get("duration", 0.0))
        except BAD_FIELD:
            program = ""
        if not program:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        self._counter += 1
        name = f"{program}.{self._counter}".encode()
        body = message.get("body")  # tests can inject a real body
        pid = yield Spawn(body if body is not None else _program_body(duration),
                          name=f"prog-{program}-{self._counter}")
        now = yield Now()
        self.objects[name] = RunningProgram(
            name=name, program=program, pid=pid, start_time=now)
        yield from self.reply_ok(delivery, name=name.decode(), pid=pid.value)

    def op_kill(self, delivery: Delivery) -> Gen:
        name = str(delivery.message.get("name", "")).encode()
        entry = self.objects.pop(name, None)
        if entry is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        entry.state = "killed"
        yield from self.reply_ok(delivery)

    def on_delete(self, entry: RunningProgram) -> None:
        """Delete(object_name) on a running program kills it."""
        entry.state = "killed"

    # -------------------------------------------------------------- protocol

    def apply_description(self, resolution: ResolvedObject,
                          record: ObjectDescription) -> ReplyCode:
        entry = resolution.ref
        if not isinstance(entry, RunningProgram) or not isinstance(
                record, ProcessDescription):
            return ReplyCode.BAD_ARGS
        entry.priority = record.priority  # the one mutable field
        return ReplyCode.OK

    def record(self, entry: RunningProgram) -> ProcessDescription:
        return ProcessDescription(
            name=entry.name.decode(), pid_value=entry.pid.value,
            program=entry.program, state=entry.state,
            start_time=entry.start_time, priority=entry.priority)
