"""The exception server (paper Sec. 6's workstation server roster).

Processes report faults with RAISE_EXCEPTION; incidents become named,
queryable objects -- the naming model's "distributed database" view applied
to something as un-file-like as a crash report.  The incident context is a
flat name space (``exc-1``, ``exc-2``, ...) served through the standard
protocol, so the same list-directory program that lists files lists faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.core.descriptors import ProcessDescription
from repro.kernel.ipc import Delivery, Now
from repro.kernel.messages import RequestCode
from repro.kernel.services import ServiceId
from repro.servers.base import FlatContextServer

Gen = Generator[Any, Any, Any]


@dataclass
class Incident:
    """One reported exception."""

    name: bytes
    reporter_pid: int
    code: str
    detail: str
    time: float


class ExceptionServer(FlatContextServer):
    """Collects and names exception reports; Delete dismisses one."""

    server_name = "exceptionserver"
    service_id = int(ServiceId.EXCEPTION)
    context_name = "exceptions"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0
        self.register_request_op(RequestCode.RAISE_EXCEPTION, self.op_raise)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete)

    def op_raise(self, delivery: Delivery) -> Gen:
        message = delivery.message
        self._counter += 1
        name = f"exc-{self._counter}".encode()
        now = yield Now()
        self.objects[name] = Incident(
            name=name,
            reporter_pid=delivery.sender.value,
            code=str(message.get("exc_code", "unknown")),
            detail=str(message.get("detail", "")),
            time=now)
        yield from self.reply_ok(delivery, incident=name.decode())

    def record(self, incident: Incident) -> ProcessDescription:
        return ProcessDescription(
            name=incident.name.decode(), pid_value=incident.reporter_pid,
            program=incident.detail, state=f"faulted:{incident.code}",
            start_time=incident.time)
