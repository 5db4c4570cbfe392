"""The printer spooler (paper Sec. 6: "a V kernel-based laser printer server").

Jobs are submitted by opening ``[print]jobname`` for writing and writing the
document bytes; releasing the instance queues the job.  Each queued job is
printed at a fixed page rate, with state transitions (queued -> printing ->
done) visible through the standard query operation and the job-queue context
directory.  The modify operation on a job description supports exactly one
state change -- writing ``state="cancelled"`` -- demonstrating Sec. 5.5's
field-wise modification rule on a non-file object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.descriptors import ObjectDescription, PrintJobDescription
from repro.core.mapping import ResolvedObject
from repro.kernel.ipc import Delay, Delivery, Now
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.servers.base import FlatContextServer
from repro.vio.instance import Instance

Gen = Generator[Any, Any, Any]

#: Bytes per printed page and seconds per page (an early laser printer).
PAGE_BYTES = 2048
SECONDS_PER_PAGE = 0.5


@dataclass
class PrintJob:
    name: bytes
    owner: str
    submitted: float = 0.0
    data: bytearray = field(default_factory=bytearray)
    state: str = "receiving"

    @property
    def pages(self) -> int:
        return max(1, -(-len(self.data) // PAGE_BYTES)) if self.data else 0


class PrintJobInstance(Instance):
    """The write stream a client spools a job through."""

    def __init__(self, owner: Pid, job: PrintJob, server: "PrinterServer") -> None:
        super().__init__(owner, block_size=1024, readable=False, writable=True)
        self.job = job
        self.server = server

    def size_bytes(self) -> int:
        return len(self.job.data)

    def write_block(self, block: int, data: bytes) -> Gen:
        yield from ()
        if self.job.state != "receiving":
            return ReplyCode.MODE_ERROR, 0
        start = block * self.block_size
        end = start + len(data)
        if end > len(self.job.data):
            self.job.data.extend(b"\x00" * (end - len(self.job.data)))
        self.job.data[start:end] = data
        return ReplyCode.OK, len(data)

    def release(self) -> Gen:
        """Closing the spool stream queues the job and prints it."""
        self.job.state = "queued"
        yield from self.server.print_job(self.job)


class PrinterServer(FlatContextServer):
    """The shared laser printer."""

    server_name = "printerserver"
    service_id = int(ServiceId.PRINT)
    context_name = "print-queue"
    write_open_creates = True

    def __init__(self, user: str = "operator") -> None:
        super().__init__()
        self.user = user
        self.pages_printed = 0
        self.register_csname_op(RequestCode.OPEN_FILE, self.op_open)
        self.register_csname_op(RequestCode.DELETE_NAME, self.op_delete)
        self.register_request_op(RequestCode.PRINT_STATUS, self.op_status)

    # ------------------------------------------------------------------ ops

    def create_object(self, name: bytes) -> Gen:
        if name in self.objects:
            return ReplyCode.NAME_EXISTS
        now = yield Now()
        job = self.objects[name] = PrintJob(name=name, owner=self.user,
                                            submitted=now)
        return job

    def open_object(self, owner: Pid, job: PrintJob,
                    mode: str) -> PrintJobInstance | ReplyCode:
        if mode == "r":
            return ReplyCode.MODE_ERROR
        return PrintJobInstance(owner, job, self)

    def print_job(self, job: PrintJob) -> Gen:
        """Run the job through the print engine (the server is busy)."""
        if job.state != "queued":
            yield from ()
            return
        job.state = "printing"
        yield Delay(job.pages * SECONDS_PER_PAGE)
        if job.state == "printing":  # may have been cancelled meanwhile
            job.state = "done"
            self.pages_printed += job.pages

    def op_status(self, delivery: Delivery) -> Gen:
        states: dict[str, int] = {}
        for job in self.objects.values():
            states[job.state] = states.get(job.state, 0) + 1
        yield from self.reply_ok(delivery, jobs=len(self.objects),
                                 pages_printed=self.pages_printed, **states)

    # -------------------------------------------------------------- protocol

    def apply_description(self, resolution: ResolvedObject,
                          record: ObjectDescription) -> ReplyCode:
        job = resolution.ref
        if not isinstance(job, PrintJob) or not isinstance(
                record, PrintJobDescription):
            return ReplyCode.BAD_ARGS
        if record.state == "cancelled" and job.state in ("queued", "printing"):
            job.state = "cancelled"
            return ReplyCode.OK
        # All other field changes make no sense; ignore them (Sec. 5.5).
        return ReplyCode.OK

    def modify_record(self, context_ref: Any,
                      record: ObjectDescription) -> ReplyCode:
        job = self.objects.get(record.name.encode())
        if job is None:
            return ReplyCode.NOT_FOUND
        return self.apply_description(
            ResolvedObject(ref=job, is_context=False, parent_ref=self.objects,
                           component=record.name.encode(), index=0),
            record)

    def record(self, job: PrintJob) -> PrintJobDescription:
        return PrintJobDescription(name=job.name.decode(), owner=job.owner,
                                   pages=job.pages, state=job.state,
                                   submitted=job.submitted)
