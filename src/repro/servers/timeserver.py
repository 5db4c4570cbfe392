"""The time server (paper Sec. 4.2).

The paper's example of a *simple* service: "With simple services like time,
the client typically translates from service to real server pid on each
operation" -- no name space, no instances, just GET_TIME/SET_TIME.  It
participates in the CSNH world only in that unknown requests get the
standard ILLEGAL_REQUEST reply.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.csnh import BAD_FIELD, CSNHServer
from repro.kernel.ipc import Delivery, Now, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId

Gen = Generator[Any, Any, Any]


class TimeServer(CSNHServer):
    """Serves the (simulated) time of day."""

    server_name = "timeserver"
    service_id = int(ServiceId.TIME)

    def __init__(self, epoch_offset: float = 0.0) -> None:
        super().__init__()
        self.epoch_offset = epoch_offset
        self.queries_served = 0
        self.register_request_op(RequestCode.GET_TIME, self.op_get_time)
        self.register_request_op(RequestCode.SET_TIME, self.op_set_time)

    def op_get_time(self, delivery: Delivery) -> Gen:
        now = yield Now()
        self.queries_served += 1
        yield from self.reply_ok(delivery, time=now + self.epoch_offset)

    def op_set_time(self, delivery: Delivery) -> Gen:
        try:
            new_time = float(delivery.message.get("time"))   # None: TypeError
        except BAD_FIELD:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        now = yield Now()
        self.epoch_offset = new_time - now
        yield from self.reply_ok(delivery)


def get_time(server: Pid) -> Gen:
    """Client helper: one GET_TIME transaction; returns the server's time."""
    reply = yield Send(server, Message.request(RequestCode.GET_TIME))
    if not reply.ok:
        raise RuntimeError(f"GET_TIME failed: {reply.reply_code.name}")
    return float(reply["time"])
