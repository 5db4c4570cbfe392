"""Multicast name resolution (paper Sec. 7 / Sec. 2.2).

"A near-term project is to replace the low-level service naming using GetPid
and SetPid with a mechanism based on multicast Send.  Using this mechanism,
a single context could be implemented transparently by a group of servers
working in cooperation."

We implement that future-work design so E10 can measure it against the
broadcast GetPid baseline:

- a *group context* is a process group id agreed to name a context;
- member servers join the group (``CSNHServer.group_ids``) and serve CSname
  requests normally, except that mapping faults on group-addressed requests
  are silently discarded -- some other member implements the name;
- a client multicasts the CSname request with ``GroupSend`` and takes the
  first (only) reply, with no per-use GetPid at all.

The efficiency comparison the paper anticipates: broadcast GetPid interrupts
*every* host on the wire and still needs a directed Send afterwards, while a
group-addressed request reaches exactly the member hosts and carries the
operation itself.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.context import ContextPair, WellKnownContext
from repro.core.names import as_name_bytes
from repro.core.protocol import make_csname_request
from repro.core.resolver import NamingEnvironment, expect_ok
from repro.kernel.ipc import Cpu, GroupSend
from repro.kernel.messages import Message, RequestCode
from repro.kernel.pids import Pid

Gen = Generator[Any, Any, Any]

#: Group ids below this are reserved for kernel use; naming groups start here.
NAMING_GROUP_BASE = 0x1000


def group_context(index: int) -> int:
    """Allocate a well-known naming group id (static agreement, like ports)."""
    return NAMING_GROUP_BASE + index


def group_csname_request(env: NamingEnvironment, group_id: int, code: int,
                         name: str | bytes,
                         context_id: int = int(WellKnownContext.DEFAULT),
                         **variant_fields: Any) -> Gen:
    """Send one CSname request to a group context; returns the first reply.

    The stub overhead is charged exactly as for the unicast path, so E10's
    comparison isolates the resolution mechanism.
    """
    data = as_name_bytes(name)
    yield Cpu("stub_pre")
    message = make_csname_request(code, data, context_id)
    message.fields.update(variant_fields)
    reply = yield GroupSend(group_id, message)
    yield Cpu("stub_post")
    return reply


def group_name_to_context(env: NamingEnvironment, group_id: int,
                          name: str | bytes) -> Gen:
    """Resolve a name in a group context to the member that implements it.

    This subsumes GetPid: one multicast yields the concrete
    (server-pid, context-id) to use for subsequent direct operations.
    """
    reply = yield from group_csname_request(
        env, group_id, RequestCode.NAME_TO_CONTEXT, name)
    expect_ok("group_name_to_context", name, reply)
    return ContextPair(Pid(int(reply["server_pid"])), int(reply["context_id"]))


def group_open(env: NamingEnvironment, group_id: int, name: str | bytes,
               mode: str = "r") -> Gen:
    """Open a file in a group context: one multicast, owner replies."""
    reply = yield from group_csname_request(
        env, group_id, RequestCode.OPEN_FILE, name, mode=mode)
    expect_ok("group_open", name, reply)
    return reply
