"""Client side of the query/modify operations (paper Sec. 5.5-5.6).

The system is "in part, a distributed database of information on the
entities it implements.  The name of an entity is just one of its
attributes."  These helpers fetch and update that database uniformly: the
same :func:`query_name` works on a file, a running program, a TCP
connection, or a prefix binding, dispatching on the record's tag -- the
uniformity Sec. 6's single "list directory" command relies on.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.descriptors import ObjectDescription
from repro.core.directory import read_directory_records
from repro.core.resolver import (
    NamingEnvironment,
    expect_ok,
    send_csname_request,
)
from repro.kernel.messages import RequestCode
from repro.kernel.pids import Pid
from repro.vio.client import release_instance

Gen = Generator[Any, Any, Any]


def query_name(env: NamingEnvironment, name: str | bytes) -> Gen:
    """Fetch the typed description record for a named object."""
    reply = yield from send_csname_request(env, RequestCode.QUERY_NAME, name)
    expect_ok("query", name, reply)
    record, __ = ObjectDescription.decode(bytes(reply.segment or b""))
    return record


def modify_name(env: NamingEnvironment, name: str | bytes,
                record: ObjectDescription) -> Gen:
    """The uniform modification operation: overwrite an object's description.

    The server applies only the fields the object's type declares mutable
    and silently ignores the rest, per Sec. 5.5.
    """
    reply = yield from send_csname_request(
        env, RequestCode.MODIFY_NAME, name, record=record.encode())
    expect_ok("modify", name, reply)
    return reply


def read_prefix_records(env: NamingEnvironment) -> Gen:
    """Read the user's prefix table as directory records.

    The empty name names the prefix server's own table context, so the
    request is addressed to the prefix server directly rather than routed
    by the '['-rule.
    """
    from repro.core.context import WellKnownContext
    from repro.core.protocol import make_csname_request
    from repro.kernel.ipc import Cpu, Send

    if env.prefix_server is None:
        raise RuntimeError("environment has no prefix server")
    yield Cpu("stub_pre")
    request = make_csname_request(RequestCode.OPEN_DIRECTORY, b"",
                                  int(WellKnownContext.DEFAULT))
    reply = yield Send(env.prefix_server, request)
    yield Cpu("stub_post")
    expect_ok("read_prefix_records", "", reply)
    server = Pid(int(reply["server_pid"]))
    instance = int(reply["instance"])
    try:
        records = yield from read_directory_records(server, instance)
    finally:
        yield from release_instance(server, instance)
    return records


def list_directory(env: NamingEnvironment, name: str | bytes,
                   pattern: str | None = None) -> Gen:
    """Open, read, and release a context directory; returns its records.

    This is the client half of E9's preferred design: one open plus
    sequential reads, versus enumerate-names-then-query-each.  ``pattern``
    engages the Sec. 5.6 server-side filtering extension (a shell glob over
    object names).
    """
    fields = {} if pattern is None else {"pattern": pattern}
    reply = yield from send_csname_request(env, RequestCode.OPEN_DIRECTORY,
                                           name, **fields)
    expect_ok("list_directory", name, reply)
    server = Pid(int(reply["server_pid"]))
    instance = int(reply["instance"])
    try:
        records = yield from read_directory_records(server, instance)
    finally:
        yield from release_instance(server, instance)
    return records
