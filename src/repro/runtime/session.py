"""Per-program naming state and the CSname-handling routines (paper Sec. 6).

"When a new program is executed, it is passed a process identifier and
context identifier specifying its current context.  It may change this
during the course of execution using a function that is analogous to the
'change directory' function in Unix."

A :class:`Session` is that state plus the stub routines: ``open``, ``chdir``,
``remove``, ``rename``, ``query``, ``list_directory`` and friends, every one
a generator over kernel effects and every one routed through the single
'['-checking common routine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.core.descriptors import ObjectDescription
from repro.core.inverse import InverseResult, absolute_name
from repro.core.query import list_directory as _list_directory
from repro.core.query import modify_name as _modify_name
from repro.core.query import query_name as _query_name
from repro.core.resolver import (
    NamingEnvironment,
    expect_ok,
    name_to_context as _name_to_context,
    send_csname_request,
)
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.net.latency import LatencyModel
from repro.vio.client import FileStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.namecache import NameCache
    from repro.obs import Observability

Gen = Generator[Any, Any, Any]


class Session:
    """One program's view of the name space (``latency`` is unused: the
    stub's CPU is priced by the model of the domain its host runs in)."""

    def __init__(self, current: ContextPair, prefix_server: Optional[Pid],
                 latency: Optional[LatencyModel] = None,
                 obs: Optional["Observability"] = None,
                 cache: Optional["NameCache"] = None) -> None:
        self.env = NamingEnvironment(current=current, obs=obs, cache=cache,
                                     prefix_server=prefix_server)

    # ------------------------------------------------------------ properties

    @property
    def current(self) -> ContextPair:
        return self.env.current

    @property
    def prefix_server(self) -> Optional[Pid]:
        return self.env.prefix_server

    # ------------------------------------------------------------------ files

    def open(self, name: str | bytes, mode: str = "r") -> Gen:
        """Open a file-like object by CSname; returns a FileStream."""
        reply = yield from send_csname_request(
            self.env, RequestCode.OPEN_FILE, name, mode=mode)
        expect_ok("open", name, reply)
        fields = reply.fields
        return FileStream(server=Pid(int(fields["server_pid"])),
                          instance=int(fields["instance"]),
                          block_size=int(fields["block_size"]))

    def read_file(self, name: str | bytes) -> Gen:
        """Open, read to EOF, and close; returns the object's bytes.

        The one-call read used all over the ``[obs]`` introspection tree
        (``yield from session.read_file("[obs]/hosts/ws1/metrics")``), but
        it works on any readable named object.
        """
        stream = yield from self.open(name)
        try:
            data = yield from stream.read_all()
        finally:
            yield from stream.close()
        return data

    def create(self, name: str | bytes) -> Gen:
        reply = yield from send_csname_request(
            self.env, RequestCode.CREATE_FILE, name)
        expect_ok("create", name, reply)

    def remove(self, name: str | bytes) -> Gen:
        """The paper's uniform Delete(object_name)."""
        reply = yield from send_csname_request(
            self.env, RequestCode.DELETE_NAME, name)
        expect_ok("remove", name, reply)

    def rename(self, name: str | bytes, new_name: str | bytes) -> Gen:
        new = new_name if isinstance(new_name, bytes) else new_name.encode()
        reply = yield from send_csname_request(
            self.env, RequestCode.RENAME_OBJECT, name, new_name=new)
        expect_ok("rename", name, reply)

    # ------------------------------------------------------------- contexts

    def mkdir(self, name: str | bytes) -> Gen:
        reply = yield from send_csname_request(
            self.env, RequestCode.CREATE_CONTEXT, name)
        expect_ok("mkdir", name, reply)

    def rmdir(self, name: str | bytes) -> Gen:
        reply = yield from send_csname_request(
            self.env, RequestCode.DELETE_CONTEXT, name)
        expect_ok("rmdir", name, reply)

    def name_to_context(self, name: str | bytes) -> Gen:
        return (yield from _name_to_context(self.env, name))

    def chdir(self, name: str | bytes) -> Gen:
        """Change the current context (Unix chdir analogue, Sec. 6)."""
        pair = yield from _name_to_context(self.env, name)
        self.env.current = pair
        return pair

    def current_context_name(self) -> Gen:
        """Best-effort absolute name of the current context (Sec. 6)."""
        result: InverseResult = yield from absolute_name(
            self.env, self.current.server, self.current.context_id)
        return result

    # ---------------------------------------------------- queries & listing

    def query(self, name: str | bytes) -> Gen:
        return (yield from _query_name(self.env, name))

    def modify(self, name: str | bytes, record: ObjectDescription) -> Gen:
        return (yield from _modify_name(self.env, name, record))

    def list_directory(self, name: str | bytes = b".",
                       pattern: str | None = None) -> Gen:
        return (yield from _list_directory(self.env, name, pattern=pattern))

    def list_prefixes(self) -> Gen:
        """List the user's context prefixes (the prefix server's directory)."""
        from repro.core.query import read_prefix_records

        return (yield from read_prefix_records(self.env))

    # ------------------------------------------------------ prefix management

    def add_prefix(self, prefix: str, pair: ContextPair,
                   replace: bool = False) -> Gen:
        """Define ``[prefix]`` -> pair in the user's prefix server."""
        reply = yield from send_csname_request(
            self.env, RequestCode.ADD_CONTEXT_NAME, f"[{prefix}]",
            target_pid=pair.server.value, target_context=pair.context_id,
            replace=replace)
        expect_ok("add_prefix", prefix, reply)

    def add_generic_prefix(self, prefix: str, service_id: int,
                           context_id: int = int(WellKnownContext.DEFAULT),
                           replace: bool = False) -> Gen:
        """Define a generic ``[prefix]`` resolved by GetPid at each use."""
        reply = yield from send_csname_request(
            self.env, RequestCode.ADD_CONTEXT_NAME, f"[{prefix}]",
            service_id=int(service_id), target_context=context_id,
            replace=replace)
        expect_ok("add_generic_prefix", prefix, reply)

    def delete_prefix(self, prefix: str) -> Gen:
        reply = yield from send_csname_request(
            self.env, RequestCode.DELETE_CONTEXT_NAME, f"[{prefix}]")
        expect_ok("delete_prefix", prefix, reply)

    # ----------------------------------------------------------- raw escape

    def csname_request(self, code: int, name: str | bytes,
                       **fields: Any) -> Gen:
        """Send an arbitrary CSname request (extensibility escape hatch)."""
        return (yield from send_csname_request(self.env, code, name, **fields))
