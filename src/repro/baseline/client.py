"""The centralized-model client library (paper Sec. 2.1-2.2).

Every operation on a *name* decomposes into (1) a name-server transaction to
get the (UID, object-server) binding, then (2) the object operation -- the
"extra cost of interacting with one more server ... every time a name is
referenced" that motivates the V design (E8a).

An optional client-side cache removes cost (1) for repeated names, and in
exchange imports the staleness the paper predicts: "Caching the name in the
client would introduce inconsistency problems and only benefit the few
applications that reuse names."  The cache here deliberately has no
invalidation protocol, because building one is precisely the consistency
machinery the paper says the centralized model forces on you.  It is the
``ttl=None`` configuration of :class:`repro.core.namecache.BindingCache` --
same substrate as the V-side hint cache, minus every freshness channel that
module wires up (advice learning, stale-reply fallback, prefix notices,
registration-removal subscription).

Multi-step operations expose their crash windows explicitly
(``delete(..., crash_after=...)``) so E8b can inject failures between the
steps, which is how the dangling-name counts are produced.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.core.namecache import BindingCache
from repro.core.names import as_name_bytes
from repro.kernel.ipc import Cpu, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.vio.client import FileStream


Gen = Generator[Any, Any, Any]


class BaselineError(RuntimeError):
    def __init__(self, operation: str, code: ReplyCode) -> None:
        super().__init__(f"{operation} failed: {code.name}")
        self.operation = operation
        self.code = code


class CrashPoint(enum.Enum):
    """Where a multi-server operation can be cut short (fault injection)."""

    NONE = "none"
    AFTER_OBJECT_DELETE = "after_object_delete"   # object gone, name remains
    AFTER_OBJECT_CREATE = "after_object_create"   # object exists, unnamed


class ClientCrashed(RuntimeError):
    """The simulated client stopped mid-operation (E8b's fault)."""


class BaselineClient:
    """Client-side library for the centralized naming model."""

    def __init__(self, name_server: Pid, cache_enabled: bool = False,
                 cache_max_entries: int = 4096) -> None:
        self.name_server = name_server
        self.cache_enabled = cache_enabled
        # Deliberately-stale configuration: no TTL, no invalidation channel.
        self._cache = BindingCache(max_entries=cache_max_entries, ttl=None)
        self.name_server_transactions = 0

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    # ----------------------------------------------------------------- lookup

    def lookup(self, name: str | bytes) -> Gen:
        """Resolve a name to (uid, object-server pid)."""
        key = as_name_bytes(name)
        if self.cache_enabled:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        yield Cpu("stub_pre")
        reply = yield Send(self.name_server, Message.request(
            RequestCode.NS_LOOKUP, segment=key, segment_buffer=256))
        yield Cpu("stub_post")
        self.name_server_transactions += 1
        if not reply.ok:
            raise BaselineError("lookup", reply.reply_code)
        binding = (int(reply["uid"]), Pid(int(reply["server_pid"])))
        if self.cache_enabled:
            self._cache.put(key, binding)
        return binding

    # ----------------------------------------------------------------- create

    def create(self, name: str | bytes, object_server: Pid,
               data: bytes = b"", kind: str = "file",
               crash_at: CrashPoint = CrashPoint.NONE) -> Gen:
        """Create an object and register its name: two servers, in order."""
        key = as_name_bytes(name)
        yield Cpu("stub_pre")
        reply = yield Send(object_server, Message.request(
            RequestCode.OBJ_CREATE, segment=data, kind=kind))
        if not reply.ok:
            raise BaselineError("create.object", reply.reply_code)
        uid = int(reply["uid"])
        if crash_at is CrashPoint.AFTER_OBJECT_CREATE:
            raise ClientCrashed("crashed before registering the name")
        reply = yield Send(self.name_server, Message.request(
            RequestCode.NS_REGISTER, segment=key, segment_buffer=256,
            uid=uid, server_pid=object_server.value, kind=kind))
        yield Cpu("stub_post")
        self.name_server_transactions += 1
        if not reply.ok:
            raise BaselineError("create.register", reply.reply_code)
        return uid

    # ----------------------------------------------------------------- delete

    def delete(self, name: str | bytes,
               crash_at: CrashPoint = CrashPoint.NONE) -> Gen:
        """Delete by name: lookup, delete at the object server, unregister.

        Three transactions across two servers.  A crash after the object
        delete leaves the registry pointing at nothing -- the dangling name
        of Sec. 2.2 -- unless the whole thing is wrapped in the multi-server
        atomic transaction the paper notes would erode the design's
        efficiency.
        """
        key = as_name_bytes(name)
        uid, object_server = yield from self.lookup(key)
        reply = yield Send(object_server, Message.request(
            RequestCode.OBJ_DELETE, uid=uid))
        if not reply.ok:
            if reply.reply_code is ReplyCode.NOT_FOUND:
                # The registry was already stale: a previously dangling name.
                raise BaselineError("delete.stale", ReplyCode.INCONSISTENT)
            raise BaselineError("delete.object", reply.reply_code)
        if crash_at is CrashPoint.AFTER_OBJECT_DELETE:
            raise ClientCrashed("crashed before unregistering the name")
        reply = yield Send(self.name_server, Message.request(
            RequestCode.NS_UNREGISTER, segment=key, segment_buffer=256))
        self.name_server_transactions += 1
        if not reply.ok:
            raise BaselineError("delete.unregister", reply.reply_code)
        self._cache.invalidate(key)

    # ------------------------------------------------------------------- open

    def open(self, name: str | bytes) -> Gen:
        """Open by name: the E8a fast path (lookup + open vs V's one Send)."""
        uid, object_server = yield from self.lookup(name)
        yield Cpu("stub_pre")
        reply = yield Send(object_server, Message.request(
            RequestCode.OBJ_OPEN, uid=uid))
        yield Cpu("stub_post")
        if not reply.ok:
            if reply.reply_code is ReplyCode.NOT_FOUND:
                # Binding (or cache entry) points at a deleted object.
                raise BaselineError("open.stale", ReplyCode.INCONSISTENT)
            raise BaselineError("open", reply.reply_code)
        return FileStream(server=Pid(int(reply["server_pid"])),
                          instance=int(reply["instance"]),
                          block_size=int(reply["block_size"]))
