"""The per-user context prefix server (paper Sec. 5.8 and 6).

"V makes available standard context prefix servers, which provide each user
with locally defined character string names for contexts on servers of
interest. ... A context prefix is simply the part of the CSname that is
parsed by the context server to determine where to forward the request.  The
syntax is: any CSname starting with '[', with the prefix terminated by a
closing ']'."

Each workstation runs one, registered with *local* scope -- prefixes are
per-user state, and two users' ``[home]`` deliberately differ (Sec. 6).

Bindings come in the two forms Sec. 6 describes:

- **fixed**: prefix -> (server-pid, context-id);
- **generic**: prefix -> (logical service id, well-known context id), with a
  ``GetPid`` performed *each time the name is used*, so the binding tracks
  server restarts.

The server implements the optional ADD/DELETE_CONTEXT_NAME operations --
"ordinarily implemented only in context prefix servers" (Sec. 5.7) -- and
exposes its table as a context directory of ``PrefixDescription`` records.

Every request whose prefix resolves is *forwarded* (with the standard header
rewritten) to the target server, so the prefix server works for any CSname
operation, including codes it has never heard of.  Its per-request cost is
the calibrated ``prefix_server_cpu`` -- the constant ~3.9 ms delta of E4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.core.csnh import CSNHServer
from repro.core.descriptors import ContextDescription, ObjectDescription, PrefixDescription
from repro.core.mapping import (
    ForwardName,
    MappingFault,
    MappingOutcome,
    ResolvedObject,
    ResolvedParent,
)
from repro.core.names import BadName, as_text, parse_prefix, validate_component
from repro.core.protocol import (
    FIELD_HINT_EPOCH,
    FIELD_HINT_SERVICE,
    FIELD_HINT_SOURCE,
    CSNameHeader,
)
from repro.kernel.ipc import Annotate, Delivery, GetPid
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.pids import Pid
from repro.kernel.services import Scope, ServiceId

Gen = Generator[Any, Any, Any]


@dataclass(slots=True)
class PrefixBinding:
    """One prefix table entry."""

    name: bytes
    #: Fixed form: the target context.
    fixed: Optional[ContextPair] = None
    #: Generic form: (service id, context id), resolved by GetPid per use.
    generic_service: Optional[int] = None
    generic_context: int = int(WellKnownContext.DEFAULT)
    #: Provenance: the authoritative mutation epoch this binding carries and
    #: the pid of the server that authored it (0 = setup-time, pre-kernel).
    #: A replica installing a synced binding copies the owner's stamp, so a
    #: (epoch, source) pair identifies one authoritative mutation fleet-wide
    #: -- the coherence auditor compares stamps, never clocks.
    epoch: int = 0
    source: int = 0

    @property
    def is_generic(self) -> bool:
        return self.generic_service is not None


class _PrefixTable:
    """The prefix server's single context (a stable ref for ContextTable)."""

    def __init__(self) -> None:
        self.bindings: dict[bytes, PrefixBinding] = {}


class ContextPrefixServer(CSNHServer):
    """The workstation's context prefix server."""

    server_name = "prefix"
    service_id = int(ServiceId.CONTEXT_PREFIX)
    service_scope = Scope.LOCAL
    #: The parse/lookup CPU is the prefix-lookup CSNH phase in profiles.
    profile_phase = "prefix_lookup"

    def __init__(self, parse_cpu: float = 0.0, user: str = "user") -> None:
        super().__init__()
        self.parse_cpu = parse_cpu
        self.user = user
        self.table = _PrefixTable()
        #: Monotonic per-server mutation counter: every authoritative change
        #: to the prefix table (install, rebind, delete) gets the next epoch.
        self._epoch = 0
        #: prefix -> epoch of its most recent *deletion*, so the auditor can
        #: distinguish "never existed" from "recently unbound" when it finds
        #: a cached entry the authority no longer holds.
        self.tombstones: dict[bytes, int] = {}
        #: Client-side binding caches to notify when a prefix is deleted or
        #: rebound (repro.core.namecache).  The prefix server and its client
        #: caches share the workstation, so a notice is a shared-memory
        #: write: zero simulated cost, no message.
        self._caches: list[Any] = []
        self.contexts.register_well_known(WellKnownContext.DEFAULT, self.table)
        self.register_csname_op(RequestCode.ADD_CONTEXT_NAME, self.op_add_prefix)
        self.register_csname_op(RequestCode.DELETE_CONTEXT_NAME, self.op_delete_prefix)

    # ------------------------------------------------------------- local API
    # (used at setup time by the code wiring a workstation together; at run
    # time clients use ADD/DELETE_CONTEXT_NAME messages)

    def _stamp(self, binding: PrefixBinding) -> PrefixBinding:
        """Stamp a fresh authoritative mutation epoch onto ``binding``.

        ``source`` is this server's pid once it runs (0 for setup-time
        installs, before the kernel assigned one); together (epoch, source)
        names this mutation uniquely across the fleet.
        """
        self._epoch += 1
        binding.epoch = self._epoch
        binding.source = int(self.pid.value) if self.pid is not None else 0
        return binding

    def define_prefix(self, name: str | bytes, pair: ContextPair) -> None:
        """Install a fixed binding."""
        key = validate_component(_as_prefix(name))
        if key in self.table.bindings:
            self._notify_invalidate(key)
        self.table.bindings[key] = self._stamp(PrefixBinding(name=key,
                                                             fixed=pair))
        self.tombstones.pop(key, None)

    def define_generic_prefix(self, name: str | bytes, service: int,
                              context_id: int = int(WellKnownContext.DEFAULT),
                              ) -> None:
        """Install a generic binding (GetPid at each use)."""
        key = validate_component(_as_prefix(name))
        if key in self.table.bindings:
            self._notify_invalidate(key)
        self.table.bindings[key] = self._stamp(PrefixBinding(
            name=key, generic_service=int(service), generic_context=context_id))
        self.tombstones.pop(key, None)

    def remove_prefix(self, name: str | bytes) -> bool:
        key = _as_prefix(name)
        removed = self.table.bindings.pop(key, None) is not None
        if removed:
            self._epoch += 1
            self.tombstones[key] = self._epoch
            self._notify_invalidate(key)
        return removed

    # ------------------------------------------------- cache notification

    def attach_cache(self, cache: Any) -> None:
        """Register a client-side binding cache for invalidation notices.

        ``cache`` needs one method: ``invalidate_prefix(prefix, reason)``.
        Attached caches hear about every prefix deletion and rebinding, so
        the common staleness (an administrator repointing ``[proj]``) is
        handled proactively; the optimistic-send recovery path remains the
        correctness backstop for everything the notices cannot see (remote
        server restarts, context garbage collection...).
        """
        if cache not in self._caches:
            self._caches.append(cache)

    def detach_cache(self, cache: Any) -> None:
        if cache in self._caches:
            self._caches.remove(cache)

    def _notify_invalidate(self, prefix: bytes) -> None:
        for cache in self._caches:
            cache.invalidate_prefix(prefix, reason="prefix-notice")

    def binding(self, name: str | bytes) -> Optional[PrefixBinding]:
        return self.table.bindings.get(_as_prefix(name))

    def prefix_names(self) -> list[bytes]:
        return sorted(self.table.bindings)

    # ----------------------------------------------------------- calibration

    def per_request_delay(self) -> float:
        return self.parse_cpu

    # -------------------------------------------------------------- mapping

    def map_request(self, delivery: Delivery, header: CSNameHeader) -> Gen:
        """Parse the ``[prefix]`` and decide where the request goes."""
        name, index = header.name, header.name_index
        if index >= len(name):
            # Empty name: the prefix table context itself (directory listing).
            return ResolvedObject(ref=self.table, is_context=True,
                                  parent_ref=None, component=b"", index=index)
        try:
            prefix, rest_index = parse_prefix(name, index)
        except BadName as err:
            return MappingFault(ReplyCode.BAD_NAME, str(err))
        if delivery.message.code in (int(RequestCode.ADD_CONTEXT_NAME),
                                     int(RequestCode.DELETE_CONTEXT_NAME)):
            # Operations *on the table*: resolve to the parent + component.
            return ResolvedParent(parent_ref=self.table, component=prefix,
                                  index=rest_index)
        binding = yield from self.lookup_binding(prefix)
        if isinstance(binding, MappingFault):
            return binding
        if binding is None:
            return MappingFault(ReplyCode.NOT_FOUND,
                                f"prefix [{as_text(prefix)}] is not defined")
        if delivery.message.trace is not None:
            # Zero-cost span enrichment (traced requests only): which prefix
            # matched and how it binds.
            yield Annotate(
                delivery.txn_id,
                {"prefix": as_text(prefix),
                 "binding": "generic" if binding.is_generic else "fixed"})
        if binding.is_generic:
            pid = yield GetPid(binding.generic_service, Scope.ANY)
            if pid is None:
                return MappingFault(
                    ReplyCode.NO_SERVER,
                    f"no server for generic prefix [{as_text(prefix)}]")
            # Mark the forwarded request as generic-bound: the final server
            # echoes the service id in its binding advice, telling caching
            # clients to keep re-resolving the pid instead of pinning it.
            # The binding's provenance stamp rides (and is echoed) the same
            # way, so the client records which version it learned.
            return ForwardName(
                ContextPair(pid, binding.generic_context), rest_index,
                extra_fields={FIELD_HINT_SERVICE: int(binding.generic_service),
                              FIELD_HINT_EPOCH: int(binding.epoch),
                              FIELD_HINT_SOURCE: int(binding.source)})
        assert binding.fixed is not None
        return ForwardName(binding.fixed, rest_index,
                           extra_fields={FIELD_HINT_EPOCH: int(binding.epoch),
                                         FIELD_HINT_SOURCE: int(binding.source)})

    def lookup_binding(self, prefix: bytes) -> Gen:
        """The live binding for ``prefix``, or None (authoritatively unbound).

        A generator hook so subclasses can spend kernel effects deciding: a
        replicated prefix server (repro.core.shard) checks lease freshness
        here and may redirect to the shard owner with a MappingFault, which
        :meth:`map_request` surfaces verbatim.
        """
        yield from ()
        return self.table.bindings.get(prefix)

    # ------------------------------------------------- optional standard ops

    def op_add_prefix(self, delivery: Delivery, header: CSNameHeader,
                      resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedParent)
        message = delivery.message
        try:
            key = validate_component(resolution.component)
        except BadName:
            yield from self.reply_error(delivery, ReplyCode.BAD_NAME)
            return
        exists = key in self.table.bindings
        if exists and not bool(message.get("replace", False)):
            yield from self.reply_error(delivery, ReplyCode.NAME_EXISTS)
            return
        binding = self._binding_from_request(key, message)
        if binding is None:
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        self.table.bindings[key] = self._stamp(binding)
        self.tombstones.pop(key, None)
        if exists:
            # Rebinding: anything cached under the old binding is now stale.
            # Notified only now, after validation succeeded and the new
            # binding is installed -- a malformed replace request must not
            # flush caches that are still perfectly valid for the binding
            # it failed to change.
            self._notify_invalidate(key)
        yield from self.bound_prefix(delivery, key, binding, rebound=exists)
        yield from self.reply_ok(delivery)

    @staticmethod
    def _binding_from_request(key: bytes, message: Any) -> Optional[PrefixBinding]:
        """Build the PrefixBinding an ADD_CONTEXT_NAME request describes."""
        service = message.get("service_id")
        if service is not None:
            return PrefixBinding(
                name=key, generic_service=int(service),
                generic_context=int(message.get("target_context",
                                                WellKnownContext.DEFAULT)))
        target_pid = message.get("target_pid")
        if target_pid is None:
            return None
        return PrefixBinding(
            name=key,
            fixed=ContextPair(Pid(int(target_pid)),
                              int(message.get("target_context", 0))))

    def bound_prefix(self, delivery: Delivery, key: bytes,
                     binding: PrefixBinding, rebound: bool) -> Gen:
        """Hook: a binding was just installed via ADD_CONTEXT_NAME.

        Runs before the OK reply; the replicated server grants the lease and
        fans the new binding out to its peers here.
        """
        yield from ()

    def unbound_prefix(self, key: bytes) -> Gen:
        """Hook: a binding was just removed via DELETE_CONTEXT_NAME."""
        yield from ()

    def op_delete_prefix(self, delivery: Delivery, header: CSNameHeader,
                         resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedParent)
        if self.table.bindings.pop(resolution.component, None) is None:
            yield from self.reply_error(delivery, ReplyCode.NOT_FOUND)
            return
        self._epoch += 1
        self.tombstones[bytes(resolution.component)] = self._epoch
        self._notify_invalidate(bytes(resolution.component))
        yield from self.unbound_prefix(bytes(resolution.component))
        yield from self.reply_ok(delivery)

    # --------------------------------------------------- directory & queries

    def describe(self, resolution: ResolvedObject) -> Optional[ObjectDescription]:
        if resolution.ref is self.table:
            return ContextDescription(
                name=f"[{self.user}'s prefixes]",
                entry_count=len(self.table.bindings),
                owner=self.user,
                context_id=int(WellKnownContext.DEFAULT))
        return None

    def directory_records(self, context_ref: Any) -> list[ObjectDescription]:
        if context_ref is not self.table:
            return []
        records: list[ObjectDescription] = []
        for key in sorted(self.table.bindings):
            binding = self.table.bindings[key]
            if binding.is_generic:
                records.append(PrefixDescription(
                    name=as_text(key), server_pid=0,
                    context_id=binding.generic_context, generic=True,
                    service_id=int(binding.generic_service or 0)))
            else:
                assert binding.fixed is not None
                records.append(PrefixDescription(
                    name=as_text(key), server_pid=binding.fixed.server.value,
                    context_id=binding.fixed.context_id, generic=False))
        return records

    def name_of_context(self, context_id: int) -> Optional[bytes]:
        if context_id == int(WellKnownContext.DEFAULT):
            return b""
        return None

    # -------------------------------------------------------------- footprint

    def footprint(self) -> dict:
        """Rough memory accounting for E5 (the paper reports 4.5 KB + 2.6 KB)."""
        import sys

        table_bytes = sys.getsizeof(self.table.bindings)
        for key, binding in self.table.bindings.items():
            table_bytes += sys.getsizeof(key) + sys.getsizeof(binding)
        return {
            "bindings": len(self.table.bindings),
            "table_bytes": table_bytes,
        }


def _as_prefix(name: str | bytes) -> bytes:
    raw = name.encode("utf-8") if isinstance(name, str) else bytes(name)
    # Accept both "proj" and "[proj]" spellings at the local API.
    if raw.startswith(b"[") and raw.endswith(b"]"):
        raw = raw[1:-1]
    return raw
