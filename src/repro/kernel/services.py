"""Kernel service naming: SetPid / GetPid (paper Sec. 4.2).

Programs are written in terms of *services*; the binding of service to server
process happens at time of use.  Each kernel keeps a local registration
table; a lookup that misses locally (and whose scope allows it) broadcasts a
query to the other kernels in the domain.

The paper stresses the scope distinction: a server registers as "local to
this machine", "remote", or "both", and it matters to be able to run a
private local instance of a service alongside a public one.  We implement the
matching rule accordingly:

- a *local* lookup on host H matches registrations on H with scope LOCAL or
  BOTH;
- a *broadcast* query matches registrations with scope REMOTE or BOTH;
- ``Scope.ANY`` lookups try local first, then broadcast -- exactly the
  kernel behaviour described in the paper ("checks its local table and, if
  that fails and the scope is not local, broadcasts").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kernel.pids import Pid, logical_service_pid


class Scope(enum.Enum):
    """Registration visibility / lookup scope."""

    LOCAL = "local"
    REMOTE = "remote"
    BOTH = "both"
    #: Lookup-only pseudo-scope: local table first, then broadcast.
    ANY = "any"


class ServiceId(enum.IntEnum):
    """Well-known service identifiers (the paper's "logical pids").

    The context prefix server stores (logical-pid, well-known-context-id)
    bindings for generic services and performs a GetPid each time such a name
    is used (Sec. 6).
    """

    STORAGE = 1          # file service
    TIME = 2
    PRINT = 3
    CONTEXT_PREFIX = 4   # the per-user context prefix server
    TERMINAL = 5         # virtual graphics terminal service
    INTERNET = 6         # IP/TCP service
    TEAM = 7             # program manager
    EXCEPTION = 8
    MAIL = 9
    NAME_SERVER = 10     # centralized baseline only
    PIPE = 11
    OBS = 12             # the [obs] introspection name space (root obs server)
    SHARD = 13           # replicated shard prefix service (repro.core.shard)

    @property
    def logical_pid(self) -> Pid:
        return logical_service_pid(int(self))


@dataclass
class Registration:
    """One entry in a kernel's service table."""

    service: int
    pid: Pid
    scope: Scope

    def visible_locally(self) -> bool:
        return self.scope in (Scope.LOCAL, Scope.BOTH)

    def visible_remotely(self) -> bool:
        return self.scope in (Scope.REMOTE, Scope.BOTH)


class ServiceRegistry:
    """The per-kernel SetPid/GetPid table.

    Multiple registrations per service are kept (a LOCAL one can coexist
    with a REMOTE one, per the paper); within one visibility class the most
    recent registration wins, which is what re-registration after a server
    restart needs.
    """

    def __init__(self) -> None:
        self._entries: dict[int, list[Registration]] = {}

    def set_pid(self, service: int, pid: Pid, scope: Scope) -> None:
        if scope == Scope.ANY:
            raise ValueError("ANY is a lookup scope, not a registration scope")
        entries = self._entries.setdefault(int(service), [])
        # Replace an existing registration with the same visibility class.
        entries[:] = [e for e in entries if e.scope != scope]
        entries.append(Registration(int(service), pid, scope))

    def lookup_local(self, service: int) -> Pid | None:
        """Match for a same-host GetPid."""
        return self._match(service, lambda e: e.visible_locally())

    def lookup_remote(self, service: int) -> Pid | None:
        """Match for an incoming broadcast query."""
        return self._match(service, lambda e: e.visible_remotely())

    def _match(self, service: int, predicate) -> Pid | None:
        entries = self._entries.get(int(service), [])
        for entry in reversed(entries):
            if predicate(entry):
                return entry.pid
        return None

    def remove_pid(self, pid: Pid) -> None:
        """Drop every registration held by ``pid`` (process exit / crash)."""
        for entries in self._entries.values():
            entries[:] = [e for e in entries if e.pid != pid]

    def clear(self) -> None:
        self._entries.clear()

    def registrations(self) -> list[Registration]:
        result: list[Registration] = []
        for entries in self._entries.values():
            result.extend(entries)
        return result

    def snapshot(self) -> list[dict]:
        """JSON-ready view of the table, one record per registration.

        Service ids that match a well-known :class:`ServiceId` are labelled
        with its name; private ids keep the bare number.  This is what the
        stat server serves as ``[obs]/hosts/<host>/services``.
        """
        records = []
        for entry in self.registrations():
            try:
                service_name = ServiceId(entry.service).name.lower()
            except ValueError:
                service_name = str(entry.service)
            records.append({
                "service": entry.service,
                "service_name": service_name,
                "pid": entry.pid.value,
                "scope": entry.scope.value,
            })
        records.sort(key=lambda r: (r["service"], r["scope"]))
        return records
