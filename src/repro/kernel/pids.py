"""Structured process identifiers (paper Sec. 4.1, Figure 2).

A V pid is a 32-bit value split into two 16-bit subfields::

    +--------------------+--------------------------+
    |   logical host     |  local process identifier |
    +--------------------+--------------------------+

The structure buys three things the paper calls out explicitly:

1. *Efficient location*: the logical-host field maps to a host address, so a
   message can be routed without any lookup service.
2. *Independent allocation*: each logical host generates unique pids without
   coordination.
3. *Cheap locality test*: whether a pid is local is a field comparison --
   "an important issue for some servers."

Pids are the only absolute names in a V domain; everything else is relative
to a pid.  They are spatially unique but may be reused in time; the allocator
maximizes time-before-reuse (Sec. 4.1 footnote).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Field widths and masks.
LOGICAL_HOST_BITS = 16
LOCAL_ID_BITS = 16
LOGICAL_HOST_MAX = (1 << LOGICAL_HOST_BITS) - 1
LOCAL_ID_MAX = (1 << LOCAL_ID_BITS) - 1

#: Reserved logical-host value used to form *logical pids* for generic
#: services (the (logical-pid, well-known-context) bindings of Sec. 6).
LOGICAL_SERVICE_HOST = LOGICAL_HOST_MAX

#: Local id 0 is never allocated to a real process.
NULL_LOCAL_ID = 0


@dataclass(frozen=True, order=True, slots=True)
class Pid:
    """A 32-bit V process identifier.

    The subfields are unpacked once at construction: pids are created
    rarely (allocation, wire decode) but their host field is consulted on
    every routing decision, so ``logical_host``/``local_id`` are plain
    attributes rather than computed properties.  Both are excluded from
    equality/ordering/repr -- they are pure functions of ``value``.
    """

    value: int
    logical_host: int = field(init=False, repr=False, compare=False)
    local_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        value = self.value
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"pid out of 32-bit range: {value:#x}")
        object.__setattr__(self, "logical_host", value >> LOCAL_ID_BITS)
        object.__setattr__(self, "local_id", value & LOCAL_ID_MAX)

    @classmethod
    def make(cls, logical_host: int, local_id: int) -> "Pid":
        if not 0 <= logical_host <= LOGICAL_HOST_MAX:
            raise ValueError(f"logical host out of range: {logical_host}")
        if not 0 <= local_id <= LOCAL_ID_MAX:
            raise ValueError(f"local id out of range: {local_id}")
        return cls((logical_host << LOCAL_ID_BITS) | local_id)

    def is_local_to(self, logical_host: int) -> bool:
        """The O(1) locality test the pid structure exists to provide."""
        return self.logical_host == logical_host

    @property
    def is_logical_service(self) -> bool:
        """True for logical pids that name a *service* rather than a process."""
        return self.logical_host == LOGICAL_SERVICE_HOST

    def __repr__(self) -> str:
        if self.is_logical_service:
            return f"Pid(service:{self.local_id})"
        return f"Pid({self.logical_host}.{self.local_id})"


NULL_PID = Pid(0)


def logical_service_pid(service_id: int) -> Pid:
    """Build the logical pid naming a generic service (Sec. 6)."""
    return Pid.make(LOGICAL_SERVICE_HOST, service_id)


class PidAllocator:
    """Per-host allocator of local process identifiers.

    Allocation starts from a random point (V pids "are always allocated
    randomly", Sec. 4.2) and then walks the 16-bit space, skipping live ids,
    so a freed id is not reused until the allocator wraps -- maximizing
    time-before-reuse as the paper prescribes.
    """

    def __init__(self, logical_host: int, start: int = 1) -> None:
        if not 1 <= logical_host <= LOGICAL_HOST_MAX:
            raise ValueError(f"logical host out of range: {logical_host}")
        if logical_host == LOGICAL_SERVICE_HOST:
            raise ValueError("logical-service host id is reserved")
        self.logical_host = logical_host
        self._next = max(1, start & LOCAL_ID_MAX)
        self._live: set[int] = set()

    def allocate(self) -> Pid:
        if len(self._live) >= LOCAL_ID_MAX:
            raise RuntimeError(f"host {self.logical_host}: local pid space exhausted")
        local = self._next
        while local in self._live or local == NULL_LOCAL_ID:
            local = (local + 1) & LOCAL_ID_MAX
        self._next = (local + 1) & LOCAL_ID_MAX
        self._live.add(local)
        return Pid.make(self.logical_host, local)

    def release(self, pid: Pid) -> None:
        if pid.logical_host != self.logical_host:
            raise ValueError(f"{pid!r} does not belong to host {self.logical_host}")
        self._live.discard(pid.local_id)

    @property
    def live_count(self) -> int:
        return len(self._live)
