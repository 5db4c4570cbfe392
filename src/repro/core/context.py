"""Contexts (paper Sec. 5.2).

"Formally, a context is a set of (name, object)-tuples. ... In the V-System,
a context is specified by the pair (server-pid, context-identifier)."

Ordinary context identifiers are server-assigned and valid only while the
server process lives; several *well-known* identifiers with fixed values name
generic spaces like "home directory" and "standard program directory", and a
server implementing a single context uses the default identifier 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kernel.pids import Pid


class WellKnownContext(enum.IntEnum):
    """Fixed context identifiers (Sec. 5.2).

    The high end of the 16-bit space is reserved so server-assigned ids can
    never collide with them.
    """

    #: "when a server implements only one context, the context identifier
    #: has little meaning and uses a standard default value of 0."
    DEFAULT = 0x0000
    #: The user's home directory on a storage server.
    HOME = 0xFFF1
    #: The standard program directory ("/bin" analogue).
    PROGRAMS = 0xFFF2
    #: Public/shared storage.
    PUBLIC = 0xFFF3
    #: Scratch space.
    TEMP = 0xFFF4


#: First and last ordinary (server-assigned) context identifiers.
ORDINARY_CONTEXT_MIN = 0x0001
ORDINARY_CONTEXT_MAX = 0xFF00


@dataclass(frozen=True, order=True, slots=True)
class ContextPair:
    """A fully-qualified context: (server-pid, context-identifier).

    Given this pair plus a byte string, "the interpretation of the name is
    fully specified independent of the operation requested" (Sec. 5.2).
    """

    server: Pid
    context_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.context_id <= 0xFFFF:
            raise ValueError(f"context id out of 16-bit range: {self.context_id:#x}")

    def __repr__(self) -> str:
        try:
            ctx = WellKnownContext(self.context_id).name
        except ValueError:
            ctx = f"{self.context_id:#06x}"
        return f"ContextPair({self.server!r}, {ctx})"


class ContextIdAllocator:
    """Server-side allocator of ordinary context identifiers.

    Like pid and instance-id allocation, it walks the id space to maximize
    time-before-reuse: a released id is not handed out again until the
    allocator has wrapped around the whole ordinary range.
    """

    def __init__(self, start: int = ORDINARY_CONTEXT_MIN) -> None:
        if not ORDINARY_CONTEXT_MIN <= start <= ORDINARY_CONTEXT_MAX:
            raise ValueError(f"start {start:#x} outside the ordinary range")
        self._next = start
        self._live: set[int] = set()

    def allocate(self) -> int:
        span = ORDINARY_CONTEXT_MAX - ORDINARY_CONTEXT_MIN + 1
        if len(self._live) >= span:
            raise RuntimeError("context id space exhausted")
        candidate = self._next
        while candidate in self._live:
            candidate = self._advance(candidate)
        self._next = self._advance(candidate)
        self._live.add(candidate)
        return candidate

    @staticmethod
    def _advance(value: int) -> int:
        value += 1
        if value > ORDINARY_CONTEXT_MAX:
            value = ORDINARY_CONTEXT_MIN
        return value

    def release(self, context_id: int) -> None:
        self._live.discard(context_id)

    def is_live(self, context_id: int) -> bool:
        return context_id in self._live

    @property
    def live_count(self) -> int:
        return len(self._live)
