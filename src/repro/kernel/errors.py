"""Kernel exception hierarchy.

Failures that a V program would see as *reply codes* (sending to a dead
process, say) are returned as reply messages, not raised -- matching the
paper's "standard system replies" convention.  Exceptions here are for
*programming errors* against the kernel API (replying to a process that is
not awaiting a reply, moving data outside an exposed segment, ...), which the
real kernel also treated as hard errors.
"""

from __future__ import annotations


class KernelError(RuntimeError):
    """Base class for kernel API misuse."""


class NotAwaitingReply(KernelError):
    """Reply/Forward/Move aimed at a process that is not blocked on us.

    V treated this as a hard error: a server may only ``Reply`` to, or move
    data to/from, a process that is currently send-blocked on a transaction
    directed at that server.
    """


class BadSegmentAccess(KernelError):
    """MoveTo/MoveFrom outside the sender's exposed segment, or wrong mode."""


class IllegalEffect(KernelError):
    """A process yielded something the kernel does not understand."""


class HostDown(KernelError):
    """Operation attempted on a crashed host (test/fault-injection misuse)."""
