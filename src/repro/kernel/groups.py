"""Process groups and group Send (paper Sec. 7 / reference 4).

The paper's planned replacement for broadcast GetPid is the V kernel's
one-to-many *group Send*: a message multicast to a process group, with the
sender resuming on the first reply.  The naming experiment built on it (E10)
implements a context transparently by a group of servers: a multicast CSname
request reaches only the group's members, and only the server that implements
the name replies.

Group membership is domain-wide state (real V kernels exchanged membership
via the group protocol; we centralize it, which changes no observable
behaviour).  Delivery uses Ethernet multicast addresses so that non-member
hosts are not interrupted -- the property E10 measures against broadcast.
"""

from __future__ import annotations

from collections import defaultdict

from repro.kernel.pids import Pid


class GroupRegistry:
    """Domain-wide process-group membership."""

    def __init__(self) -> None:
        self._members: dict[int, set[Pid]] = defaultdict(set)

    def join(self, group_id: int, pid: Pid) -> None:
        self._members[group_id].add(pid)

    def leave(self, group_id: int, pid: Pid) -> None:
        self._members[group_id].discard(pid)

    def remove_pid(self, pid: Pid) -> None:
        """Drop a dead process from every group."""
        for members in self._members.values():
            members.discard(pid)

    def members(self, group_id: int) -> set[Pid]:
        return set(self._members.get(group_id, set()))

    def members_on_host(self, group_id: int, logical_host: int) -> list[Pid]:
        return sorted(
            (pid for pid in self._members.get(group_id, set())
             if pid.logical_host == logical_host),
        )

    def hosts_with_members(self, group_id: int) -> set[int]:
        return {pid.logical_host for pid in self._members.get(group_id, set())}
