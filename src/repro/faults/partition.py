"""Network partitions.

A partition is a drop rule installed on the Ethernet: frames crossing the
cut are discarded in both directions.  Senders see the same symptom as a
crashed peer -- probe timeouts -- which is the correct indistinguishability
for a fail-stop + lossy-network model.

Cuts compose: a frame is dropped if any installed cut (or any other drop
rule) drops it, and healing a cut removes that cut alone.
"""

from __future__ import annotations

from typing import Iterable

from repro.kernel.domain import Domain
from repro.net.ethernet import DropFn
from repro.net.packet import Frame


def cut_between(group_a: Iterable[int], group_b: Iterable[int]) -> DropFn:
    """The drop rule of a cut between two sets of host ids."""
    side_a = frozenset(group_a)
    side_b = frozenset(group_b)
    overlap = side_a & side_b
    if overlap:
        raise ValueError(f"hosts on both sides of the cut: {sorted(overlap)}")

    def dropped(frame: Frame, dst_host: int) -> bool:
        src = frame.src_host
        return ((src in side_a and dst_host in side_b)
                or (src in side_b and dst_host in side_a))

    return dropped


def partition_between(domain: Domain, group_a: Iterable[int],
                      group_b: Iterable[int]) -> DropFn:
    """Cut the network between two sets of host ids; returns the cut."""
    return domain.ethernet.add_drop_predicate(cut_between(group_a, group_b))


def heal_partition(domain: Domain, cut: DropFn) -> None:
    """Remove ``cut``; every other cut and drop rule stays."""
    domain.ethernet.remove_drop_predicate(cut)
