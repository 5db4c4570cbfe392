"""E9 (paper Sec. 5.6): context directories vs enumerate-and-query.

Paper: "An alternative to this approach would be to provide an operation
that enumerates (or lists) the names of objects in a context.  The client
would use the list of names in conjunction with the object query operation
to simulate the reading of a context directory.  We argue that our approach
is preferable because ... a straight enumeration of names is rarely
sufficient and requires an additional operation for each object at
considerable cost over the context directory approach."

Reproduced: the two client strategies against the same directory, across
context sizes.  The directory read costs one open plus O(size/block)
sequential reads; enumerate+query costs one transaction *per object*.
"""

import pytest

from conftest import report_table
from _common import run_on, standard_system

from repro.core.descriptors import ObjectDescription
from repro.kernel.ipc import Now
from repro.runtime import files

SIZES = (4, 16, 64, 128)


def build_directory(entries: int):
    domain, workstation, fs = standard_system()

    def seed(session):
        yield from session.mkdir("many")
        for index in range(entries):
            yield from session.create(f"many/f{index:03d}.dat")

    run_on(domain, workstation.host, seed(workstation.session()),
           name="seed")
    return domain, workstation


def measure_directory_read(entries: int) -> tuple[float, int]:
    domain, workstation = build_directory(entries)
    session = workstation.session()

    def client():
        t0 = yield Now()
        records = yield from session.list_directory("many")
        t1 = yield Now()
        assert len(records) == entries
        return t1 - t0

    elapsed = run_on(domain, workstation.host, client(), name="reader")
    return elapsed * 1e3, entries


def measure_enumerate_and_query(entries: int) -> float:
    domain, workstation = build_directory(entries)
    session = workstation.session()

    def client():
        # The names are assumed known (enumeration itself would add another
        # read); we charge only the per-object queries, which is *generous*
        # to the design the paper argues against.
        t0 = yield Now()
        records = []
        for index in range(entries):
            records.append((yield from session.query(f"many/f{index:03d}.dat")))
        t1 = yield Now()
        assert len(records) == entries
        return t1 - t0

    return run_on(domain, workstation.host, client(), name="querier") * 1e3


def test_e9_context_directory_vs_enumerate(benchmark):
    directory_ms, __ = benchmark(measure_directory_read, SIZES[-1])

    rows = []
    ratios = {}
    for size in SIZES:
        dir_ms, __ = measure_directory_read(size)
        enum_ms = measure_enumerate_and_query(size)
        ratios[size] = enum_ms / dir_ms
        rows.append((size, dir_ms, enum_ms, f"{ratios[size]:.1f}x"))
    report_table(
        "E9  Listing a context: directory read vs enumerate+query (Sec. 5.6)",
        rows,
        headers=("objects", "directory ms", "enumerate+query ms",
                 "advantage"),
    )

    # Shape: the advantage grows with context size; by 64 objects the
    # directory read wins by several-fold.
    assert ratios[SIZES[0]] > 1.0
    assert ratios[64] > 3.0
    assert ratios[128] >= ratios[16]


def test_e9_directory_read_is_block_granular(benchmark):
    """Cost steps with blocks of records, not per object -- the mechanism
    behind the E9 advantage."""

    def run():
        small_ms, __ = measure_directory_read(2)
        bigger_ms, __ = measure_directory_read(8)
        return small_ms, bigger_ms

    small_ms, bigger_ms = benchmark(run)
    report_table(
        "E9b  Directory read cost, 2 vs 8 objects (same block count)",
        [("2 objects", small_ms), ("8 objects", bigger_ms)],
        headers=("context", "measured ms"),
    )
    # 8 small records still fit a couple of blocks: far from 4x the cost.
    assert bigger_ms < small_ms * 2.0


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    The context size is pinned (64): per-object costs depend on it.
    """
    dir_ms, __ = measure_directory_read(64)
    enum_ms = measure_enumerate_and_query(64)
    return {
        "directory64_ms": dir_ms,
        "enumerate64_ms": enum_ms,
        "advantage64_ratio": enum_ms / dir_ms,
    }
