"""Failure injection.

- :mod:`repro.faults.crash` -- fail-stop host crashes and restarts on a
  schedule (E8b, E8c).
- :mod:`repro.faults.partition` -- network partitions via Ethernet drop
  rules.
- :mod:`repro.faults.chaos` -- composed loss/crash/partition schedules
  with invariant checks, run by ``python -m repro.obs chaos`` (E14).
"""

from repro.faults.chaos import (
    ChaosReport,
    ChaosSchedule,
    InvariantViolation,
    check_invariants,
    run_chaos,
)
from repro.faults.crash import crash_at, restart_at, CrashSchedule
from repro.faults.partition import partition_between, heal_partition

__all__ = [
    "crash_at",
    "restart_at",
    "CrashSchedule",
    "partition_between",
    "heal_partition",
    "ChaosReport",
    "ChaosSchedule",
    "InvariantViolation",
    "check_invariants",
    "run_chaos",
]
