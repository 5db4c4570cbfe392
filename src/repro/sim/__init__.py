"""Deterministic discrete-event simulation substrate.

The V-System reproduction runs on a simulated cluster: hosts, kernels, and an
Ethernet are all driven by a single event queue with a simulated clock.  This
package provides that machinery and nothing else -- it imports nothing from
the rest of ``repro`` (counters live in :mod:`repro.obs.registry`):

- :mod:`repro.sim.engine` -- the event queue and clock.
- :mod:`repro.sim.rng` -- seeded random number helpers for determinism.

All timing is in *simulated seconds*; nothing here depends on wall-clock time.
"""

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.rng import DeterministicRng

__all__ = [
    "Engine",
    "ScheduledEvent",
    "DeterministicRng",
]
