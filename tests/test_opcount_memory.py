"""``opcount.py``'s memory table counts live bytes, not garbage.

A storm's timed region drops its whole domain, a web of reference cycles,
just before ``MemoryTracer.disable`` snapshots what is still allocated.
Those bytes are garbage waiting for the cyclic collector, not bytes the
run holds; the tracer collects before it snapshots.
"""

import gc
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "opcount", ROOT / "benchmarks" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)

PAYLOAD = 1 << 20


def test_a_dropped_cycle_is_not_counted_as_held():
    was_enabled = gc.isenabled()
    gc.disable()            # no automatic collection inside the window
    try:
        tracer = opcount.MemoryTracer()
        tracer.enable()
        cycle = [bytearray(PAYLOAD)]
        cycle.append(cycle)
        del cycle
        tracer.disable()
    finally:
        if was_enabled:
            gc.enable()
    row = tracer.row(1)
    assert row["peak"] >= PAYLOAD
    assert row["held"] < PAYLOAD // 4


def test_a_live_object_is_still_counted_as_held():
    tracer = opcount.MemoryTracer()
    tracer.enable()
    kept = bytearray(PAYLOAD)
    tracer.disable()
    assert tracer.row(1)["held"] >= PAYLOAD
    del kept
