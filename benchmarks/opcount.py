"""Opcodes and bytes per operation, per layer: costs a noisy box cannot move.

Wall-clock pairs on a shared VM wander by tens of per cent; the number of
Python bytecode instructions a workload executes does not move at all.  This
script counts them with ``sys.settrace`` opcode events (CPython 3.11 has no
``sys.monitoring``) and prints them per operation, per ledger layer:

- **workloads**: one ledger workload (``benchmarks/ledger/workloads.py``,
  imported read-only) is built at 1/20 size, run once untraced as a
  warm-up, then built and run again with its build and its timed region
  (the region the ledger's ``ops_per_wall_s`` and cProfile fold time)
  traced separately.  Opcodes of the timed region are divided by the
  completed operations; the ``<workload>/build`` row counts one build,
  the work behind the ledger's ``setup_s``.  ``udp_loopback`` runs on the
  wall clock and is not counted;
- **transactions**: the ledger's ``kernel.ns_per_local_txn`` and
  ``kernel.ns_per_remote_txn`` probe bodies (one client Send/Reply loop to a
  responder on the same or another host), each counted at N and at 2N
  transactions; the difference divided by N is the cost of one more
  transaction, with the domain's set-up cancelled out.

The **memory table** builds and runs each workload a third time under
``tracemalloc`` (one frame): the bytes and blocks the build, or the timed
region, allocated and still holds at its end, by the layer of the file that
allocated them, and the traced peak.  Two workloads add a full-size row,
where their cost shows only at that size: ``fleet_send@full`` (timed region
only: its reply cache's bound) and ``shard_zipf@full/build`` (build only:
4 096 prefixes seeded on four replicas).

Layers are ``benchmarks/ledger/layers.py``'s (a module of ``src/repro`` by
path; dataclass-generated methods, compiled from ``<string>``, by the module
that defined the class, except in the memory table, which sees only the
file name ``<string>`` and counts it as ``stdlib``); code outside the
repository is ``stdlib``, and the benchmark's own files are ``other``.
Counts and bytes are exact: two runs of one tree print the same tables.
Opcodes are not equally costly, so a speed claim quotes these beside the
ledger's cProfile ``calls_per_op`` and wall pairs.

Usage, from the root of a checkout::

    python3 benchmarks/opcount.py [--workload W ...|--all] [--json OUT]
    python3 benchmarks/opcount.py --compare A.json B.json

``--compare`` prints every row, totals included, whose count or bytes
moved.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"
sys.path.insert(0, str(LEDGER))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
#: One seed for every table: exact counts compare only at the same one.
SEED = 1
DEFAULT_WORKLOADS = ("open_path",)
#: Wall-clock driven: its work per operation depends on the box.
UNCOUNTED = ("udp_loopback",)
#: Transactions per probe count (the second count is twice this).
TRANSACTIONS = 500
SCHEMA = "opcount/2"
#: The workloads whose memory table also gets a full-size row of the timed
#: region (``<workload>@full``) or of the build (``<workload>@full/build``).
FULL_SIZE_RUN = ("fleet_send",)
FULL_SIZE_BUILD = ("shard_zipf",)


class OpcodeTracer:
    """Counts opcodes per code object while enabled.

    Has the ``enable``/``disable`` pair a workload's ``run(state,
    profiler)`` calls around its timed region, so it traces exactly that.
    """

    def __init__(self) -> None:
        self.counts: dict = defaultdict(int)
        #: Code compiled from ``<string>`` -> the defining module's name.
        self.modules: dict = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename == "<string>" and code not in self.modules:
            self.modules[code] = frame.f_globals.get("__name__", "")
        frame.f_trace_opcodes = True
        return self._local

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.counts[frame.f_code] += 1
        return self._local

    def enable(self) -> None:
        sys.settrace(self._call)

    def disable(self) -> None:
        sys.settrace(None)

    def by_layer(self) -> dict:
        totals: dict = defaultdict(int)
        for code, count in self.counts.items():
            totals[self.layer(code)] += count
        return dict(totals)

    def layer(self, code) -> str:
        if code.co_filename == "<string>":
            module = self.modules.get(code, "")
            if not module.startswith("repro."):
                return "stdlib"
            path = layers.SRC_ROOT.joinpath(*module.split(".")[1:])
            return layers.layer_of(str(path) + ".py") or "stdlib"
        return layers.layer_of(code.co_filename) or "stdlib"


class MemoryTracer:
    """Bytes and blocks allocated while enabled and still held when
    disabled, by layer, and the traced peak: ``tracemalloc`` behind the
    same ``enable``/``disable`` pair as :class:`OpcodeTracer`."""

    def enable(self) -> None:
        tracemalloc.start(1)

    def disable(self) -> None:
        self.peak = tracemalloc.get_traced_memory()[1]
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        self.held: dict = defaultdict(int)
        self.blocks = 0
        for stat in snapshot.statistics("filename"):
            filename = stat.traceback[0].filename
            self.held[layers.layer_of(filename) or "stdlib"] += stat.size
            self.blocks += stat.count

    def row(self, ops: int) -> dict:
        return {"ops": ops, "peak": self.peak, "held": sum(self.held.values()),
                "blocks": self.blocks, "layers": dict(sorted(self.held.items()))}


def build_and_run(name: str, scale: float, build_tracer=None,
                  run_tracer=None):
    """One fresh build and run of ``name``, each under its tracer if any."""
    workload = WORKLOADS[name]
    gc.collect()
    if build_tracer is not None:
        build_tracer.enable()
    try:
        state = workload.build(SEED, scale)
    finally:
        if build_tracer is not None:
            build_tracer.disable()
    try:
        outcome = workload.run(state, run_tracer)
    finally:
        workload.close(state)
    if outcome.failed or outcome.problems:
        raise SystemExit(f"{name}: {outcome.failed} failed, "
                         f"{outcome.problems[:3]}")
    return outcome


def count_workload(name: str) -> tuple[dict, dict]:
    """``name``'s opcode rows and memory rows: timed region and build."""
    build_and_run(name, SCALE)                          # the warm-up
    build, run = OpcodeTracer(), OpcodeTracer()
    ops = build_and_run(name, SCALE, build, run).attempted
    opcodes = {name: per_op(run.by_layer(), ops),
               f"{name}/build": per_op(build.by_layer(), 1)}
    build, run = MemoryTracer(), MemoryTracer()
    build_and_run(name, SCALE, build, run)
    memory = {name: run.row(ops), f"{name}/build": build.row(1)}
    if name in FULL_SIZE_RUN:
        run = MemoryTracer()
        memory[f"{name}@full"] = run.row(
            build_and_run(name, 1.0, None, run).attempted)
    if name in FULL_SIZE_BUILD:
        build = MemoryTracer()
        build_and_run(name, 1.0, build)
        memory[f"{name}@full/build"] = build.row(1)
    return opcodes, memory


def count_transactions(remote: bool) -> dict:
    probe = "kernel.ns_per_remote_txn" if remote else "kernel.ns_per_local_txn"
    totals = []
    for count in (0, TRANSACTIONS, 2 * TRANSACTIONS):
        body = layers.probes()[probe]
        tracer = OpcodeTracer()
        tracer.enable()
        try:
            body(max(count, 1))
        finally:
            tracer.disable()
        totals.append(tracer.by_layer())
    __, small, large = totals        # the first is the warm-up
    delta = {layer: large.get(layer, 0) - small.get(layer, 0)
             for layer in set(small) | set(large)}
    return per_op(delta, TRANSACTIONS)


def per_op(by_layer: dict, ops: int) -> dict:
    layers_ = {layer: count / ops for layer, count in sorted(by_layer.items())
               if count}
    return {"ops": ops, "total": sum(layers_.values()), "layers": layers_}


#: A memory row's totals, listed before its layers.
MEMORY_TOTALS = ("peak", "held", "blocks")


def table(document: dict) -> list:
    """Rows of ``(table, row name, column, value)``: opcodes per op (total
    first, then by layer), then a memory row's totals and its bytes held
    by layer (absolute; a row's ``ops`` divides them)."""
    rows = []
    for name, result in document["rows"].items():
        rows.append(("opcodes", name, "total", result["total"]))
        rows += [("opcodes", name, layer, value)
                 for layer, value in result["layers"].items()]
    for name, result in document.get("memory", {}).items():
        rows += [("memory", name, column, result[column])
                 for column in MEMORY_TOTALS]
        rows += [("memory", name, layer, value)
                 for layer, value in result["layers"].items()]
    return rows


def print_table(document: dict) -> None:
    print(f"opcodes per operation ({document['python']}, seed "
          f"{document['seed']}, workloads at 1/{round(1 / SCALE)} size; "
          "a /build row is per build)")
    for kind, name, column, value in table(document):
        if kind == "opcodes":
            indent = "" if column == "total" else "  "
            print(f"{indent}{name if column == 'total' else column:<24}"
                  f"{value:>12.1f}")
    memory = document.get("memory", {})
    if not memory:
        return
    print("\nbytes the timed region (or the build) allocated: traced peak, "
          "and held at its end by layer (@full: full size)")
    print(f"{'':<24}{'bytes':>12}{'per op':>12}")
    for kind, name, column, value in table(document):
        if kind == "memory":
            ops = memory[name]["ops"]
            if column == "peak":
                print(f"{name} ({ops} op{'s' * (ops > 1)})")
            indent = "  " if column in MEMORY_TOTALS else "    "
            print(f"{indent}{column:<{24 - len(indent)}}{value:>12}"
                  f"{value / ops:>12.1f}")


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    before = {row[:3]: row[3] for row in table(a)}
    after = {row[:3]: row[3] for row in table(b)}
    print(f"{'table':<9}{'row':<22}{'column':<16}{'A':>12}{'B':>12}"
          f"{'B-A':>12}{'%':>9}")
    for key in {**before, **after}:          # in table order, A's first
        old, new = before.get(key, 0.0), after.get(key, 0.0)
        if round(old, 1) == round(new, 1):
            continue
        share = f"{(new - old) / old * 100:+.1f}" if old else "new"
        print(f"{key[0]:<9}{key[1]:<22}{key[2]:<16}{old:>12.1f}{new:>12.1f}"
              f"{new - old:>+12.1f}{share:>9}")
    return 0


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    counted = [name for name in WORKLOADS if name not in UNCOUNTED]
    parser.add_argument("--workload", action="append", choices=counted,
                        help="ledger workload to count (repeatable; "
                             f"default {', '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--all", action="store_true",
                        help="count every DES workload")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the table as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="name the rows that moved between two tables")
    args = parser.parse_args(argv)
    if args.all:
        args.workload = counted
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        return compare(*args.compare)
    rows = {"local_txn": count_transactions(remote=False),
            "remote_txn": count_transactions(remote=True)}
    memory = {}
    for name in args.workload or DEFAULT_WORKLOADS:
        opcodes, held = count_workload(name)
        rows.update(opcodes)
        memory.update(held)
    document = {"schema": SCHEMA, "python": sys.version.split()[0],
                "seed": SEED, "scale": SCALE, "rows": rows, "memory": memory}
    print_table(document)
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
