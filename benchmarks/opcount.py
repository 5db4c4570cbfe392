"""Opcode counts per operation, per layer: cost numbers a noisy box cannot move.

Wall-clock pairs on a shared VM wander by tens of per cent; the number of
Python bytecode instructions a workload executes does not move at all.  This
script counts them with ``sys.settrace`` opcode events (CPython 3.11 has no
``sys.monitoring``) and prints them per operation, per ledger layer:

- **workloads**: one ledger workload (``benchmarks/ledger/workloads.py``,
  imported read-only) is built at 1/20 size, run once untraced as a
  warm-up, built again and run with only its timed region traced -- the
  region the ledger's ``ops_per_wall_s`` and cProfile fold time.  Opcodes
  are divided by the completed operations.  ``udp_loopback`` runs on the
  wall clock and is not counted;
- **transactions**: the ledger's ``kernel.ns_per_local_txn`` and
  ``kernel.ns_per_remote_txn`` probe bodies (one client Send/Reply loop to a
  responder on the same or another host), each counted at N and at 2N
  transactions; the difference divided by N is the cost of one more
  transaction, with the domain's set-up cancelled out.

Layers are ``benchmarks/ledger/layers.py``'s (a module of ``src/repro`` by
path; dataclass-generated methods, compiled from ``<string>``, by the module
that defined the class); code outside the repository is ``stdlib``, and the
benchmark's own files are ``other``.  Counts are exact: two runs of one tree
print the same table.  Opcodes are not equally costly, so a speed claim
quotes these beside the ledger's cProfile ``calls_per_op`` and wall pairs.

Usage, from the root of a checkout::

    python3 benchmarks/opcount.py [--workload W ...|--all] [--json OUT]
    python3 benchmarks/opcount.py --compare A.json B.json

``--compare`` prints every row, totals included, whose count moved.
"""

from __future__ import annotations

import argparse
import json
import sys
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
SCHEMA = "opcount/1"


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


def count_workload(name: str) -> dict:
    workload = WORKLOADS[name]
    for traced in (False, True):
        tracer = OpcodeTracer()
        state = workload.build(SEED, SCALE)
        try:
            outcome = workload.run(state, tracer if traced else None)
        finally:
            workload.close(state)
    if outcome.failed or outcome.problems:
        raise SystemExit(f"{name}: {outcome.failed} failed, "
                         f"{outcome.problems[:3]}")
    return per_op(tracer.by_layer(), outcome.attempted)


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


def table(document: dict) -> list:
    """Rows of ``(row name, layer, opcodes per op)``, total first."""
    rows = []
    for name, result in document["rows"].items():
        rows.append((name, "total", result["total"]))
        rows += [(name, layer, value)
                 for layer, value in result["layers"].items()]
    return rows


def print_table(document: dict) -> None:
    print(f"opcodes per operation ({document['python']}, seed "
          f"{document['seed']}, workloads at 1/{round(1 / SCALE)} size)")
    for name, layer, value in table(document):
        indent = "" if layer == "total" else "  "
        print(f"{indent}{name if layer == 'total' else layer:<24}"
              f"{value:>12.1f}")


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    before = {(name, layer): value for name, layer, value in table(a)}
    after = {(name, layer): value for name, layer, value in table(b)}
    print(f"{'row':<17}{'layer':<16}{'A':>12}{'B':>12}{'B-A':>12}{'%':>9}")
    for key in sorted(set(before) | set(after),
                      key=lambda k: (k[0], k[1] != "total", k[1])):
        old, new = before.get(key, 0.0), after.get(key, 0.0)
        if round(old, 1) == round(new, 1):
            continue
        share = f"{(new - old) / old * 100:+.1f}" if old else "new"
        print(f"{key[0]:<17}{key[1]:<16}{old:>12.1f}{new:>12.1f}"
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
    for name in args.workload or DEFAULT_WORKLOADS:
        rows[name] = count_workload(name)
    document = {"schema": SCHEMA, "python": sys.version.split()[0],
                "seed": SEED, "scale": SCALE, "rows": rows}
    print_table(document)
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
