"""Traffic audit: which lines of ``src/repro`` the repository's own traffic runs.

Before deleting a mechanism, measure whether anything but its own tests runs
it.  This script writes a line tracer as a ``sitecustomize.py`` into a
temporary directory put on ``PYTHONPATH`` ahead of ``src``, so every
interpreter the traffic spawns is covered, and runs the traffic under it:

1. the cost ledger at smoke size, ``benchmarks/ledger/run.py --smoke``;
2. ``.github/smoke.sh``, which runs every ``examples/*.py``, every
   ``python -m repro.obs`` subcommand and ends with the behavioural
   contract (``bench --check``).  It runs as a copy that keeps the tracer
   on ``PYTHONPATH`` (the original sets ``PYTHONPATH=src``) and does not
   stop at the traced benches' exit status: tracing always trips E17's
   wall-clock ceiling on capture cost, which would otherwise cut the rest
   of the script.

The unit tests are deliberately not traffic: a mechanism only its own tests
execute is what the audit looks for.  Counting, per module: *executable*
lines are the line numbers of every code object compiled from it
(``co_lines()``); *ran* is those any traced process executed; *unrun* is the
source lines (first to last) of functions none of whose body lines ran,
outermost only (lambdas and comprehensions are not counted on their own).
Tracing makes the traffic about five times slower than untraced.

Usage::

    python3 benchmarks/traffic_audit.py [--json OUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Written as ``sitecustomize.py``: records every line executed in a file
#: under ``AUDIT_ROOT`` and dumps them per process at exit.
TRACER = '''\
import atexit, collections, json, os, sys, threading
OUT, ROOT = os.environ["AUDIT_OUT"], os.environ["AUDIT_ROOT"]
lines = collections.defaultdict(set)
def local(frame, event, arg):
    if event == "line":
        lines[frame.f_code.co_filename].add(frame.f_lineno)
    return local
def tracer(frame, event, arg):
    if not frame.f_code.co_filename.startswith(ROOT):
        return None
    lines[frame.f_code.co_filename].add(frame.f_lineno)
    return local
def dump():
    with open(os.path.join(OUT, f"{os.getpid()}.json"), "w") as out:
        json.dump({name: sorted(seen) for name, seen in lines.items()}, out)
atexit.register(dump)
threading.settrace(tracer)
sys.settrace(tracer)
'''


def _edit(text: str, old: str, new: str) -> str:
    if old not in text:
        raise SystemExit(f"smoke.sh no longer contains {old!r}: update "
                         "traffic_audit.py's copy of it")
    return text.replace(old, new)


def traffic(tmp: Path) -> list[tuple[str, list[str]]]:
    """The traffic sources, as (label, command) pairs run from ROOT."""
    python = sys.executable
    smoke = (ROOT / ".github" / "smoke.sh").read_text()
    smoke = _edit(smoke, "export PYTHONPATH=src",
                  f"export PYTHONPATH={tmp}:{ROOT / 'src'}")
    smoke = _edit(smoke, "python -m pytest -x -q", "python -m pytest -q")
    smoke = _edit(smoke, "benchmarks/bench_e18_sharded_names.py\n",
                  "benchmarks/bench_e18_sharded_names.py"
                  " || echo \"traced benches exited $?\" >&2\n")
    smoke_copy = tmp / "smoke.sh"
    smoke_copy.write_text(smoke)
    return [("ledger --smoke", [python, "benchmarks/ledger/run.py",
                                "--smoke", "--out", str(tmp / "ledger")]),
            ("smoke.sh", ["bash", str(smoke_copy), str(tmp / "smoke")])]


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def code_lines(code) -> set[int]:
    return {line for code in code_objects(code)
            for __, __, line in code.co_lines() if line is not None}


def unrun_lines(code, ran: set[int]) -> int:
    """Source lines of the outermost functions under ``code`` that never ran."""
    total = 0
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        if const.co_name.startswith("<"):       # lambda, comprehension
            total += unrun_lines(const, ran)
            continue
        lines = code_lines(const)
        is_function = bool(const.co_flags & 0x1)   # CO_OPTIMIZED
        if is_function and not (lines - {const.co_firstlineno}) & ran:
            total += max(lines) - const.co_firstlineno + 1
        else:
            total += unrun_lines(const, ran)
    return total


def audit(traced: dict[str, set[int]]) -> list[dict]:
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        executable = code_lines(code)
        ran = traced.get(str(path), set()) & executable
        rows.append({"module": str(path.relative_to(PACKAGE)),
                     "executed": len(ran), "executable": len(executable),
                     "unrun_function_lines": unrun_lines(code, ran)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", help="also write the table here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="traffic-audit-") as name:
        tmp = Path(name)
        (tmp / "sitecustomize.py").write_text(TRACER)
        out = tmp / "lines"
        out.mkdir()
        env = dict(os.environ, AUDIT_OUT=str(out), AUDIT_ROOT=str(PACKAGE),
                   PYTHONPATH=f"{tmp}{os.pathsep}{ROOT / 'src'}")
        for label, command in traffic(tmp):
            status = subprocess.run(command, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL).returncode
            print(f"traffic: {label}: exit {status}", file=sys.stderr)
        traced: dict[str, set[int]] = {}
        dumps = list(out.glob("*.json"))
        for dump in dumps:
            for filename, lines in json.loads(dump.read_text()).items():
                traced.setdefault(filename, set()).update(lines)
    rows = audit(traced)
    print(f"{len(dumps)} traced processes")
    print(f"{'module':<36} {'executed':>9} {'executable':>11} {'share':>7}"
          f" {'unrun-fn':>9}")
    for row in rows + [{"module": "total",
                        **{key: sum(r[key] for r in rows)
                           for key in ("executed", "executable",
                                       "unrun_function_lines")}}]:
        share = row["executed"] / row["executable"] if row["executable"] else 1
        print(f"{row['module']:<36} {row['executed']:>9} "
              f"{row['executable']:>11} {share:>7.1%} "
              f"{row['unrun_function_lines']:>9}")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
