"""E5 (paper Sec. 6): the context prefix server is small.

Paper: "The context prefix server is 4.5 kilobytes of code plus 2.6
kilobytes of data (mostly space reserved for its context directory) when
compiled for the Motorola 68000.  This space cost is not significant..."

Reproduced analogously for Python: compiled bytecode size of the prefix
server module (the "code"), and the live size of its binding table at the
paper's typical scale (the "data").  Absolute bytes differ by platform --
what must hold is the claim's shape: the per-user server is a trivial cost,
and its data grows linearly at tens of bytes per prefix.
"""

import marshal
import py_compile
import sys
import tempfile

import pytest

from conftest import report_table

import repro.core.prefix_server as prefix_module
from repro.core.context import ContextPair
from repro.core.prefix_server import ContextPrefixServer
from repro.kernel.pids import Pid

PAPER_CODE_KB = 4.5
PAPER_DATA_KB = 2.6
#: A loaded workstation in Sec. 6: several file servers x several prefixes.
TYPICAL_PREFIXES = 12


def bytecode_size() -> int:
    with tempfile.NamedTemporaryFile(suffix=".pyc") as out:
        py_compile.compile(prefix_module.__file__, cfile=out.name,
                           doraise=True)
        with open(out.name, "rb") as compiled:
            return len(compiled.read())


def table_size(prefix_count: int) -> int:
    server = ContextPrefixServer(user="mann")
    for index in range(prefix_count):
        server.define_prefix(f"prefix{index}",
                             ContextPair(Pid.make(1, index + 1), 0))
    return server.footprint()["table_bytes"]


def test_e5_prefix_server_footprint(benchmark):
    code_bytes = benchmark(bytecode_size)
    data_bytes = table_size(TYPICAL_PREFIXES)
    per_prefix = (table_size(100) - table_size(0)) / 100

    report_table(
        "E5  Context prefix server footprint (Sec. 6)",
        [
            ("code", f"{PAPER_CODE_KB} KB (68000)",
             f"{code_bytes / 1024:.1f} KB (CPython bytecode)"),
            (f"data ({TYPICAL_PREFIXES} prefixes)",
             f"{PAPER_DATA_KB} KB", f"{data_bytes / 1024:.2f} KB"),
            ("data growth", "(n/a)", f"{per_prefix:.0f} B/prefix"),
        ],
        headers=("component", "paper", "measured"),
    )

    # Shape assertions: "not significant" on any machine of the era or now.
    assert code_bytes < 64 * 1024
    assert data_bytes < 16 * 1024
    assert per_prefix < 512


def test_e5_data_grows_linearly(benchmark):
    sizes = benchmark(lambda: [table_size(n) for n in (0, 25, 50, 100)])
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    # Within dict-resize noise, growth is linear.
    assert max(deltas) < 3 * max(1, min(d for d in deltas if d > 0))


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    Footprints drift legitimately when the module or interpreter changes;
    both are reported by ``--check`` but never gated (``NOT_GATED``).
    """
    return {
        "code_bytes": bytecode_size(),
        "table_bytes_12_prefixes": table_size(TYPICAL_PREFIXES),
    }
