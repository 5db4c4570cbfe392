"""The traffic audit's copy of ``.github/smoke.sh`` still applies.

``benchmarks/traffic_audit.py`` runs an edited copy of the smoke script;
each edit looks for an anchor in it, and a lost anchor stops the audit
before any traffic runs.  Nothing here runs traffic.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "traffic_audit", ROOT / "benchmarks" / "traffic_audit.py")
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)


def traced_command(script: str) -> str:
    lines = script[script.index(audit.TRACED_BENCHES):].splitlines(True)
    end = next(n for n, line in enumerate(lines) if not line.endswith("\\\n"))
    return "".join(lines[:end + 1])


def test_every_edit_finds_its_anchor_in_the_smoke_script(tmp_path):
    commands = audit.traffic(tmp_path)      # SystemExit on a lost anchor
    original = (ROOT / ".github" / "smoke.sh").read_text()
    copy = (tmp_path / "smoke.sh").read_text()
    assert [label for label, __ in commands] == ["ledger --smoke", "smoke.sh"]
    assert f"export PYTHONPATH={tmp_path}:" in copy
    assert "python -m pytest -x" not in copy
    # The whole command, every bench on it, now reports its exit status
    # instead of ending the script.
    assert traced_command(copy) == (
        traced_command(original).replace(" -x", "")[:-1]
        + ' || echo "traced benches exited $?" >&2\n')


def test_the_traced_bench_edit_survives_an_appended_bench():
    script = ("set -e\n" + audit.TRACED_BENCHES + " -q \\\n"
              "  benchmarks/bench_a.py \\\n  benchmarks/bench_b.py\nnext\n")
    assert audit._command_end(script, audit.TRACED_BENCHES) == (
        "  benchmarks/bench_b.py\n")
