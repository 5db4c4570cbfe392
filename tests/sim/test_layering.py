"""``repro.sim`` is the bottom layer: engine, process and rng, nothing else."""

import ast
from pathlib import Path

import repro.sim


def test_sim_imports_nothing_else_from_repro():
    offenders = []
    for path in sorted(Path(repro.sim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Relative imports keep their dots: one stays inside the
                # (flat) package, two or more climb out of it.
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            offenders += [
                f"{path.name}: {name}" for name in names
                if name.startswith("..")
                or (name.split(".")[0] == "repro"
                    and name.split(".")[:2] != ["repro", "sim"])]
    assert offenders == []
