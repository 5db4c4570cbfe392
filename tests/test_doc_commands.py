"""The commands and paths the docs name must exist.

Every ``python -m repro…`` command in the user-facing docs, the CI smoke
script and the workflow must name a module that runs (a package with a
``__main__``, or a module with a ``__name__ == "__main__"`` guard), and
every ``python -m repro.obs …`` argv must parse with the real parser.
Every backticked ``src/…``, ``tests/…`` or ``benchmarks/…`` path must
exist.  ``CHANGES.md`` and ``ROADMAP.md`` are history and are not scanned.
"""

import importlib.util
import re
import shlex
from pathlib import Path

from repro.obs.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[1]
MARKDOWN = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md")
SCRIPTS = (".github/smoke.sh", ".github/workflows/ci.yml")

#: ``python -m <module> <args>``, the args cut at a backtick, a closing
#: parenthesis (prose), a comment, a pipe, a redirection, a separator or a
#: ``<placeholder>`` (a synopsis such as ``python -m repro.obs <subcommand>``
#: names its module only).
COMMAND = re.compile(r"python3? -m (repro[\w.]*)([^`)#|<>;&]*)")


def snippets(name: str) -> list[str]:
    """The shell text of one file, ``\\`` continuations joined; for
    Markdown, its fenced blocks line by line and its inline code spans."""
    text = re.sub(r"\\\n\s*", " ", (ROOT / name).read_text())
    if not name.endswith(".md"):
        return text.splitlines()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    lines = [line for block in fence.findall(text)
             for line in block.splitlines()]
    spans = re.findall(r"`([^`]+)`", fence.sub("", text))
    return lines + [span.replace("\n", " ") for span in spans]


def commands() -> list[tuple[str, str, list[str]]]:
    found = []
    for name in MARKDOWN + SCRIPTS:
        for snippet in snippets(name):
            for match in COMMAND.finditer(snippet):
                found.append((name, match.group(1),
                              shlex.split(match.group(2))))
    return found


def runnable(module: str) -> bool:
    spec = importlib.util.find_spec(module)
    if spec is None:
        return False
    if spec.submodule_search_locations is not None:
        return importlib.util.find_spec(f"{module}.__main__") is not None
    return '__name__ == "__main__"' in Path(spec.origin).read_text()


def test_the_docs_name_commands():
    found = {name for name, __, __ in commands()}
    assert found == set(MARKDOWN + SCRIPTS)


def test_every_command_resolves(capsys):
    broken = []
    for name, module, argv in commands():
        if not runnable(module):
            broken.append(f"{name}: python -m {module} does not run")
        elif module == "repro.obs" and argv:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                broken.append(f"{name}: python -m repro.obs "
                              f"{shlex.join(argv)} does not parse: "
                              f"{capsys.readouterr().err.strip()}")
    assert broken == []


def test_backticked_paths_exist():
    missing = []
    for name in MARKDOWN:
        text = (ROOT / name).read_text()
        for named in re.findall(r"`((?:src|tests|benchmarks)/[^`\s]*)`",
                                text):
            path = re.sub(r"(::|:\d).*$", "", named)
            if not any(ROOT.glob(path)):
                missing.append(f"{name}: {named}")
    assert missing == []
