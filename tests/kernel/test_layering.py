"""``repro.kernel`` is watched only through its event tap.

Instruments live in ``repro.obs`` and subscribe to the kernel tap
(``repro.kernel.tap``); the kernel itself imports nothing from ``repro.obs``
at module level but the metrics registry, and a run with no instrument
attached makes no call into ``repro/obs/`` beyond it.
"""

import ast
import sys
from pathlib import Path

import repro.kernel
import repro.obs
from repro.kernel.domain import Domain
from repro.kernel.ipc import GetPid, Receive, Reply, Send, SetPid
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.services import Scope
from tests.helpers import run_on


def _module_level_imports(body):
    """Imports that run when the module loads; ``if TYPE_CHECKING:`` and
    function bodies are exempt."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                yield from _module_level_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_level_imports(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers for stmt in handler.body])


def test_kernel_imports_only_the_registry_from_obs():
    offenders = []
    for path in sorted(Path(repro.kernel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            offenders += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[:2] == ["repro", "obs"]
                and not name.startswith("repro.obs.registry.")]
    assert offenders == []


def _echo_server():
    yield SetPid(1, Scope.BOTH)
    while True:
        delivery = yield Receive()
        yield Reply(delivery.sender, Message.reply(ReplyCode.OK))


def _client():
    pid = yield GetPid(1, Scope.ANY)
    for __ in range(3):
        reply = yield Send(pid, Message.request(0x0101))
        assert reply.ok


def test_an_unobserved_run_calls_nothing_in_obs_but_the_registry():
    obs_dir = str(Path(repro.obs.__file__).parent) + "/"
    registry = obs_dir + "registry.py"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(obs_dir) and filename != registry:
                called.add(f"{Path(filename).name}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        domain = Domain(seed=0)
        workstation = domain.create_host("ws")
        domain.create_host("far").spawn(_echo_server(), "server")
        run_on(domain, workstation, _client())
    finally:
        sys.setprofile(None)
    assert domain.metrics.count("ipc.transactions") == 3
    assert called == set()
