"""Generator-based cooperative tasks.

V server and client code in this reproduction is written as Python generator
functions that ``yield`` *effect* objects -- ``Send``, ``Receive``, ``Delay``
and friends from :mod:`repro.kernel.ipc`.  The kernel interprets each effect,
applies its simulated cost, and resumes the generator with the result.

:class:`Task` is the generator plus its name.  It holds no lifecycle of its
own: :meth:`Host._advance <repro.kernel.host.Host._advance>` resumes
``task.body`` directly on both clocks, the discrete-event engine and the
asyncio loop of :mod:`repro.net.asyncio_transport`, which is how server logic
is written once and executed on both substrates.

Composition uses plain ``yield from``: a helper that needs to block is itself
a generator, and callers delegate to it, so effects propagate to the top-level
interpreter without any framework glue.
"""

from __future__ import annotations

from typing import Any, Generator

Effect = Any
ProcessBody = Generator[Effect, Any, Any]


class Task:
    """A process body: the generator the kernel resumes, and its name."""

    def __init__(self, body: ProcessBody, name: str = "task") -> None:
        if not hasattr(body, "send"):
            raise TypeError(
                f"task body must be a generator (got {type(body).__name__}); "
                "did you call the generator function?"
            )
        self.body = body
        self.name = name

    def close(self) -> None:
        """Abort the task (GeneratorExit inside the body); a no-op once the
        body has finished."""
        self.body.close()
