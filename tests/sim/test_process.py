"""Unit tests for the generator task wrapper.

The kernel resumes ``task.body`` itself (``Host._advance``); what the
wrapper still owns is the generator check and ``close()``.
"""

import pytest

from repro.sim.process import Task


def test_task_requires_a_generator():
    with pytest.raises(TypeError, match="generator"):
        Task(lambda: None)  # type: ignore[arg-type]


def test_close_aborts_without_failure():
    cleanup = []

    def body():
        try:
            yield "x"
        finally:
            cleanup.append("ran")

    task = Task(body())
    assert next(task.body) == "x"
    task.close()
    assert cleanup == ["ran"]


def test_close_after_the_body_finished_is_a_no_op():
    def body():
        return "done"
        yield  # pragma: no cover

    task = Task(body(), name="short")
    with pytest.raises(StopIteration):
        next(task.body)
    task.close()
    assert task.name == "short"
