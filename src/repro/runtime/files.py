"""Whole-file conveniences over sessions and streams."""

from __future__ import annotations

from typing import Any, Generator

from repro.core.resolver import NameError_
from repro.runtime.session import Session
from repro.vio.client import IoError

Gen = Generator[Any, Any, Any]


def read_file(session: Session, name: str | bytes) -> Gen:
    """Open, read entirely, and close; returns the file's bytes."""
    stream = yield from session.open(name, mode="r")
    try:
        data = yield from stream.read_all()
    finally:
        yield from stream.close()
    return data


def write_file(session: Session, name: str | bytes, data: bytes) -> Gen:
    """Create/truncate and write ``data``; returns bytes written."""
    stream = yield from session.open(name, mode="w")
    try:
        written = yield from stream.write(data)
    finally:
        yield from stream.close()
    return written


def append_file(session: Session, name: str | bytes, data: bytes) -> Gen:
    """Append ``data`` to a (possibly new) file."""
    stream = yield from session.open(name, mode="a")
    try:
        record = yield from session.query(name)
        stream.seek(int(getattr(record, "size_bytes", 0)))
        written = yield from stream.write(data)
    finally:
        yield from stream.close()
    return written


def copy_file(session: Session, source: str | bytes,
              destination: str | bytes) -> Gen:
    """Copy one file to another name -- possibly across servers.

    Because both names resolve through the same uniform protocol, the copy
    works unchanged whether the two names land on one server or two.
    """
    data = yield from read_file(session, source)
    written = yield from write_file(session, destination, data)
    return written


def read_files(workstation, names: list[str], process: str) -> dict:
    """Read ``names`` in order from a new process ``process`` on
    ``workstation`` and run its domain until quiet; each name's bytes.  A
    name whose read failed is missing.  After quiescence this is an operator
    reading the finished fleet: the reader is the only new traffic.
    """
    payloads: dict = {}

    def reader(session):
        for name in names:
            try:
                payloads[name] = yield from read_file(session, name)
            except (NameError_, IoError):
                pass

    workstation.host.spawn(reader(workstation.session()), name=process)
    workstation.host.domain.run()
    return payloads
