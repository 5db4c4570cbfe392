"""Shared builders for the benchmark suite."""

from __future__ import annotations

import os
from typing import Any, Generator, Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.obs import Observability
from repro.runtime.workstation import (
    Workstation,
    setup_workstation,
    standard_prefixes,
)
from repro.servers.base import ServerHandle, start_server
from repro.servers.fileserver.disk import DiskModel
from repro.servers.fileserver.server import VFileServer

MISSING = object()

#: Environment variable that switches the benches into tracing mode: when it
#: names a directory, system builders attach an Observability bundle and
#: ``export_observability`` writes span/metric JSONL there, ready for
#: ``python -m repro.obs report``.
TRACE_DIR_VAR = "REPRO_TRACE_DIR"


def maybe_observability() -> Optional[Observability]:
    """An Observability bundle when tracing is requested, else None."""
    return Observability() if os.environ.get(TRACE_DIR_VAR) else None


def export_observability(obs: Optional[Observability],
                         prefix: str) -> Optional[tuple[str, str]]:
    """Export a bench run's spans and metrics; returns the paths written."""
    out_dir = os.environ.get(TRACE_DIR_VAR)
    if obs is None or not out_dir:
        return None
    spans_path = os.path.join(out_dir, f"{prefix}.spans.jsonl")
    metrics_path = os.path.join(out_dir, f"{prefix}.metrics.jsonl")
    obs.export_spans(spans_path)
    obs.export_metrics(metrics_path)
    return spans_path, metrics_path


def run_on(domain: Domain, host: Host, gen: Generator,
           name: str = "client") -> Any:
    """Run a client generator to completion; returns its value."""
    box: dict[str, Any] = {"result": MISSING}

    def wrapper():
        box["result"] = yield from gen

    host.spawn(wrapper(), name=name)
    domain.run()
    domain.check_healthy()
    if box["result"] is MISSING:
        raise AssertionError(f"benchmark client {name!r} stalled")
    return box["result"]


def standard_system(user: str = "mann", seed: int = 0,
                    disk: DiskModel | None = None):
    """Workstation + remote file server with the standard prefixes."""
    domain = Domain(seed=seed, obs=maybe_observability())
    workstation = setup_workstation(domain, user)
    fs_host = domain.create_host("vax1")
    handle = start_server(fs_host, VFileServer(user=user, disk=disk))
    standard_prefixes(workstation, handle)
    return domain, workstation, handle


def open_timing_system():
    """Sec. 6 configuration: workstation, remote + local file servers."""
    domain = Domain(obs=maybe_observability())
    workstation = setup_workstation(domain, "mann")
    remote = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
    local = start_server(workstation.host, VFileServer(user="mann"))
    standard_prefixes(workstation, remote)
    workstation.prefix_server.define_prefix(
        "local", ContextPair(local.pid, int(WellKnownContext.HOME)))
    return domain, workstation, remote, local
