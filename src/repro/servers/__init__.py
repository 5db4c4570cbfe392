"""Concrete V servers, every one a CSNH server (paper Sec. 6).

"All of the servers that deal with CSnames implement the name-handling
protocol described in the previous section."

- :mod:`repro.servers.fileserver` -- the storage server (inode store,
  directory contexts, cross-server links, disk timing, read-ahead).
- Six servers of transient objects named in one flat context (Sec. 4.3),
  each a :class:`~repro.servers.base.FlatContextServer` that adds only its
  objects, its instances, its records and its own operations:
  :mod:`~repro.servers.pipeserver` (pipes as file-like objects),
  :mod:`~repro.servers.printerserver` (the laser printer spooler),
  :mod:`~repro.servers.terminalserver` (virtual graphics terminals),
  :mod:`~repro.servers.internetserver` (IP/TCP connections),
  :mod:`~repro.servers.exceptionserver` (exception reports) and
  :mod:`~repro.servers.teamserver` (programs in execution).
- :mod:`repro.servers.mailserver` -- ARPA mail names, parsed with their own
  ``user@host`` syntax (extensibility demo).
- :mod:`repro.servers.timeserver` -- a simple service with no name space.
- :mod:`repro.servers.statserver` -- the ``[obs]`` introspection name space:
  live observability state served through the CSNH protocol itself.
- :mod:`repro.servers.base` -- spawn/wiring helpers and the flat-context
  skeleton.
"""

from repro.servers.base import ServerHandle, start_server
from repro.servers.fileserver import VFileServer
from repro.servers.pipeserver import PipeServer
from repro.servers.printerserver import PrinterServer
from repro.servers.terminalserver import TerminalServer
from repro.servers.internetserver import InternetServer
from repro.servers.mailserver import MailServer
from repro.servers.teamserver import TeamServer
from repro.servers.timeserver import TimeServer
from repro.servers.exceptionserver import ExceptionServer
from repro.servers.statserver import (
    ObsNamespace,
    ObsRootServer,
    StatServer,
    enable_obs_namespace,
)

__all__ = [
    "ServerHandle",
    "start_server",
    "VFileServer",
    "PipeServer",
    "PrinterServer",
    "TerminalServer",
    "InternetServer",
    "MailServer",
    "TeamServer",
    "TimeServer",
    "ExceptionServer",
    "StatServer",
    "ObsRootServer",
    "ObsNamespace",
    "enable_obs_namespace",
]
