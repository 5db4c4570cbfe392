"""Workstation wiring (paper Sec. 6).

"Each workstation also runs one or more simple local server processes,
including a virtual graphics terminal server, exception server, program
manager, and context prefix server."  And: "Normally these include some
standard context prefixes and some corresponding to the file servers being
used, plus some special contexts within the file servers, such as home
directory, etc."

:func:`setup_workstation` builds the per-user machine; :func:`standard_prefixes`
installs the conventional prefix table against a file server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.core.namecache import NameCache
from repro.core.prefix_server import ContextPrefixServer
from repro.kernel.domain import Domain
from repro.kernel.host import Host
from repro.kernel.pids import Pid
from repro.kernel.process import Process
from repro.kernel.services import ServiceId
from repro.runtime.session import Session
from repro.servers.base import ServerHandle, start_server


@dataclass
class Workstation:
    """One user's machine: host + context prefix server."""

    host: Host
    prefix: ServerHandle
    user: str
    default_context: Optional[ContextPair] = None
    extra_servers: list = field(default_factory=list)
    #: Shared client-side binding cache for this workstation's sessions,
    #: or None (the default: uncached, the paper's E4 behaviour).  Enable
    #: with :meth:`enable_name_cache`.
    name_cache: Optional[NameCache] = None

    @property
    def prefix_server(self) -> ContextPrefixServer:
        server = self.prefix.server
        assert isinstance(server, ContextPrefixServer)
        return server

    @property
    def prefix_pid(self) -> Pid:
        return self.prefix.pid

    def session(self, current: Optional[ContextPair] = None) -> Session:
        """A naming session for a program on this workstation."""
        context = current or self.default_context
        if context is None:
            raise ValueError(
                "no current context: pass one or set default_context "
                "(standard_prefixes does this)")
        return Session(current=context, prefix_server=self.prefix_pid,
                       obs=self.host.domain.obs,
                       cache=self.name_cache)

    def run_program(self, body_factory, name: str = "program") -> Process:
        """Spawn a user program; ``body_factory(session)`` returns its body."""
        return self.host.spawn(body_factory(self.session()), name=name)

    def enable_name_cache(self, getpid_ttl: float = 5.0,
                          max_hints: int = 512) -> NameCache:
        """Turn on client-side binding caching for this workstation.

        Every session created afterwards shares one :class:`NameCache`,
        which is attached to the local prefix server for proactive
        delete/rebind notices.  A generic binding whose server died is
        recovered by the optimistic-send path: the failed Send drops the
        hint and the next use re-resolves with ``GetPid``.
        """
        if self.name_cache is None:
            domain = self.host.domain
            registry = domain.obs.registry if domain.obs is not None else None
            cache = NameCache(getpid_ttl=getpid_ttl, max_hints=max_hints,
                              registry=registry)
            self.name_cache = cache
            prefix_server = self.prefix_server
            prefix_server.attach_cache(cache)
            # Let the [obs] stat server serve this cache's contents live
            # as [obs]/hosts/<this-host>/namecache.
            domain.name_caches[self.host.host_id] = cache

            def on_crash(crashed: Host) -> None:
                # This machine died, and its cache dies with it: sever the
                # prefix-server attachment, or invalidation notices keep
                # landing on a dead cache forever.  A post-restart
                # enable_name_cache() starts cold, as a rebooted machine
                # would.
                if crashed is not self.host or self.name_cache is not cache:
                    return
                prefix_server.detach_cache(cache)
                if domain.name_caches.get(self.host.host_id) is cache:
                    del domain.name_caches[self.host.host_id]
                cache.clear()
                self.name_cache = None

            domain.on_host_crashed(on_crash)
        return self.name_cache


def setup_workstation(domain: Domain, user: str,
                      name: str | None = None,
                      name_cache: bool = False,
                      obs_namespace: bool = False) -> Workstation:
    """Create a diskless workstation running the user's prefix server.

    ``obs_namespace=True`` deploys the ``[obs]`` introspection name space
    over the whole domain (root obs server on this host, one stat server
    per machine -- idempotent, so only the first workstation's flag wins).
    """
    host = domain.create_host(name or f"ws-{user}")
    prefix = ContextPrefixServer(parse_cpu=domain.latency.prefix_server_cpu,
                                 user=user)
    handle = start_server(host, prefix, name="prefix-server")
    workstation = Workstation(host=host, prefix=handle, user=user)
    if name_cache:
        workstation.enable_name_cache()
    if obs_namespace:
        from repro.servers.statserver import enable_obs_namespace

        enable_obs_namespace(domain, root_host=host)
    return workstation


def standard_prefixes(workstation: Workstation,
                      fileserver: ServerHandle) -> None:
    """Install the conventional prefix table (Sec. 6).

    Fixed prefixes bind into the file server's well-known contexts; generic
    prefixes name services resolved by GetPid at each use ("several of the
    standard, predefined prefixes are of this type").
    """
    prefix = workstation.prefix_server
    fs = fileserver.pid
    prefix.define_prefix("home", ContextPair(fs, int(WellKnownContext.HOME)))
    prefix.define_prefix("bin", ContextPair(fs, int(WellKnownContext.PROGRAMS)))
    prefix.define_prefix("public", ContextPair(fs, int(WellKnownContext.PUBLIC)))
    prefix.define_prefix("tmp", ContextPair(fs, int(WellKnownContext.TEMP)))
    prefix.define_prefix("root", ContextPair(fs, int(WellKnownContext.DEFAULT)))
    prefix.define_generic_prefix("storage", ServiceId.STORAGE,
                                 int(WellKnownContext.DEFAULT))
    prefix.define_generic_prefix("print", ServiceId.PRINT)
    prefix.define_generic_prefix("mail", ServiceId.MAIL)
    prefix.define_generic_prefix("tcp", ServiceId.INTERNET)
    prefix.define_generic_prefix("team", ServiceId.TEAM)
    prefix.define_generic_prefix("terminal", ServiceId.TERMINAL)
    # Introspection: harmless NO_SERVER fault until enable_obs_namespace()
    # has deployed a root obs server somewhere in the domain.
    prefix.define_generic_prefix("obs", ServiceId.OBS)
    workstation.default_context = ContextPair(fs, int(WellKnownContext.HOME))
