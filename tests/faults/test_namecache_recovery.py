"""Stale-hint recovery under crash injection and prefix rebinding.

The cache's correctness claim: *no* staleness channel is load-bearing.  A
request routed by a stale binding is detected by its reply code and
transparently re-resolved; the caller sees only the authoritative outcome.
These tests crash servers, re-register services, and rebind prefixes
mid-workload, and assert both the recovery and the convergence (the cache
ends up holding the fresh binding).
"""

from repro.core.context import ContextPair, WellKnownContext
from repro.faults import CrashSchedule
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from tests.helpers import run_on, standard_system


def _populated_server(user: str = "mann") -> VFileServer:
    server = VFileServer(user=user)
    node = server.store.make_path("data/f0.dat", directory=False)
    node.data[:] = b"payload"
    return server


def _crash_system():
    """Workstation + crashing file server behind the generic [storage]."""
    domain = Domain(seed=5)
    workstation = setup_workstation(domain, "mann")
    fs_host = domain.create_host("vax1")
    handle = start_server(fs_host, _populated_server())
    standard_prefixes(workstation, handle)
    cache = workstation.enable_name_cache()
    CrashSchedule(domain, fs_host).down_between(
        0.05, 0.1,
        respawn=lambda host: start_server(host, _populated_server()))
    return domain, workstation, cache


class TestCrashRecovery:
    def test_stale_hint_falls_back_and_converges(self):
        domain, workstation, cache = _crash_system()
        name = "[storage]data/f0.dat"

        def client(session):
            before = yield from files.read_file(session, name)   # learn
            yield Delay(0.3)                                     # crash+respawn
            after = yield from files.read_file(session, name)    # recover
            again = yield from files.read_file(session, name)    # warm again
            return before, after, again

        before, after, again = run_on(domain, workstation.host,
                                      client(workstation.session()))
        assert before == after == again == b"payload"
        # The stale binding was used once and recovered from in-request.
        assert cache.stats.fallbacks >= 1
        assert cache.stats.invalidations >= 1
        # Convergence: the re-learned hint points at a *live* process on the
        # respawned server host, not at the crashed pid.
        hint = cache.hint_for(name)
        assert hint is not None
        fs_hosts = [host for host in domain.hosts.values()
                    if host.name == "vax1"]
        assert fs_hosts, "file-server host disappeared"
        live = {proc.pid for host in fs_hosts
                for proc in host.processes.values()}
        assert hint[0].server in live

    def test_caller_still_sees_real_errors_after_revalidation(self):
        """A genuinely missing name errors exactly as it would cold: the
        fallback re-resolves, the authoritative NOT_FOUND comes back."""
        from repro.core.resolver import NameError_
        from repro.kernel.messages import ReplyCode

        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[home]doomed.txt", b"x")

        system.run_client(seed(system.session()))
        cache = system.workstation.enable_name_cache()

        def client(session):
            yield from files.read_file(session, "[home]doomed.txt")
            # Delete it behind the cache's back (direct session, no prefix).
            direct = system.session(system.home_context())
            yield from direct.remove("doomed.txt")
            try:
                yield from files.read_file(session, "[home]doomed.txt")
            except NameError_ as err:
                return err.code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND
        # The hint-routed NOT_FOUND triggered one revalidating fallback.
        assert cache.stats.fallbacks == 1


class TestRebindRecovery:
    def test_prefix_rebinding_mid_workload_with_notice(self):
        """An attached cache hears the rebind and the next request goes to
        the *new* target immediately -- no stale result, no fallback."""
        domain = Domain(seed=6)
        workstation = setup_workstation(domain, "mann")
        fs_a = start_server(domain.create_host("vax1"),
                            VFileServer(user="mann"))
        fs_b = start_server(domain.create_host("vax2"),
                            VFileServer(user="mann"))
        standard_prefixes(workstation, fs_a)
        cache = workstation.enable_name_cache()

        def client(session):
            yield from files.write_file(session, "[home]who.txt", b"A")
            bsession = workstation.session(
                ContextPair(fs_b.pid, int(WellKnownContext.HOME)))
            yield from files.write_file(bsession, "who.txt", b"B")
            assert (yield from files.read_file(session, "[home]who.txt")) == b"A"
            yield from session.add_prefix(
                "home", ContextPair(fs_b.pid, int(WellKnownContext.HOME)),
                replace=True)
            # The notice invalidated [home]*; this read must see B.
            return (yield from files.read_file(session, "[home]who.txt"))

        assert run_on(domain, workstation.host,
                      client(workstation.session())) == b"B"
        assert cache.stats.fallbacks == 0
        assert cache.stats.invalidations >= 1

    def test_out_of_band_rebinding_recovers_via_fallback(self):
        """With the notice channel detached (an unobserved rebinding), the
        stale prefix binding still cannot produce a wrong answer: the old
        target's NACK triggers revalidation through the prefix server."""
        domain = Domain(seed=8)
        workstation = setup_workstation(domain, "mann")
        fs_a = start_server(domain.create_host("vax1"),
                            VFileServer(user="mann"))
        fs_b = start_server(domain.create_host("vax2"),
                            VFileServer(user="mann"))
        standard_prefixes(workstation, fs_a)
        cache = workstation.enable_name_cache()

        def client(session):
            bsession = workstation.session(
                ContextPair(fs_b.pid, int(WellKnownContext.HOME)))
            yield from files.write_file(bsession, "only-b.txt", b"B")
            # Learn [home] -> fs_a with a file that exists only on B.
            yield from files.write_file(session, "[home]seed.txt", b"A")
            # Simulate an unobserved rebinding: detach, rebind, so the
            # cached fs_a binding stays.
            workstation.prefix_server.detach_cache(cache)
            workstation.prefix_server.define_prefix(
                "home", ContextPair(fs_b.pid, int(WellKnownContext.HOME)))
            # fs_a answers NOT_FOUND for only-b.txt -> revalidate -> B.
            return (yield from files.read_file(session, "[home]only-b.txt"))

        assert run_on(domain, workstation.host,
                      client(workstation.session())) == b"B"
        assert cache.stats.fallbacks >= 1


class TestClientCrashDetachesCache:
    """The cache-subscription leak (PR 9): a crashed client machine's
    cache must stop hearing prefix notices."""

    def _system(self):
        domain = Domain(seed=5)
        workstation = setup_workstation(domain, "mann")
        fs_host = domain.create_host("vax1")
        handle = start_server(fs_host, _populated_server())
        standard_prefixes(workstation, handle)
        cache = workstation.enable_name_cache()
        return domain, workstation, cache

    def test_crash_severs_every_subscription(self):
        domain, workstation, cache = self._system()
        prefix_server = workstation.prefix_server
        assert cache in prefix_server._caches
        assert domain.name_caches[workstation.host.host_id] is cache

        workstation.host.crash()

        # Both channels severed, synchronously with the crash event:
        # notices must never land on a dead machine's cache.
        assert cache not in prefix_server._caches
        assert workstation.host.host_id not in domain.name_caches
        assert workstation.name_cache is None

    def test_notices_after_the_crash_do_not_reach_the_dead_cache(self):
        domain, workstation, cache = self._system()
        workstation.host.crash()
        invalidations_before = cache.stats.invalidations
        workstation.prefix_server._notify_invalidate(b"tmp")
        assert cache.stats.invalidations == invalidations_before

    def test_reenable_after_restart_starts_cold(self):
        domain, workstation, cache = self._system()
        workstation.host.crash()
        workstation.host.restart()
        fresh = workstation.enable_name_cache()
        assert fresh is not cache
        # The new cache is attached exactly once, the old one not at all.
        assert workstation.prefix_server._caches.count(fresh) == 1
        assert cache not in workstation.prefix_server._caches
        assert domain.name_caches[workstation.host.host_id] is fresh
