"""Unit tests for the client-side name-binding cache (repro.core.namecache)."""

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.namecache import (
    BindingCache,
    CachedRoute,
    GenericBinding,
    NameCache,
    STALE_REPLY_CODES,
)
from repro.core.protocol import (
    FIELD_BOUND_CONTEXT,
    FIELD_BOUND_INDEX,
    FIELD_BOUND_SERVER,
    FIELD_HINT_SERVICE,
    make_binding_advice,
    read_binding_advice,
)
from repro.kernel.ipc import Delay, Now
from repro.kernel.messages import Message, ReplyCode
from repro.kernel.pids import Pid
from repro.kernel.services import ServiceId
from repro.obs.registry import MetricsRegistry
from repro.runtime import files
from tests.helpers import run_on, standard_system


# ---------------------------------------------------------------------------
# BindingCache: the bounded LRU/TTL substrate.
# ---------------------------------------------------------------------------


class TestBindingCache:
    def test_put_get_and_counters(self):
        cache = BindingCache(max_entries=4)
        assert cache.get(b"a") is None
        cache.put(b"a", 1)
        assert cache.get(b"a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ttl_expiry_in_simulated_time(self):
        cache = BindingCache(max_entries=4, ttl=2.0)
        cache.put(b"a", 1, now=10.0)
        assert cache.get(b"a", now=11.9) == 1
        assert cache.get(b"a", now=12.1) is None  # expired, dropped
        assert cache.expirations == 1
        assert b"a" not in cache

    def test_ttl_expiry_is_inclusive_at_the_exact_boundary(self):
        # Regression: expiry used a strict ``>``, so an entry read at
        # exactly ``stamp + ttl`` was served fresh.  The shard lease
        # discipline (repro.core.shard) shares this boundary, and
        # coherence needs every party to agree that ``now == expiry``
        # means *expired* -- pin the inclusive comparison.
        cache = BindingCache(max_entries=4, ttl=2.0)
        cache.put(b"a", 1, now=10.0)
        assert cache.get(b"a", now=12.0) is None
        assert cache.expirations == 1
        assert b"a" not in cache

    def test_no_ttl_means_deliberately_stale(self):
        cache = BindingCache(max_entries=4, ttl=None)
        cache.put(b"a", 1, now=0.0)
        assert cache.get(b"a", now=1e9) == 1

    def test_lru_eviction_prefers_recently_used(self):
        cache = BindingCache(max_entries=2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        cache.get(b"a")          # touch: b is now oldest
        cache.put(b"c", 3)       # evicts b
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1
        assert cache.get(b"c") == 3
        assert cache.evictions == 1

    def test_invalidate_and_invalidate_where(self):
        cache = BindingCache(max_entries=8)
        cache.put(b"[p]x", 1)
        cache.put(b"[p]y", 2)
        cache.put(b"[q]z", 3)
        assert cache.invalidate(b"[p]x")
        assert not cache.invalidate(b"[p]x")
        assert cache.invalidate_where(
            lambda key, __: key.startswith(b"[p]")) == 1
        assert len(cache) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BindingCache(max_entries=0)
        with pytest.raises(ValueError):
            BindingCache(ttl=0.0)


# ---------------------------------------------------------------------------
# Binding advice encode/decode.
# ---------------------------------------------------------------------------


class TestBindingAdvice:
    def test_round_trip(self):
        pid = Pid.make(3, 7)
        advice = make_binding_advice(pid, 0xFFF1, 6)
        reply = Message.reply(ReplyCode.OK, **advice)
        pair, index, service = read_binding_advice(reply)
        assert pair == ContextPair(pid, 0xFFF1)
        assert index == 6
        assert service is None

    def test_generic_service_echoed(self):
        pid = Pid.make(3, 7)
        advice = make_binding_advice(pid, 0, 9,
                                     hint_service=int(ServiceId.STORAGE))
        reply = Message.reply(ReplyCode.OK, **advice)
        __, __, service = read_binding_advice(reply)
        assert service == int(ServiceId.STORAGE)

    def test_absent_advice_is_none(self):
        assert read_binding_advice(Message.reply(ReplyCode.OK)) is None
        partial = Message.reply(ReplyCode.OK, **{FIELD_BOUND_SERVER: 1})
        assert read_binding_advice(partial) is None


# ---------------------------------------------------------------------------
# NameCache mechanics (driven directly, no simulation).
# ---------------------------------------------------------------------------


def _drive(gen):
    """Drive a cache.route generator, answering Now with 0.0."""
    try:
        effect = next(gen)
        while True:
            if isinstance(effect, Now):
                effect = gen.send(0.0)
            else:
                raise AssertionError(f"unexpected effect {effect!r}")
    except StopIteration as stop:
        return stop.value


def _ok_reply(pid, context_id, index, service=None):
    return Message.reply(ReplyCode.OK, **make_binding_advice(
        pid, context_id, index, hint_service=service))


class TestNameCacheMechanics:
    def test_learn_then_route_hint_and_prefix(self):
        cache = NameCache()
        pid = Pid.make(2, 5)
        name = b"[home]a/b.txt"
        cache.learn(name, _ok_reply(pid, 0xFFF1, 6))
        # Exact name: served by the hint table.
        route = _drive(cache.route(name))
        assert route == CachedRoute(pid, 0xFFF1, 6, "hint")
        # Sibling never seen before: served by the learned prefix binding.
        route = _drive(cache.route(b"[home]other.txt"))
        assert route.source == "prefix"
        assert (route.dst, route.context_id, route.name_index) == (pid, 0xFFF1, 6)

    def test_multi_hop_advice_learns_hint_but_not_prefix(self):
        cache = NameCache()
        pid = Pid.make(2, 5)
        # bound_index 8 != rest_index 6: interpretation crossed more than
        # the prefix, so the prefix alone cannot be assumed to bind here.
        cache.learn(b"[home]a/b.txt", _ok_reply(pid, 3, 8))
        assert cache.hint_for(b"[home]a/b.txt") is not None
        assert cache.prefix_entry("home") is None

    def test_learns_nothing_from_errors_or_adviceless_replies(self):
        cache = NameCache()
        cache.learn(b"[home]x", Message.reply(ReplyCode.NOT_FOUND))
        cache.learn(b"[home]x", Message.reply(ReplyCode.OK))
        assert cache.hint_for(b"[home]x") is None
        assert cache.stats.lookups == 0

    def test_bypass_ops_and_unprefixed_names_not_routed(self):
        from repro.kernel.messages import RequestCode

        cache = NameCache()
        assert not cache.should_route(b"plain.txt", RequestCode.OPEN_FILE)
        assert not cache.should_route(b"[home]x",
                                      RequestCode.ADD_CONTEXT_NAME)
        assert not cache.should_route(b"[home]x",
                                      RequestCode.DELETE_CONTEXT_NAME)
        assert cache.should_route(b"[home]x", RequestCode.OPEN_FILE)

    def test_generic_binding_pid_ttl(self):
        cache = NameCache(getpid_ttl=5.0)
        pid = Pid.make(2, 5)
        cache.learn(b"[storage]f", _ok_reply(pid, 0, 9,
                                             service=int(ServiceId.STORAGE)),
                    now=0.0)
        assert cache.prefix_entry("storage") == GenericBinding(
            int(ServiceId.STORAGE), 0)
        # Within TTL: cached pid, no GetPid effect.
        route = _drive(cache.route(b"[storage]g"))
        assert route.source == "generic"
        assert route.dst == pid
        # Past TTL the cached pid is dropped and GetPid is re-issued.
        gen = cache.route(b"[storage]g")
        effect = next(gen)
        assert isinstance(effect, Now)
        effect = gen.send(100.0)
        from repro.kernel.ipc import GetPid

        assert isinstance(effect, GetPid)
        fresh = Pid.make(4, 9)
        with pytest.raises(StopIteration) as stop:
            gen.send(fresh)
        assert stop.value.value.dst == fresh
        assert cache.service_pid(int(ServiceId.STORAGE), now=100.0) == fresh

    def test_stale_reply_detection(self):
        cache = NameCache()
        for code in STALE_REPLY_CODES:
            assert cache.is_stale_reply(Message.reply(code))
        assert not cache.is_stale_reply(Message.reply(ReplyCode.OK))
        assert not cache.is_stale_reply(
            Message.reply(ReplyCode.NO_PERMISSION))

    def test_invalidate_route_drops_hint_and_guilty_prefix(self):
        cache = NameCache()
        pid = Pid.make(2, 5)
        name = b"[home]a.txt"
        cache.learn(name, _ok_reply(pid, 0xFFF1, 6))
        cache.learn(b"[home]b.txt", _ok_reply(pid, 0xFFF1, 6))
        route = _drive(cache.route(name))
        cache.invalidate_route(name, route,
                               int(ReplyCode.NONEXISTENT_PROCESS))
        # The hint, the prefix binding that produced it, and sibling hints
        # derived from the same binding are all gone.
        assert cache.hint_for(name) is None
        assert cache.hint_for(b"[home]b.txt") is None
        assert cache.prefix_entry("home") is None
        assert cache.stats.fallbacks == 1

    def test_invalidate_generic_route_drops_only_service_pid(self):
        cache = NameCache()
        pid = Pid.make(2, 5)
        cache.learn(b"[storage]f", _ok_reply(pid, 0, 9,
                                             service=int(ServiceId.STORAGE)),
                    now=0.0)
        route = _drive(cache.route(b"[storage]f"))
        assert route.source == "hint"
        # Second access of a *different* name goes through the generic
        # binding; invalidating that route keeps the prefix knowledge.
        route = _drive(cache.route(b"[storage]g"))
        assert route.source == "generic"
        cache.invalidate_route(b"[storage]g", route,
                               int(ReplyCode.NONEXISTENT_PROCESS))
        assert cache.prefix_entry("storage") is not None
        assert cache.service_pid(int(ServiceId.STORAGE), now=0.0) is None

    def test_invalidate_prefix_notice(self):
        cache = NameCache()
        pid = Pid.make(2, 5)
        cache.learn(b"[home]a.txt", _ok_reply(pid, 0xFFF1, 6))
        dropped = cache.invalidate_prefix(b"home")
        assert dropped == 2  # the prefix entry and the hint under it
        assert cache.prefix_entry("home") is None
        assert cache.hint_for(b"[home]a.txt") is None

    def test_registry_counters(self):
        registry = MetricsRegistry()
        cache = NameCache(registry=registry)
        pid = Pid.make(2, 5)
        cache.learn(b"[home]a.txt", _ok_reply(pid, 0xFFF1, 6))
        _drive(cache.route(b"[home]a.txt"))
        _drive(cache.route(b"[nope]x"))
        cache.invalidate_prefix(b"home")
        assert registry.counter_value("namecache.hits", source="hint") == 1
        assert registry.counter_value("namecache.misses") == 1
        assert registry.counter_value("namecache.invalidations",
                                      reason="notice") == 2


# ---------------------------------------------------------------------------
# End-to-end: learning, timing, and proactive notices in a live system.
# ---------------------------------------------------------------------------


def _enable_cache(system):
    return system.workstation.enable_name_cache()


class TestNameCacheEndToEnd:
    def test_first_via_prefix_request_learns_the_binding(self):
        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[home]f.txt", b"x")

        system.run_client(seed(system.session()))
        cache = _enable_cache(system)

        def client(session):
            data = yield from files.read_file(session, "[home]f.txt")
            return data

        assert system.run_client(client(system.session())) == b"x"
        assert cache.prefix_entry("home") == ContextPair(
            system.fileserver.pid, int(WellKnownContext.HOME))
        hint = cache.hint_for("[home]f.txt")
        assert hint is not None and hint[0].server == system.fileserver.pid

    def test_warm_open_costs_the_same_as_direct_open(self):
        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[home]f.txt", b"x")

        system.run_client(seed(system.session()))
        _enable_cache(system)

        def timed(session, name):
            t0 = yield Now()
            stream = yield from session.open(name, "r")
            t1 = yield Now()
            yield from stream.close()
            return t1 - t0

        def client():
            cached = system.session()
            direct = system.session(system.home_context())
            __ = yield from timed(cached, "[home]f.txt")     # learn
            warm = yield from timed(cached, "[home]f.txt")
            base = yield from timed(direct, "f.txt")
            return warm, base

        warm, base = system.run_client(client())
        assert warm == pytest.approx(base, rel=0.01)

    def test_delete_prefix_notice_invalidates_proactively(self):
        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[tmp]t.txt", b"x")

        system.run_client(seed(system.session()))
        cache = _enable_cache(system)

        def client(session):
            yield from files.read_file(session, "[tmp]t.txt")
            assert cache.prefix_entry("tmp") is not None
            yield from session.delete_prefix("tmp")
            return cache.prefix_entry("tmp"), cache.hint_for("[tmp]t.txt")

        entry, hint = system.run_client(client(system.session()))
        assert entry is None and hint is None
        assert cache.stats.invalidations >= 1

    def test_add_prefix_replace_notice_invalidates(self):
        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[home]h.txt", b"x")

        system.run_client(seed(system.session()))
        cache = _enable_cache(system)

        def client(session):
            yield from files.read_file(session, "[home]h.txt")
            assert cache.prefix_entry("home") is not None
            # Rebind [home] to PUBLIC: attached caches hear about it.
            yield from session.add_prefix(
                "home", ContextPair(system.fileserver.pid,
                                    int(WellKnownContext.PUBLIC)),
                replace=True)
            return cache.prefix_entry("home"), cache.hint_for("[home]h.txt")

        entry, hint = system.run_client(client(system.session()))
        assert entry is None and hint is None

    def test_cache_off_by_default_no_stats_anywhere(self):
        system = standard_system()

        def seed(session):
            yield from files.write_file(session, "[home]f.txt", b"x")
            return (yield from files.read_file(session, "[home]f.txt"))

        assert system.run_client(seed(system.session())) == b"x"
        assert system.workstation.name_cache is None
