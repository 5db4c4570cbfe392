"""E12: client-side name-binding cache -- warm/cold opens, hit rate, recovery.

Paper Sec. 5: "a client that has previously communicated with the
appropriate context server can bypass the context prefix server and send
the request directly" -- the (server-pid, context-id) binding makes that
safe to do.  E4 prices what the bypass saves: every via-prefix request pays
~3.9 ms of prefix-server processing over a direct send.

This bench measures the :mod:`repro.core.namecache` layer built on that
observation:

- **warm vs cold**: a cold ``[home]`` open pays the full E4 via-prefix cost
  (7.69 ms remote); once the binding advice is learned, the warm open
  collapses to the direct-open cost (3.70 ms remote, 1.21 ms local).
- **hit rate**: a Zipf-skewed trace over a populated name tree runs almost
  entirely warm -- after the first miss the *prefix binding* serves every
  name under the prefix, not just names already seen.
- **stale-hint recovery**: a server crash + re-registration makes every
  cached binding for it wrong; the optimistic send comes back
  NONEXISTENT_PROCESS, the cache invalidates, and the same request
  transparently re-resolves through the prefix server.  Correctness never
  depends on cache freshness.
"""

import pytest

from conftest import report_table
from _common import (
    export_observability,
    maybe_observability,
    open_timing_system,
    run_on,
    standard_system,
)

from repro.core.context import ContextPair, WellKnownContext
from repro.faults import CrashSchedule
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, Now
from repro.runtime import files
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from repro.workloads.namegen import NameTreeSpec, populate_fileserver
from repro.workloads.traces import Operation, zipf_trace

#: E4 baselines the cache is measured against (ms, simulated).
E4_PAPER = {
    "local direct": 1.21,
    "remote direct": 3.70,
    "local via prefix": 5.14,
    "remote via prefix": 7.69,
}

ROUNDS = 20


def _timed_open(session, name):
    """One Open/close, returning its simulated latency in ms."""
    t0 = yield Now()
    stream = yield from session.open(name, "r")
    t1 = yield Now()
    yield from stream.close()
    return (t1 - t0) * 1e3


def measure_warm_cold() -> dict:
    domain, workstation, remote, local = open_timing_system()

    def seed(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        yield from files.write_file(session, "[local]naming.mss", b"y" * 64)

    # Seed through an uncached session, then switch caching on: sessions
    # capture the workstation cache at creation time.
    run_on(domain, workstation.host, seed(workstation.session()), name="seed")
    cache = workstation.enable_name_cache()

    results = {}
    cases = {
        "remote": ("naming.mss", "[home]naming.mss"),
        "local": ("naming.mss", "[local]naming.mss"),
    }
    local_home = ContextPair(local.pid, int(WellKnownContext.HOME))
    direct_sessions = {
        "remote": workstation.session(),
        "local": workstation.session(local_home),
    }
    for where, (direct_name, prefixed_name) in cases.items():

        def timer(where=where, direct_name=direct_name,
                  prefixed_name=prefixed_name):
            session = workstation.session()
            cache.clear()
            direct = yield from _timed_open(direct_sessions[where],
                                            direct_name)
            cold = yield from _timed_open(session, prefixed_name)
            warm_total = 0.0
            for __ in range(ROUNDS):
                warm_total += yield from _timed_open(session, prefixed_name)
            return direct, cold, warm_total / ROUNDS

        direct, cold, warm = run_on(domain, workstation.host, timer(),
                                    name=f"timer-{where}")
        results[f"{where} direct"] = direct
        results[f"{where} via prefix (cold)"] = cold
        results[f"{where} via prefix (warm)"] = warm
    results["stats"] = cache.stats
    return results


def measure_zipf_hit_rate() -> dict:
    domain, workstation, handle = standard_system(seed=7)
    spec = NameTreeSpec(depth=2, fanout=3, files_per_directory=4,
                        file_bytes=64)
    paths = populate_fileserver(handle.server, spec, root="data")
    names = [f"[root]{path}" for path in paths]
    trace = zipf_trace(names, length=800, seed=11, skew=1.1,
                       read_fraction=0.95, query_fraction=0.05)
    cache = workstation.enable_name_cache()
    session = workstation.session()

    def run_trace():
        total = 0.0
        opens = 0
        for op, name in trace:
            if op is Operation.QUERY:
                yield from session.query(name)
                continue
            total += yield from _timed_open(session, name)
            opens += 1
        return total / opens

    mean_open = run_on(domain, workstation.host, run_trace(), name="zipf")
    export_observability(domain.obs, "bench_e12")
    return {
        "mean_open_ms": mean_open,
        "events": len(trace),
        "unique_names": trace.unique_names(),
        "stats": cache.stats,
        "footprint": cache.footprint(),
    }


def measure_stale_recovery() -> dict:
    """Crash + re-registration: every cached binding is wrong; recover."""
    domain = Domain(seed=3)
    workstation = setup_workstation(domain, "mann")
    fs_host = domain.create_host("vax1")

    def populated_server() -> VFileServer:
        server = VFileServer(user="mann")
        node = server.store.make_path("data/f0.dat", directory=False)
        node.data[:] = b"v" * 64
        return server

    handle = start_server(fs_host, populated_server())
    standard_prefixes(workstation, handle)
    # The crash is discovered the hard way -- by sending to the dead pid.
    cache = workstation.enable_name_cache()
    CrashSchedule(domain, fs_host).down_between(
        0.05, 0.1, respawn=lambda host: start_server(host, populated_server()))
    name = "[storage]data/f0.dat"

    def client():
        session = workstation.session()
        cold = yield from _timed_open(session, name)       # learn
        warm = yield from _timed_open(session, name)       # generic-bound hit
        yield Delay(0.3)                                   # crash + respawn
        recovered = yield from _timed_open(session, name)  # stale -> fallback
        rewarmed = yield from _timed_open(session, name)   # re-learned
        return cold, warm, recovered, rewarmed

    cold, warm, recovered, rewarmed = run_on(domain, workstation.host,
                                             client(), name="recovery")
    return {
        "cold": cold,
        "warm": warm,
        "recovered": recovered,
        "rewarmed": rewarmed,
        "stats": cache.stats,
    }


def test_e12_warm_open_collapses_to_direct(benchmark):
    results = benchmark(measure_warm_cold)

    rows = []
    for where in ("remote", "local"):
        direct = results[f"{where} direct"]
        cold = results[f"{where} via prefix (cold)"]
        warm = results[f"{where} via prefix (warm)"]
        rows.append((f"{where} direct", E4_PAPER[f"{where} direct"], direct))
        rows.append((f"{where} via prefix, cold",
                     E4_PAPER[f"{where} via prefix"], cold))
        rows.append((f"{where} via prefix, warm", "~direct", warm))
    report_table(
        "E12  Cached open latency: cold pays the E4 via-prefix cost, warm "
        "collapses to direct",
        rows,
        headers=("case", "expected ms", "measured ms"),
    )

    # Cold (miss) opens still pay the full E4 via-prefix cost: learning
    # from reply advice costs zero extra simulated time.
    assert results["remote via prefix (cold)"] == pytest.approx(
        E4_PAPER["remote via prefix"], rel=0.02)
    assert results["local via prefix (cold)"] == pytest.approx(
        E4_PAPER["local via prefix"], rel=0.02)
    # ...and direct opens are untouched by the cache layer.
    assert results["remote direct"] == pytest.approx(
        E4_PAPER["remote direct"], rel=0.02)
    # Warm opens collapse to the direct-open cost: the acceptance bar.
    assert results["remote via prefix (warm)"] == pytest.approx(
        results["remote direct"], rel=0.05)
    assert results["remote via prefix (warm)"] == pytest.approx(3.70,
                                                                rel=0.05)
    assert results["local via prefix (warm)"] == pytest.approx(
        results["local direct"], rel=0.05)
    assert results["stats"].fallbacks == 0


def test_e12_zipf_hit_rate(benchmark):
    results = benchmark(measure_zipf_hit_rate)
    stats = results["stats"]

    report_table(
        "E12b  Zipf(1.1) trace over a populated tree: hit rate and warm "
        "open cost",
        [
            ("events", results["events"]),
            ("unique names", results["unique_names"]),
            ("cache lookups", stats.lookups),
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("fallbacks", stats.fallbacks),
            ("hit rate", f"{stats.hit_rate:.3f}"),
            ("mean open ms (target ~3.70)", results["mean_open_ms"]),
        ],
        headers=("quantity", "value"),
    )

    # The CI gate: the skewed workload must run >= 90% warm.
    assert stats.hit_rate >= 0.90
    assert stats.fallbacks == 0
    # Warm-dominated mean open sits at the direct-open cost, far below the
    # uncached 7.69 ms via-prefix cost.
    assert results["mean_open_ms"] == pytest.approx(3.70, rel=0.05)


def test_e12_stale_hint_recovery(benchmark):
    results = benchmark(measure_stale_recovery)
    stats = results["stats"]

    report_table(
        "E12c  Stale-hint recovery: crash + re-registration mid-workload",
        [
            ("cold open (learn)", results["cold"]),
            ("warm open (generic hit)", results["warm"]),
            ("open across crash (fallback)", results["recovered"]),
            ("next open (re-learned)", results["rewarmed"]),
            ("fallbacks", stats.fallbacks),
            ("invalidations", stats.invalidations),
        ],
        headers=("case", "ms / count"),
    )

    # The stale binding was used, detected, invalidated, and recovered --
    # all inside one request; the caller never saw an error.
    assert stats.fallbacks >= 1
    assert stats.invalidations >= 1
    # The recovery open costs extra (stale NACK + full re-resolution) but
    # succeeds; the very next open is warm again at direct cost.
    assert results["recovered"] > results["warm"]
    assert results["rewarmed"] == pytest.approx(3.70, rel=0.05)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench).

    The Zipf trace length is pinned: hit rate and mean depend on it.
    """
    warm_cold = measure_warm_cold()
    zipf = measure_zipf_hit_rate()
    return {
        "remote_cold_ms": warm_cold["remote via prefix (cold)"],
        "remote_warm_ms": warm_cold["remote via prefix (warm)"],
        "local_warm_ms": warm_cold["local via prefix (warm)"],
        "zipf_mean_open_ms": zipf["mean_open_ms"],
        "zipf_hit_rate": zipf["stats"].hit_rate,
    }
