"""E4 (paper Sec. 6): the Open latency table -- the headline result.

Paper: "The time for an Open ... is 1.21 milliseconds in the current context
with the server local and 3.70 milliseconds in the current context with the
server remote.  When a context prefix is specified ... the time increases to
5.14 milliseconds with the server local, and 7.69 milliseconds with the
server remote.  The difference is identical within the limits of
experimental error in both cases (3.94 vs. 3.99 milliseconds), because it
reflects the processing time in the context prefix server, which is always
local."

Reproduced: all four cells plus the constancy of the delta.
"""

import pytest

from conftest import report_table
from _common import export_observability, open_timing_system, run_on

from repro.core.context import ContextPair, WellKnownContext
from repro.kernel.ipc import Now
from repro.runtime import files

PAPER = {
    "local direct": 1.21,
    "remote direct": 3.70,
    "local via prefix": 5.14,
    "remote via prefix": 7.69,
}

ROUNDS = 20


def measure_all() -> dict:
    domain, workstation, remote, local = open_timing_system()
    local_home = ContextPair(local.pid, int(WellKnownContext.HOME))

    def seed(session):
        yield from files.write_file(session, "[home]naming.mss", b"x" * 64)
        yield from files.write_file(session, "[local]naming.mss", b"y" * 64)

    run_on(domain, workstation.host, seed(workstation.session()), name="seed")

    cases = {
        "local direct": (workstation.session(local_home), "naming.mss"),
        "remote direct": (workstation.session(), "naming.mss"),
        "local via prefix": (workstation.session(), "[local]naming.mss"),
        "remote via prefix": (workstation.session(), "[home]naming.mss"),
    }
    results = {}
    for label, (session, name) in cases.items():

        def timer(session=session, name=name):
            total = 0.0
            for __ in range(ROUNDS):
                t0 = yield Now()
                stream = yield from session.open(name, "r")
                t1 = yield Now()
                yield from stream.close()
                total += t1 - t0
            return total / ROUNDS

        results[label] = run_on(domain, workstation.host, timer(),
                                name=f"timer-{label}") * 1e3
    # With REPRO_TRACE_DIR set, every Open above produced a span tree;
    # render them with `python -m repro.obs report <dir>/bench_e4.spans.jsonl`.
    export_observability(domain.obs, "bench_e4")
    return results


def test_e4_open_latency_table(benchmark):
    results = benchmark(measure_all)

    rows = [(label, PAPER[label], results[label],
             f"{(results[label] - PAPER[label]) / PAPER[label] * 100:+.1f}%")
            for label in PAPER]
    delta_local = results["local via prefix"] - results["local direct"]
    delta_remote = results["remote via prefix"] - results["remote direct"]
    rows.append(("prefix delta (local target)", 3.93, delta_local, ""))
    rows.append(("prefix delta (remote target)", 3.99, delta_remote, ""))
    report_table(
        "E4  Open latency (Sec. 6): current context {local,remote} x "
        "{direct, via context prefix}",
        rows,
        headers=("case", "paper ms", "measured ms", "error"),
    )

    assert results["local direct"] == pytest.approx(1.21, rel=0.01)
    assert results["remote direct"] == pytest.approx(3.70, rel=0.01)
    assert results["local via prefix"] == pytest.approx(5.14, rel=0.01)
    assert results["remote via prefix"] == pytest.approx(7.69, rel=0.015)
    # The paper's key observation: the delta does not depend on where the
    # target server is, because the prefix server is always local.
    assert delta_local == pytest.approx(delta_remote, rel=0.02)
    assert delta_local == pytest.approx(3.94, rel=0.02)


def test_e4_other_csname_ops_share_the_shape(benchmark):
    """The routing rule is one common routine, so remove/query/mkdir pay
    the same direct-vs-prefix costs as Open."""

    def run():
        domain, workstation, remote, local = open_timing_system()
        session = workstation.session()

        def timer():
            t_direct = []
            t_prefix = []
            for index in range(10):
                yield from files.write_file(session, f"d{index}.txt", b"x")
                yield from files.write_file(session,
                                            f"[home]p{index}.txt", b"x")
                t0 = yield Now()
                yield from session.remove(f"d{index}.txt")
                t1 = yield Now()
                yield from session.remove(f"[home]p{index}.txt")
                t2 = yield Now()
                t_direct.append(t1 - t0)
                t_prefix.append(t2 - t1)
            return (sum(t_direct) / len(t_direct) * 1e3,
                    sum(t_prefix) / len(t_prefix) * 1e3)

        return run_on(domain, workstation.host, timer())

    direct_ms, prefix_ms = benchmark(run)
    report_table(
        "E4b  Remove latency, direct vs via prefix (same shape as Open)",
        [("remote direct", direct_ms), ("remote via prefix", prefix_ms),
         ("delta", prefix_ms - direct_ms)],
        headers=("case", "measured ms"),
    )
    assert prefix_ms - direct_ms == pytest.approx(3.94, rel=0.05)


def trajectory_metrics() -> dict:
    """Metrics tracked by the behavioural contract (repro.obs.bench)."""
    results = measure_all()
    return {
        "local_direct_ms": results["local direct"],
        "remote_direct_ms": results["remote direct"],
        "local_via_prefix_ms": results["local via prefix"],
        "remote_via_prefix_ms": results["remote via prefix"],
        "prefix_delta_local_ms": (results["local via prefix"]
                                  - results["local direct"]),
        "prefix_delta_remote_ms": (results["remote via prefix"]
                                   - results["remote direct"]),
    }
