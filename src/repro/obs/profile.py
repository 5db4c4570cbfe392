"""Attribution profiler for simulated time, messages, and bytes.

Where a span trace answers "what happened to *this* resolution", the
profiler answers the aggregate question the paper's Sec. 6 cost argument
needs: **where does every simulated microsecond go** -- which host, which
process, which CSNH phase (prefix lookup, forward hop, MoveTo/MoveFrom,
retransmission backoff).

Mechanism (hooks in :mod:`repro.sim.engine` and the kernel):

- the engine keeps a *current attribution stack* -- a tuple of frame labels
  such as ``("host:ws1", "proc:prefix", "phase:prefix_lookup")``;
- every scheduled event is stamped with the stack current at schedule time,
  and inherits it while its callback runs, so transitively caused work (a
  reply frame, a retransmission timer) stays attributed to its cause;
- every clock advance is charged to the stack of the event that advanced
  it.  The advances *partition* elapsed time, so the frame totals sum
  exactly to end-to-end simulated time -- the property the E7 acceptance
  check asserts;
- each frame put on the wire bumps the current stack's message/byte counts.

Profiling charges **zero simulated time** (mirroring the ``[obs]`` snapshot
conventions: capture is plain memory writes); with no profiler attached the
kernel takes no profiling branches at all.

Use as a context manager::

    with domain.profile() as prof:
        ...run a workload...
    print(prof.render_flame())          # collapsed stacks, flamegraph-ready
    json.dump(prof.profile(), fh)       # structured per-frame totals

``python -m repro.obs.profile --flame`` profiles a pinned E7-style
forwarding chain and prints collapsed stacks consumable by standard
flamegraph tooling (``flamegraph.pl``, speedscope, inferno).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

#: Version of the JSON profile document shape.
PROFILE_SCHEMA = 1

#: Stacks with no attribution (events scheduled before the profiler
#: attached, or outside any frame) are charged here.
UNATTRIBUTED = ("(unattributed)",)


@dataclass(slots=True)
class FrameStats:
    """Totals charged to one attribution stack."""

    seconds: float = 0.0
    events: int = 0
    messages: int = 0
    bytes: int = 0


class Profiler:
    """A profiler sink: accumulates per-stack totals while attached.

    Also a context manager: entering attaches to ``engine``, exiting
    detaches, so scoped profiles compose with a long-lived domain profiler
    (the engine supports multiple sinks).  ``root`` filters the *reported*
    stacks to those whose outermost frame matches -- :meth:`Host.profile
    <repro.kernel.host.Host.profile>` uses it to scope a report to one
    machine while accounting stays engine-wide.
    """

    def __init__(self, engine: Optional["Engine"] = None,
                 root: Optional[str] = None) -> None:
        self.engine = engine
        self.root = root
        self.stats: Dict[Tuple[str, ...], FrameStats] = {}
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None

    # ------------------------------------------------------------ sink API

    def attached(self, engine: "Engine") -> None:
        self.engine = engine
        self.window_start = engine.now
        self.window_end = None

    def detached(self, engine: "Engine") -> None:
        self.window_end = engine.now

    def account(self, stack: Tuple[str, ...], dt: float) -> None:
        """Charge ``dt`` simulated seconds (one clock advance) to ``stack``."""
        stats = self.stats.get(stack)
        if stats is None:
            stats = self._frame(stack)
        stats.seconds += dt
        stats.events += 1

    def count_message(self, stack: Tuple[str, ...], nbytes: int) -> None:
        """Charge one wire message of ``nbytes`` to ``stack``."""
        stats = self.stats.get(stack)
        if stats is None:
            stats = self._frame(stack)
        stats.messages += 1
        stats.bytes += nbytes

    def _frame(self, stack: Tuple[str, ...]) -> FrameStats:
        """Get or create the totals of a stack the one-probe lookup missed:
        a new stack, or the empty one (filed under UNATTRIBUTED)."""
        key = stack or UNATTRIBUTED
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = FrameStats()
        return stats

    # ----------------------------------------------------- context manager

    def __enter__(self) -> "Profiler":
        if self.engine is None:
            raise ValueError("Profiler needs an engine to attach to")
        self.engine.attach_profiler(self)
        return self

    def __exit__(self, *exc_info) -> None:
        assert self.engine is not None
        self.engine.detach_profiler(self)

    # -------------------------------------------------------------- totals

    def _selected(self) -> List[Tuple[Tuple[str, ...], FrameStats]]:
        items = [(stack, stats) for stack, stats in self.stats.items()
                 if self.root is None or (stack and stack[0] == self.root)]
        items.sort(key=lambda item: (-item[1].seconds, item[0]))
        return items

    @property
    def total_seconds(self) -> float:
        """Simulated seconds accounted (sums exactly to elapsed time when
        the profiler covered the whole run and ``root`` is None)."""
        return sum(stats.seconds for __, stats in self._selected())

    @property
    def total_messages(self) -> int:
        return sum(stats.messages for __, stats in self._selected())

    @property
    def total_bytes(self) -> int:
        return sum(stats.bytes for __, stats in self._selected())

    def profile(self) -> dict:
        """The JSON profile document (schema-versioned, JSON-ready)."""
        frames = [
            {
                "stack": list(stack),
                "seconds": stats.seconds,
                "events": stats.events,
                "messages": stats.messages,
                "bytes": stats.bytes,
            }
            for stack, stats in self._selected()
        ]
        end = self.window_end
        if end is None and self.engine is not None:
            end = self.engine.now
        return {
            "schema": PROFILE_SCHEMA,
            "root": self.root,
            "window": {"start": self.window_start, "end": end},
            "total_seconds": self.total_seconds,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "frames": frames,
        }

    # ---------------------------------------------------------- flamegraph

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines: ``frame;frame;frame <microseconds>``.

        The standard folded format every flamegraph tool reads (Brendan
        Gregg's ``flamegraph.pl``, speedscope, inferno).  Values are integer
        simulated microseconds; stacks rounding to zero are dropped.
        """
        lines = []
        for stack, stats in self._selected():
            micros = int(round(stats.seconds * 1e6))
            if micros <= 0:
                continue
            lines.append(f"{';'.join(stack or UNATTRIBUTED)} {micros}")
        return lines

    def render_flame(self) -> str:
        return "\n".join(self.collapsed())


# --------------------------------------------------------------- demo run


def forwarding_profile(hops: int = 4, rounds: int = 10, seed: int = 0):
    """Profile a pinned E7-style forwarding chain.

    Builds the bench_e7 scenario -- a workstation plus ``hops + 1`` file
    servers linked through their home directories -- opens the ``next/``
    chain name ``rounds`` times, and returns ``(profiler, elapsed_seconds,
    mean_open_ms)``.  Used by the CLI, the continuous-bench runner, and the
    golden flamegraph test; deterministic for a given (hops, rounds, seed).
    """
    from repro.core.context import ContextPair, WellKnownContext
    from repro.kernel.domain import Domain
    from repro.kernel.ipc import Now
    from repro.runtime import files
    from repro.runtime.workstation import setup_workstation, standard_prefixes
    from repro.servers import VFileServer, start_server

    domain = Domain(seed=seed)
    workstation = setup_workstation(domain, "mann")
    handles = [start_server(domain.create_host(f"vax{i}"),
                            VFileServer(user="mann"))
               for i in range(hops + 1)]
    standard_prefixes(workstation, handles[0])
    for index in range(hops):
        handles[index].server.store.link_remote(
            handles[index].server.home, b"next",
            ContextPair(handles[index + 1].pid, int(WellKnownContext.HOME)))
    name = "next/" * hops + "leaf.txt"
    box: dict = {}

    def client(session):
        yield from files.write_file(session, name, b"x")
        total = 0.0
        for __ in range(rounds):
            t0 = yield Now()
            stream = yield from session.open(name, "r")
            t1 = yield Now()
            yield from stream.close()
            total += t1 - t0
        box["mean_open_ms"] = total / rounds * 1e3

    workstation.host.spawn(client(workstation.session()), name="client")
    with domain.profile() as prof:
        start = domain.now
        domain.run()
        elapsed = domain.now - start
    domain.check_healthy()
    return prof, elapsed, box["mean_open_ms"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Profile a pinned E7-style forwarding run and emit the "
                    "attribution profile (JSON) or collapsed flamegraph "
                    "stacks (--flame).")
    parser.add_argument("--flame", action="store_true",
                        help="emit collapsed stacks (flamegraph folded "
                             "format) instead of the JSON profile")
    parser.add_argument("--hops", type=int, default=4,
                        help="cross-server links in the chain (default 4)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="opens measured (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="domain rng seed (default 0)")
    parser.add_argument("--out", default=None,
                        help="write to this file instead of stdout")
    args = parser.parse_args(argv)

    prof, elapsed, mean_ms = forwarding_profile(args.hops, args.rounds,
                                                args.seed)
    if args.flame:
        text = prof.render_flame() + "\n"
    else:
        document = prof.profile()
        document["scenario"] = {"experiment": "e7_forwarding",
                                "hops": args.hops, "rounds": args.rounds,
                                "seed": args.seed,
                                "elapsed_seconds": elapsed,
                                "mean_open_ms": mean_ms}
        text = json.dumps(document, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        coverage = prof.total_seconds / elapsed if elapsed else 1.0
        print(f"wrote {args.out} ({prof.total_seconds * 1e3:.3f} ms "
              f"attributed, {coverage:.1%} of elapsed)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
