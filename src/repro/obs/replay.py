"""Time-travel replay + divergence bisection over flight records.

``python -m repro.obs replay`` re-runs a seeded chaos scenario
(:func:`repro.faults.chaos.run_chaos` with ``flight=True``) under the
deterministic engine, so the flight-record stream *is* the original run --
replay in this simulator is re-execution, bit for bit.  On top of that:

- the default mode renders a **time window** of the run as an interleaved
  multi-host timeline: one lane root per host, one instant span per flight
  record, through the same :func:`repro.obs.report.render_timeline`
  renderer the trace reports use (``--at SEQ`` / ``--around N`` pick the
  window, default: the crash neighbourhood, else the final records);
- ``--verify`` runs the scenario **twice** and diffs the two digest chains;
  identical chains prove the rerun reproduced every recorded kernel event
  (CI's replay smoke), a differing chain names the first divergent window;
- ``--bisect KNOB=A,B`` runs two *variants* (e.g. ``seed=7,8`` or
  ``drop=0.1,0.3``) and reports the **first event seq where behaviour
  forks**, printing both flight records at the fork -- the digest chains
  bracket the divergent window, the retained records pin the exact event;
- ``--postmortem dump.json`` time-travels into a crash dump written by
  ``python -m repro.obs chaos --flight`` instead of re-running.

Chains are only comparable between runs recorded under the same
instrumentation config (recorder-only vs profiler-attached runs stamp
batched entries differently; see ``sim/engine.py``).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.flight import (
    KIND_NAMES,
    PHASE_NAMES,
    FlightRecorder,
    record_code,
)
from repro.obs.report import render_timeline
from repro.obs.span import Span, SpanContext, build_tree

REPLAY_SCHEMA = 1


def replay(seed: int = 7, duration: float = 5.0, drop: float = 0.10,
           dup: float = 0.02, delay_rate: float = 0.05,
           crash: bool = True) -> "FlightRecorder":
    """Re-run the seeded chaos scenario; its finalized flight recorder.

    Determinism does the heavy lifting: the same knobs drive the same
    engine timeline, so the recorder that comes back holds the same
    records, digests and postmortems as the original run's.
    """
    from repro.faults.chaos import run_chaos

    report = run_chaos(seed=seed, duration=duration, drop=drop, dup=dup,
                       delay_rate=delay_rate, crash=crash, flight=True)
    return report.recorder


# ------------------------------------------------------------- timelines


def window_records(recorder: "FlightRecorder", at: Optional[int] = None,
                   at_time: Optional[float] = None,
                   around: int = 12) -> dict[str, list[tuple]]:
    """Per-host retained records inside a window.

    ``at`` centres on an event seq (``around`` records of slack each side,
    per host).  ``at_time`` centres on a simulated instant instead: the
    last ``around`` records at or before it plus the first ``around``
    after, per host -- the crash neighbourhood.  (Record seqs stamp the
    *scheduling* order of the causing event, not firing order, so a seq
    window near a long-armed timer would show the run's opening moves --
    time is the right axis for "what was happening when it died".)
    ``None``/``None`` takes the last ``around`` records per host.
    """
    picked: dict[str, list[tuple]] = {}
    for host in recorder.hosts():
        records = recorder.records(host)
        if at is not None:
            chosen = [r for r in records if abs(r[0] - at) <= around]
        elif at_time is not None:
            before = [r for r in records if r[1] <= at_time]
            after = [r for r in records if r[1] > at_time]
            chosen = before[-around:] + after[:around]
        else:
            chosen = records[-around:]
        if chosen:
            picked[host] = chosen
    return picked


def timeline_spans(picked: dict[str, list[tuple]]) -> list[Span]:
    """Flight records as pseudo-spans: one lane root per host.

    Each record becomes an instant span (start == end) under its host's
    lane root, so :func:`repro.obs.report.render_timeline` renders the
    interleaved multi-host window exactly like a trace report.
    """
    spans: list[Span] = []
    next_id = 1
    t_lo = min(r[1] for records in picked.values() for r in records)
    t_hi = max(r[1] for records in picked.values() for r in records)
    for host in sorted(picked):
        records = picked[host]
        root_id = next_id
        next_id += 1
        spans.append(Span(name=f"lane {host}",
                          context=SpanContext(trace_id=1, span_id=root_id),
                          start=t_lo, end=t_hi, actor=host))
        for seq, t, kind, src, dst, txn in records:
            label = f"#{seq} {KIND_NAMES[kind]} {src}->{dst}"
            if txn:
                label += f" txn={txn}"
            spans.append(Span(
                name=label,
                context=SpanContext(trace_id=1, span_id=next_id,
                                    parent_id=root_id),
                start=t, end=t, actor=host,
                attrs={"seq": seq, "phase": PHASE_NAMES[kind]}))
            next_id += 1
    return spans


def render_window(recorder: "FlightRecorder", at: Optional[int] = None,
                  at_time: Optional[float] = None,
                  around: int = 12) -> str:
    """One interleaved multi-host timeline for a seq or time window."""
    picked = window_records(recorder, at=at, at_time=at_time, around=around)
    if not picked:
        return "(no flight records in window)"
    return render_timeline(build_tree(timeline_spans(picked)))


def dump_records(dump: dict) -> list[tuple]:
    """A loaded postmortem dump's records as the recorder's numeric tuples
    (dumps store named records; the phase disambiguates a "reply" packet
    from a reply effect)."""
    return [(r["seq"], r["t"], record_code(r["kind"], r.get("phase", "")),
             r["src"], r["dst"], r["txn"])
            for r in dump.get("records", [])]


# --------------------------------------------------------------- verdicts


def default_focus(recorder: "FlightRecorder") -> Optional[float]:
    """The instant to centre the default timeline on: the first freeze."""
    freezes = [dump.get("frozen_t")
               for dumps in recorder.postmortems.values() for dump in dumps
               if dump.get("frozen_t") is not None]
    return min(freezes) if freezes else None


def summary_lines(recorder: "FlightRecorder") -> list[str]:
    lines = []
    for host in recorder.hosts():
        snap = recorder.snapshot(host)
        chain = recorder.chain(host)
        head = f"{chain[-1][3]:016x}" if chain else "-"
        frozen = len(recorder.postmortems.get(host, ()))
        lines.append(
            f"  {host:<10} {snap['records_seen']:>6} records "
            f"({snap['dropped']} dropped), {len(chain)} windows, "
            f"chain head {head}"
            + (f", {frozen} postmortem(s)" if frozen else ""))
    return lines


def render_verdict(verdict: dict) -> str:
    if verdict["identical"]:
        return "digest chains identical -- runs are bit-identical"
    lines = ["digest chains DIVERGE:"]
    for host, entry in sorted(verdict["hosts"].items()):
        if entry["chains_equal"] and "fork_index" not in entry:
            lines.append(f"  {host}: identical")
            continue
        window = entry.get("first_divergent_window")
        lines.append(f"  {host}: first divergent window "
                     f"{window if window is not None else '(records only)'}")
    fork = verdict.get("fork")
    if fork:
        lines.append(f"fork: event seq {fork['seq']} on {fork['host']}")
        for side in ("a", "b"):
            record = fork[side]
            lines.append(f"  run {side}: "
                         + (json.dumps(record, sort_keys=True)
                            if record else "(no record -- stream ended)"))
    return "\n".join(lines)
