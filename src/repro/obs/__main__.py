"""The one command line: ``python -m repro.obs <subcommand>``.

Every operator tool is a subcommand of one parser, and every scenario flag
is declared once, the way every server here answers one CSNH protocol:

- ``chaos``   -- a seeded lossy-wire run with a mid-run file-server crash
  and the invariant checks (:func:`repro.faults.chaos.run_chaos`);
  ``--require-retransmits`` and ``--require-alert-cycle`` are the CI gates,
  ``--flight``/``--flight-dump`` write the black boxes;
- ``storm``   -- the shard replica-crash storm and its coherence audit
  (:func:`repro.faults.chaos.run_replica_storm`);
- ``monitor`` -- ``chaos`` with the SLO watchdogs armed, then every live
  host's time series read back through ``[obs]`` (:mod:`repro.obs.monitor`);
- ``replay``  -- re-run, verify, bisect or time-travel a chaos run's flight
  records (:mod:`repro.obs.replay`);
- ``report``  -- render a span JSONL trace, or live ``[obs]`` reads
  (:mod:`repro.obs.report`);
- ``profile`` -- the attribution profile of a pinned forwarding chain
  (:mod:`repro.obs.profile`);
- ``bench``   -- the behavioural contract, ``BENCH_5.json``
  (:mod:`repro.obs.bench`).

Exit status: 0 when healthy; 1 when a gate fails (invariant violation, no
retransmission or alert cycle, digest divergence, alert delivery mismatch,
contract difference); 2 on bad usage or an unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.faults.chaos import InvariantViolation, run_chaos, run_replica_storm
from repro.obs import audit, bench, monitor, report
from repro.obs.export import read_spans_jsonl
from repro.obs.flight import compare, dump_postmortems, load_postmortem
from repro.obs.profile import forwarding_profile
from repro.obs.replay import (
    REPLAY_SCHEMA,
    default_focus,
    dump_records,
    render_verdict,
    render_window,
    replay,
    summary_lines,
    timeline_spans,
)
from repro.obs.span import build_tree

#: The scenario flags ``replay --bisect`` can fork a run on.
BISECT_KNOBS = ("seed", "duration", "drop", "dup", "delay-rate")


def parse_bisect(spec: str) -> tuple[str, Any, Any]:
    """``knob=a,b`` -> (run_chaos kwarg, value a, value b)."""
    knob, __, values = spec.partition("=")
    raw_a, comma, raw_b = values.partition(",")
    if knob not in BISECT_KNOBS:
        raise argparse.ArgumentTypeError(
            f"unknown bisect knob {knob!r}; one of: "
            f"{', '.join(sorted(BISECT_KNOBS))}")
    cast = int if knob == "seed" else float
    try:
        if not comma:
            raise ValueError(spec)
        return knob.replace("-", "_"), cast(raw_a), cast(raw_b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want knob=a,b (e.g. seed=7,8), got {spec!r}") from None


# ------------------------------------------------------------ shared flags


def _scenario_flags(parser: argparse.ArgumentParser, seed: int,
                    duration: float) -> None:
    parser.add_argument("--seed", type=int, default=seed,
                        help=f"rng seed (default {seed})")
    parser.add_argument("--duration", type=float, default=duration,
                        help=f"simulated seconds (default {duration:g})")


def _no_crash_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the scheduled crash windows")


def _drop_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--drop", type=float, default=0.10,
                        help="frame drop rate during the loss phase")


def _chaos_flags(parser: argparse.ArgumentParser) -> None:
    """Every knob of the chaos scenario: chaos and replay fork it on each."""
    _scenario_flags(parser, seed=7, duration=5.0)
    _no_crash_flag(parser)
    _drop_flag(parser)
    parser.add_argument("--dup", type=float, default=0.02,
                        help="frame duplication rate during the loss phase")
    parser.add_argument("--delay-rate", type=float, default=0.05,
                        help="frame delay rate during the loss phase")


def _json_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", action="store_true",
                        help=f"emit {what} as one JSON document")


def _chaos_knobs(args: argparse.Namespace) -> dict:
    return dict(seed=args.seed, duration=args.duration, drop=args.drop,
                dup=args.dup, delay_rate=args.delay_rate,
                crash=not args.no_crash)


# -------------------------------------------------------------- subcommands


def _chaos(args: argparse.Namespace) -> int:
    try:
        result = run_chaos(
            **_chaos_knobs(args),
            watchdogs=args.watchdogs or args.require_alert_cycle,
            flight=args.flight or args.flight_dump)
    except InvariantViolation as violation:
        print(violation, file=sys.stderr)
        if violation.flight is not None:
            _dump(violation.flight, args)
        return 1
    print(json.dumps(result.to_dict(), indent=2))
    if args.flight_dump:
        _dump(result.recorder, args)
    if args.require_retransmits and result.metrics["ipc.retransmits"] == 0:
        print("FAIL: injected loss but ipc.retransmits == 0",
              file=sys.stderr)
        return 1
    if args.require_alert_cycle:
        fired = result.alerts.get("fired", 0)
        resolved = result.alerts.get("resolved", 0)
        if not fired or not resolved:
            print(f"FAIL: watchdogs never completed a fire/resolve cycle "
                  f"(fired={fired}, resolved={resolved})", file=sys.stderr)
            return 1
    return 0


def _dump(recorder, args: argparse.Namespace) -> None:
    for path in dump_postmortems(recorder, args.flight_dir, seed=args.seed):
        print(f"postmortem dump: {path}", file=sys.stderr)


def _sweep_line(document: dict) -> str:
    tiers = document["tiers"]
    return (f"[t={document['t']:8.3f}] audit sweep: "
            f"replica {tiers['replica'][audit.FRESH]} fresh / "
            f"{tiers['replica'][audit.STALE]} stale / "
            f"{tiers['replica'][audit.INCOHERENT]} incoherent; "
            f"resolver {tiers['resolver'][audit.FRESH]} fresh / "
            f"{tiers['resolver'][audit.STALE]} stale; "
            f"map v{document['map_versions']['fleet_max']}")


def _storm(args: argparse.Namespace) -> int:
    sweeps: list[dict] = []

    def on_sweep(document: dict) -> None:
        sweeps.append(document)
        if not args.json:
            print(_sweep_line(document), flush=True)

    try:
        result = run_replica_storm(
            seed=args.seed, duration=args.duration,
            n_replicas=args.replicas, n_prefixes=args.prefixes,
            n_clients=args.clients, crash=not args.no_crash,
            watchdogs=args.watchdogs, audit_every=args.watch,
            on_audit=on_sweep)
    except InvariantViolation as violation:
        print(violation, file=sys.stderr)
        return 1
    if args.watch:
        result.audit["sweeps"] = [
            {"t": sweep["t"], "tiers": sweep["tiers"],
             "map_version": sweep["map_versions"]["fleet_max"]}
            for sweep in sweeps]
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"storm seed={result.seed} ({result.duration:g}s simulated): "
          f"{result.n_replicas} replica(s), {result.reads} reads "
          f"({result.reads_failed} failed), {result.promotions} "
          f"promotion(s), {result.rejoins} rejoin(s), "
          f"map v{result.map_version}")
    audit.render(result.audit)
    if result.alerts:
        print(f"  watchdogs: {result.alerts['fired']} fired, "
              f"{result.alerts['resolved']} resolved "
              f"({len(result.alerts['active'])} active)")
    return 0


def _monitor(args: argparse.Namespace) -> int:
    # run_chaos checks the alert log read back through [obs] record for
    # record against the engine: a delivery mismatch raises here.
    try:
        result = run_chaos(seed=args.seed, duration=args.duration,
                           drop=args.drop, watchdogs=True)
    except InvariantViolation as violation:
        print(violation, file=sys.stderr)
        return 1
    document = monitor.monitor_document(result)
    if args.json:
        print(json.dumps(monitor.strip_values(document), indent=2,
                         sort_keys=True))
    else:
        for event in result.workstation.host.domain.telemetry.alerts.events():
            print(event.describe())
        print()
        monitor.render(document)
    return 0


def _replay(args: argparse.Namespace) -> int:
    if args.postmortem:
        return _postmortem(args)
    knobs = _chaos_knobs(args)
    if args.bisect:
        kwarg, value_a, value_b = args.bisect
        recorder_a = replay(**{**knobs, kwarg: value_a})
        recorder_b = replay(**{**knobs, kwarg: value_b})
        verdict = compare(recorder_a, recorder_b)
        if args.json:
            print(json.dumps({"kind": "flight-bisect",
                              "schema": REPLAY_SCHEMA,
                              "knob": kwarg, "a": value_a, "b": value_b,
                              **verdict}, indent=2, sort_keys=True))
        else:
            print(f"bisect {kwarg}: {value_a} vs {value_b}")
            print(render_verdict(verdict))
            fork = verdict.get("fork")
            if fork:
                print()
                print(f"timeline around seq {fork['seq']} (run a):")
                print(render_window(recorder_a, at=fork["seq"],
                                    around=args.around))
        # A bisect that finds no fork is itself a verdict, not a failure.
        return 0

    recorder = replay(**knobs)
    if args.verify:
        verdict = compare(recorder, replay(**knobs))
        if args.json:
            print(json.dumps({"kind": "flight-verify",
                              "schema": REPLAY_SCHEMA, "scenario": knobs,
                              **verdict}, indent=2, sort_keys=True))
        else:
            print(f"replayed seed={args.seed} twice "
                  f"({args.duration}s simulated):")
            print("\n".join(summary_lines(recorder)))
            print(render_verdict(verdict))
        return 0 if verdict["identical"] else 1

    if args.json:
        print(json.dumps({
            "kind": "flight-replay", "schema": REPLAY_SCHEMA,
            "scenario": knobs,
            "hosts": {host: recorder.snapshot(host)
                      for host in recorder.hosts()},
            "postmortems": {host: len(dumps) for host, dumps in
                            sorted(recorder.postmortems.items())},
        }, indent=2, sort_keys=True))
        return 0
    print(f"replayed chaos scenario seed={args.seed} "
          f"({args.duration}s simulated):")
    print("\n".join(summary_lines(recorder)))
    print()
    if args.at is not None:
        print(f"interleaved timeline (around seq {args.at}):")
        print(render_window(recorder, at=args.at, around=args.around))
    else:
        focus = default_focus(recorder)
        where = (f"around the crash at t={focus:.3f}s"
                 if focus is not None else "tail of the flight")
        print(f"interleaved timeline ({where}):")
        print(render_window(recorder, at_time=focus, around=args.around))
    return 0


def _postmortem(args: argparse.Namespace) -> int:
    dump = load_postmortem(args.postmortem)
    if args.json:
        print(json.dumps({"kind": "flight-postmortem",
                          "schema": REPLAY_SCHEMA, **dump},
                         indent=2, sort_keys=True))
        return 0
    host = dump.get("host", "?")
    print(f"postmortem: host {host} frozen at "
          f"t={dump.get('frozen_t')} seq={dump.get('frozen_seq')} "
          f"({dump.get('records_seen')} records seen, "
          f"{dump.get('dropped')} dropped)")
    records = dump_records(dump)
    if args.at is None:
        picked = records[-args.around * 2:]
    else:
        picked = [r for r in records if abs(r[0] - args.at) <= args.around]
    if picked:
        print()
        print(report.render_timeline(build_tree(
            timeline_spans({host: picked}))))
    return 0


def _cannot_read(what: str, path: str, err: OSError) -> int:
    print(f"error: cannot read {what} file {path}: {err.strerror or err}",
          file=sys.stderr)
    return 2


def _report(args: argparse.Namespace) -> int:
    if args.live:
        if args.json:
            args.error("--json works on trace files, not with --live")
        return report.run_live(args.top)
    if args.trace_file is None:
        args.error("a trace file is required unless --live is given")
    try:
        tracefile = read_spans_jsonl(args.trace_file)
    except OSError as err:
        return _cannot_read("trace", args.trace_file, err)
    if not tracefile.spans:
        print(f"error: {args.trace_file} contains no spans -- nothing to "
              "report (was the run traced?)", file=sys.stderr)
        return 2

    if args.all:
        trace_ids = [row["trace_id"] for row in report.slowest_traces(
            tracefile, len(tracefile.traces()))]
    elif args.trace is not None:
        trace_ids = [args.trace]
    else:
        trace_ids = None
    if args.json:
        metrics_records = None
        if args.metrics:
            try:
                metrics_records = report.load_metrics_records(args.metrics)
            except OSError as err:
                return _cannot_read("metrics", args.metrics, err)
        print(json.dumps(report.report_document(
            tracefile, args.top, trace_ids, metrics_records),
            indent=2, sort_keys=True))
        return 0

    print(f"{args.trace_file}: {len(tracefile.spans)} spans, "
          f"{len(tracefile.traces())} traces")
    print()
    print(f"slowest resolutions (top {args.top}):")
    print(report.render_slowest_table(tracefile, args.top))
    if trace_ids is None:
        trace_ids = [row["trace_id"]
                     for row in report.slowest_traces(tracefile, 1)]
    for trace_id in trace_ids:
        print()
        print(report.render_trace(tracefile, trace_id))
    if args.metrics:
        print()
        print(f"metrics ({args.metrics}):")
        try:
            print(report.render_metrics(args.metrics))
        except OSError as err:
            return _cannot_read("metrics", args.metrics, err)
    return 0


def _profile(args: argparse.Namespace) -> int:
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
    if not args.out:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    coverage = prof.total_seconds / elapsed if elapsed else 1.0
    print(f"wrote {args.out} ({prof.total_seconds * 1e3:.3f} ms "
          f"attributed, {coverage:.1%} of elapsed)")
    return 0


def _bench(args: argparse.Namespace) -> int:
    baseline_path = bench.repo_root() / bench.BASELINE_NAME
    current = bench.run_suite()
    count = sum(len(entry["metrics"])
                for entry in current["experiments"].values())
    if not args.check:
        baseline_path.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {baseline_path} ({len(current['experiments'])} "
              f"experiments, {count} metrics)")
        return 0
    failures, notes = bench.check(json.loads(baseline_path.read_text()),
                                  current)
    for line in notes:
        print(line)
    for line in failures:
        print(f"DIFFERS {line}")
    if failures:
        print(f"FAIL: {len(failures)} difference(s) from "
              f"{bench.BASELINE_NAME}")
        return 1
    print(f"OK: {count - len(notes)} metrics identical to "
          f"{bench.BASELINE_NAME}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run, watch, replay and measure the seeded scenarios.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="SUBCOMMAND")

    chaos = commands.add_parser(
        "chaos", help="seeded lossy-wire run with the invariant checks")
    _chaos_flags(chaos)
    chaos.add_argument("--watchdogs", action="store_true",
                       help="arm telemetry + the default SLO watchdogs and "
                            "check alert delivery through [obs]")
    chaos.add_argument("--require-retransmits", action="store_true",
                       help="fail unless ipc.retransmits > 0 (CI gate)")
    chaos.add_argument("--require-alert-cycle", action="store_true",
                       help="fail unless >=1 alert fired AND resolved "
                            "(implies --watchdogs; CI gate)")
    chaos.add_argument("--flight", action="store_true",
                       help="fly a flight recorder; on invariant failure "
                            "dump every black box")
    chaos.add_argument("--flight-dump", action="store_true",
                       help="dump every black box even when the run is "
                            "healthy (implies --flight)")
    chaos.add_argument("--flight-dir", default=".",
                       help="directory for postmortem dumps (default: cwd)")
    chaos.set_defaults(run=_chaos)

    storm = commands.add_parser(
        "storm", help="crash every shard replica in turn under Zipf reads "
                      "and audit coherence")
    _scenario_flags(storm, seed=11, duration=6.0)
    _no_crash_flag(storm)
    storm.add_argument("--replicas", type=int, default=3,
                       help="shard replicas (default 3; 1 = the prefix "
                            "server itself crashes and restarts)")
    storm.add_argument("--prefixes", type=int, default=48,
                       help="seeded prefixes (default 48)")
    storm.add_argument("--clients", type=int, default=2,
                       help="client hosts (default 2)")
    storm.add_argument("--watchdogs", action="store_true",
                       help="arm the coherence probe and SLO watchdogs; "
                            "audit through [obs]")
    storm.add_argument("--watch", type=float, default=None, metavar="SECS",
                       help="also audit (direct) every SECS simulated "
                            "seconds during the run")
    _json_flag(storm, "the storm report (audit included)")
    storm.set_defaults(run=_storm)

    watch = commands.add_parser(
        "monitor", help="chaos with watchdogs; time series and alerts read "
                        "back through [obs]")
    _scenario_flags(watch, seed=7, duration=5.0)
    _drop_flag(watch)
    _json_flag(watch, "the monitor document")
    watch.set_defaults(run=_monitor)

    rerun = commands.add_parser(
        "replay", help="re-run a chaos scenario and time-travel through its "
                       "flight records")
    _chaos_flags(rerun)
    rerun.add_argument("--at", type=int, default=None,
                       help="centre the timeline on this event seq "
                            "(default: the crash freeze, else the tail)")
    rerun.add_argument("--around", type=int, default=12,
                       help="records of context each side of --at")
    rerun.add_argument("--verify", action="store_true",
                       help="run twice and diff the digest chains; exit 1 "
                            "on any divergence")
    rerun.add_argument("--bisect", metavar="KNOB=A,B", type=parse_bisect,
                       help="run two variants (seed=7,8, drop=0.1,0.3 ...) "
                            "and report the first event seq where they fork")
    rerun.add_argument("--postmortem", metavar="DUMP",
                       help="time-travel into a postmortem dump file "
                            "instead of re-running")
    _json_flag(rerun, "the verdict")
    rerun.set_defaults(run=_replay)

    render = commands.add_parser(
        "report", help="hop timelines and critical paths from a span trace")
    render.add_argument("trace_file", nargs="?",
                        help="span JSONL file (omit with --live)")
    render.add_argument("--top", type=int, default=10,
                        help="rows in the slowest-resolutions table")
    render.add_argument("--trace", type=int, default=None,
                        help="render one trace id in full (default: slowest)")
    render.add_argument("--all", action="store_true",
                        help="render every trace in full")
    render.add_argument("--metrics",
                        help="also summarize a metrics JSONL file")
    render.add_argument("--live", action="store_true",
                        help="read live [obs] names from a simulated "
                             "two-host session instead of files")
    _json_flag(render, "the report")
    render.set_defaults(run=_report, error=render.error)

    profile = commands.add_parser(
        "profile", help="attribution profile of a pinned E7 forwarding chain")
    profile.add_argument("--flame", action="store_true",
                         help="emit collapsed flamegraph stacks instead of "
                              "the JSON profile")
    profile.add_argument("--hops", type=int, default=4,
                         help="cross-server links in the chain (default 4)")
    profile.add_argument("--rounds", type=int, default=10,
                         help="opens measured (default 10)")
    profile.add_argument("--seed", type=int, default=0,
                         help="rng seed (default 0)")
    profile.add_argument("--out", help="write to this file, not stdout")
    profile.set_defaults(run=_profile)

    contract = commands.add_parser(
        "bench", help=f"run the 22 deterministic experiments and write "
                      f"{bench.BASELINE_NAME}")
    contract.add_argument("--check", action="store_true",
                          help=f"write nothing; compare to "
                               f"{bench.BASELINE_NAME} exactly, exit 1 on "
                               f"any difference")
    contract.set_defaults(run=_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into `head` or a closed pager -- not an error.
        sys.exit(0)
