#!/usr/bin/env python3
"""The cost ledger: end-to-end and per-layer numbers for seven workloads.

Three ways to call it, all from the root of a checkout::

    python3 benchmarks/ledger/run.py [--seed N] [--repeats K] [--trace]
                                     [--smoke] [--out DIR]
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
                                     --trace 0|1
    python3 benchmarks/ledger/run.py --compare A.json B.json

The first runs every workload (one child process each, so ``peak_rss_mb`` is
per workload), the layer probes and the instrument taxes, prints every
metric by name with its unit and writes a results file.  The second is one
workload in this process and ends with the one-line JSON result the
``BENCHMARK.json`` contract asks for.  The third compares two results files
against the bounds.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
SCHEMA = "ledger/1"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from catalogue import (  # noqa: E402
    CATALOGUE,
    END_TO_END,
    PER_LAYER,
    Metric,
    manifest,
)

SMOKE_SCALE = 0.05
DEFAULT_REPEATS = 5
#: Fewest fresh-system repeats behind a median when the run is time-boxed.
MIN_REPEATS = 3

#: Probe and tax effort as (seconds per probe sample, samples per probe,
#: tax workload scale, tax rounds).  The suite spends what the design asked
#: for; a one-workload traced run must fit the driver's time box beside the
#: traced repeat itself; smoke only proves the code paths run.
SUITE_LAYERS = (0.5, 5, 0.5, 3)
ONE_WORKLOAD_LAYERS = (0.04, 3, 0.15, 1)
SMOKE_LAYERS = (0.01, 2, SMOKE_SCALE, 1)


# ------------------------------------------------------------------ statistics


def summarize(values: list) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered), "samples": ordered}


def entry(name: str, values: list) -> dict:
    """One metric's samples, summarized, with the ``value`` that is reported.

    The box's other tenants only ever slow a repeat down, for seconds or for
    minutes, so a timing or a rate is reported at its best repeat, the one
    least disturbed; the median and quartiles stand beside it.  Ratios of
    two timings, shares and everything deterministic report the median.
    """
    metric = CATALOGUE[name]
    summary = summarize(values)
    if metric.kind == "wall" and metric.unit not in ("ratio", "share"):
        value = summary["samples"][0 if metric.better == "lower" else -1]
    else:
        value = summary["median"]
    return {"unit": metric.unit, "kind": metric.kind, "value": value,
            **summary}


def spread(summary: dict) -> float:
    centre = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / centre if centre else 0.0


# ----------------------------------------------------------------- measurement


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_repeat(workload, seed: int, scale: float, profiler=None) -> dict:
    """Build a fresh system, run it (the timed region under ``profiler``
    when given), and flatten what happened."""
    from repro.sim.engine import Engine

    gc.collect()
    start = time.perf_counter()
    state = workload.build(seed, scale)
    setup_s = time.perf_counter() - start
    events_before = Engine.total_events
    try:
        outcome = workload.run(state, profiler)
    finally:
        workload.close(state)
    return flatten(outcome, setup_s, Engine.total_events - events_before)


def flatten(outcome, setup_s: float, events: int) -> dict:
    completed = max(0, outcome.attempted - outcome.failed)
    wall = {"setup_s": setup_s,
            "ops_per_wall_s": completed / outcome.timed_s,
            **outcome.wall}
    exact = {"e2e.failed_share": outcome.failed / outcome.attempted,
             **outcome.sim}
    if events:
        wall["e2e.events_per_wall_s"] = events / outcome.timed_s
        if completed:
            exact["sim.events_per_op"] = events / completed
    return {"timed_s": outcome.timed_s, "attempted": outcome.attempted,
            "failed": outcome.failed, "problems": list(outcome.problems),
            "wall": wall, "exact": exact}


def determinism_problems(repeats: list) -> list:
    """Every simulated-time metric and count must repeat exactly."""
    first = repeats[0]["exact"]
    problems = []
    for number, repeat in enumerate(repeats[1:], start=2):
        for name in sorted(set(first) | set(repeat["exact"])):
            if first.get(name) != repeat["exact"].get(name):
                problems.append(
                    f"not deterministic: {name} is {first.get(name)!r} on "
                    f"repeat 1 and {repeat['exact'].get(name)!r} on repeat "
                    f"{number} of the same seed")
    return problems


def more_setups(workload, seed: int, scale: float, wanted: int,
                budget_s: float) -> list:
    """Up to ``wanted`` further set-up times, build-only.  A cheap set-up is
    over in milliseconds, where one scheduler hiccup is the whole sample, so
    the few that come with the repeats are not enough for a median."""
    times: list = []
    began = time.perf_counter()
    while len(times) < wanted and time.perf_counter() - began < budget_s:
        gc.collect()
        start = time.perf_counter()
        state = workload.build(seed, scale)
        times.append(time.perf_counter() - start)
        workload.close(state)
    return times


def measure_end_to_end(workload, seed: int, scale: float,
                       repeats: int | None, seconds: float | None) -> dict:
    """Untraced repeats of one workload; the document every mode shares."""
    # Lazy imports, code caches and allocator arenas settle on a small run
    # whose numbers are thrown away; users do not pay them per operation.
    one_repeat(workload, seed, min(scale, SMOKE_SCALE))
    began = time.perf_counter()
    done: list = []
    while True:
        done.append(one_repeat(workload, seed, scale))
        if repeats is not None:
            if len(done) >= repeats:
                break
        else:
            spent = time.perf_counter() - began
            if (len(done) >= MIN_REPEATS
                    and spent + 0.5 * spent / len(done) > seconds):
                break
    setups = [repeat["wall"]["setup_s"] for repeat in done]
    setups += more_setups(
        workload, seed, scale, wanted=15 - len(setups),
        budget_s=0.05 * sum(repeat["timed_s"] for repeat in done))
    problems = [problem for repeat in done for problem in repeat["problems"]]
    problems += determinism_problems(done)
    metrics = {"setup_s": entry("setup_s", setups),
               "peak_rss_mb": entry("peak_rss_mb", [peak_rss_mb()])}
    for name in done[0]["wall"]:
        if name != "setup_s":
            metrics[name] = entry(
                name, [repeat["wall"][name] for repeat in done])
    for name, value in done[0]["exact"].items():
        metrics[name] = entry(name, [value] * len(done))
    return {"workload": workload.name, "why": workload.why,
            "clients": workload.clients, "loop": "closed", "seed": seed,
            "scale": scale, "repeats": len(done),
            "attempted": sum(repeat["attempted"] for repeat in done),
            "failed": sum(repeat["failed"] for repeat in done),
            "problems": problems, "metrics": metrics}


def measure_trace(workload, seed: int, scale: float) -> dict:
    """One untraced and one traced repeat, same process, same seed."""
    import layers

    one_repeat(workload, seed, min(scale, SMOKE_SCALE))
    plain = one_repeat(workload, seed, scale)
    profile = cProfile.Profile()
    traced = one_repeat(workload, seed, scale, profile)
    folded = layers.fold_profile(profile, traced["attempted"])
    folded["trace.overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    problems = plain["problems"] + traced["problems"]
    # cProfile must observe, not perturb: the simulated results of the
    # traced run are those of the untraced one.
    for name, value in traced["exact"].items():
        if plain["exact"].get(name) != value:
            problems.append(f"tracing changed {name}: "
                            f"{plain['exact'].get(name)!r} -> {value!r}")
    metrics = {name: entry(name, [value]) for name, value in folded.items()}
    gated = {metric.name for metric in END_TO_END}
    for section in ("wall", "exact"):
        for name, value in plain[section].items():
            if name not in gated:
                metrics[name] = entry(name, [value])
    return {"workload": workload.name, "seed": seed, "scale": scale,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": problems, "metrics": metrics}


def measure_layers(seed: int, probe_seconds: float, probe_samples: int,
                   tax_scale: float, tax_rounds: int,
                   with_storm_tax: bool) -> dict:
    """The workload-independent per-layer numbers: probes and taxes."""
    import layers

    samples = layers.run_probes(probe_seconds, probe_samples)
    samples.update(layers.instrument_tax(seed, tax_scale, tax_rounds))
    if with_storm_tax:
        samples["obs.storm.tax_ratio"] = layers.storm_tax(
            seed, tax_scale, tax_rounds)
    return {name: entry(name, values) for name, values in samples.items()}


# -------------------------------------------------------------------- printing


def format_number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.4f}"
    return f"{value:.6f}"


def print_metrics(title: str, metrics: dict, comparable: bool = True) -> None:
    print(title)
    print(f"  {'metric':36} {'unit':6} {'value':>14} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'n':>3}  kind")
    for name, summary in metrics.items():
        note = "" if comparable or summary["kind"] != "wall" else \
            "  (smoke: not for comparison)"
        print(f"  {name:36} {summary['unit']:6} "
              f"{format_number(summary['value']):>14} "
              f"{format_number(summary['median']):>14} "
              f"{format_number(summary['q1']):>14} "
              f"{format_number(summary['q3']):>14} {summary['n']:>3}  "
              f"{summary['kind']}{note}")


def passed(document: dict) -> bool:
    return not document["problems"] and not document["failed"]


def print_document(document: dict, comparable: bool) -> None:
    print_metrics(
        f"{document['workload']}  seed {document['seed']}  scale "
        f"{document['scale']}  attempted {document['attempted']}  failed "
        f"{document['failed']}", document["metrics"], comparable)
    for problem in document["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not document["problems"]:
        print("  checks: ok")


# ------------------------------------------------------ one workload (driver)


def contract_line(document: dict, names) -> str:
    """The last line the BENCHMARK.json contract asks for.  A metric that
    does not exist on this workload reads 0 here; results files and the
    table above omit it instead."""
    metrics = {}
    for metric in names:
        summary = document["metrics"].get(metric.name)
        metrics[metric.name] = {
            "value": summary["value"] if summary else 0.0,
            "unit": metric.unit}
    return json.dumps({
        "correct": passed(document),
        "attempted": max(1, int(document["attempted"])),
        "failed": int(document["failed"]),
        "metrics": metrics})


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = 2 if args.smoke else DEFAULT_REPEATS
    if args.trace:
        document = measure_trace(workload, args.seed, scale)
        if not args.skip_global:
            document["metrics"].update(measure_layers(
                args.seed, *ONE_WORKLOAD_LAYERS, with_storm_tax=True))
        names = PER_LAYER
    else:
        document = measure_end_to_end(workload, args.seed, scale, repeats,
                                      args.seconds)
        names = END_TO_END
    print_document(document, comparable=not args.smoke)
    print("LEDGER-DOC " + json.dumps(document))
    print(contract_line(document, names))
    return 0 if passed(document) else 1


# ------------------------------------------------------------------- the suite


def child(arguments: list) -> dict:
    """Run one workload in a child process; its document."""
    command = [sys.executable, str(HERE / "run.py")] + arguments
    finished = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
    for line in finished.stdout.splitlines():
        if line.startswith("LEDGER-DOC "):
            document = json.loads(line[len("LEDGER-DOC "):])
            break
    else:
        raise RuntimeError(
            f"{' '.join(arguments)} produced no document (exit "
            f"{finished.returncode}):\n{finished.stdout}{finished.stderr}")
    return document


def git_sha() -> str:
    try:
        finished = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return finished.stdout.strip() if finished.returncode == 0 else "unknown"


def run_suite(args) -> int:
    from workloads import WORKLOADS

    check_manifest(WORKLOADS)
    repeats = args.repeats or (2 if args.smoke else DEFAULT_REPEATS)
    common = ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    results = {
        "schema": SCHEMA, "seed": args.seed, "repeats": repeats,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "workloads": {}, "layers": {}}
    failed = False
    for name in WORKLOADS:
        document = child(["--workload", name, "--repeats", str(repeats),
                          "--trace", "0"] + common)
        if args.trace:
            traced = child(["--workload", name, "--trace", "1",
                            "--skip-global"] + common)
            for metric, summary in traced["metrics"].items():
                document["metrics"].setdefault(metric, summary)
            document["problems"] += traced["problems"]
            document["failed"] += traced["failed"]
        print_document(document, comparable=not args.smoke)
        print()
        failed = failed or not passed(document)
        results["workloads"][name] = document
    layer_metrics = measure_layers(
        args.seed, *(SMOKE_LAYERS if args.smoke else SUITE_LAYERS),
        with_storm_tax=False)
    storms = [results["workloads"][name]["metrics"]["ops_per_wall_s"]
              for name in ("shard_storm", "shard_storm_obs")]
    layer_metrics["obs.storm.tax_ratio"] = entry(
        "obs.storm.tax_ratio", [storms[0]["value"] / storms[1]["value"]])
    results["layers"] = layer_metrics
    print_metrics("layer probes and instrument taxes (workload-independent)",
                  layer_metrics, comparable=not args.smoke)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"ledger-seed{args.seed}-{stamp}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {path}")
    print("FAILED" if failed else "all output checks passed")
    return 1 if failed else 0


def check_manifest(workloads) -> None:
    """BENCHMARK.json is generated from the catalogue (--manifest); refuse
    to measure against one that has drifted from it."""
    if json.loads(MANIFEST.read_text()) != manifest(workloads):
        raise SystemExit(
            "BENCHMARK.json does not match benchmarks/ledger/run.py; "
            "regenerate it with: python3 benchmarks/ledger/run.py "
            "--manifest > BENCHMARK.json")


# --------------------------------------------------------------------- compare


def judge(metric: Metric, base: dict, change: dict) -> tuple:
    """(relative difference, verdict) of ``change`` against ``base``."""
    before, after = base["value"], change["value"]
    relative = (after - before) / abs(before) if before else (
        0.0 if after == before else float("inf"))
    if metric.bound is None:
        return relative, "info"
    # Orient everything so that smaller is better.
    sign = 1 if metric.better == "lower" else -1
    verdict = "worse" if sign * relative > metric.bound else "ok"
    if (metric.kind == "wall"
            and max(spread(base), spread(change)) > metric.bound):
        # Too noisy to resolve at this bound, unless the two sets of runs do
        # not even overlap, which settles it in the direction they differ.
        ours = [sign * value for value in change["samples"]]
        theirs = [sign * value for value in base["samples"]]
        all_better = max(ours) < min(theirs)
        all_worse = min(ours) > max(theirs)
        if not all_better and not (all_worse and verdict == "worse"):
            verdict = "unresolved"
    return relative, verdict


def run_compare(path_a: str, path_b: str) -> int:
    documents = [json.loads(Path(path).read_text())
                 for path in (path_a, path_b)]
    for path, document in zip((path_a, path_b), documents):
        if document.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: schema {document.get('schema')!r}, "
                             f"this program reads {SCHEMA!r}")
    base, change = documents
    for field in ("seed", "repeats", "smoke", "nproc", "python", "git_sha"):
        print(f"{field:8} A={base[field]!s:44} B={change[field]!s}")
    if base["seed"] != change["seed"] or base["smoke"] != change["smoke"]:
        print("note: seeds or sizes differ, so simulated metrics and counts "
              "are expected to differ")
    if base["smoke"] or change["smoke"]:
        print("note: smoke runs are too short to time; their wall verdicts "
              "mean nothing")
    sections = [(name, base["workloads"][name]["metrics"],
                 change["workloads"][name]["metrics"])
                for name in base["workloads"] if name in change["workloads"]]
    sections.append(("layers", base["layers"], change["layers"]))
    counts = {"ok": 0, "worse": 0, "unresolved": 0, "info": 0}
    for title, before, after in sections:
        print(f"\n{title}")
        print(f"  {'metric':36} {'unit':6} {'A value':>13} {'A q1..q3':>25} "
              f"{'B value':>13} {'B q1..q3':>25} {'diff':>8} {'bound':>6}  "
              "verdict")
        for name in before:
            if name not in after:
                continue
            metric = CATALOGUE[name]
            relative, verdict = judge(metric, before[name], after[name])
            counts[verdict] += 1
            quartiles = [f"{format_number(s['q1'])}..{format_number(s['q3'])}"
                         for s in (before[name], after[name])]
            bound = "-" if metric.bound is None else f"{metric.bound:.1%}"
            print(f"  {name:36} {metric.unit:6} "
                  f"{format_number(before[name]['value']):>13} "
                  f"{quartiles[0]:>25} "
                  f"{format_number(after[name]['value']):>13} "
                  f"{quartiles[1]:>25} {relative:>+8.2%} {bound:>6}  "
                  f"{verdict}")
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved, {counts['info']} diagnostic")
    return 1 if counts["worse"] else 0


# ------------------------------------------------------------------------ main


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int,
                        help=f"fresh-system repeats (default "
                             f"{DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float,
                        help="time-box the repeats instead of counting them")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="also (suite) or instead (one workload) take "
                             "the per-layer numbers")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, all checks on")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the suite's results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--skip-global", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.trace = args.trace == "1"
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        return run_compare(*args.compare)
    try:
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the system under test from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    if args.manifest:
        print(json.dumps(manifest(WORKLOADS), indent=2))
        return 0
    if args.workload:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
