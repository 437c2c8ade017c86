"""CLI: python -m repro.bench <experiment...|all> [-j N] [--preset fast|full].

``--list`` prints the registered experiments with a one-line description
(the first line of each experiment module docstring) and exits.

Experiments execute through the case runner: independent simulation runs
fan out over a process pool (``-j``) and completed case results are reused
from an on-disk content-addressed cache (``.bench_cache/`` by default,
disable with ``--no-cache``).  ``-j 1`` with a cold cache reproduces the
serial tables exactly.

Observability: ``--trace-out FILE`` captures the structured event trace of
every case (forcing those cases to re-run — traces are never cached) and
``--metrics-out FILE`` turns on metric capture and exports the per-case
summaries (counters, histograms, time series); captured summaries also
land in the cache, so later metrics runs replay them.  Both write JSON,
or long-format CSV when the file name ends in ``.csv``.  Without these
flags nothing is captured and the simulations run at full speed.

Diagnostics: ``--perfetto-out FILE`` exports the captured traces as a
Perfetto/Chrome trace-event timeline (open it at ``ui.perfetto.dev``) and
``--health-out FILE`` runs the anomaly detectors of
:mod:`repro.obs.health` and writes their findings; both imply trace
capture.  ``python -m repro.bench diagnose <trace.json>`` re-analyses a
saved trace offline.

Live telemetry: ``--telemetry-out FILE`` spools in-run metric snapshots
(tier occupancy, migration/eviction counters, PEBS loss, per-tenant SLO
series) from every worker to per-case JSONL channels under ``FILE.live/``
and writes the collector-merged fleet-wide series to ``FILE`` at the end;
``--telemetry-port N`` additionally serves the merged view as Prometheus
text format at ``/metrics`` while the run progresses, and
``python -m repro.bench watch FILE.live`` renders a live terminal
dashboard over the same channels.  ``--profile-out FILE`` runs every
case under the per-layer span wrappers of :mod:`repro.obs.spans` and
merges their span trees into one JSON (self seconds and calls per
layer, the wrappers' estimated overhead) with collapsed-stack lines for
flamegraph tooling.

``--update-golden`` refreshes the committed golden tables
(``tests/golden/<experiment>.csv``) that the regression suite compares
against; run it after any intentional behaviour change.  It refuses any
preset but ``fast`` and any scenario override (``--scale``,
``--duration``, ``--seed``, ``--faults``, ``--policy``), which would write
non-golden tables over the committed ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.diagnostics import (
    collect_traces,
    diagnose_main,
    health_summary,
    write_health,
)
from repro.bench.registry import MODULES, get_module
from repro.bench.report import save_observations
from repro.bench.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    RunStats,
    run_experiment,
    tune_gc,
)
from repro.bench.scenario import PRESETS
from repro.core.placement import POLICIES as PLACEMENT_POLICIES
from repro.obs.perfetto import export_file

#: where --update-golden writes, relative to the repository root
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"
#: CLI flags that override the preset's Scenario field of the same name
SCENARIO_OVERRIDES = ("scale", "duration", "seed", "faults", "policy")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "diagnose":
        return diagnose_main(argv[1:])
    if argv and argv[0] == "watch":
        from repro.bench.watch import watch_main

        return watch_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate HeMem (SOSP'21) evaluation tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help=f"experiment ids or 'all': {', '.join(MODULES)}")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments with a one-line "
                             "description and exit")
    parser.add_argument("-j", "--jobs", type=int, default=os.cpu_count(),
                        help="worker processes for independent cases "
                             "(default: CPU count)")
    parser.add_argument("--shards", type=int, default=1,
                        help="split shardable colocation experiments into N "
                             "independent tenant shards (each shard is one "
                             "case: they fan out over -j workers and cache "
                             "per shard; merged tables are identical under "
                             "any shard count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-run cases, and do not store results")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="fast")
    parser.add_argument("--scale", type=float, default=None,
                        help="override capacity scale divisor")
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="inject faults into every case, e.g. "
                             "'dma_channel_down@t=2.0,nvm_degrade:0.5@t=5.0' "
                             "(grammar: kind[:value][@t=start[+duration]])")
    parser.add_argument("--policy", default=None,
                        choices=sorted(PLACEMENT_POLICIES),
                        help="placement policy for every HeMem-family "
                             "manager in every case (baselines ignore it); "
                             "default: each manager's configured policy")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="capture structured event traces and write them "
                             "to FILE (.json or .csv); forces re-runs")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write per-case metric summaries to FILE "
                             "(.json or .csv)")
    parser.add_argument("--perfetto-out", default=None, metavar="FILE",
                        help="export captured traces as a Perfetto/Chrome "
                             "trace-event JSON (implies trace capture)")
    parser.add_argument("--health-out", default=None, metavar="FILE",
                        help="run the anomaly detectors over captured traces "
                             "and write the findings (implies trace capture)")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="spool live telemetry snapshots per case "
                             "(window cadence) and write the collector-"
                             "merged fleet-wide series to FILE; channels "
                             "land under FILE.live/ for 'bench watch'")
    parser.add_argument("--telemetry-port", type=int, default=None,
                        metavar="PORT",
                        help="serve the live telemetry as Prometheus text "
                             "format at http://localhost:PORT/metrics "
                             "while the run progresses (0 = ephemeral)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="collect per-layer span profiles (self "
                             "seconds and calls per layer) from every run "
                             "and write one merged JSON with "
                             "collapsed-stack lines to FILE")
    parser.add_argument("--update-golden", action="store_true",
                        help="write each experiment's table to the golden "
                             "directory instead of asserting against it")
    parser.add_argument("--golden-dir", default=str(DEFAULT_GOLDEN_DIR),
                        help="golden-table directory for --update-golden")
    args = parser.parse_args(argv)
    if args.list:
        width = max(len(name) for name in MODULES)
        for name, module in MODULES.items():
            doc = (module.__doc__ or "").strip().splitlines()
            summary = doc[0].rstrip(".") if doc else ""
            print(f"{name:<{width}}  {summary}")
        return 0
    if not args.experiments:
        parser.error("no experiments given (try --list)")
    if args.shards < 1:
        parser.error(f"--shards must be at least 1, got {args.shards}")
    overrides = {flag: getattr(args, flag) for flag in SCENARIO_OVERRIDES
                 if getattr(args, flag) is not None}
    if args.update_golden:
        # goldens are fault-free fast-preset tables on each manager's
        # default policy (policy_matrix sweeps the zoo explicitly)
        overridden = [f"--{flag}" for flag in overrides]
        if args.preset != "fast":
            overridden.append(f"--preset {args.preset}")
        if overridden:
            parser.error(f"--update-golden with {', '.join(overridden)} "
                         "would poison the golden tables; goldens are "
                         "defined for the fast preset with no overrides")
    scenario = PRESETS[args.preset]()
    if overrides:
        scenario = scenario.with_(**overrides)

    names = []
    for name in args.experiments:
        if name == "all":
            names.extend(n for n in MODULES if n not in names)
        elif name not in names:
            if name not in MODULES:
                parser.error(
                    f"unknown experiment {name!r}; choose from {sorted(MODULES)}"
                )
            names.append(name)
    if args.shards > 1:
        shardable = [n for n, module in MODULES.items()
                     if getattr(module, "shardable", False)]
        if not any(name in shardable for name in names):
            parser.error(f"--shards {args.shards} has no effect: none of "
                         f"{names} is shardable (shardable: "
                         f"{', '.join(shardable)})")
    tune_gc()

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    jobs = max(args.jobs or 1, 1)
    diagnostics = args.perfetto_out is not None or args.health_out is not None
    tracing = args.trace_out is not None or diagnostics
    # Trace capture always streams to rotating on-disk segments (next to
    # the requested output file) so capture memory is O(window) no matter
    # how long the runs are; the exporters read the segments back.
    stream_root = None
    if tracing:
        out = args.trace_out or args.perfetto_out or args.health_out
        stream_root = f"{out}.segments"
    # Metric capture costs per-tick sampling plus summary serialisation, so
    # the default CLI path runs without it; asking for an export turns it on
    # (and the captured summaries land in the cache for later replays).
    # Trace captures already pay for instrumented re-runs, so they bank the
    # metric summaries too: a later --metrics-out on the same cache replays.
    metrics = args.metrics_out is not None or tracing
    # Live telemetry: per-case JSONL channels spool under a `.live` root
    # that the parent-side collector, the /metrics exporter, and `bench
    # watch` all read while the run progresses.  Snapshot publishing rides
    # the metric sampler, so the telemetry flags imply metric capture;
    # --profile-out alone stays unsampled (profiling wants clean timings)
    # but still spools its structured records through the same channels.
    telemetry_on = (args.telemetry_out is not None
                    or args.telemetry_port is not None)
    profiling = args.profile_out is not None
    telemetry_root = None
    if telemetry_on or profiling:
        base = (args.telemetry_out or args.profile_out
                or f"telemetry-{args.telemetry_port}")
        telemetry_root = f"{base}.live"
    if telemetry_on:
        metrics = True
    server = None
    if args.telemetry_port is not None:
        from repro.obs.telemetry import serve_metrics

        server = serve_metrics(telemetry_root, args.telemetry_port)
        print(f"[telemetry: serving Prometheus text format on "
              f"http://localhost:{server.server_port}/metrics]")

    all_stats = []
    observed: dict = {}
    total_start = time.time()
    for name in names:
        stats = RunStats()
        observations: dict = {}
        start = time.time()
        table = run_experiment(get_module(name), name, scenario,
                               jobs=jobs, cache=cache, stats=stats,
                               trace=tracing, metrics=metrics,
                               observations=observations,
                               shards=args.shards,
                               stream_dir=(
                                   os.path.join(stream_root, name)
                                   if stream_root is not None else None
                               ),
                               telemetry_dir=(
                                   os.path.join(telemetry_root, name)
                                   if telemetry_root is not None else None
                               ),
                               profile=profiling)
        stats.wall_seconds = time.time() - start
        all_stats.append(stats)
        observed[name] = observations
        print(table.render())
        print(f"[{name}: {stats.wall_seconds:.1f}s wall, "
              f"{stats.cases} cases, {stats.cache_hits} cached]\n")
        if args.update_golden:
            golden_dir = Path(args.golden_dir)
            golden_dir.mkdir(parents=True, exist_ok=True)
            golden_path = golden_dir / f"{name}.csv"
            golden_path.write_text(table.to_csv())
            print(f"[golden updated: {golden_path}]\n")

    if args.trace_out:
        save_observations(args.trace_out, observed, "trace")
        print(f"[traces written: {args.trace_out}]")
    if args.metrics_out:
        save_observations(args.metrics_out, observed, "metrics")
        print(f"[metrics written: {args.metrics_out}]")
    if diagnostics:
        traces = collect_traces(observed)
        if args.perfetto_out:
            doc = export_file(traces, args.perfetto_out)
            print(f"[perfetto trace written: {args.perfetto_out} "
                  f"({len(doc['traceEvents'])} events)]")
        if args.health_out:
            report = write_health(traces, args.health_out)
            print(f"[health report written: {args.health_out}]")
            print(health_summary(report))
    if telemetry_root is not None:
        from repro.obs.telemetry import Collector, merge_profiles

        collected = Collector(telemetry_root).collect()
        if args.telemetry_out:
            with open(args.telemetry_out, "w") as fh:
                json.dump(collected, fh, indent=1)
            n_series = sum(
                len(exp["series"])
                for exp in collected["experiments"].values()
            )
            print(f"[telemetry written: {args.telemetry_out} "
                  f"({n_series} merged series; live channels under "
                  f"{telemetry_root}/)]")
        if args.profile_out:
            merged = merge_profiles(collected.get("profiles", []))
            with open(args.profile_out, "w") as fh:
                json.dump(merged, fh, indent=1)
            print(f"[profile written: {args.profile_out} "
                  f"({merged['aggregate']['runs']} runs, "
                  f"{merged['aggregate']['ticks']} ticks)]")
    if server is not None:
        server.shutdown()

    if len(names) > 1:
        cases = sum(s.cases for s in all_stats)
        hits = sum(s.cache_hits for s in all_stats)
        misses = sum(s.cache_misses for s in all_stats)
        print(f"[total: {time.time() - total_start:.1f}s wall, "
              f"{len(names)} experiments, {cases} cases "
              f"({hits} cached, {misses} run)]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
