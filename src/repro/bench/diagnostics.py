"""Diagnostics glue between the bench runner and ``repro.obs``.

Implements the ``--perfetto-out`` / ``--health-out`` export paths of
``python -m repro.bench`` and the offline ``python -m repro.bench
diagnose <trace.json>`` subcommand, which re-analyses a previously saved
trace (either a raw ``Trace.save`` file or a ``--trace-out`` bench
export) without re-running any simulation.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict

from repro.obs.diagnose import PlacementProvenance
from repro.obs.health import run_health
from repro.obs.perfetto import export_file
from repro.obs.replay import Trace, load_bench_export


def collect_traces(observed: Dict[str, dict]) -> Dict[str, Trace]:
    """``{experiment: {case: {"trace": [...]}}}`` -> labelled Trace objects.

    Labels are ``experiment/case/m<index>`` — stable, filesystem-safe, and
    what the Perfetto process names and health-report keys show.
    """
    from repro.bench.report import trace_events

    traces: Dict[str, Trace] = {}
    for experiment, cases in observed.items():
        for case_key, obs in cases.items():
            payloads = (obs or {}).get("trace")
            if payloads is None:
                continue
            for index, events in enumerate(payloads):
                if events is not None:
                    # streamed payloads (segment manifests) replay from disk
                    traces[f"{experiment}/{case_key}/m{index}"] = (
                        Trace.from_dicts(trace_events(events))
                    )
    return traces


def health_document(traces: Dict[str, Trace]) -> dict:
    """Run the default detectors on every trace: one health document."""
    return {
        "kind": "health",
        "runs": {label: run_health(trace).to_dict()
                 for label, trace in sorted(traces.items())},
    }


def write_health(traces: Dict[str, Trace], path) -> dict:
    """Write :func:`health_document` to ``path`` as JSON; returns it."""
    doc = health_document(traces)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def health_summary(doc: dict) -> str:
    """One line per analysed run, for CLI output and CI logs."""
    lines = []
    for label, report in doc.get("runs", {}).items():
        counts = report.get("counts", {})
        total = sum(counts.values())
        if total == 0:
            lines.append(f"  {label}: OK")
        else:
            detail = ", ".join(
                f"{n} {sev}" for sev, n in counts.items() if n
            )
            lines.append(f"  {label}: {total} finding(s) ({detail})")
    return "\n".join(lines)


def load_any(path) -> Dict[str, Trace]:
    """Load a bench ``--trace-out`` export or a single saved trace."""
    try:
        return {label_of(key): trace
                for key, trace in load_bench_export(path).items()}
    except ValueError:
        return {"trace": Trace.load(path)}


def label_of(key) -> str:
    experiment, case_key, index = key
    return f"{experiment}/{case_key}/m{index}"


def diagnose_main(argv=None) -> int:
    """``python -m repro.bench diagnose <trace.json> [...]``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench diagnose",
        description="Offline diagnosis of a saved simulation trace: anomaly "
                    "detection, Perfetto export, per-page provenance.",
    )
    parser.add_argument("trace", help="a --trace-out export or a saved Trace")
    parser.add_argument("--health-out", default=None, metavar="FILE",
                        help="write the full health report as JSON")
    parser.add_argument("--perfetto-out", default=None, metavar="FILE",
                        help="write a Perfetto/Chrome trace-event JSON")
    parser.add_argument("--explain", action="append", default=[],
                        metavar="REGION:PAGE",
                        help="print the placement provenance of one page "
                             "(repeatable)")
    parser.add_argument("--max-steps", type=int, default=64,
                        help="provenance ring-buffer size per page")
    args = parser.parse_args(argv)

    traces = load_any(args.trace)
    print(f"[loaded {len(traces)} trace(s) from {args.trace}]")

    if args.health_out:
        health = write_health(traces, args.health_out)
    else:
        health = health_document(traces)
    print(health_summary(health))
    for label, report in health["runs"].items():
        for finding in report["findings"]:
            print(f"    [{finding['severity']}] {finding['detector']} "
                  f"@ {finding['start']:.2f}-{finding['end']:.2f}s: "
                  f"{finding['message']}")
    if args.health_out:
        print(f"[health report written: {args.health_out}]")

    if args.perfetto_out:
        doc = export_file(traces, args.perfetto_out)
        print(f"[perfetto trace written: {args.perfetto_out} "
              f"({len(doc['traceEvents'])} events)]")

    for spec in args.explain:
        region, _, page = spec.rpartition(":")
        if not region or not page.isdigit():
            parser.error(f"--explain expects REGION:PAGE, got {spec!r}")
        for label, trace in sorted(traces.items()):
            prov = PlacementProvenance.from_trace(
                trace, max_steps_per_page=args.max_steps
            )
            chain = prov.explain(region, int(page))
            if chain:
                print(f"-- {label} --")
                print(prov.explain_text(region, int(page)))
    return 0
