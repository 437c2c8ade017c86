"""One benchmark run: one workload, in this process, for a fixed time.

The run is a closed loop with one client: the workload's cases execute
back to back, each through the bench runner exactly as the CLI runs them
(``jobs=1``, no cache, no metrics capture), and the loop cycles through
the case list until the next case would end past ``--seconds``.  The
first pass always completes, so every case runs at least once.

Untraced (``--trace 0``), only ``Engine.run`` is wrapped, to time set-up
and the tick loop from outside.  Traced (``--trace 1``), every case runs
twice per pass, once plain and once under the per-layer spans of
:mod:`perfbench.spans`, so the tracing overhead is measured on the same
cases in the same process.

Every execution is checked: it must not raise, its result digest must
match every other execution of the case in the run, and, for seeds
recorded in ``expected.json``, the recorded digest.  At the golden seed
the whole experiments are re-assembled and compared with
``tests/golden/<experiment>.csv``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import spans
from perfbench.workloads import BY_NAME, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
#: the seed the golden tables were generated at (the fast preset's default)
GOLDEN_SEED = 42

#: end-to-end metric -> unit (reported with ``--trace 0``)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ticks_per_s": "ticks/s",
    "peak_rss_mb": "MB",
}


def result_digest(result) -> str:
    """sha256 of a JSON-normalised case result."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, str]]:
    """``{seed: {"<experiment>/<case key>": digest}}``; empty if absent."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class EngineProbe:
    """Times ``Engine.run`` from outside the simulator.

    Records when the first call of a case execution started (the end of
    set-up), the host seconds spent inside it, and the ticks its virtual
    clock advanced.
    """

    def __init__(self):
        self.reset()
        self._original = None

    def reset(self) -> None:
        self.first_start: Optional[float] = None
        self.run_s = 0.0
        self.ticks = 0

    def install(self) -> None:
        from repro.sim.engine import Engine

        original = self._original = Engine.run
        probe = self

        def run(engine, *args, **kwargs):
            clock_start = engine.clock.now
            start = perf_counter()
            if probe.first_start is None:
                probe.first_start = start
            try:
                return original(engine, *args, **kwargs)
            finally:
                probe.run_s += perf_counter() - start
                probe.ticks += round(
                    (engine.clock.now - clock_start) / engine.config.tick
                )

        Engine.run = run

    def uninstall(self) -> None:
        from repro.sim.engine import Engine

        Engine.run = self._original


@dataclass
class Sample:
    """Timings of one case execution."""

    wall: float
    setup: float
    run: float
    ticks: int
    #: per-layer totals (traced executions only)
    layers: Optional[Dict[str, float]] = None


@dataclass
class Outcome:
    """Everything a run measured and checked."""

    cases: int
    passes: int = 0
    attempted: int = 0
    #: (pass, case id, traced) of every failed execution
    failures: set = field(default_factory=set)
    untraced: Dict[str, List[Sample]] = field(default_factory=dict)
    traced: Dict[str, List[Sample]] = field(default_factory=dict)
    verified: bool = False

    @property
    def failed(self) -> int:
        return len(self.failures)


def execute(experiment: str, case, scenario, probe: EngineProbe,
            tree: Optional[spans.SpanTree] = None):
    """Run one case; returns ``(normalised result, Sample)``."""
    from repro.bench.runner import run_cases

    # Start every execution from a collected heap: tune_gc makes cyclic
    # collections rare, so garbage left by earlier executions would
    # otherwise grow the peak RSS with the number of passes a run fits.
    gc.collect()
    probe.reset()
    undo = spans.install(tree) if tree is not None else None
    try:
        start = perf_counter()
        if tree is not None:
            tree.enter(spans.CASE_SPAN)
        try:
            results = run_cases(experiment, [case], scenario, jobs=1,
                                cache=None, metrics=False)
        finally:
            if tree is not None:
                tree.exit()
        wall = perf_counter() - start
    finally:
        if undo is not None:
            spans.uninstall(undo)
    sample = Sample(wall=wall, setup=probe.first_start - start,
                    run=probe.run_s, ticks=probe.ticks)
    if tree is not None:
        sample.layers = spans.layer_totals(tree)
    return results[case.key], sample


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 expected: Dict[str, Dict[str, str]],
                 golden_dir: Path = GOLDEN_DIR) -> Outcome:
    from repro.bench.scenario import PRESETS

    scenario = PRESETS["fast"]().with_(seed=seed)
    cases = workload.cases(scenario)
    ids = [f"{experiment}/{case.key}" for experiment, case in cases]
    want = expected.get(str(seed))
    outcome = Outcome(cases=len(cases), verified=want is not None,
                      untraced={cid: [] for cid in ids},
                      traced={cid: [] for cid in ids})
    first_digest: Dict[str, str] = {}
    first_results: Dict[str, object] = {}
    last_wall: Dict[str, float] = {}
    modes = (False, True) if trace else (False,)

    probe = EngineProbe()
    probe.install()
    deadline = perf_counter() + seconds
    try:
        done = False
        while not done:
            for (experiment, case), cid in zip(cases, ids):
                if outcome.passes and (
                    perf_counter() + last_wall[cid] > deadline
                ):
                    done = True
                    break
                last_wall[cid] = 0.0
                for traced in modes:
                    outcome.attempted += 1
                    failure = (outcome.passes, cid, traced)
                    try:
                        result, sample = execute(
                            experiment, case, scenario, probe,
                            spans.SpanTree() if traced else None,
                        )
                    except Exception:
                        traceback.print_exc()
                        outcome.failures.add(failure)
                        continue
                    last_wall[cid] += sample.wall
                    (outcome.traced if traced else outcome.untraced)[
                        cid].append(sample)
                    digest = result_digest(result)
                    if first_digest.setdefault(cid, digest) != digest or (
                        want is not None and want.get(cid) != digest
                    ):
                        print(f"perfbench: {cid} result digest mismatch "
                              f"(pass {outcome.passes}, traced={traced})",
                              file=sys.stderr)
                        outcome.failures.add(failure)
                    first_results.setdefault(cid, result)
            else:
                outcome.passes += 1
                done = perf_counter() >= deadline
    finally:
        probe.uninstall()
    if seed == GOLDEN_SEED:
        check_goldens(outcome, workload, scenario, cases, ids, first_results,
                      golden_dir)
    return outcome


def check_goldens(outcome: Outcome, workload: Workload, scenario, cases,
                  ids, first_results, golden_dir: Path) -> None:
    """Re-assemble each whole experiment from its first results and compare
    the table with the committed golden CSV; a mismatch fails every case
    of the experiment."""
    from repro.bench.registry import get_module

    for experiment in workload.whole_experiments():
        members = [(case, cid) for (exp, case), cid in zip(cases, ids)
                   if exp == experiment]
        if any(cid not in first_results for _, cid in members):
            continue  # a case raised, and has failed already
        table = get_module(experiment).assemble(
            scenario, {case.key: first_results[cid] for case, cid in members}
        )
        golden = golden_dir / f"{experiment}.csv"
        if not golden.exists() or table.to_csv() != golden.read_text():
            print(f"perfbench: {experiment} table differs from {golden}",
                  file=sys.stderr)
            outcome.failures.update((0, cid, False) for _, cid in members)


def _sum_of_medians(per_case: Dict[str, List[Sample]], attr: str) -> float:
    return sum(
        statistics.median(getattr(s, attr) for s in samples)
        for samples in per_case.values() if samples
    )


def _sum_of_means(per_case: Dict[str, List[Sample]], attr: str) -> float:
    return sum(
        statistics.fmean(getattr(s, attr) for s in samples)
        for samples in per_case.values() if samples
    )


def end_to_end_metrics(outcome: Outcome) -> Dict[str, float]:
    """Per-case medians over the run's passes, summed over cases."""
    ticks = sum(samples[0].ticks for samples in outcome.untraced.values()
                if samples)
    return {
        "wall_s": _sum_of_medians(outcome.untraced, "wall"),
        "setup_s": _sum_of_medians(outcome.untraced, "setup"),
        "ticks_per_s": ticks / _sum_of_medians(outcome.untraced, "run"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer_metrics(outcome: Outcome) -> Dict[str, float]:
    """Per-case means over the traced executions, summed over cases.

    Means, unlike medians, keep the self times additive: they sum to
    ``trace.wall_s`` up to the wrappers' own cost outside the spans.
    """
    totals: Dict[str, float] = {}
    for samples in outcome.traced.values():
        if not samples:
            continue
        for metric in samples[0].layers:
            totals[metric] = totals.get(metric, 0.0) + statistics.fmean(
                s.layers[metric] for s in samples
            )
    metrics = spans.layer_metrics(totals)
    traced_wall = _sum_of_means(outcome.traced, "wall")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = (
        traced_wall / _sum_of_means(outcome.untraced, "wall") - 1.0
    )
    return metrics


def report(outcome: Outcome, trace: bool) -> dict:
    """The run's result object (the last line of standard output)."""
    if trace:
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in per_layer_metrics(outcome).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end_metrics(outcome).items()}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def record_digests(seeds: List[int]) -> Dict[str, Dict[str, str]]:
    """Digest every case of every workload at each seed (one execution)."""
    from repro.bench.runner import run_cases
    from repro.bench.scenario import PRESETS

    out: Dict[str, Dict[str, str]] = {}
    for seed in seeds:
        scenario = PRESETS["fast"]().with_(seed=seed)
        digests = out[str(seed)] = {}
        for workload in WORKLOADS:
            for experiment, case in workload.cases(scenario):
                result = run_cases(experiment, [case], scenario, jobs=1,
                                   cache=None, metrics=False)[case.key]
                digests[f"{experiment}/{case.key}"] = result_digest(result)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one perfbench workload and print its result as "
                    "the last line of standard output.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure for this long; 0 runs one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.bench.runner import tune_gc
    from repro.sim.profiling import profiling_active

    trace = bool(args.trace)
    if trace and profiling_active():
        # The tick profiler routes the tracker through its instrumented
        # twin loop, so the spans would time different code.
        print("perfbench: refusing to trace with REPRO_PROFILE set or a "
              "profiling telemetry session active", file=sys.stderr)
        return 2
    tune_gc()
    workload = BY_NAME[args.workload]
    outcome = run_workload(workload, args.seed, args.seconds, trace,
                           load_expected())
    result = report(outcome, trace)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{outcome.cases} cases, {outcome.passes} passes, "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    print(f"verified: {'true' if outcome.verified else 'false'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0
