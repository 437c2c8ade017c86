"""Parallel, cached execution of experiment cases.

Every experiment module is split into two halves:

- ``cases(scenario) -> [Case, ...]`` — the *expensive* half, a declarative
  list of independent simulation runs.  Each :class:`Case` names a
  module-level function plus JSON-able keyword arguments, so it can be
  shipped to a worker process and its result written to an on-disk cache.
- ``assemble(scenario, results) -> Table`` — the *pure* half: turns the
  per-case results (keyed by case key) into the rendered table.  It must
  not simulate anything, so replaying cached results is exact.

The runner executes the cases of one experiment — serially or on a
``ProcessPoolExecutor`` — consulting a content-addressed result cache
first.  Cache entries are keyed by the experiment name, the case (function
identity + arguments), the scenario, and a digest of the simulator source
tree, so any code change invalidates every entry.

Every case result, fresh or cached, is passed through a JSON round-trip
before assembly.  That guarantees the fresh-run and cache-hit paths hand
``assemble`` *identical* values (and forces case functions to stick to
JSON-able primitives).

Observability (:mod:`repro.obs`) threads through the same machinery: cases
execute inside a capture scope, so every machine a case builds — in this
process or a pool worker — is instrumented.  Metric summaries (on by
default for the programmatic API; the CLI enables them with
``--metrics-out``) are stored alongside the result in the cache entry and
replayed on hits; an entry without them is a miss for a metrics run.
Traces are *never* cached (they are large and derivable), so requesting
one forces the affected cases to re-run; results are bit-identical with
tracing on, so the re-run cannot change any table.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.bench.report import Table
from repro.bench.scenario import Scenario

#: default cache location, relative to the working directory
DEFAULT_CACHE_DIR = ".bench_cache"


def tune_gc() -> None:
    """Tune the cyclic collector for the simulation's allocation profile.

    The tick loops allocate short-lived objects at a very high rate
    (per-tick stream results, splits, event batches), nearly all acyclic
    and reclaimed by refcounting the moment they drop out of scope; the
    generational scans triggered every 700 allocations are pure overhead
    on this profile (~5% of fig5 fast-preset wall time).  Freeze the
    post-import heap out of the scanned set and raise the gen-0 trigger
    so collections become rare.  Collection *timing* cannot affect
    simulated values, so tables are bit-identical either way.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(500_000, 50, 50)


@dataclass(frozen=True)
class Case:
    """One independent unit of experiment work.

    ``fn`` must be a module-level function (picklable for worker processes)
    with signature ``fn(scenario, **kwargs) -> JSON-able``; ``kwargs`` must
    hold only JSON-able primitives so the case can be digested and shipped
    across processes.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunStats:
    """Execution accounting for one experiment."""

    experiment: str = ""
    cases: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

_code_digest_cache: Optional[str] = None


def code_digest() -> str:
    """Digest of the simulator source tree (any change invalidates caches)."""
    global _code_digest_cache
    if _code_digest_cache is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _code_digest_cache = hasher.hexdigest()
    return _code_digest_cache


def scenario_digest(scenario: Scenario) -> str:
    """Digest of every Scenario field, derived from the dataclass itself.

    ``dataclasses.asdict`` keeps the digest honest as Scenario grows: a
    new field can never be silently left out of the cache key (the old
    hand-maintained dict could drift).  Field values must stay JSON-able
    — Scenario's contract anyway.  For today's field set the JSON (and
    so the digest) is unchanged from the explicit-dict version.
    """
    return hashlib.sha256(
        json.dumps(dataclasses.asdict(scenario), sort_keys=True).encode()
    ).hexdigest()


def case_digest(experiment: str, case: Case, scenario: Scenario,
                code: Optional[str] = None) -> str:
    """Content address of one case result."""
    payload = json.dumps(
        {
            "experiment": experiment,
            "key": case.key,
            "fn": f"{case.fn.__module__}.{case.fn.__qualname__}",
            "kwargs": case.kwargs,
            "scenario": scenario_digest(scenario),
            "code": code if code is not None else code_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed JSON result store (one file per case).

    Entries are ``{"result": ..., "metrics": [...]}``; ``metrics`` (one
    summary per machine the case built) is present only when the case ran
    with metric capture on.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def load_entry(self, digest: str) -> Optional[Dict[str, Any]]:
        path = self.path(digest)
        try:
            with open(path) as fh:
                entry = json.load(fh)
            entry["result"]  # malformed without a result
            return entry
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def load(self, digest: str) -> Optional[Any]:
        entry = self.load_entry(digest)
        return entry["result"] if entry is not None else None

    def store(self, digest: str, result: Any,
              metrics: Optional[List[Any]] = None) -> None:
        entry: Dict[str, Any] = {"result": result}
        if metrics is not None:
            entry["metrics"] = metrics
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)  # atomic: parallel writers can't corrupt


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _execute_case(fn: Callable, scenario: Scenario, kwargs: Dict[str, Any],
                  trace: bool = False, metrics: bool = False,
                  stream_dir: Optional[str] = None,
                  telemetry_path: Optional[str] = None,
                  telemetry_labels: Optional[Dict[str, str]] = None,
                  profile: bool = False) -> Any:
    """Run one case, optionally inside an observability capture.

    Runs in the worker process under a pool, so the capture scope is opened
    here (process-global state does not cross the fork/spawn boundary).
    Returns ``(result, payloads)`` where ``payloads`` is one
    ``{"trace", "metrics"}`` dict per machine the case built (None when
    no capture was requested).  ``stream_dir`` switches trace capture to
    rotating on-disk segments (O(window) memory); the trace payload is
    then a segment manifest dict instead of an event list.
    ``telemetry_path`` opens a live telemetry session spooling
    window snapshots (and, with ``profile=True``, one span-tree profiling
    row) to that JSONL channel — again per worker process, so every
    pool worker writes its own channel for the parent-side collector.
    With ``REPRO_PROFILE`` set the case runs under the span wrappers of
    :mod:`repro.obs.spans` and prints a ``[profile]`` report to stderr.
    """
    from repro.obs.spans import Profile
    from repro.sim.profiling import profiler_enabled

    scope = Profile() if profiler_enabled() else None
    cap = None
    with scope or nullcontext(), ExitStack() as stack:
        if telemetry_path is not None:
            from repro.obs import telemetry as _telemetry

            sink = _telemetry.JsonlSink(telemetry_path, labels=telemetry_labels)
            stack.enter_context(_telemetry.session(sink, profile=profile))
        if telemetry_path is not None or trace or metrics:
            from repro.obs.runtime import capture

            cap = stack.enter_context(
                capture(trace=trace, metrics=metrics, stream_dir=stream_dir))
        result = fn(scenario, **kwargs)
    if scope is not None:
        label = f"{fn.__module__}.{fn.__name__} {kwargs}"
        print(scope.report(label), file=sys.stderr)
    return result, cap.payloads() if cap is not None else None


def _safe_key(key: str) -> str:
    """Case keys can hold path-hostile characters; keep them readable but
    filesystem-safe."""
    return "".join(
        c if c.isalnum() or c in "-_.=" else "_" for c in key
    ) or "case"


def _case_stream_dir(stream_dir: Optional[str], key: str) -> Optional[str]:
    """Per-case segment directory under the stream root."""
    if stream_dir is None:
        return None
    return os.path.join(stream_dir, _safe_key(key))


def _case_channel(telemetry_dir: Optional[str], key: str) -> Optional[str]:
    """Per-case telemetry JSONL channel under the experiment's spool dir."""
    if telemetry_dir is None:
        return None
    return os.path.join(telemetry_dir, f"{_safe_key(key)}.jsonl")


def _normalize(result: Any) -> Any:
    """JSON round-trip so fresh and cached results are indistinguishable."""
    return json.loads(json.dumps(result))


def run_cases(
    experiment: str,
    cases: List[Case],
    scenario: Scenario,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[RunStats] = None,
    trace: bool = False,
    metrics: bool = True,
    observations: Optional[Dict[str, Any]] = None,
    stream_dir: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    profile: bool = False,
    telemetry_sum: bool = False,
) -> Dict[str, Any]:
    """Execute ``cases``, via cache/pool, returning ``{case.key: result}``.

    When ``observations`` is a dict it is filled with
    ``{case.key: {"trace": [...]|None, "metrics": [...]|None}}`` (one list
    element per machine the case built).  ``trace=True`` bypasses the cache
    for loading — traces are never stored — but results still get written,
    since tracing cannot change them.  ``telemetry_dir`` gives
    every case a live telemetry channel (``<dir>/<key>.jsonl``) — like
    traces this forces a live run (cache loads are bypassed: a cached
    result has no in-run snapshots to spool), but results still get
    stored since telemetry only observes.  ``profile=True`` additionally
    spools a structured profiling record per engine run.
    ``telemetry_sum=True`` marks every channel sum-merged (``merge:
    "sum"``): the collector folds same-key series across channels by
    pointwise sum instead of labelling them per case — correct exactly
    when the cases are disjoint shards of one fleet, which is why
    :func:`run_experiment` sets it from the module's ``shardable`` flag
    (for sharded *and* unsharded runs, so both merge to identical keys).
    """
    keys = [c.key for c in cases]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{experiment}: duplicate case keys: {keys}")
    stats = stats if stats is not None else RunStats()
    stats.cases += len(cases)

    results: Dict[str, Any] = {}
    misses: List[Case] = []
    digests: Dict[str, str] = {}
    if cache is not None:
        code = code_digest()
        live_only = trace or telemetry_dir is not None
        for case in cases:
            digest = case_digest(experiment, case, scenario, code)
            digests[case.key] = digest
            entry = None if live_only else cache.load_entry(digest)
            if entry is not None and metrics and "metrics" not in entry:
                entry = None  # pre-metrics entry; re-run to capture them
            if entry is not None:
                results[case.key] = _normalize(entry["result"])
                if observations is not None:
                    observations[case.key] = {
                        "trace": None,
                        "metrics": entry.get("metrics"),
                    }
                stats.cache_hits += 1
            else:
                misses.append(case)
    else:
        misses = list(cases)
    stats.cache_misses += len(misses)

    def channel_labels(key):
        labels = {"case": key}
        if telemetry_sum:
            labels["merge"] = "sum"
        return labels

    if misses:
        if jobs > 1 and len(misses) > 1:
            with ProcessPoolExecutor(max_workers=jobs,
                                     initializer=tune_gc) as pool:
                futures = [
                    pool.submit(_execute_case, case.fn, scenario, case.kwargs,
                                trace, metrics,
                                _case_stream_dir(stream_dir, case.key),
                                _case_channel(telemetry_dir, case.key),
                                channel_labels(case.key), profile)
                    for case in misses
                ]
                fresh = [f.result() for f in futures]
        else:
            fresh = [
                _execute_case(case.fn, scenario, case.kwargs, trace, metrics,
                              _case_stream_dir(stream_dir, case.key),
                              _case_channel(telemetry_dir, case.key),
                              channel_labels(case.key), profile)
                for case in misses
            ]
        for case, (result, payloads) in zip(misses, fresh):
            result = _normalize(result)
            results[case.key] = result
            case_metrics = None
            case_traces = None
            if payloads is not None:
                if metrics:
                    case_metrics = _normalize([p["metrics"] for p in payloads])
                if trace:
                    case_traces = [p["trace"] for p in payloads]
            if observations is not None and payloads is not None:
                observations[case.key] = {
                    "trace": case_traces,
                    "metrics": case_metrics,
                }
            if cache is not None:
                cache.store(digests[case.key], result, metrics=case_metrics)
    return results


def run_experiment(
    module,
    experiment: str,
    scenario: Scenario,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[RunStats] = None,
    trace: bool = False,
    metrics: bool = True,
    observations: Optional[Dict[str, Any]] = None,
    shards: int = 1,
    stream_dir: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    profile: bool = False,
) -> Table:
    """Run one experiment module through the case runner.

    ``shards > 1`` splits *shardable* experiments (modules declaring
    ``shardable = True``, e.g. the colocation fleet) into that many
    independent tenant-subset cases, which then fan out over the ``jobs``
    pool and are cached per shard like any other case; the assembled
    table is identical under any shard count.  Non-shardable experiments
    ignore the setting.
    """
    stats = stats if stats is not None else RunStats()
    stats.experiment = experiment
    shardable = getattr(module, "shardable", False)
    if shards > 1 and shardable:
        cases = module.cases(scenario, shards=shards)
    else:
        cases = module.cases(scenario)
    results = run_cases(experiment, cases, scenario, jobs=jobs, cache=cache,
                        stats=stats, trace=trace, metrics=metrics,
                        observations=observations,
                        stream_dir=stream_dir, telemetry_dir=telemetry_dir,
                        profile=profile, telemetry_sum=shardable)
    return module.assemble(scenario, results)
