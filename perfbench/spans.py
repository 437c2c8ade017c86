"""Per-layer spans for the traced round.

Spans are recorded from outside the simulator: :func:`install` replaces
the public methods of each layer's classes with timing wrappers in the
running process, and :func:`uninstall` puts the originals back.  Nothing
under ``src/`` knows the spans exist.  Spans are aggregated in memory
into a call tree, one node per path of span names, holding the call
count, the total seconds and the seconds spent in child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple


class SpanTree:
    """Aggregated call tree of spans.

    A span opened directly inside a span of the same name (a subclass
    method calling ``super()``, a composite workload calling its members)
    is merged into the open one instead of being counted twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: path of span names -> [calls, total seconds, child seconds]
        self.nodes: Dict[Tuple[str, ...], List[float]] = {}
        #: named counts recorded by the wrappers (records, passes, ...)
        self.counters: Dict[str, float] = {}
        # open spans: [name, path, start, child seconds, merged depth]
        self._stack: List[list] = []

    def enter(self, name: str) -> bool:
        """Open a span; False when it merged into an open same-name span."""
        stack = self._stack
        if stack:
            top = stack[-1]
            if top[0] == name:
                top[4] += 1
                return False
            path = top[1] + (name,)
        else:
            path = (name,)
        stack.append([name, path, self.clock(), 0.0, 0])
        return True

    def exit(self) -> None:
        stack = self._stack
        top = stack[-1]
        if top[4]:
            top[4] -= 1
            return
        stack.pop()
        elapsed = self.clock() - top[2]
        node = self.nodes.get(top[1])
        if node is None:
            node = self.nodes[top[1]] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += elapsed
        node[2] += top[3]
        if stack:
            stack[-1][3] += elapsed

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def self_seconds(self) -> Dict[str, float]:
        """Span name -> summed self time (total minus child spans)."""
        out: Dict[str, float] = {}
        for path, (_, total, child) in self.nodes.items():
            out[path[-1]] = out.get(path[-1], 0.0) + total - child
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for path, node in self.nodes.items():
            out[path[-1]] = out.get(path[-1], 0) + node[0]
        return out


# -- counters recorded at the outermost call of a span ------------------------

def _count_records(tree, args, result):
    tree.count("core.tracking.records", len(args[1]))


def _count_pass(tree, args, result):
    promoted, demoted = result
    tree.count("core.placement.passes", 1)
    tree.count("core.placement.useful_passes", promoted + demoted > 0)


def _count_migration(tree, args, result):
    tree.count("core.migrate.migrations", bool(result))


def _count_remap(tree, args, result):
    tree.count("core.migrate.remap_demotes", bool(result))


#: every counter the wrappers record
COUNTERS = (
    "core.tracking.records", "core.placement.passes",
    "core.placement.useful_passes", "core.migrate.migrations",
    "core.migrate.remap_demotes",
)


#: span name -> targets ``(module, class or None, method, counter)``.  A
#: class target covers the class and every subclass defining the method;
#: ``None`` names a module-level function, patched where callers look it
#: up.  Each method gets the first span that names it, so the colocation
#: front-end's ``split_by_tier`` is routing, not a tenant split.
SPANS: Dict[str, tuple] = {
    "sim.engine.tick": (("repro.sim.engine", "Engine", "step", None),),
    "sim.engine.setup": (("repro.sim.engine", "Engine", "__init__", None),),
    "mem.machine.resolve": (("repro.mem.machine", "Machine", "resolve", None),),
    "mem.machine.movers": (
        ("repro.mem.machine", "Machine", "begin_tick", None),
        ("repro.mem.machine", "Machine", "end_tick", None),
    ),
    "colo.manager.route": (
        ("repro.colo.manager", "ColoManager", "split_by_tier", None),
        ("repro.colo.manager", "ColoManager", "observe", None),
    ),
    "colo.manager.end_tick": (
        ("repro.colo.manager", "ColoManager", "end_tick", None),
    ),
    "core.manager.split": (
        ("repro.core.base", "TieredMemoryManager", "split_by_tier", None),
    ),
    "core.sources.pebs_feed": (
        ("repro.core.sources", "PebsSource", "on_traffic", None),
    ),
    "core.sources.pebs_drain": (
        ("repro.core.sources", "_PebsDrainService", "run", None),
    ),
    "core.tracking.record_samples": (
        ("repro.core.tracking", "HotColdTracker", "record_samples",
         _count_records),
    ),
    "core.placement.run_pass": (
        ("repro.core.placement", "PlacementPolicy", "run_pass", _count_pass),
    ),
    "core.migrate.migrate": (
        ("repro.core.migrate", "Migrator", "migrate", _count_migration),
        ("repro.core.migrate", "Migrator", "remap_demote", _count_remap),
    ),
    "core.bufferpool.end_tick": (
        ("repro.core.bufferpool", "BufferPoolManager", "end_tick", None),
    ),
    "workloads.setup": (("repro.workloads.base", "Workload", "setup", None),),
    "workloads.access_mix": (
        ("repro.workloads.base", "Workload", "access_mix", None),
    ),
    "workloads.on_progress": (
        ("repro.workloads.base", "Workload", "on_progress", None),
    ),
    "db.loader.load": (("repro.db.loader", "TpccLoader", "load", None),),
    "db.adapter.compile": (
        ("repro.db.adapter", "TpccAccessModel", "compile", None),
    ),
    "db.engine.run_one": (("repro.db.engine", "TpccEngine", "run_one", None),),
    "db.adapter.price_txn": (
        ("repro.db.adapter", "TpccAccessModel", "price_txn", None),
    ),
    "db.adapter.latency_mc": (
        ("repro.db.adapter", "TpccAccessModel", "txn_latency_percentiles",
         None),
    ),
    "colo.arbiter.run": (("repro.colo.arbiter", "DramArbiter", "run", None),),
    "serve.arrivals.compile": (
        ("repro.serve.fleet", None, "compile_fleet", None),
    ),
    "serve.monitor.run": (("repro.serve.monitor", "FleetMonitor", "run", None),),
    "serve.controller.run": (
        ("repro.serve.controller", "SloController", "run", None),
    ),
}

#: the span every case execution runs inside (opened by the harness)
CASE_SPAN = "bench.case"

#: spans whose call counts are reported as ``<span>.calls``
COUNTED = (
    "mem.machine.resolve", "core.manager.split", "core.sources.pebs_feed",
    "db.engine.run_one", "db.adapter.price_txn", "db.adapter.latency_mc",
)


def _wrap(fn, name: str, tree: SpanTree, counter):
    enter = tree.enter
    leave = tree.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        outer = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if counter is not None and outer:
            counter(tree, args, result)
        return result

    return span


def _owners(cls) -> list:
    """``cls`` and all of its subclasses, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_owners(sub))
    return out


def install(tree: SpanTree) -> List[tuple]:
    """Wrap every span target; returns the undo list for :func:`uninstall`.

    Importing the experiment registry first loads every subclass the
    class targets must cover.
    """
    importlib.import_module("repro.bench.registry")
    undo: List[tuple] = []
    seen = set()
    for name, targets in SPANS.items():
        for module_name, class_name, attr, counter in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                owners = [module]
            else:
                owners = [
                    owner for owner in _owners(getattr(module, class_name))
                    if attr in vars(owner)
                ]
            for owner in owners:
                if (id(owner), attr) in seen:
                    continue
                seen.add((id(owner), attr))
                original = vars(owner)[attr]
                setattr(owner, attr, _wrap(original, name, tree, counter))
                undo.append((owner, attr, original))
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_totals(tree: SpanTree) -> Dict[str, float]:
    """Additive per-layer quantities of one traced case execution."""
    self_s = tree.self_seconds()
    calls = tree.calls()
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SPANS}
    out[f"{CASE_SPAN}.other_s"] = self_s.get(CASE_SPAN, 0.0)
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["sim.engine.ticks"] = calls.get("sim.engine.tick", 0)
    for name in COUNTERS:
        out[name] = tree.counters.get(name, 0)
    return out


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """Summed :func:`layer_totals` -> reported per-layer metrics (adds
    the ratios, which do not sum across cases)."""
    out = dict(totals)
    records = out["core.tracking.records"]
    out["core.tracking.ns_per_record"] = (
        out["core.tracking.record_samples.self_s"] / records * 1e9
        if records else 0.0
    )
    passes = out["core.placement.passes"]
    useful = out.pop("core.placement.useful_passes")
    out["core.placement.useful_pass_frac"] = useful / passes if passes else 0.0
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_record"):
        return "ns"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def self_time_sum(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time plus the case span's own time."""
    return sum(
        value for metric, value in metrics.items()
        if metric.endswith(".self_s") or metric == f"{CASE_SPAN}.other_s"
    )
