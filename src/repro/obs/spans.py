"""Per-layer span profiling by class-level timing wrappers.

:func:`install` wraps every :data:`SPANS` target, on its class and each
subclass override, to time calls into a :class:`SpanTree`, and
:func:`uninstall` restores the originals: the simulator itself holds no
profiling code.  :class:`Profile` is the scope ``REPRO_PROFILE=1`` (one
``[profile]`` report per bench case) and ``profile=True`` telemetry
sessions (``--profile-out``: one :meth:`Profile.row` each) both open.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from timeit import repeat
from typing import Callable, Dict, List, Optional, Tuple


class SpanTree:
    """Aggregated call tree: one ``[calls, total s, child s]`` node per
    ``;``-joined path of span names.  A span opened directly inside a span
    of the same name (a ``super()`` call) merges into the open one."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.nodes: Dict[str, List[float]] = {}
        # open spans: [name, path, start, child seconds, merged depth]
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            if top[0] == name:
                top[4] += 1
                return
            path = f"{top[1]};{name}"
        else:
            path = name
        stack.append([name, path, self.clock(), 0.0, 0])

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

    def by_name(self) -> Dict[str, List[float]]:
        """Span name -> ``[calls, self seconds]`` summed over its paths
        (self time is total minus child spans)."""
        out: Dict[str, List[float]] = {}
        for path, (calls, total, child) in self.nodes.items():
            into = out.setdefault(path.rpartition(";")[2], [0, 0.0])
            into[0] += calls
            into[1] += total - child
        return out


# Span name and target, ``module:Class.method`` or ``module:function``;
# perfbench's layer table plus the last four spans, which give the rest
# of the tick a home.  A method gets the first span naming it, so the
# colocation front-end's ``split_by_tier`` is routing, not a tenant
# split, and ``sim.service.run`` takes only services without a span.
_TABLE = """
sim.engine.tick               repro.sim.engine:Engine.step
sim.engine.setup              repro.sim.engine:Engine.__init__
mem.machine.resolve           repro.mem.machine:Machine.resolve
mem.machine.movers            repro.mem.machine:Machine.begin_tick
mem.machine.movers            repro.mem.machine:Machine.end_tick
colo.manager.route            repro.colo.manager:ColoManager.split_by_tier
colo.manager.route            repro.colo.manager:ColoManager.observe
colo.manager.end_tick         repro.colo.manager:ColoManager.end_tick
core.manager.split            repro.core.base:TieredMemoryManager.split_by_tier
core.sources.pebs_feed        repro.core.sources:PebsSource.on_traffic
core.sources.pebs_drain       repro.core.sources:_PebsDrainService.run
core.tracking.record_samples  repro.core.tracking:HotColdTracker.record_samples
core.placement.run_pass       repro.core.placement:PlacementPolicy.run_pass
core.migrate.migrate          repro.core.migrate:Migrator.migrate
core.migrate.migrate          repro.core.migrate:Migrator.remap_demote
core.bufferpool.end_tick      repro.core.bufferpool:BufferPoolManager.end_tick
workloads.setup               repro.workloads.base:Workload.setup
workloads.access_mix          repro.workloads.base:Workload.access_mix
workloads.on_progress         repro.workloads.base:Workload.on_progress
db.loader.load                repro.db.loader:TpccLoader.load
db.adapter.compile            repro.db.adapter:TpccAccessModel.compile
db.engine.run_one             repro.db.engine:TpccEngine.run_one
db.adapter.price_txn          repro.db.adapter:TpccAccessModel.price_txn
db.adapter.latency_mc         repro.db.adapter:TpccAccessModel.txn_latency_percentiles
colo.arbiter.run              repro.colo.arbiter:DramArbiter.run
serve.arrivals.compile        repro.serve.fleet:compile_fleet
serve.monitor.run             repro.serve.monitor:FleetMonitor.run
serve.controller.run          repro.serve.controller:SloController.run
core.manager.observe          repro.core.base:TieredMemoryManager.observe
core.tracking.cool            repro.core.tracking:HotColdTracker.cool_if_stale
core.tracking.cool            repro.core.tracking:HotColdTracker._advance_clock
core.tracking.classify        repro.core.tracking:HotColdTracker._reclassify
sim.service.run               repro.sim.service:Service.run
"""

#: ``(span name, target)`` pairs in table order
SPANS = [tuple(line.split()) for line in _TABLE.strip().splitlines()]


def _wrap(fn, name: str, tree: SpanTree):
    enter = tree.enter
    leave = tree.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return span


def _owners(cls) -> list:
    """``cls`` and all of its subclasses, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_owners(sub))
    return out


def install(tree: SpanTree) -> List[tuple]:
    """Wrap every span target; returns the undo list for :func:`uninstall`.
    The experiment registry is imported first to load every subclass."""
    importlib.import_module("repro.bench.registry")
    undo: List[tuple] = []
    seen = set()
    for name, target in SPANS:
        module_name, _, qualname = target.partition(":")
        class_name, _, attr = qualname.rpartition(".")
        module = importlib.import_module(module_name)
        owners = [module] if not class_name else [
            owner for owner in _owners(getattr(module, class_name))
            if attr in vars(owner)
        ]
        for owner in owners:
            if (id(owner), attr) not in seen:
                seen.add((id(owner), attr))
                original = vars(owner)[attr]
                setattr(owner, attr, _wrap(original, name, tree))
                undo.append((owner, attr, original))
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _calibrate(n: int = 2000) -> float:
    """Seconds a wrapped call costs over a plain one (best of 5)."""

    def plain():
        pass

    wrapped = _wrap(plain, "calibrate", SpanTree())
    best = [min(repeat(fn, number=n, repeat=5)) for fn in (wrapped, plain)]
    return max(best[0] - best[1], 0.0) / n


def overhead_frac(wall_s: float, overhead_s: float) -> float:
    """Wrapper cost relative to the time the work took without it."""
    rest = wall_s - overhead_s
    return overhead_s / rest if rest > 0 else 0.0


def summarize(rows: List[dict]) -> Tuple[dict, List[str]]:
    """Fold :meth:`Profile.row` rows into an aggregate (runs, ticks, wall
    and wrapper seconds, ``trace.overhead_frac``, calls and self seconds
    per :data:`SPANS` name) and collapsed-stack lines (``path self_us``)."""
    tree = SpanTree()
    wall = overhead = 0.0
    for row in rows:
        wall += row["wall_s"]
        overhead += row["overhead_s"]
        for path, node in row["spans"].items():
            old = tree.nodes.get(path, (0, 0.0, 0.0))
            tree.nodes[path] = [a + b for a, b in zip(old, node)]
    by_name = dict.fromkeys((name for name, _ in SPANS), (0, 0.0))
    by_name.update(tree.by_name())
    collapsed = [f"{path} {micros}" for path, (_, total, child)
                 in sorted(tree.nodes.items())
                 if (micros := int((total - child) * 1e6)) > 0]
    return {
        "runs": len(rows),
        "ticks": by_name["sim.engine.tick"][0],
        "wall_s": wall,
        "overhead_s": overhead,
        "trace.overhead_frac": overhead_frac(wall, overhead),
        "self_s": {name: secs for name, (_, secs) in by_name.items()},
        "calls": {name: calls for name, (calls, _) in by_name.items()},
    }, collapsed


#: the outermost open :class:`Profile` (None: nothing is wrapped)
_active: Optional["Profile"] = None


class Profile:
    """A scope with the span wrappers installed (``wall_s`` set on exit).
    The outermost scope calibrates, installs and uninstalls; a nested one
    shares its tree, calibration and start time."""

    def __enter__(self) -> "Profile":
        global _active
        if _active is not None:
            self.tree, self.per_call_s = _active.tree, _active.per_call_s
            self._t0, self._undo = _active._t0, None
            return self
        self.tree = SpanTree()
        self.per_call_s = _calibrate()
        self._undo = install(self.tree)
        _active = self
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _active
        self.wall_s = perf_counter() - self._t0
        if self._undo is not None:
            uninstall(self._undo)
            _active = None

    def row(self) -> dict:
        """JSON-able span tree: ``;``-joined path -> ``[calls, total s,
        child s]``, plus wall and estimated wrapper seconds."""
        calls = sum(node[0] for node in self.tree.nodes.values())
        overhead = calls * self.per_call_s
        return {
            "wall_s": self.wall_s,
            "overhead_s": overhead,
            "trace.overhead_frac": overhead_frac(self.wall_s, overhead),
            "spans": {path: list(node)
                      for path, node in sorted(self.tree.nodes.items())},
        }

    def report(self, label: str) -> str:
        """Self time per span, largest first, then time outside spans."""
        agg, _ = summarize([self.row()])
        self_s, calls = agg["self_s"], agg["calls"]
        lines = [f"[profile] {label}: {agg['wall_s']:.3f}s wall, "
                 f"{agg['ticks']} ticks, ~{agg['trace.overhead_frac']:.1%} "
                 "span overhead"]
        for name in sorted(self_s, key=self_s.get, reverse=True):
            if calls[name]:
                lines.append(f"[profile]   {name:<30} {self_s[name]:8.3f}s "
                             f"{calls[name]:>10} calls")
        outside = agg["wall_s"] - sum(self_s.values())
        lines.append(f"[profile]   {'(outside spans)':<30} {outside:8.3f}s")
        return "\n".join(lines)
