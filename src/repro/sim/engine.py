"""The tick engine gluing workload, manager, and machine together.

Per tick the engine:

1. charges due background services against the CPU budget,
2. asks the workload for its access mix (a set of :class:`AccessStream`s),
3. asks the memory manager where each stream's accesses land (DRAM vs NVM),
4. resolves achieved throughput against the hardware performance model,
5. feeds the resulting access observations back to the manager (PEBS
   samples, page-table access bits, or cache state depending on the manager),
6. advances the DMA engine, completing in-flight migrations,
7. records statistics.

The engine knows nothing about HeMem or any specific policy; managers and
workloads plug in through small protocols (duck-typed, documented here).

The tick loop holds no timing code: :mod:`repro.obs.spans` attributes
its time to the layers by wrapping their methods from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.events import ServiceRun
from repro.sim.clock import VirtualClock
from repro.sim.rng import make_rng
from repro.sim.service import Service
from repro.sim.stats import StatsRegistry


@dataclass
class EngineConfig:
    """Engine-level knobs.

    ``tick`` is the simulation quantum; HeMem's policy period is 10 ms so a
    10 ms tick aligns service activations with the paper.  ``seed`` feeds
    every stochastic component through named substreams.
    """

    tick: float = 0.01
    seed: int = 42
    max_duration: float = 3600.0
    warmup: float = 0.0

    def __post_init__(self):
        if self.tick <= 0:
            raise ValueError(f"tick must be positive: {self.tick}")
        if self.max_duration <= 0:
            raise ValueError(f"max_duration must be positive: {self.max_duration}")


class Engine:
    """Drives one simulation: a workload on a machine under one manager."""

    def __init__(self, machine, manager, workload, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.clock = VirtualClock()
        self.machine = machine
        self.manager = manager
        self.workload = workload
        self.stats: StatsRegistry = machine.stats
        # Insertion-ordered registry; membership and removal are O(1) so
        # managers registering many services never pay quadratic cost.
        # Services are hashed by identity (no Service.__eq__/__hash__).
        self._services: Dict[Service, None] = {}
        self.rng = make_rng(self.config.seed, "engine")
        self.last_app_threads = 0.0
        # Observability hooks (repro.obs).  Both stay None unless a capture
        # installed them on the machine before the engine was built, so the
        # per-tick guards below cost one attribute test each when disabled.
        self.tracer = machine.tracer
        self.metrics = machine.metrics
        self._splits_scratch: list = []
        self._series_ops = self.stats.series("app.ops_per_sec")
        self._series_util = self.stats.series("cpu.service_util")

        # Wire components together.  Order matters: the manager must be
        # attached (so mmap works) before the workload allocates memory.
        self.machine.attach_engine(self)
        if machine.fault_plan is not None:
            # Registered before the manager's services so injected state
            # changes are visible to every service in the same tick.  Local
            # import: repro.faults sits above the engine in the layering.
            from repro.faults.injector import FaultInjectorService

            self.fault_injector = self.add_service(
                FaultInjectorService(machine.fault_plan, machine,
                                     seed=self.config.seed)
            )
        else:
            self.fault_injector = None
        self.manager.attach(self.machine, self)
        self.workload.setup(self.manager, self.machine, make_rng(self.config.seed, "workload"))

    # -- service management -------------------------------------------------
    @property
    def services(self) -> List[Service]:
        """Registered services in insertion order (a fresh list)."""
        return list(self._services)

    def add_service(self, service: Service) -> Service:
        """Register a background service (idempotent per instance)."""
        self._services[service] = None
        return service

    def remove_service(self, service: Service) -> None:
        self._services.pop(service, None)

    # -- main loop ----------------------------------------------------------
    def run(self, duration: Optional[float] = None) -> dict:
        """Run for ``duration`` virtual seconds (or until workload finishes).

        Returns the workload's result dictionary augmented with engine-level
        aggregates.
        """
        end = self.clock.now + (duration if duration is not None else self.config.max_duration)
        step = self.step
        finished = self.workload.finished
        clock = self.clock
        while clock.now < end - 1e-12:
            step()
            if finished(clock.now):
                break
        result = dict(self.workload.result())
        result["elapsed"] = self.clock.now
        result["counters"] = self.stats.counters()
        if self.stats.histograms():
            result["histograms"] = self.stats.histograms()
        return result

    def step(self) -> None:
        """Advance the simulation by one tick."""
        now = self.clock.now
        dt = self.config.tick
        cpu = self.machine.cpu
        tracer = self.tracer
        if tracer is not None:
            # Refresh the tick-scoped trace clock once; every emit site deep
            # in the simulator reads ``tracer.now`` instead of threading the
            # timestamp through its call chain.
            tracer.now = now
        cpu.begin_tick(dt)

        # 0. Hardware background progress: DMA/copy-thread migrations move
        #    first so their bandwidth and CPU consumption shape this tick.
        self.machine.begin_tick(now, dt)

        # 1. Background services (manager threads, scanners, copy threads).
        #    Services must not register/unregister services mid-tick.
        for service in self._services:
            if service.due(now):
                wanted = service.run(self, now, dt)
                if wanted:
                    cpu.consume(wanted)
                service.mark_ran(now)
                if tracer is not None:
                    tracer.emit(ServiceRun(now, service.name, wanted))

        # 2. Application access streams for this tick.
        streams = self.workload.access_mix(now, dt)
        app_threads = sum(s.threads for s in streams)
        self.last_app_threads = app_threads
        speed = cpu.app_speed_factor(app_threads, dt) if app_threads else 0.0

        # 3. Where do accesses land?  The manager owns placement (for MM this
        #    is a cache-hit model, for the others true page placement).  The
        #    scratch list is reused across ticks (nothing retains it).
        splits = self._splits_scratch
        splits.clear()
        split_by_tier = self.manager.split_by_tier
        for s in streams:
            splits.append(split_by_tier(s, now))

        # 4. Resolve achieved throughput against the device models, leaving
        #    room for in-flight migration traffic.
        results = self.machine.resolve(streams, splits, speed, dt)

        # 5. Observations back to manager and workload.
        observe = self.manager.observe
        on_progress = self.workload.on_progress
        for stream, split, result in zip(streams, splits, results):
            observe(stream, split, result, now, dt)
            on_progress(stream, result, now, dt)

        # 6. Hardware background progress (DMA copies, etc.).
        self.machine.end_tick(now, dt)

        # 7. Bookkeeping.  The tick clock is monotonic by construction, so
        #    the append-only guard in TimeSeries.record is bypassed here.
        total_ops = 0.0
        for r in results:
            total_ops += r.ops
        series = self._series_ops
        series.times.append(now)
        series.values.append(total_ops / dt)
        series = self._series_util
        series.times.append(now)
        series.values.append(cpu.service_utilization)
        if self.metrics is not None:
            self.metrics.sample(now, dt)
        self.manager.end_tick(now, dt)

        self.clock.advance(dt)
