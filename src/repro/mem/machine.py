"""The composed machine: CPU + DRAM + NVM + PEBS + DMA + page tables + TLB.

One :class:`Machine` instance models the paper's evaluation platform — a
24-core Cascade Lake socket with 192 GB DDR4 and 768 GB Optane DC — and is
shared by the engine, the memory manager under test, and the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.mem.access import AccessStream, StreamResult, TierSplit
from repro.mem.devices import DeviceSpec, MemoryDevice, ddr4_spec, optane_spec
from repro.mem.dma import CopyEngine, DmaEngine, DmaSpec
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.pagetable import PageTable, PageTableSpec
from repro.mem.pebs import PebsSpec, PebsUnit
from repro.mem.perf import PerfModel
from repro.mem.region import Region, RegionKind
from repro.mem.tlb import TlbModel, TlbSpec
from repro.obs.runtime import on_machine_created
from repro.sim.cpu import Cpu
from repro.sim.rng import make_rng
from repro.sim.stats import StatsRegistry
from repro.sim.units import GB


@dataclass(frozen=True)
class MachineSpec:
    """Static description of the simulated platform.

    ``scale`` shrinks memory *capacities* (not bandwidth or latency) so big
    experiments run with tractable page counts; workload scenario sizes must
    be divided by the same factor.  Ratios (working set : DRAM) — which all
    of the paper's results are expressed against — are preserved; absolute
    time constants (migration, detection) shrink by the same factor.
    """

    n_cores: int = 24
    dram_capacity: int = 192 * GB
    nvm_capacity: int = 768 * GB
    dram: DeviceSpec = field(default_factory=ddr4_spec)
    nvm: DeviceSpec = field(default_factory=optane_spec)
    pebs: PebsSpec = field(default_factory=PebsSpec)
    #: override for the PEBS period fidelity scale (defaults to ``scale``;
    #: the Fig 10 sensitivity sweep pins it to 1.0 so the sweep covers the
    #: paper's raw period axis, including the buffer-overflow regime)
    pebs_period_scale: Optional[float] = None
    dma: DmaSpec = field(default_factory=DmaSpec)
    tlb: TlbSpec = field(default_factory=TlbSpec)
    pagetable: PageTableSpec = field(default_factory=PageTableSpec)
    page_size: int = HUGE_PAGE
    scale: float = 1.0

    def scaled(self, factor: float) -> "MachineSpec":
        """Return a copy with capacities divided by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        page = self.page_size

        def shrink(nbytes: int) -> int:
            scaled_bytes = int(nbytes / factor)
            return max(page, (scaled_bytes // page) * page)

        return replace(
            self,
            dram_capacity=shrink(self.dram_capacity),
            nvm_capacity=shrink(self.nvm_capacity),
            scale=self.scale * factor,
        )


#: shared empty reservation map for ticks with no migration traffic; owned
#: by :meth:`Machine.resolve`, which guarantees it is never mutated.
_NO_RESERVED_BW: Dict[Tuple[Tier, str], float] = {}


class Machine:
    """Mutable machine state for one simulation run."""

    def __init__(self, spec: Optional[MachineSpec] = None, seed: int = 42):
        self.spec = spec or MachineSpec()
        self.seed = seed
        self.stats = StatsRegistry()
        self.cpu = Cpu(self.spec.n_cores)
        self.dram = MemoryDevice(self.spec.dram, self.spec.dram_capacity, Tier.DRAM, self.stats)
        self.nvm = MemoryDevice(self.spec.nvm, self.spec.nvm_capacity, Tier.NVM, self.stats)
        self.devices: Dict[Tier, MemoryDevice] = {Tier.DRAM: self.dram, Tier.NVM: self.nvm}
        self.perf = PerfModel(self.devices)
        period_scale = (
            self.spec.pebs_period_scale
            if self.spec.pebs_period_scale is not None
            else self.spec.scale
        )
        self.pebs = PebsUnit(
            self.spec.pebs, self.stats, make_rng(seed, "pebs"),
            period_scale=period_scale,
        )
        self.dma = DmaEngine(self.spec.dma, self.stats)
        self.pagetable = PageTable(self.spec.pagetable, make_rng(seed, "pagetable"))
        self.tlb = TlbModel(self.spec.tlb)
        self.engine = None
        self._movers: List[CopyEngine] = [self.dma]
        self._interference = 0.0
        self._next_va = 0x0000_6000_0000_0000
        self.regions: List[Region] = []
        #: observability hooks; None unless installed before the engine is
        #: built (see repro.obs) — every emit site is then a no-op check.
        self.tracer = None
        self.metrics = None
        #: fault-injection plan; None (the default) leaves every component
        #: on the happy path with zero added work per tick.
        self.fault_plan = None
        #: colocation hook: when installed (repro.colo), computes per-stream
        #: rate factors splitting device bandwidth across tenants.  None (the
        #: default) keeps resolution byte-identical to the single-app model.
        self.bw_partitioner = None
        on_machine_created(self)

    # -- wiring ---------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        self.engine = engine

    def install_tracer(self, tracer) -> None:
        """Install an event tracer (must precede engine construction, since
        components cache the tracer reference when they are wired up)."""
        if self.engine is not None:
            raise RuntimeError("install the tracer before building the engine")
        self.tracer = tracer
        self.pebs.tracer = tracer
        for mover in self._movers:
            mover.tracer = tracer

    def install_faults(self, plan) -> None:
        """Install a :class:`repro.faults.FaultPlan` (must precede engine
        construction — the engine instantiates the injector service while
        wiring itself up)."""
        if self.engine is not None:
            raise RuntimeError("install the fault plan before building the engine")
        self.fault_plan = plan

    def register_mover(self, mover: CopyEngine) -> CopyEngine:
        """Add an alternative data mover (e.g. copy threads) to the tick loop."""
        if mover not in self._movers:
            mover.tracer = self.tracer
            self._movers.append(mover)
        return mover

    def movers(self) -> List[CopyEngine]:
        """All registered data movers (the DMA engine plus any copy threads)."""
        return list(self._movers)

    # -- address space ---------------------------------------------------------
    def make_region(
        self,
        size: int,
        page_size: Optional[int] = None,
        kind: RegionKind = RegionKind.HEAP,
        name: str = "",
    ) -> Region:
        """Carve a fresh virtual range (the mmap backing primitive)."""
        page = page_size or self.spec.page_size
        if size % page != 0:
            size = (size // page + 1) * page
        region = Region(self._next_va, size, page_size=page, kind=kind, name=name)
        self._next_va = region.end + page  # guard gap
        self.regions.append(region)
        return region

    def release_region(self, region: Region) -> None:
        """Forget a fully unmapped region (tenant departure reclaim).

        The caller must have freed the region's backing first (munmap);
        dropping it here keeps occupancy metrics and page-table scans from
        accounting departed tenants' address space forever.
        """
        if region.mapped.any():
            raise ValueError(f"cannot release {region.name}: pages still mapped")
        try:
            self.regions.remove(region)
        except ValueError:
            pass

    # -- interference (TLB shootdowns, faults) ---------------------------------
    def add_interference(self, core_seconds: float) -> None:
        """Charge application-visible stall time (spread over this tick)."""
        if core_seconds < 0:
            raise ValueError(f"negative interference: {core_seconds}")
        self._interference += core_seconds

    # -- tick resolution ---------------------------------------------------------
    def resolve(
        self,
        streams: List[AccessStream],
        splits: List[TierSplit],
        speed_factor: float,
        dt: float,
    ) -> List[StreamResult]:
        app_threads = sum(s.threads for s in streams)
        if app_threads > 0 and self._interference > 0:
            # Interference (TLB shootdowns, fault stalls) steals app thread
            # time; anything beyond this tick's budget carries over so a
            # burst charged at scan completion is paid in full.
            budget = app_threads * dt
            lost = min(self._interference, budget)
            speed_factor *= 1.0 - lost / budget
            self._interference -= lost

        # Steady-state ticks (no migration traffic) share one empty dict:
        # every consumer only reads from ``reserved``, and the shared
        # instance is only ever passed along, never mutated.
        reserved: Dict[Tuple[Tier, str], float] = _NO_RESERVED_BW
        for mover in self._movers:
            if mover.moved_last_tick:
                if reserved is _NO_RESERVED_BW:
                    reserved = {}
                for key, bw in mover.last_tick_bw().items():
                    reserved[key] = reserved.get(key, 0.0) + bw

        factors = None
        if self.bw_partitioner is not None:
            factors = self.bw_partitioner.stream_factors(
                streams, splits, speed_factor, self.perf, reserved
            )
        results = self.perf.resolve(
            streams, splits, speed_factor, dt, reserved, factors=factors
        )

        dram_traffic = self.dram.record_traffic
        nvm_traffic = self.nvm.record_traffic
        for stream, result in zip(streams, results):
            dram_traffic(result.dram_read_bytes, result.dram_write_bytes)
            nvm_traffic(result.nvm_read_bytes, result.nvm_write_bytes)
            # Ground truth for page-table access/dirty bits.  Reads and
            # writes may follow different per-page distributions.
            reads = result.ops * stream.reads_per_op
            writes = result.ops * stream.writes_per_op
            if stream.write_weights is None:
                stream.region.accumulate(stream.weights, reads, writes)
            else:
                stream.region.accumulate(stream.weights, reads, 0.0)
                stream.region.accumulate(stream.write_weights, 0.0, writes)
        return results

    def begin_tick(self, now: float, dt: float) -> None:
        """Advance data movers and charge their CPU before the app runs.

        Running the movers at tick start means the bandwidth they consumed
        (``last_tick_bw``) and the cores copy threads burned are both visible
        to this tick's application throughput resolution.
        """
        for mover in self._movers:
            mover.advance(now, dt, devices=self.devices)
            if mover.cpu_cost_last_tick:
                self.cpu.consume(mover.cpu_cost_last_tick)

    def end_tick(self, now: float, dt: float) -> None:
        """Hook for end-of-tick hardware bookkeeping (currently none)."""

    def __repr__(self) -> str:
        return (
            f"Machine(cores={self.spec.n_cores}, dram={self.spec.dram_capacity}, "
            f"nvm={self.spec.nvm_capacity}, scale={self.spec.scale})"
        )
