"""Access-information sources feeding HeMem's tracker.

HeMem proper uses PEBS sampling (:class:`PebsSource`).  The paper's
ablations replace it with page-table scanning, either on its own thread
(*PT Scan + M. Async*) or sharing the policy/migration thread
(*PT Scan + M. Sync*) — :class:`PtScanSource` implements both.

The central fidelity difference the paper measures: PEBS records carry
*frequency* information (every period-th access), while access bits are
*binary* per scan interval — over any non-trivial interval nearly every
page of a big working set gets touched at least once, so page-table
tracking systematically over-estimates the hot set, and clearing the bits
costs TLB shootdowns that stall the application.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from repro.mem.access import AccessStream, StreamResult, TierSplit
from repro.mem.page import Tier
from repro.mem.pebs import PebsEventKind
from repro.mem.sampling import WeightedSampler
from repro.obs.events import PebsDrain
from repro.sim.service import Service

# Enum members hoisted out of the per-tick feed path (class-level member
# access goes through the enum metaclass's ``__getattr__``).
_DRAM_READ = PebsEventKind.DRAM_READ
_NVM_READ = PebsEventKind.NVM_READ
_STORE = PebsEventKind.STORE
_DRAM = Tier.DRAM
_NVM = Tier.NVM


class AccessSource(ABC):
    """Strategy interface: turn achieved traffic into tracker updates."""

    def __init__(self, manager):
        self.manager = manager  # HeMemManager; provides tracker/machine

    @abstractmethod
    def services(self) -> List[Service]:
        """Background services this source needs registered."""

    def on_traffic(
        self,
        stream: AccessStream,
        split: TierSplit,
        result: StreamResult,
        now: float,
        dt: float,
    ) -> None:
        """Called for every stream each tick (default: nothing)."""


# ---------------------------------------------------------------------------
# PEBS sampling (HeMem proper)
# ---------------------------------------------------------------------------

class PebsSource(AccessSource):
    """Feeds the manager's PEBS unit and drains it on a dedicated service.

    Colocated tenants sample through their own PEBS unit (scoped stats,
    tenant-named RNG); single managers use the machine's.  The unit is
    resolved once, when the manager attaches and builds its source.
    """

    def __init__(self, manager, rng: np.random.Generator):
        super().__init__(manager)
        pebs = getattr(manager, "pebs_unit", None)
        self.pebs = pebs if pebs is not None else manager.machine.pebs
        self._sampler = WeightedSampler(rng)
        self._drain_service = _PebsDrainService(self)

    def services(self) -> List[Service]:
        return [self._drain_service]

    def on_traffic(self, stream, split, result, now, dt) -> None:
        region = stream.region
        if not region.managed:
            return
        pebs = self.pebs
        loads = result.ops * stream.reads_per_op
        stores = result.ops * stream.writes_per_op
        dram_loads = loads * split.dram_read_frac
        nvm_loads = loads - dram_loads
        # Most stream-ticks only add to a carry that stays below the
        # period: that is all ``feed`` would do for them, and it draws no
        # randomness, so do it here and call ``feed`` only when a record
        # is due (``feed`` repeats the same addition, bit for bit).
        carry = pebs.carry
        period = pebs.period
        if dram_loads > 0:
            total = carry[_DRAM_READ] + dram_loads
            if total < period:
                carry[_DRAM_READ] = total
            else:
                pebs.feed(_DRAM_READ, region, dram_loads, self._dram_pages, stream)
        if nvm_loads > 0:
            total = carry[_NVM_READ] + nvm_loads
            if total < period:
                carry[_NVM_READ] = total
            else:
                pebs.feed(_NVM_READ, region, nvm_loads, self._nvm_pages, stream)
        if stores > 0:
            total = carry[_STORE] + stores
            if total < period:
                carry[_STORE] = total
            else:
                pebs.feed(_STORE, region, stores, self._store_pages, stream)

    # -- samplers: ``(stream, n) -> pages`` ------------------------------------
    def _dram_pages(self, stream: AccessStream, n: int) -> List[int]:
        return self._tier_pages(stream, _DRAM, n)

    def _nvm_pages(self, stream: AccessStream, n: int) -> List[int]:
        return self._tier_pages(stream, _NVM, n)

    def _tier_pages(self, stream: AccessStream, tier: Tier, n: int) -> List[int]:
        """Draw up to ``n`` load pages conditioned on the serving tier.

        Rejection sampling against the unconditional distribution: the
        acceptance rate equals the tier fraction, and the number of records
        requested is proportional to the same fraction, so expected work per
        tick stays bounded.
        """
        region = stream.region
        region_tier = region.tier
        tier_value = int(tier)
        pages: List[int] = []
        attempts = 0
        while len(pages) < n and attempts < 8:
            want = (n - len(pages)) * 2 + 8
            draw = self._sampler.sample(region.n_pages, stream.weights, want)
            # Test only the drawn indices against the tier instead of
            # materialising a full per-page mask each call; the accepted
            # set (and therefore the RNG draw sequence) is unchanged.
            accepted = draw[region_tier[draw] == tier_value]
            pages += accepted[: n - len(pages)].tolist()
            attempts += 1
        return pages

    def _store_pages(self, stream: AccessStream, n: int) -> List[int]:
        region = stream.region
        weights = stream.write_weights if stream.write_weights is not None else stream.weights
        return self._sampler.sample(region.n_pages, weights, n).tolist()


class _PebsDrainService(Service):
    """HeMem's PEBS thread: a dedicated core polling the buffer.

    The real thread busy-reads the PEBS buffer in a loop, so it occupies a
    full core whether or not records arrive — the source of HeMem's thread
    contention at high application thread counts (Fig 7).
    """

    #: simulator shortcut: beyond this many applied records per tick the
    #: marginal sample is informationally redundant (every page is already
    #: sampled many times over), so the remainder is drained (freeing the
    #: buffer, like the real thread) without per-record tracker updates.
    APPLY_CAP_PER_TICK = 2000

    def __init__(self, source: PebsSource):
        super().__init__("pebs_drain", period=0.0)
        self.pebs = source.pebs
        self.tracker = source.manager.tracker
        # One thread can process at most dt / cost-per-record records.
        self._record_s = self.pebs.spec.drain_ns_per_record * 1e-9

    def run(self, engine, now, dt) -> float:
        pebs = self.pebs
        # Nothing buffered: draining and applying an empty batch change
        # nothing and emit no event; the thread still spins all tick.
        if not pebs.n_buffered:
            return dt
        batch = pebs.drain(int(dt / self._record_s))
        drained = len(batch)
        applied = min(drained, self.APPLY_CAP_PER_TICK)
        # Batched apply: one tracker call per tick, with trace events
        # accumulated and flushed in order (bit-identical goldens).
        self.tracker.record_samples(batch.head(applied))
        tracer = engine.machine.tracer
        if tracer is not None and drained:
            tracer.emit(PebsDrain(now, drained, applied))
        return dt  # busy-polling: the whole tick, records or not


class SpinningService(Service):
    """A dedicated thread that burns its core (fault/cooling threads)."""

    def __init__(self, name: str):
        super().__init__(name, period=0.0)

    def run(self, engine, now, dt) -> float:
        return dt


# ---------------------------------------------------------------------------
# Page-table scanning (HeMem-PT ablations)
# ---------------------------------------------------------------------------

class PtScanSource(AccessSource):
    """Access/dirty-bit scanning in place of PEBS.

    ``sync_with_migration=True`` models the *M. Sync* configuration: the
    scanner shares its thread with migration, so scans stall while copies
    are in flight, statistics go stale, and the hot set balloons.
    """

    def __init__(self, manager, scan_period: float = 0.1,
                 sync_with_migration: bool = False):
        super().__init__(manager)
        if scan_period <= 0:
            raise ValueError(f"scan period must be positive: {scan_period}")
        self.scan_period = scan_period
        self.sync_with_migration = sync_with_migration
        self._service = _PtScanService(self)
        self.scans_completed = 0

    def services(self) -> List[Service]:
        return [self._service]

    # the traffic ground truth accumulates on regions automatically; no
    # per-tick work is needed here.

    def apply_scan(self, now: float) -> int:
        """Read + clear access bits over all managed regions.

        Returns the number of pages whose bits were cleared (drives the TLB
        shootdown charge).
        """
        manager = self.manager
        tracker = manager.tracker
        machine = manager.machine
        cleared = 0
        fidelity = 1.0 / machine.spec.scale
        for region in manager.managed_regions():
            accessed, dirty = machine.pagetable.scan_bits(
                region, clear=True, fidelity=fidelity
            )
            touched = np.nonzero(accessed | dirty)[0]
            for page in touched:
                tracker.record_scan_hit(region, int(page), bool(accessed[page]), bool(dirty[page]))
            cleared += region.n_pages
        self.scans_completed += 1
        return cleared


class _PtScanService(Service):
    """Periodic scan thread; busy time follows the Fig-3 cost model."""

    def __init__(self, source: PtScanSource):
        super().__init__("pt_scan", period=0.0)
        self.source = source
        self._busy_remaining = 0.0
        self._next_scan_start = 0.0

    def run(self, engine, now, dt) -> float:
        manager = self.source.manager
        machine = engine.machine
        if self._busy_remaining <= 0:
            if now < self._next_scan_start:
                return 0.0
            if self.source.sync_with_migration and manager.migrator.busy:
                # Shared thread: migration in flight blocks scanning.
                return 0.0
            regions = list(manager.managed_regions())
            if not regions:
                return 0.0
            # On a capacity-scaled machine each region stands for scale x
            # as much real memory; the scanner walks the *logical* table.
            self._busy_remaining = (
                machine.pagetable.scan_time_regions(regions) * machine.spec.scale
            )
        busy = min(dt, self._busy_remaining)
        self._busy_remaining -= busy
        if self._busy_remaining <= 1e-12:
            self._busy_remaining = 0.0
            cleared = self.source.apply_scan(now)
            app_threads = getattr(engine, "last_app_threads", 0)
            # Shootdowns hit every logical page cleared (scale x modelled).
            logical_cleared = int(cleared * machine.spec.scale)
            stall = machine.tlb.shootdown_core_seconds(logical_cleared, app_threads)
            machine.add_interference(stall)
            self._next_scan_start = now + self.source.scan_period
        return busy
