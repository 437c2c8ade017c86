"""The assembled HeMem manager.

Wires the allocation policy, tracker, access source (PEBS or page-table
scanning), migrator and policy thread together behind the
:class:`~repro.core.base.TieredMemoryManager` interface.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.alloc import AllocationPolicy
from repro.core.base import TieredMemoryManager
from repro.core.config import HeMemConfig
from repro.core.migrate import Migrator
from repro.core.policy import PolicyService
from repro.core.sources import AccessSource, PebsSource, PtScanSource, SpinningService
from repro.core.tracking import HotColdTracker
from repro.kernel.dax import DaxFile
from repro.kernel.fault import FaultCostModel
from repro.kernel.userfaultfd import UserFaultFd
from repro.mem.dma import ThreadCopyEngine
from repro.mem.page import Tier
from repro.mem.region import Region, RegionKind
from repro.sim.rng import make_rng


class HeMemManager(TieredMemoryManager):
    """HeMem: user-level tiered memory management via PEBS + userfaultfd."""

    name = "hemem"

    def __init__(
        self,
        config: Optional[HeMemConfig] = None,
        source_factory: Optional[Callable[["HeMemManager"], AccessSource]] = None,
        name: Optional[str] = None,
        policy=None,
    ):
        super().__init__()
        self.config = config or HeMemConfig()
        self._source_factory = source_factory
        #: placement-policy override: a registry name, a PlacementPolicy
        #: subclass, or any ``manager -> policy`` callable.  None defers
        #: to ``config.policy`` (default "hemem").
        self._policy_override = policy
        if name is not None:
            self.name = name
        # populated in _on_attach
        self.dax: Dict[Tier, DaxFile] = {}
        self.uffd: Optional[UserFaultFd] = None
        self.tracker: Optional[HotColdTracker] = None
        self.source: Optional[AccessSource] = None
        self.migrator: Optional[Migrator] = None
        self.fault_costs = FaultCostModel()
        self._managed: List[Region] = []
        self._offsets: Dict[int, np.ndarray] = {}
        #: colocation hooks, set *before* attach: ``dax_override`` replaces
        #: the full-capacity per-tier DAX files with quota-scoped views, and
        #: ``pebs_unit`` gives this manager its own sampling unit instead of
        #: the machine-global one.  Both stay None in single-manager runs.
        self.dax_override: Optional[Dict[Tier, DaxFile]] = None
        self.pebs_unit = None
        #: services this manager registered on the engine (so a colocation
        #: layer can unregister them when the tenant departs)
        self.services: List = []

    # -- wiring ---------------------------------------------------------------
    def _on_attach(self) -> None:
        machine = self.machine
        if machine.spec.scale != 1.0:
            # Configs are always written at paper scale; byte-sized knobs
            # (watermark, manage threshold, queue bound) shrink with the
            # machine's capacities.
            self.config = self.config.scaled(machine.spec.scale)
        page = machine.spec.page_size
        if self.dax_override is not None:
            self.dax = dict(self.dax_override)
        else:
            self.dax = {
                Tier.DRAM: DaxFile(Tier.DRAM, machine.spec.dram_capacity, page),
                Tier.NVM: DaxFile(Tier.NVM, machine.spec.nvm_capacity, page),
            }
        # Every manager-owned component registers its stats under the
        # manager's name, so two managers on one machine cannot collide.
        scoped = machine.stats.scoped(self.name)
        self.uffd = UserFaultFd(scoped, tracer=machine.tracer)
        self.tracker = HotColdTracker(self.config, scoped, tracer=machine.tracer)

        if self.config.use_dma:
            mover = machine.dma
            mover.max_rate = self.config.migration_max_rate
        else:
            mover = ThreadCopyEngine(
                scoped,
                n_threads=self.config.copy_threads,
                max_rate=self.config.migration_max_rate,
            )
            machine.register_mover(mover)
        self.migrator = Migrator(
            mover, self.dax, self.tracker, machine, self.fault_costs,
            stats=scoped,
        )

        if self._source_factory is not None:
            self.source = self._source_factory(self)
        elif self.pebs_unit is not None:
            # Per-tenant PEBS unit: the sampler RNG must also be tenant-named
            # or every tenant would draw the identical page sequence.
            self.source = PebsSource(
                self, make_rng(machine.seed, "pebs_source", self.name)
            )
        else:
            self.source = PebsSource(self, make_rng(machine.seed, "pebs_source"))

        self.alloc_policy = AllocationPolicy(self.config)
        self.syscalls.set_interceptor(self._intercept_mmap)

        for service in self.source.services():
            self._register_service(service)
        self._register_service(self._make_policy_service())
        # Dedicated page-fault and cooling threads (each burns a core;
        # cf. §5.1 "enables the policy and cooling threads" and Fig 7).
        self._register_service(SpinningService("hemem_fault"))
        self._register_service(SpinningService("hemem_cooling"))

    def _make_policy_service(self) -> PolicyService:
        """Build the policy thread (hook: the legacy differential oracle
        substitutes the frozen pre-zoo service here without perturbing
        service registration order)."""
        return PolicyService(self, policy=self._policy_override)

    @property
    def policy(self):
        """The bound :class:`~repro.core.placement.PlacementPolicy`
        (None before attach)."""
        for service in self.services:
            if isinstance(service, PolicyService):
                return service.policy
        return None

    def _register_service(self, service) -> None:
        self.services.append(service)
        self.engine.add_service(service)

    # -- allocation -------------------------------------------------------------
    def _intercept_mmap(self, size: int, name: str) -> Optional[Region]:
        if not self.alloc_policy.should_manage(size, name):
            return None
        return self._make_managed_region(size, name)

    def _make_managed_region(self, size: int, name: str,
                             pinned_tier: Optional[Tier] = None) -> Region:
        region = self.machine.make_region(size, kind=RegionKind.HEAP, name=name)
        region.managed = True
        region.pinned_tier = pinned_tier
        self.uffd.register(region)
        self._managed.append(region)
        self._offsets[region.region_id] = np.full(region.n_pages, -1, dtype=np.int64)
        self.migrator.bind_offsets(region.region_id, self._offsets[region.region_id])
        return region

    def mmap(self, size: int, name: str = "", pinned_tier: Optional[Tier] = None) -> Region:
        if pinned_tier is not None:
            # Priority instances bypass the size policy: the user asked for
            # this data to live in a specific tier (§5.2.2).
            region = self._make_managed_region(size, name, pinned_tier)
            self.syscalls.address_space.insert(region)
            return region
        return self.syscalls.mmap(size, name)

    def munmap(self, region: Region) -> None:
        if region in self._managed:
            offsets = self._offsets.pop(region.region_id)
            for page in range(region.n_pages):
                if offsets[page] >= 0:
                    tier = Tier(region.tier[page])
                    self.dax[tier].free_page(int(offsets[page]))
            store = self.tracker.store
            if store.shadow_pages:
                # Non-exclusive tiering: shadow copies are NVM pages too.
                base = store.base_of(region)
                if base is not None:
                    for pid in range(base, base + region.n_pages):
                        if store.shadow[pid] >= 0:
                            self.dax[Tier.NVM].free_page(
                                int(store.clear_shadow(pid))
                            )
            # Single pass over the region's pid block (recycled for the
            # next region of the same size).
            self.tracker.untrack_region(region)
            self.uffd.unregister(region)
            self._managed.remove(region)
        super().munmap(region)

    def prefault(self, region: Region, now: float = 0.0) -> None:
        """Fault in every unmapped page, DRAM-first (§3.3), and start
        tracking it.

        Every DRAM allocation lowers ``free_pages`` by one (a tenant's
        quota view too), so a page-at-a-time walk puts the first
        ``free_pages - watermark`` unmapped pages in DRAM and the rest in
        NVM; the region is placed in that one split.  Each tier's offsets
        come from one ``alloc_pages`` call, in ``alloc_page`` order, NVM
        first: only it can fail for an unpinned region, and then nothing
        has been allocated yet.
        """
        if not region.managed or region not in self._managed:
            region.mapped[:] = True
            return
        pages = np.flatnonzero(~region.mapped)
        n = len(pages)
        if n == 0:
            return
        dram = self.dax[Tier.DRAM]
        pinned = region.pinned_tier
        if pinned is not None:
            n_dram = n if pinned == Tier.DRAM else 0
        else:
            watermark_pages = self.config.dram_free_watermark // region.page_size
            n_dram = min(n, max(dram.free_pages - watermark_pages, 0))
        to_dram, to_nvm = pages[:n_dram], pages[n_dram:]
        offsets = self._offsets[region.region_id]
        offsets[to_nvm] = self.dax[Tier.NVM].alloc_pages(n - n_dram)
        offsets[to_dram] = dram.alloc_pages(n_dram)
        region.tier[to_dram] = Tier.DRAM
        region.tier[to_nvm] = Tier.NVM
        region.tier_version += n
        region.mapped[pages] = True
        # The page-fault thread resolves the missing faults; big-data apps
        # pre-fill, so resolution is immediate.
        if pinned is not None:
            self.uffd.resolve_missing(region, ((pages, "pinned"),))
        else:
            self.uffd.resolve_missing(region, ((to_dram, "dram-free"),
                                               (to_nvm, "nvm-watermark")))
            self.tracker.track_pages(region, pages)

    # -- engine callbacks ----------------------------------------------------------
    def observe(self, stream, split, result, now, dt) -> None:
        if stream.region.pinned_tier is not None:
            return  # pinned data is never a migration candidate
        self.source.on_traffic(stream, split, result, now, dt)

    # -- introspection -------------------------------------------------------------
    def managed_regions(self) -> Iterable[Region]:
        return list(self._managed)

    def dram_free_bytes(self) -> int:
        return self.dax[Tier.DRAM].free_bytes

    def offsets(self, region: Region) -> np.ndarray:
        return self._offsets[region.region_id]


def hemem_pt_async(config: Optional[HeMemConfig] = None,
                   scan_period: float = 0.1) -> HeMemManager:
    """HeMem with asynchronous page-table scanning instead of PEBS."""
    return HeMemManager(
        config=config,
        source_factory=lambda mgr: PtScanSource(mgr, scan_period=scan_period,
                                                sync_with_migration=False),
        name="hemem-pt-async",
    )


def hemem_pt_sync(config: Optional[HeMemConfig] = None,
                  scan_period: float = 0.1) -> HeMemManager:
    """HeMem with page-table scanning sharing the migration thread."""
    return HeMemManager(
        config=config,
        source_factory=lambda mgr: PtScanSource(mgr, scan_period=scan_period,
                                                sync_with_migration=True),
        name="hemem-pt-sync",
    )
