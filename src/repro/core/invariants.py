"""Conservation laws of a run's page state, checkable after any run.

HeMem maps both tiers through DAX files and migrates pages asynchronously
(§3), so one page ledger must balance between any two ticks.  For each DAX
pool and tier:

- ``used + free == total``: the free list lost or duplicated no offset;
- ``used == mapped + in-flight + shadows``: every used page is a mapped
  page of one of the pool's managed regions, the destination reservation
  of a copy queued on a mover or waiting out its retry backoff, or (NVM
  only) the shadow copy a non-exclusive policy (Nomad) keeps for a
  DRAM-resident page;
- in a colocation fleet, the tenants' quota views sum to the shared use;
- every member tracker's structural laws hold
  (:meth:`~repro.core.tracking.HotColdTracker.violations`).

A standalone HeMem manager is a one-member pool over its own DAX files; a
:class:`~repro.colo.manager.ColoManager` is one pool over the shared
files whose members are its DAX-backed tenants.  Managers without DAX
files (memory mode, Nimble, the static baselines, the buffer pool) keep
no ledger, so :func:`violations` returns ``[]`` for them.

For tests and smoke checks; the simulation never calls it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.colo.manager import ColoManager
from repro.core.hemem import HeMemManager
from repro.mem.page import Tier


def violations(engine) -> List[str]:
    """Every broken law of ``engine``'s page state (``[]`` when sound)."""
    pool = _pool(engine.manager)
    if pool is None:
        return []
    shared, members = pool
    migrators = [manager.migrator for _label, manager in members]
    inflight = {Tier.DRAM: 0, Tier.NVM: 0}
    for mover in engine.machine.movers():
        for request in mover.queued_requests():
            # A shared DMA engine may also carry copies of managers
            # outside the pool (a Nimble tenant); count only ours.
            if getattr(request.on_complete, "__self__", None) in migrators:
                inflight[request.dst_tier] += 1
    for migrator in migrators:
        for request in migrator.retry_requests():
            inflight[request.dst_tier] += 1
    shadows = sum(manager.tracker.store.shadow_pages
                  for _label, manager in members)

    bad: List[str] = []
    for tier, dax in shared.items():
        used = dax.used_pages
        if used + dax.free_pages != dax.n_pages:
            bad.append(f"{tier.name}: used {used} + free {dax.free_pages} "
                       f"!= total {dax.n_pages}")
        mapped = sum(
            int(np.count_nonzero(region.mapped & (region.tier == tier)))
            for _label, manager in members
            for region in manager.managed_regions()
        )
        extra = shadows if tier == Tier.NVM else 0
        if used != mapped + inflight[tier] + extra:
            bad.append(f"{tier.name}: used {used} != mapped {mapped} + "
                       f"in-flight {inflight[tier]} + shadows {extra}")
        tenant_used = sum(manager.dax[tier].used_pages
                          for _label, manager in members)
        if tenant_used != used:
            bad.append(f"{tier.name}: tenant used sum {tenant_used} != "
                       f"shared used {used}")
    for label, manager in members:
        bad.extend(f"{label}{problem}"
                   for problem in manager.tracker.violations())
    return bad


def _pool(manager) -> Optional[Tuple[Dict, List[Tuple[str, HeMemManager]]]]:
    """``(shared DAX files, [(message prefix, member manager), ...])``."""
    if isinstance(manager, ColoManager):
        return manager.shared_dax, [
            (f"tenant {tenant.name}: ", tenant.manager)
            for tenant in manager.all_tenants() if tenant.dram_dax is not None
        ]
    if isinstance(manager, HeMemManager) and manager.dax:
        return manager.dax, [("", manager)]
    return None
