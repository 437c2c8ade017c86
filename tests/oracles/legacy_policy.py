"""The pre-refactor HeMem policy thread, frozen as a differential oracle.

This is the ``PolicyService`` exactly as it stood before the promotion/
demotion decision moved into the pluggable
:class:`repro.core.placement.PlacementPolicy` protocol.  Like
``legacy_tracking.py`` next to it, it is **not wired into anything**: it
exists so a property test can drive a full simulation through the frozen
loop and the new ``policy="hemem"`` path side by side and assert
bit-identical placement (see ``tests/properties/test_policy_differential.py``).

Do not "fix" or modernise this file — divergence from the original
behaviour is exactly what the differential test exists to catch.
"""

from __future__ import annotations

from repro.core.placement import pick_demotion_victim
from repro.mem.page import Tier
from repro.obs.events import PolicyPass
from repro.sim.service import Service


class LegacyPolicyService(Service):
    """HeMem's policy thread as one hard-wired loop (the pre-zoo shape)."""

    def __init__(self, manager):
        super().__init__("hemem_policy", period=0.0)
        self.manager = manager
        self._next_decision = 0.0

    def run(self, engine, now, dt) -> float:
        if now + 1e-12 >= self._next_decision:
            promoted, swap_demoted = self._promote(now)
            demoted = swap_demoted + self._enforce_watermark(now)
            self._next_decision = now + self.manager.config.policy_period
            tracer = engine.machine.tracer
            if tracer is not None and (promoted or demoted):
                tracer.emit(PolicyPass(now, promoted, demoted))
        return dt

    # -- promotion ------------------------------------------------------------
    def _promote(self, now: float) -> tuple:
        manager = self.manager
        config = manager.config
        tracker = manager.tracker
        migrator = manager.migrator
        store = tracker.store
        nvm_hot = tracker.list_for(Tier.NVM, hot=True)
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        dram_dax = manager.dax[Tier.DRAM]
        nvm_dax = manager.dax[Tier.NVM]
        promoted = 0
        demoted = 0
        while nvm_hot and migrator.queued_bytes < config.migration_queue_limit:
            pid = nvm_hot.front_pid
            tracker.cool_if_stale(pid)
            if store.list_id[pid] != nvm_hot.lid:
                continue
            have_free = (
                dram_dax.free_bytes - store.psize[pid] >= config.dram_free_watermark
            )
            if have_free:
                if not migrator.migrate(pid, Tier.DRAM, now,
                                        reason="promote-hot"):
                    break
                promoted += 1
                continue
            victim = self._pick_demotion_victim(dram_cold, tracker)
            if victim < 0:
                break
            if dram_dax.free_pages == 0 or nvm_dax.free_pages == 0:
                break
            if not migrator.migrate(victim, Tier.NVM, now,
                                    reason="demote-swap"):
                break
            demoted += 1
            if not migrator.migrate(pid, Tier.DRAM, now,
                                    reason="promote-swap"):
                break
            promoted += 1
        return promoted, demoted

    # -- watermark ------------------------------------------------------------
    def _enforce_watermark(self, now: float) -> int:
        manager = self.manager
        config = manager.config
        tracker = manager.tracker
        migrator = manager.migrator
        dram_dax = manager.dax[Tier.DRAM]
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        dram_hot = tracker.list_for(Tier.DRAM, hot=True)
        count = 0
        while (
            dram_dax.free_bytes < config.dram_free_watermark
            and migrator.queued_bytes < config.migration_queue_limit
        ):
            victim = self._pick_demotion_victim(dram_cold, tracker)
            reason = "demote-watermark"
            if victim < 0:
                victim = dram_hot.front_pid
                reason = "demote-watermark-hot"
            if victim < 0:
                break
            if not migrator.migrate(victim, Tier.NVM, now, reason=reason):
                break
            count += 1
        return count

    # -- helpers --------------------------------------------------------------
    _pick_demotion_victim = staticmethod(pick_demotion_victim)
