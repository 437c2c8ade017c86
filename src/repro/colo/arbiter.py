"""The global DRAM arbiter: one service enforcing cross-tenant quotas.

Every period the arbiter (1) refreshes each tenant's demand EWMA from
its tracker's hot-set size, (2) asks the configured sharing policy for
fresh quotas, (3) rewrites the tenants' :class:`TenantDax` quotas, and
(4) demotes pages of tenants still over their (shrunk) quota — reusing
the per-manager victim-selection rule and the transactional migration
path, so cross-tenant eviction can never leak or double-free a DAX page
even if copies fail mid-flight.

The arbiter charges no CPU: it models kernel bookkeeping folded into the
managers' own threads, and the decisions it makes are a few hundred
integer operations per activation.
"""

from __future__ import annotations

from repro.colo.policies import SharingPolicy, TenantShare
from repro.core.placement import pick_demotion_victim
from repro.mem.page import Tier
from repro.obs.events import QuotaUpdated, TenantEvicted
from repro.sim.service import Service


class DramArbiter(Service):
    """Periodic quota recomputation + over-quota eviction."""

    def __init__(
        self,
        colo,
        policy: SharingPolicy,
        period: float = 0.1,
        ewma_alpha: float = 0.3,
        max_evictions_per_pass: int = 64,
    ):
        super().__init__("colo_arbiter", period=period)
        self.colo = colo
        self.policy = policy
        self.ewma_alpha = ewma_alpha
        self.max_evictions_per_pass = max_evictions_per_pass
        scoped = colo.machine.stats.scoped("colo")
        self._quota_updates = scoped.counter("quota_updates")
        self._evictions = scoped.counter("evicted_pages")
        self._series = {}

    def run(self, engine, now: float, dt: float) -> float:
        self.rebalance(now)
        return 0.0

    # -- one arbitration pass -------------------------------------------------
    def rebalance(self, now: float) -> None:
        colo = self.colo
        tenants = [t for t in colo.active_tenants() if t.dram_dax is not None]
        if not tenants:
            return
        total = colo.shared_dax[Tier.DRAM].n_pages
        shares = []
        for tenant in tenants:
            tenant.update_demand(self.ewma_alpha)
            shares.append(TenantShare(
                name=tenant.name,
                # The online SLO controller steers through these boosts;
                # they default to neutral (1.0 / 0) outside serving runs.
                weight=tenant.spec.weight * tenant.weight_boost,
                priority=tenant.spec.priority,
                floor_pages=min(
                    tenant.floor_pages(total) + tenant.floor_boost_pages,
                    total,
                ),
                demand_pages=tenant.demand_pages,
            ))
        quotas = self.policy.quotas(total, shares)
        tracer = colo.machine.tracer
        for tenant in tenants:
            quota = quotas.get(tenant.name, 0)
            dax = tenant.dram_dax
            if quota != dax.quota_pages:
                grew = quota > dax.quota_pages
                dax.set_quota_pages(quota)
                self._quota_updates.add(1)
                if tracer is not None:
                    tracer.emit(QuotaUpdated(
                        now, tenant.name, quota * dax.page_size,
                        f"{self.policy.name}:{'grow' if grew else 'shrink'}",
                    ))
            evicted = self._evict_over_quota(tenant, now)
            if evicted:
                tenant.evicted_pages += evicted
                self._evictions.add(evicted)
                if tracer is not None:
                    tracer.emit(TenantEvicted(now, tenant.name, evicted))
            self._record(tenant, now)

    def _evict_over_quota(self, tenant, now: float) -> int:
        """Demote an over-quota tenant's DRAM pages (cold first, then the
        oldest hot ones, exactly the per-manager watermark rule)."""
        over = tenant.dram_dax.over_quota_pages
        if over <= 0:
            return 0
        manager = tenant.manager
        migrator = getattr(manager, "migrator", None)
        tracker = getattr(manager, "tracker", None)
        if migrator is None or tracker is None:
            return 0
        queue_limit = manager.config.migration_queue_limit
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        dram_hot = tracker.list_for(Tier.DRAM, hot=True)
        count = 0
        limit = min(over, self.max_evictions_per_pass)
        while count < limit and migrator.queued_bytes < queue_limit:
            victim = pick_demotion_victim(dram_cold, tracker)
            if victim < 0:
                victim = dram_hot.front_pid
            if victim < 0:
                break
            if not migrator.migrate(victim, Tier.NVM, now,
                                    reason="arbiter-evict"):
                break
            count += 1
        return count

    def _record(self, tenant, now: float) -> None:
        """Per-tenant time series (quota / residency / hot set)."""
        series = self._series.get(tenant.name)
        if series is None:
            stats = self.colo.machine.stats
            prefix = f"colo.{tenant.name}"
            series = (
                stats.series(f"{prefix}.quota_bytes"),
                stats.series(f"{prefix}.dram_bytes"),
                stats.series(f"{prefix}.hot_bytes"),
            )
            self._series[tenant.name] = series
        quota_s, dram_s, hot_s = series
        quota_s.record(now, float(tenant.dram_dax.quota_bytes))
        dram_s.record(now, float(tenant.dram_dax.used_pages
                                 * tenant.dram_dax.page_size))
        hot_s.record(now, float(tenant.hot_bytes()))
