"""HeMem's bulk prefault against the page-at-a-time loop it replaced.

``reference_prefault`` is the old per-page path, kept here as an oracle:
one ``alloc_page`` per page, one resolved fault per page, one tracker
push per page.  Each case builds two identical engines, faults the same
region in with the bulk path on one and the oracle on the other, and
compares everything a prefault writes.
"""

import numpy as np
import pytest

from repro.colo import ColoConfig, ColoManager, ColoWorkload, TenantSpec
from repro.core.hemem import HeMemManager
from repro.core.invariants import violations
from repro.core.pagestore import TRACKED
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import HUGE_PAGE, Tier
from repro.obs.events import PageFault
from repro.obs.replay import Trace
from repro.obs.trace import Tracer
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB

from tests.conftest import IdleWorkload

SCALE = 64  # DRAM 3 GB, NVM 12 GB


def reference_prefault(manager, region, pages=None):
    """The per-page prefault loop (all unmapped pages, or ``pages``)."""
    offsets = manager.offsets(region)
    dram = manager.dax[Tier.DRAM]
    nvm = manager.dax[Tier.NVM]
    watermark_pages = manager.config.dram_free_watermark // region.page_size
    store = manager.tracker.store
    for page in (range(region.n_pages) if pages is None else pages):
        if region.mapped[page]:
            continue
        if region.pinned_tier is not None:
            tier = region.pinned_tier
            reason = "pinned"
        elif dram.free_pages > watermark_pages:
            tier = Tier.DRAM
            reason = "dram-free"
        else:
            tier = Tier.NVM
            reason = "nvm-watermark"
        dax = dram if tier == Tier.DRAM else nvm
        offsets[page] = dax.alloc_page()
        region.tier[page] = tier
        region.tier_version += 1
        region.mapped[page] = True
        manager.uffd.resolve_missing(region, ((np.array([page]), reason),))
        if region.pinned_tier is None:
            pid = store.bind_region(region) + page
            if not store.flags[pid] & TRACKED:
                manager.tracker._track_pid(pid, region, page)


def _machine():
    machine = Machine(MachineSpec().scaled(SCALE), seed=7)
    machine.install_tracer(Tracer())
    return machine


def hemem_engine():
    manager = HeMemManager()
    engine = Engine(_machine(), manager, IdleWorkload(),
                    EngineConfig(tick=0.01, seed=7))
    return engine, manager


class IdleTenant(IdleWorkload):
    measure_start = 0.0


def colo_engine():
    """Tenant ``a``'s HeMem manager on quota-scoped ``TenantDax`` views."""
    colo = ColoManager([TenantSpec("a", IdleTenant()),
                        TenantSpec("b", IdleTenant(), weight=3.0)],
                       ColoConfig(policy="fair"))
    engine = Engine(_machine(), colo, ColoWorkload(),
                    EngineConfig(tick=0.01, seed=7))
    return engine, colo.tenants["a"].manager


def _dax_state(dax):
    shared = getattr(dax, "shared", dax)
    return dax.used_pages, dax.free_pages, list(shared._free)


def snapshot(engine, manager, region):
    """Everything a prefault writes, in comparable form."""
    store = manager.tracker.store
    fifos = {fifo.name: [(store.region_ref[pid].name, store.page_no[pid])
                         for pid in fifo]
             for fifo in store.fifos}
    missing = {name: value
               for name, value in engine.machine.stats.counters().items()
               if name.endswith("uffd.missing_faults")}
    trace = Trace.from_tracer(engine.machine.tracer)
    faults = [(e.region, e.page, e.tier, e.reason)
              for e in trace.of_kind(PageFault)]
    return {
        "offsets": manager.offsets(region).tolist(),
        "tier": region.tier.tolist(),
        "tier_version": region.tier_version,
        "mapped": region.mapped.tolist(),
        "dax": {tier: _dax_state(manager.dax[tier])
                for tier in (Tier.DRAM, Tier.NVM)},
        "fifos": fifos,
        "tracked": len(manager.tracker),
        "missing": missing,
        "faults": faults,
    }


def compare(make_engine, arrange):
    """Run ``arrange(manager) -> (region, pages_before)`` on two engines,
    prefault with bulk and with the oracle; both must agree."""
    states = []
    for prefault in ("bulk", "reference"):
        engine, manager = make_engine()
        region, before = arrange(manager)
        if before is not None:
            reference_prefault(manager, region, pages=before)
        if prefault == "bulk":
            manager.prefault(region)
        else:
            reference_prefault(manager, region)
        assert region.mapped.all()
        assert violations(engine) == []
        states.append(snapshot(engine, manager, region))
    bulk, reference = states
    for key in reference:
        assert bulk[key] == reference[key], key
    return bulk


class TestBulkPrefaultMatchesReference:
    def test_unpinned_crosses_the_watermark(self):
        def arrange(manager):
            small = manager.mmap(1 * GB, name="small")
            manager.prefault(small)
            return manager.mmap(4 * GB, name="big"), None

        state = compare(hemem_engine, arrange)
        reasons = {reason for *_, reason in state["faults"]}
        assert {"dram-free", "nvm-watermark"} <= reasons
        tiers = set(state["tier"])
        assert tiers == {int(Tier.DRAM), int(Tier.NVM)}

    @pytest.mark.parametrize("tier", [Tier.DRAM, Tier.NVM])
    def test_pinned(self, tier):
        def arrange(manager):
            return manager.mmap(1 * GB, name="pinned", pinned_tier=tier), None

        state = compare(hemem_engine, arrange)
        assert set(state["tier"]) == {int(tier)}
        assert state["tracked"] == 0  # pinned pages are never candidates
        assert {reason for *_, reason in state["faults"]} == {"pinned"}

    def test_partly_mapped_region(self):
        def arrange(manager):
            region = manager.mmap(4 * GB, name="big")
            return region, [0, 5, 6, 17, region.n_pages - 1]

        state = compare(hemem_engine, arrange)
        assert state["tracked"] == len(state["mapped"])

    def test_colo_tenant_on_quota_bound_dax(self):
        def arrange(manager):
            dram = manager.dax[Tier.DRAM]
            watermark = manager.config.dram_free_watermark // HUGE_PAGE
            dram.set_quota_pages(dram.used_pages + watermark + 200)
            assert dram.free_pages < dram.shared.free_pages  # quota binds
            return manager.mmap(1 * GB, name="data"), None

        state = compare(colo_engine, arrange)
        assert state["tier"].count(int(Tier.DRAM)) == 200
        assert state["tier"].count(int(Tier.NVM)) == 512 - 200


class TestBulkPrefault:
    def test_mapped_region_is_a_no_op(self):
        engine, manager = hemem_engine()
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        before = snapshot(engine, manager, region)
        manager.prefault(region)
        assert snapshot(engine, manager, region) == before

    def test_untraced_run_counts_faults(self):
        manager = HeMemManager()
        engine = Engine(Machine(MachineSpec().scaled(SCALE), seed=7), manager,
                        IdleWorkload(), EngineConfig(tick=0.01, seed=7))
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        counters = engine.machine.stats.counters()
        assert counters["hemem.uffd.missing_faults"] == region.n_pages
        assert np.array_equal(np.sort(manager.offsets(region)),
                              np.arange(region.n_pages))
