"""Tests for the migrator and the policy thread."""

import pytest

from repro.core.config import HeMemConfig
from repro.core.hemem import HeMemManager
from repro.core.pagestore import UNDER_MIGRATION
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB

from tests.conftest import IdleWorkload, pages_in, sample

SCALE = 64


def make_setup(config=None, seed=3):
    manager = HeMemManager(config)
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    engine = Engine(machine, manager, IdleWorkload(), EngineConfig(tick=0.01, seed=seed))
    return engine, manager, machine


def drain_mover(engine, ticks=200):
    for _ in range(ticks):
        engine.step()
        if not engine.manager.migrator.busy:
            break


class TestMigrator:
    def test_promotion_roundtrip(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        nvm_pages = pages_in(region, Tier.NVM)
        assert len(nvm_pages) > 0
        page = int(nvm_pages[0])
        store = manager.tracker.store
        pid = manager.tracker.pid_of(region, page)
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        assert store.flags[pid] & UNDER_MIGRATION
        drain_mover(engine)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert not store.flags[pid] & UNDER_MIGRATION
        assert (store.list_id[pid]
                == manager.tracker.list_for(Tier.DRAM, hot=False).lid)
        assert manager.tracker.violations() == []

    def test_offsets_updated_and_recycled(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        page = int(pages_in(region, Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        nvm_free_before = manager.dax[Tier.NVM].free_pages
        manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        # Drain the mover directly so the policy thread cannot interleave
        # its own promotions/demotions into the accounting.
        for _ in range(100):
            machine.begin_tick(0.0, 0.01)
            if not manager.migrator.busy:
                break
        assert manager.dax[Tier.NVM].free_pages == nvm_free_before + 1

    def test_double_migration_rejected_gracefully(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        page = int(pages_in(region, Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        assert not manager.migrator.migrate(pid, Tier.DRAM, 0.0)

    def test_migrating_to_same_tier_rejected(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        pid = manager.tracker.pid_of(region, 0)  # in DRAM
        with pytest.raises(ValueError, match=r"big\[0\].*already in DRAM"):
            manager.migrator.migrate(pid, Tier.DRAM, 0.0)

    def test_migration_counted(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        page = int(pages_in(region, Tier.NVM)[0])
        manager.migrator.migrate(manager.tracker.pid_of(region, page), Tier.DRAM, 0.0)
        drain_mover(engine)
        assert machine.stats.counter("hemem.pages_promoted").value == 1


class TestPolicyThread:
    def _heat_nvm_pages(self, manager, region, n):
        """Mark the first n NVM pages write-hot via fake samples."""
        pages = pages_in(region, Tier.NVM)[:n]
        for page in pages:
            sample(manager.tracker, region, int(page), is_store=True, times=4)
        return pages

    def test_hot_nvm_pages_promoted(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        pages = self._heat_nvm_pages(manager, region, 8)
        for _ in range(100):
            engine.step()
        assert all(Tier(region.tier[int(p)]) is Tier.DRAM for p in pages)

    def test_promotion_stops_when_hot_exceeds_dram(self):
        """§3.3: if the hot set exceeds DRAM, HeMem does not migrate."""
        engine, manager, machine = make_setup()
        region = manager.mmap(10 * GB, name="big")
        manager.prefault(region)
        # Make *all* pages hot: DRAM has no cold page to swap against.
        for page in range(region.n_pages):
            sample(manager.tracker, region, page, is_store=True, times=4)
        moved_before = machine.stats.counter("hemem.pages_migrated").value
        for _ in range(50):
            engine.step()
        moved = machine.stats.counter("hemem.pages_migrated").value - moved_before
        # Only the watermark-sized free headroom can absorb promotions.
        watermark_pages = manager.config.dram_free_watermark // region.page_size
        assert moved <= watermark_pages + 1

    def test_watermark_restored_by_demotion(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        # Steal DRAM below the watermark by faking an allocation.
        dram = manager.dax[Tier.DRAM]
        grabbed = [dram.alloc_page() for _ in range(dram.free_pages)]
        assert manager.dram_free_bytes() == 0
        for page in grabbed[: len(grabbed) // 2]:
            dram.free_page(page)  # release half; still below watermark?
        for _ in range(300):
            engine.step()
            if manager.dram_free_bytes() >= manager.config.dram_free_watermark:
                break
        assert manager.dram_free_bytes() >= manager.config.dram_free_watermark

    def test_swap_demotions_counted_as_demotions(self):
        """Promote-by-swap demotes the victim: it must count as a demotion,
        not inflate the promoted total (regression: both were lumped into
        ``promoted``)."""
        from repro.core.policy import PolicyService

        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        # Prefault leaves exactly the watermark free, so promotion must go
        # through the swap path (demote a DRAM cold victim first).
        assert manager.dram_free_bytes() == manager.config.dram_free_watermark
        nvm_page = int(pages_in(region, Tier.NVM)[0])
        sample(manager.tracker, region, nvm_page, is_store=True, times=4)
        policy = PolicyService(manager).policy
        promoted, demoted = policy._promote(0.0)
        assert promoted == 1
        assert demoted == 1

    def test_swap_needs_both_reservations_up_front(self):
        """If either side of a swap cannot reserve, neither copy may be
        submitted (regression: the demotion was queued, then the promotion
        failed to reserve, churning the watermark for nothing)."""
        from repro.core.policy import PolicyService

        engine, manager, machine = make_setup()
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        nvm_page = int(pages_in(region, Tier.NVM)[0])
        sample(manager.tracker, region, nvm_page, is_store=True, times=4)
        # Exhaust NVM: the swap's demotion leg has nowhere to reserve.
        nvm_dax = manager.dax[Tier.NVM]
        grabbed = [nvm_dax.alloc_page() for _ in range(nvm_dax.free_pages)]
        assert nvm_dax.free_pages == 0
        policy = PolicyService(manager).policy
        promoted, demoted = policy._promote(0.0)
        assert (promoted, demoted) == (0, 0)
        assert not manager.migrator.busy  # nothing was half-submitted
        for page in grabbed:
            nvm_dax.free_page(page)

    def test_write_heavy_promoted_before_read_hot(self):
        engine, manager, machine = make_setup()
        region = manager.mmap(6 * GB, name="big")
        manager.prefault(region)
        nvm_pages = pages_in(region, Tier.NVM)
        read_hot = int(nvm_pages[0])
        write_hot = int(nvm_pages[1])
        sample(manager.tracker, region, read_hot, times=8)
        sample(manager.tracker, region, write_hot, is_store=True, times=4)
        hot_list = manager.tracker.list_for(Tier.NVM, hot=True)
        assert hot_list.front_pid == manager.tracker.pid_of(region, write_hot)
