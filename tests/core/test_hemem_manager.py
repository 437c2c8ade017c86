"""Integration tests for the assembled HeMem manager."""

import numpy as np
import pytest

from repro.core.base import _SPLIT_CACHE_LIMIT
from repro.core.config import HeMemConfig
from repro.core.hemem import HeMemManager, hemem_pt_async, hemem_pt_sync
from repro.mem.access import AccessStream
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload


from tests.conftest import IdleWorkload

SCALE = 64  # DRAM 3 GB, NVM 12 GB


def make_engine(manager=None, gups=None, seed=7):
    """Engine on a scaled machine; idle workload unless GUPS is requested."""
    manager = manager or HeMemManager()
    workload = GupsWorkload(gups) if gups is not None else IdleWorkload()
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    return Engine(machine, manager, workload, EngineConfig(tick=0.01, seed=seed))


class TestAllocationSurface:
    def test_small_mmap_forwards_to_kernel(self):
        engine = make_engine()
        region = engine.manager.mmap(1 * MB, name="tiny")
        assert not region.managed
        assert (region.tier == Tier.DRAM).all()

    def test_large_mmap_is_managed(self):
        engine = make_engine()
        region = engine.manager.mmap(1 * GB, name="big")
        assert region.managed
        assert region in engine.manager.managed_regions()

    def test_config_scaled_at_attach(self):
        engine = make_engine()
        assert engine.manager.config.manage_threshold == 1 * GB // SCALE

    def test_prefault_fills_dram_first(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        assert region.mapped.all()
        # 1 GB fits in 3 GB DRAM minus watermark: all in DRAM.
        assert (region.tier == Tier.DRAM).all()

    def test_prefault_overflows_to_nvm(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        assert region.bytes_in(Tier.NVM) > 0
        # The watermark remains free in DRAM.
        assert manager.dram_free_bytes() >= manager.config.dram_free_watermark

    def test_prefault_registers_pages_with_tracker(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        assert len(manager.tracker) == region.n_pages

    def test_prefault_assigns_dax_offsets(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        offsets = manager.offsets(region)
        assert (offsets >= 0).all()
        assert len(set(offsets.tolist())) == region.n_pages

    def test_munmap_returns_dax_space(self):
        engine = make_engine()
        manager = engine.manager
        free_before = manager.dram_free_bytes()
        region = manager.mmap(1 * GB, name="big")
        manager.prefault(region)
        manager.munmap(region)
        assert manager.dram_free_bytes() == free_before
        assert len(manager.tracker) == 0

    def test_pinned_mmap_bypasses_size_policy(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(8 * MB, name="prio", pinned_tier=Tier.DRAM)
        assert region.managed
        assert region.pinned_tier is Tier.DRAM
        manager.prefault(region)
        assert (region.tier == Tier.DRAM).all()
        # Pinned pages are not tracked (they never migrate).
        assert len(manager.tracker) == 0

    def test_uffd_registration(self):
        engine = make_engine()
        region = engine.manager.mmap(1 * GB, name="big")
        assert engine.manager.uffd.is_registered(region)


class TestSplitCache:
    def test_alternating_streams_reuse_their_splits(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        n = region.n_pages
        streams = [
            AccessStream(name="a", region=region, threads=1,
                         weights=np.arange(1, n + 1, dtype=float)),
            AccessStream(name="b", region=region, threads=1,
                         weights=np.arange(n, 0, -1, dtype=float),
                         write_weights=np.ones(n)),
        ]
        first = [manager.split_by_tier(s, 0.0) for s in streams]
        for _ in range(3):
            again = [manager.split_by_tier(s, 0.0) for s in streams]
            assert all(x is y for x, y in zip(again, first))
        assert first[0] is not first[1]
        assert first[1].dram_read_frac == region.dram_fraction(streams[1].weights)
        assert first[1].dram_write_frac == region.dram_fraction(
            streams[1].write_weights)

    def test_cache_is_bounded(self):
        engine = make_engine()
        manager = engine.manager
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        assert 0 < region.dram_fraction() < 1
        for i in range(3 * _SPLIT_CACHE_LIMIT):
            weights = np.ones(region.n_pages)
            weights[-1] += i  # a new DRAM fraction per stream
            manager.split_by_tier(
                AccessStream(name="s", region=region, threads=1,
                             weights=weights), 0.0)
            assert len(manager._split_cache) <= _SPLIT_CACHE_LIMIT


class TestServices:
    def test_pebs_and_policy_services_registered(self):
        engine = make_engine()
        names = {s.name for s in engine.services}
        assert "pebs_drain" in names
        assert "hemem_policy" in names

    def test_pt_variants_register_scan_service(self):
        engine = make_engine(manager=hemem_pt_async())
        names = {s.name for s in engine.services}
        assert "pt_scan" in names
        assert "pebs_drain" not in names

    def test_pt_sync_flag(self):
        engine = make_engine(manager=hemem_pt_sync())
        assert engine.manager.source.sync_with_migration

    def test_no_dma_uses_copy_threads(self):
        engine = make_engine(manager=HeMemManager(HeMemConfig(use_dma=False)))
        from repro.mem.dma import ThreadCopyEngine

        assert isinstance(engine.manager.migrator.mover, ThreadCopyEngine)

    def test_dma_rate_capped_by_config(self):
        engine = make_engine()
        assert engine.machine.dma.max_rate == HeMemConfig().migration_max_rate


class TestEndToEnd:
    def test_hot_set_promoted_to_dram(self):
        """The headline behaviour: hot NVM pages end up in DRAM.

        Detection needs ~8 samples per hot page at the paper's 5k period
        (a few virtual seconds), so this runs long enough to converge.
        """
        gups = GupsConfig(working_set=8 * GB, hot_set=256 * MB)
        engine = make_engine(gups=gups)
        engine.run(15.0)
        workload = engine.workload
        region = workload.region
        hot_in_dram = region.tier[workload._hot_pages] == Tier.DRAM
        assert hot_in_dram.mean() > 0.8

    def test_small_working_set_never_touches_nvm(self):
        engine = make_engine(gups=GupsConfig(working_set=1 * GB))
        engine.run(3.0)
        assert engine.machine.nvm.bytes_written == 0.0
        assert engine.machine.nvm.bytes_read == 0.0

    def test_migration_counters_move(self):
        gups = GupsConfig(working_set=8 * GB, hot_set=256 * MB)
        engine = make_engine(gups=gups)
        engine.run(6.0)
        counters = engine.stats.counters()
        assert counters["hemem.pages_promoted"] > 0

    def test_dram_watermark_maintained(self):
        gups = GupsConfig(working_set=8 * GB, hot_set=256 * MB)
        engine = make_engine(gups=gups)
        engine.run(6.0)
        manager = engine.manager
        # Allow one page of slack for in-flight swaps.
        assert manager.dram_free_bytes() >= (
            manager.config.dram_free_watermark - engine.machine.spec.page_size
        )
