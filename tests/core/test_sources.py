"""Tests for the PEBS and page-table access sources."""

import pytest

from repro.core.hemem import HeMemManager, hemem_pt_async, hemem_pt_sync
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload

from tests.conftest import IdleWorkload, is_hot, tracked_pids

SCALE = 64


def gups_engine(manager, working_set=2 * GB, hot_set=None, seed=11):
    workload = GupsWorkload(GupsConfig(working_set=working_set, hot_set=hot_set))
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    return Engine(machine, manager, workload, EngineConfig(tick=0.01, seed=seed))


class TestPebsSource:
    def test_samples_flow_into_tracker(self):
        engine = gups_engine(HeMemManager())
        engine.run(1.0)
        assert engine.stats.counter("hemem.tracker.samples").value > 0
        assert engine.stats.counter("pebs.records").value > 0

    def test_sampling_classifies_the_hot_set(self):
        engine = gups_engine(HeMemManager(), working_set=2 * GB, hot_set=128 * MB)
        engine.run(10.0)
        workload = engine.workload
        tracker = engine.manager.tracker
        hot_pages = set(int(p) for p in workload._hot_pages)
        hot_marked = cold_marked = 0
        for pid in tracked_pids(tracker):
            if is_hot(tracker, pid):
                if tracker.store.page_no[pid] in hot_pages:
                    hot_marked += 1
                else:
                    cold_marked += 1
        # Most true-hot pages are classified hot; few cold pages are.
        assert hot_marked / len(hot_pages) > 0.8
        n_cold = workload.region.n_pages - len(hot_pages)
        assert cold_marked / n_cold < 0.2

    def test_dram_and_nvm_loads_distinguished(self):
        engine = gups_engine(HeMemManager(), working_set=8 * GB)
        # Suppress migration so placement stays mixed.
        for svc in list(engine.services):
            if svc.name == "hemem_policy":
                engine.remove_service(svc)
        engine.run(1.0)
        # Both DRAM- and NVM-resident pages exist; tier-conditioned
        # sampling means tracked NVM pages must exist in NVM lists.
        tracker = engine.manager.tracker
        nvm_tracked = len(tracker.list_for(Tier.NVM, hot=False)) + len(
            tracker.list_for(Tier.NVM, hot=True)
        )
        assert nvm_tracked > 0

    def test_unmanaged_regions_not_sampled(self):
        manager = HeMemManager()
        machine = Machine(MachineSpec().scaled(SCALE), seed=1)
        engine = Engine(machine, manager, IdleWorkload(), EngineConfig(seed=1))
        from repro.mem.access import AccessStream, TierSplit, StreamResult

        small = manager.mmap(2 * MB, name="tiny")  # kernel path, unmanaged
        stream = AccessStream(name="s", region=small, threads=1)
        split = TierSplit(1.0, 1.0)
        result = StreamResult(ops=1e7)
        manager.observe(stream, split, result, 0.0, 0.01)
        assert len(machine.pebs) == 0


def fed_engine(ops=2e7, writes_per_op=0.5):
    """An idle HeMem engine whose PEBS unit holds one observe() worth of
    records from a 1 GB managed region, half of it in NVM."""
    from repro.mem.access import AccessStream, StreamResult, TierSplit

    manager = HeMemManager()
    machine = Machine(MachineSpec().scaled(SCALE), seed=3)
    engine = Engine(machine, manager, IdleWorkload(), EngineConfig(seed=3))
    region = manager.mmap(1 * GB, name="big")
    region.tier[region.n_pages // 2:] = Tier.NVM
    stream = AccessStream(name="s", region=region, threads=1,
                          reads_per_op=1.0, writes_per_op=writes_per_op)
    manager.observe(stream, TierSplit(0.5, 0.5), StreamResult(ops=ops), 0.0, 0.01)
    return engine, region


class TestPebsBatches:
    def test_feed_buffers_one_page_chunk_per_kind(self):
        from repro.mem.pebs import PebsEventKind

        engine, region = fed_engine()
        pebs = engine.machine.pebs
        n = len(pebs)
        assert n == pebs.records_sampled > 0
        batch = pebs.drain(n)
        assert len(batch) == n and len(pebs) == 0
        assert [kind for kind, _, _ in batch] == [
            PebsEventKind.DRAM_READ, PebsEventKind.NVM_READ, PebsEventKind.STORE
        ]
        half = region.n_pages // 2
        for kind, chunk_region, pages in batch:
            assert chunk_region is region
            assert all(type(page) is int for page in pages)
            # loads are conditioned on the tier that served them
            if kind is PebsEventKind.DRAM_READ:
                assert max(pages) < half
            elif kind is PebsEventKind.NVM_READ:
                assert min(pages) >= half

    def test_drain_service_applies_the_capped_head(self):
        from repro.core.sources import _PebsDrainService

        engine, region = fed_engine(ops=1e9)
        pebs = engine.machine.pebs
        drained = len(pebs)
        cap = _PebsDrainService.APPLY_CAP_PER_TICK
        assert drained > cap
        service = next(s for s in engine.services if s.name == "pebs_drain")
        service.run(engine, 0.0, 1.0)  # budget covers the whole buffer
        assert len(pebs) == 0
        assert engine.stats.counter("hemem.tracker.samples").value == cap


class TestPtScanSource:
    def test_scans_complete_and_feed_tracker(self):
        engine = gups_engine(hemem_pt_async(), working_set=2 * GB)
        engine.run(2.0)
        assert engine.manager.source.scans_completed > 0
        assert engine.stats.counter("hemem-pt-async.tracker.samples").value > 0

    def test_scan_interference_charged(self):
        engine = gups_engine(hemem_pt_async(), working_set=2 * GB)
        baseline = gups_engine(HeMemManager(), working_set=2 * GB, seed=11)
        r_pt = engine.run(3.0)
        r_pebs = baseline.run(3.0)
        # TLB shootdowns make the PT configuration measurably slower even
        # with everything in DRAM (Fig 8's PT Scan vs PEBS gap).
        assert r_pt["total_ops"] < r_pebs["total_ops"] * 0.99

    def test_sync_scan_blocked_by_migration(self):
        engine = gups_engine(hemem_pt_sync(), working_set=8 * GB,
                             hot_set=256 * MB)
        engine.run(3.0)
        sync_scans = engine.manager.source.scans_completed

        engine2 = gups_engine(hemem_pt_async(), working_set=8 * GB,
                              hot_set=256 * MB)
        engine2.run(3.0)
        async_scans = engine2.manager.source.scans_completed
        assert sync_scans <= async_scans

    def test_scan_period_validated(self):
        from repro.core.sources import PtScanSource

        with pytest.raises(ValueError):
            PtScanSource(None, scan_period=0)
