"""Unit tests for the app-directed buffer pool manager."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.bufferpool import BufferPoolManager
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.units import MB


PAGE = MachineSpec().page_size


@pytest.fixture
def machine():
    # 16 pages of DRAM, plenty of NVM.
    spec = replace(MachineSpec().scaled(256), dram_capacity=16 * PAGE)
    return Machine(spec, seed=1)


@pytest.fixture
def pool(machine):
    manager = BufferPoolManager()
    manager.attach(machine, engine=None)
    return manager


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BufferPoolManager(access_overhead_ns=-1.0)
        with pytest.raises(ValueError):
            BufferPoolManager(sweep_period=0.0)
        with pytest.raises(ValueError):
            BufferPoolManager(max_sweep_fraction=1.5)
        with pytest.raises(ValueError):
            BufferPoolManager(dram_headroom=0.0)

    def test_budget_follows_dram_capacity(self, pool):
        assert pool._budget_pages == 16


class TestAdvise:
    def test_index_regions_pin_up_to_budget(self, pool):
        index = pool.mmap(8 * PAGE, name="idx")
        pool.advise(index, "index")
        assert (index.tier == Tier.DRAM).all()
        big = pool.mmap(32 * PAGE, name="idx2")
        pool.advise(big, "index")
        # Only the leftover 8 pages of budget can pin.
        assert int((big.tier == Tier.DRAM).sum()) == 8

    def test_heap_regions_start_in_nvm(self, pool):
        heap = pool.mmap(8 * PAGE, name="heap")
        pool.advise(heap, "heap")
        assert (heap.tier == Tier.NVM).all()

    def test_unknown_advice_rejected(self, pool):
        region = pool.mmap(PAGE)
        with pytest.raises(ValueError, match="unknown advice"):
            pool.advise(region, "scratch")

    def test_prefault_fills_heap_with_leftover_budget(self, pool):
        index = pool.mmap(12 * PAGE, name="idx")
        pool.advise(index, "index")
        heap = pool.mmap(8 * PAGE, name="heap")
        pool.prefault(heap)
        assert int((heap.tier == Tier.DRAM).sum()) == 4


class TestClockSweep:
    def _touch(self, region, page, reads):
        region.pending_reads[page] += reads

    def test_hot_nvm_pages_replace_cold_dram_pages(self, pool):
        heap = pool.mmap(16 * PAGE, name="heap")
        pool.prefault(heap)  # all 16 pages grabbed the DRAM budget
        region2 = pool.mmap(16 * PAGE, name="heap2")
        assert (region2.tier == Tier.NVM).all()
        # region2's first pages are blazing hot; heap is idle.
        for page in range(4):
            self._touch(region2, page, 1000)
        for _ in range(4):  # several sweeps: per-sweep churn is capped
            pool.end_tick(now=100.0, dt=0.1)
            pool._next_sweep = 0.0
            for page in range(4):
                self._touch(region2, page, 1000)
        assert int((region2.tier == Tier.DRAM).sum()) == 4
        assert int((heap.tier == Tier.DRAM).sum()) == 12
        assert pool._dram_pages_used == 16

    def test_sweep_respects_turnover_cap(self, pool):
        pool.max_sweep_fraction = 1 / 16
        heap = pool.mmap(16 * PAGE, name="heap")
        pool.prefault(heap)
        other = pool.mmap(16 * PAGE, name="other")
        for page in range(8):
            self._touch(other, page, 1000)
        pool.end_tick(now=1.0, dt=0.1)
        # One sweep may move at most 1/16 of the 32-page pool: 2 pages.
        assert int((other.tier == Tier.DRAM).sum()) <= 2

    def test_access_bits_cleared_after_sweep(self, pool):
        heap = pool.mmap(4 * PAGE, name="heap")
        self._touch(heap, 0, 10)
        pool.end_tick(now=1.0, dt=0.1)
        assert heap.pending_reads.sum() == 0

    def test_converged_pool_stops_churning(self, pool):
        heap = pool.mmap(16 * PAGE, name="heap")
        pool.prefault(heap)
        extra = pool.mmap(16 * PAGE, name="extra")
        # DRAM-resident pages are hotter than every NVM candidate: the
        # clock refuses to evict and nothing moves.
        heap.pending_reads[:] = 1000
        extra.pending_reads[:4] = 10
        pool.end_tick(now=1.0, dt=0.1)
        assert (extra.tier == Tier.NVM).all()
        assert pool.stats.counter("evictions").value == 0


class TestAccounting:
    def test_munmap_releases_dram_budget(self, pool):
        index = pool.mmap(8 * PAGE, name="idx")
        pool.advise(index, "index")
        assert pool._dram_pages_used == 8
        pool.munmap(index)
        assert pool._dram_pages_used == 0
        assert index not in pool._pinned

    @staticmethod
    def _held(*regions):
        return sum(int((r.tier == Tier.DRAM).sum()) for r in regions)

    def test_re_advice_charges_the_budget_once(self, pool):
        index = pool.mmap(8 * PAGE, name="idx")
        pool.advise(index, "index")
        pool.advise(index, "index")
        assert self._held(index) == 8
        assert pool._dram_pages_used == 8
        pool.munmap(index)
        assert pool._dram_pages_used == 0

    def test_advice_after_prefault_charges_the_budget_once(self, pool):
        index = pool.mmap(8 * PAGE, name="idx")
        pool.prefault(index)  # clocked until advised: fills 8 pages
        pool.advise(index, "index")
        assert self._held(index) == 8
        assert pool._dram_pages_used == 8
        pool.munmap(index)
        assert pool._dram_pages_used == 0

    def test_fetch_and_writeback_counters_move(self, pool):
        heap = pool.mmap(8 * PAGE, name="heap")
        heap.pending_reads[:2] = 100
        heap.pending_writes[2] = 100
        pool.end_tick(now=1.0, dt=0.1)
        assert pool.stats.counter("fetch.bytes_moved").value > 0
