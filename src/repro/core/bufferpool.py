"""App-directed buffer pool: the database's answer to transparent tiering.

Where HeMem watches accesses and migrates 2 MB pages behind the
application's back, a database buffer pool *knows* its access structure:
index pages are probed on every transaction, heap pages follow the
workload's skew.  :class:`BufferPoolManager` exploits exactly that
knowledge, the way the workload tells it to through ``advise``:

- ``advise(region, "index")`` — pin the region in DRAM (up to the
  budget), first come first served.  Index probes never stall on NVM.
- ``advise(region, "heap")`` (or no advice) — CLOCK-managed: DRAM
  residency is a cache over the NVM-backed region, with second-chance
  eviction driven by the ground-truth per-page access counts the
  machine accumulates anyway (the simulator's stand-in for the pool's
  reference bits).

The price of being app-directed is paid on every touch: each logical
page access goes through the pool's latch/hash lookup
(``access_overhead_ns``), which transparent paging does not charge.
That tax is what lets HeMem win once DRAM is plentiful, while the
guaranteed index residency wins when DRAM is scarce — the crossover the
``tpcc_buffer`` experiment measures.

The sweep runs on arrays: each region's fetch candidates and DRAM pages
come from ``np.flatnonzero`` and one ``np.lexsort`` orders the
candidates hottest first, then by region and page; only the fetch/evict
loop and the CLOCK hand step page by page.  ``_dram_pages_used`` is
always the DRAM pages the pool's regions hold: re-advice releases a
region's pages before pinning them again.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import TieredMemoryManager
from repro.mem.page import Tier
from repro.mem.region import Region, RegionKind


class BufferPoolManager(TieredMemoryManager):
    """DRAM as an explicitly managed cache: pinned indexes, CLOCK heaps."""

    name = "bufferpool"

    def __init__(self, access_overhead_ns: float = 70.0,
                 sweep_period: float = 0.1,
                 max_sweep_fraction: float = 0.125,
                 dram_headroom: float = 1.0):
        super().__init__()
        if access_overhead_ns < 0:
            raise ValueError("access_overhead_ns cannot be negative")
        if sweep_period <= 0:
            raise ValueError("sweep_period must be positive")
        if not 0 < max_sweep_fraction <= 1:
            raise ValueError("max_sweep_fraction must be in (0, 1]")
        if not 0 < dram_headroom <= 1:
            raise ValueError("dram_headroom must be in (0, 1]")
        #: per-touch latch + page-table lookup tax charged to the app
        self.access_overhead_ns = access_overhead_ns
        self.sweep_period = sweep_period
        #: cap on pool turnover per sweep, as a fraction of the pool
        self.max_sweep_fraction = max_sweep_fraction
        self.dram_headroom = dram_headroom
        self._pinned: list = []
        self._clocked: list = []
        self._hand = 0           # global CLOCK hand over all pooled pages
        self._second: dict = {}  # region id -> second-chance bit array
        self._dram_pages_used = 0
        self._next_sweep = 0.0
        self.stats = None

    # -- lifecycle -----------------------------------------------------------
    def _on_attach(self) -> None:
        self.stats = self.machine.stats.scoped(self.name)
        self._budget_pages = int(
            self.machine.spec.dram_capacity * self.dram_headroom
        ) // self.machine.spec.page_size

    # -- allocation surface ----------------------------------------------------
    def mmap(self, size: int, name: str = "",
             pinned_tier: Optional[Tier] = None) -> Region:
        region = self.machine.make_region(size, kind=RegionKind.HEAP, name=name)
        region.managed = False  # placement is ours, not a tracker's
        region.tier[:] = Tier.NVM
        region.tier_version += 1
        self.syscalls.address_space.insert(region)
        if pinned_tier == Tier.DRAM:
            self.advise(region, "index")
        else:
            # Until advised otherwise, a region is heap-class.
            self._clocked.append(region)
            self._second[region.region_id] = np.zeros(region.n_pages,
                                                      dtype=bool)
        return region

    def munmap(self, region: Region) -> None:
        if region in self._pinned:
            self._pinned.remove(region)
        if region in self._clocked:
            self._clocked.remove(region)
            self._second.pop(region.region_id, None)
        self._dram_pages_used -= int((region.tier == Tier.DRAM).sum())
        super().munmap(region)

    # -- the advise surface ----------------------------------------------------
    def advise(self, region: Region, kind: str) -> None:
        """Placement hint from the application (py-tpcc-style backend API).

        ``"index"`` pins the region's pages in DRAM up to the budget;
        ``"heap"`` (the default class) keeps it CLOCK-managed.
        """
        if kind == "index":
            if region in self._clocked:
                self._clocked.remove(region)
                self._second.pop(region.region_id, None)
            if region not in self._pinned:
                self._pinned.append(region)
            # Re-pinning replaces whatever DRAM the region already holds
            # (an earlier advice or a prefault fill), so release it first.
            self._dram_pages_used -= int((region.tier == Tier.DRAM).sum())
            free = max(self._budget_pages - self._dram_pages_used, 0)
            n_pin = min(region.n_pages, free)
            if n_pin > 0:
                region.tier[:n_pin] = Tier.DRAM
                region.tier[n_pin:] = Tier.NVM
                region.tier_version += 1
                self._dram_pages_used += n_pin
                self.stats.counter("pinned_pages").add(n_pin)
        elif kind == "heap":
            if region not in self._clocked and region not in self._pinned:
                self._clocked.append(region)
                self._second[region.region_id] = np.zeros(region.n_pages,
                                                          dtype=bool)
        else:
            raise ValueError(f"unknown advice kind: {kind!r}")

    def prefault(self, region: Region, now: float = 0.0) -> None:
        region.mapped[:] = True
        if region in self._clocked:
            # First-touch fill: leading pages take whatever DRAM budget the
            # pinned regions left over; the CLOCK sweep re-sorts by demand.
            free = max(self._budget_pages - self._dram_pages_used, 0)
            n_fill = min(region.n_pages, free)
            if n_fill > 0:
                region.tier[:n_fill] = Tier.DRAM
                region.tier_version += 1
                self._dram_pages_used += n_fill

    # -- CLOCK service ---------------------------------------------------------
    def end_tick(self, now: float, dt: float) -> None:
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.sweep_period
        self._sweep()
        for region in self._clocked + self._pinned:
            region.clear_access_bits()
        self.stats.counter("sweeps").add(1)

    def _sweep(self) -> None:
        """One CLOCK pass over the whole pool: fetch referenced NVM pages,
        evicting DRAM pages whose reference bit is clear (second chance
        otherwise).

        The pool is one cache shared by every clocked region (a buffer
        pool serves all of the database's files), so both the fetch
        candidates and the victim clock are global: a hot region steals
        frames from an idle one.
        """
        states = []          # (region, counts, writes, referenced)
        cand_count, cand_idx, cand_page = [], [], []  # NVM fetch candidates
        ring_idx, ring_page = [], []  # the victim clock's face
        total_pages = 0
        for idx, region in enumerate(self._clocked):
            counts = region.pending_reads + region.pending_writes
            total = float(counts.sum())
            n = region.n_pages
            total_pages += n
            if total > 0 and n > 0:
                # Reference bit: page saw at least its uniform share of
                # the region's traffic since the last sweep.
                referenced = counts > (total / n)
            else:
                referenced = np.zeros(n, dtype=bool)
            states.append((region, counts, region.pending_writes, referenced))
            in_dram = region.tier == Tier.DRAM
            pages = np.flatnonzero(referenced & ~in_dram)
            cand_count.append(counts[pages])
            cand_idx.append(np.full(len(pages), idx))
            cand_page.append(pages)
            pages = np.flatnonzero(in_dram)
            ring_idx.append(np.full(len(pages), idx))
            ring_page.append(pages)
        if not any(len(pages) for pages in cand_page):
            return
        # Hottest first, then by region and page: the (idx, page) pairs
        # are unique, so the order is total.
        c_count = np.concatenate(cand_count)
        c_idx = np.concatenate(cand_idx)
        c_page = np.concatenate(cand_page)
        order = np.lexsort((c_page, c_idx, -c_count))
        candidates = zip(c_count[order].tolist(), c_idx[order].tolist(),
                         c_page[order].tolist())
        dram_pages = list(zip(np.concatenate(ring_idx).tolist(),
                              np.concatenate(ring_page).tolist()))
        budget = max(int(total_pages * self.max_sweep_fraction), 1)
        fetch = self.stats.counter("fetch.bytes_moved")
        writeback = self.stats.counter("writeback.bytes_moved")
        evictions = self.stats.counter("evictions")
        moved = 0
        touched = set()
        free = max(self._budget_pages - self._dram_pages_used, 0)
        for count, idx, page in candidates:
            if moved >= budget:
                break
            region = states[idx][0]
            if free > 0:
                # Pool not full yet: fetch without evicting.
                region.tier[page] = Tier.DRAM
                self._dram_pages_used += 1
                free -= 1
                fetch.add(region.page_size)
                moved += 1
                touched.add(idx)
                continue
            if not dram_pages:
                break
            victim = self._clock_victim(dram_pages, states, count)
            if victim is None:
                break
            v_idx, v_page = victim
            v_region, _counts, v_writes, _ref = states[v_idx]
            v_region.tier[v_page] = Tier.NVM
            region.tier[page] = Tier.DRAM
            fetch.add(region.page_size)
            evictions.add(1)
            if v_writes[v_page] > 0:
                writeback.add(v_region.page_size)
            moved += 1
            touched.add(idx)
            touched.add(v_idx)
        for idx in touched:
            states[idx][0].tier_version += 1

    def _clock_victim(self, dram_pages: list, states: list,
                      incoming_count: float) -> Optional[tuple]:
        """Advance the hand over the pool's DRAM-resident pages; evict the
        first page without a reference bit (referenced pages get one
        second chance)."""
        n = len(dram_pages)
        hand = self._hand
        for _ in range(2 * n):
            idx, page = dram_pages[hand % n]
            hand += 1
            region, counts, _writes, referenced = states[idx]
            if region.tier[page] != Tier.DRAM:
                continue  # already evicted this sweep
            second = self._second[region.region_id]
            if referenced[page] and not second[page]:
                second[page] = True
                continue
            second[page] = False
            if counts[page] >= incoming_count:
                # Victim is at least as hot as the incoming page: the
                # pool has converged; stop churning.
                self._hand = hand
                return None
            self._hand = hand
            return (idx, page)
        self._hand = hand
        return None
