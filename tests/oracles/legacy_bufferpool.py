"""The buffer pool's tuple-sorted CLOCK sweep, frozen as a differential oracle.

This is ``BufferPoolManager._sweep`` (with its ``_clock_victim``) as it
stood before the sweep moved onto arrays: candidates gathered page by
page into ``(-count, region index, page)`` tuples and sorted, and the
victim clock's face built by a per-page loop.  It is **not wired into
anything**: ``tests/properties/test_bufferpool_differential.py`` runs it
and the shipped sweep side by side and asserts the same placement,
counters, hand and second-chance bits.

Do not "fix" or modernise this file — divergence from the original
behaviour is exactly what the differential test exists to catch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bufferpool import BufferPoolManager
from repro.mem.page import Tier


class LegacyBufferPoolManager(BufferPoolManager):
    """The buffer pool with its original per-page sweep."""

    def _sweep(self) -> None:
        states = []          # (region, counts, writes, referenced)
        candidates = []      # (-count, state_idx, page): hottest first
        dram_pages = []      # (state_idx, page): the victim clock's face
        total_pages = 0
        for idx, region in enumerate(self._clocked):
            counts = region.pending_reads + region.pending_writes
            total = float(counts.sum())
            n = region.n_pages
            total_pages += n
            if total > 0 and n > 0:
                referenced = counts > (total / n)
            else:
                referenced = np.zeros(n, dtype=bool)
            states.append((region, counts, region.pending_writes, referenced))
            in_dram = region.tier == Tier.DRAM
            for page in np.nonzero(referenced & ~in_dram)[0]:
                candidates.append((-counts[page], idx, int(page)))
            for page in np.nonzero(in_dram)[0]:
                dram_pages.append((idx, int(page)))
        if not candidates:
            return
        candidates.sort()
        budget = max(int(total_pages * self.max_sweep_fraction), 1)
        fetch = self.stats.counter("fetch.bytes_moved")
        writeback = self.stats.counter("writeback.bytes_moved")
        evictions = self.stats.counter("evictions")
        moved = 0
        touched = set()
        free = max(self._budget_pages - self._dram_pages_used, 0)
        for neg_count, idx, page in candidates:
            if moved >= budget:
                break
            region = states[idx][0]
            if free > 0:
                region.tier[page] = Tier.DRAM
                self._dram_pages_used += 1
                free -= 1
                fetch.add(region.page_size)
                moved += 1
                touched.add(idx)
                continue
            if not dram_pages:
                break
            victim = self._clock_victim(dram_pages, states, -neg_count)
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
        n = len(dram_pages)
        hand = self._hand
        for _ in range(2 * n):
            idx, page = dram_pages[hand % n]
            hand += 1
            region, counts, _writes, referenced = states[idx]
            if region.tier[page] != Tier.DRAM:
                continue
            second = self._second[region.region_id]
            if referenced[page] and not second[page]:
                second[page] = True
                continue
            second[page] = False
            if counts[page] >= incoming_count:
                self._hand = hand
                return None
            self._hand = hand
            return (idx, page)
        self._hand = hand
        return None
