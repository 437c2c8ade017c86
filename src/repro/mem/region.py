"""Managed memory regions (the unit of mmap).

A :class:`Region` is a contiguous virtual address range whose pages the
manager under test places in DRAM or NVM.  Per-page state is held in numpy
arrays so placement queries (the dot product "what fraction of this access
distribution is in DRAM?") and page-table scans stay vectorised.

Regions also accumulate *ground-truth* expected access counts per page
(``pending_reads`` / ``pending_writes``) between page-table scans — this is
the substrate the simulated access/dirty bits are derived from.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.mem.page import HUGE_PAGE, Tier

#: Bound on a region's ``dram_fraction`` memo (distinct weights arrays per
#: placement version); evicted wholesale when exceeded.
_DOT_MEMO_LIMIT = 16


class RegionKind(Enum):
    """How the allocation was made; drives the allocation policy."""

    HEAP = "heap"  # large anonymous mapping (candidate for tiering)
    SMALL = "small"  # below the management threshold; kernel keeps it in DRAM
    FILE = "file"  # file-backed; not managed


class Region:
    """A contiguous virtual range of ``n_pages`` pages of ``page_size`` bytes."""

    _next_id = 0

    def __init__(
        self,
        start: int,
        size: int,
        page_size: int = HUGE_PAGE,
        kind: RegionKind = RegionKind.HEAP,
        name: str = "",
    ):
        if size <= 0:
            raise ValueError(f"region size must be positive: {size}")
        if page_size <= 0 or size % page_size != 0:
            raise ValueError(
                f"region size {size} must be a positive multiple of page size {page_size}"
            )
        self.region_id = Region._next_id
        Region._next_id += 1
        self.start = start
        self.size = size
        self.page_size = page_size
        self.kind = kind
        self.name = name or f"region{self.region_id}"
        self.n_pages = size // page_size

        # Per-page placement state.  ANY writer of ``tier`` must increment
        # ``tier_version`` afterwards — placement queries cache the derived
        # in-DRAM mask against it.
        self.tier = np.full(self.n_pages, Tier.DRAM, dtype=np.uint8)
        self.tier_version = 0
        self._mask_version = -1
        self._in_dram: Optional[np.ndarray] = None
        # Placement-query memos, all invalidated by tier_version bumps.
        # Steady-state ticks (no migrations in flight) hit these instead of
        # re-reducing the mask thousands of times per run.
        self._mean_cache = (-1, 0.0)  # (tier_version, mean)
        # id(weights) -> (weights ref, dot), one entry per weights array a
        # stream carries (a stream's loads and stores may follow different
        # arrays), valid for ``_dot_version`` only.
        self._dot_memo: Dict[int, tuple] = {}
        self._dot_version = -1
        self._bytes_cache = (-1, 0, 0)  # (tier_version, dram_bytes, nvm_bytes)
        self.mapped = np.zeros(self.n_pages, dtype=bool)

        # Ground-truth expected access counts per page since the last
        # page-table clear (used to derive access/dirty bits).  Uniform
        # (weights-free) traffic keeps every element identical, so those
        # ticks fold into two scalars and the arrays are materialised only
        # when read or when a weighted accumulation forces per-page state.
        # Scalar folding performs the exact same IEEE additions the
        # elementwise ``+=`` would, so the materialised values are
        # bit-identical.
        self._pending_reads = np.zeros(self.n_pages, dtype=np.float64)
        self._pending_writes = np.zeros(self.n_pages, dtype=np.float64)
        self._pending_lazy = True
        self._uniform_reads = 0.0
        self._uniform_writes = 0.0
        self._scratch = np.empty(self.n_pages, dtype=np.float64)

        # Policy annotations.
        self.pinned_tier: Optional[Tier] = None  # priority instances pin DRAM
        self.managed = True  # False => manager ignores it (kernel DRAM)

    # -- address helpers ----------------------------------------------------
    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end

    # -- placement queries --------------------------------------------------
    def _in_dram_mask(self) -> np.ndarray:
        """Float mask of DRAM-resident pages, cached against ``tier_version``."""
        if self._mask_version != self.tier_version:
            self._in_dram = (self.tier == Tier.DRAM).astype(np.float64)
            self._mask_version = self.tier_version
        return self._in_dram

    def dram_fraction(self, weights: Optional[np.ndarray] = None) -> float:
        """Probability an access with ``weights`` lands on a DRAM page."""
        version = self.tier_version
        if weights is None:
            cached_version, value = self._mean_cache
            if cached_version == version:
                return value
            if self.n_pages == 0:
                return 1.0
            value = float(self._in_dram_mask().mean())
            self._mean_cache = (version, value)
            return value
        memo = self._dot_memo
        if self._dot_version == version:
            # The identity check is sound because each entry holds a
            # strong reference: a live entry's id cannot be recycled, and
            # stream weight arrays are read-only (see AccessStream).
            hit = memo.get(id(weights))
            if hit is not None and hit[0] is weights:
                return hit[1]
        else:
            memo.clear()
            self._dot_version = version
        value = float(np.dot(weights, self._in_dram_mask()))
        if len(memo) >= _DOT_MEMO_LIMIT:
            memo.clear()
        memo[id(weights)] = (weights, value)
        return value

    def bytes_in(self, tier: Tier) -> int:
        version, dram_bytes, nvm_bytes = self._bytes_cache
        if version != self.tier_version:
            dram_pages = int((self.tier == Tier.DRAM).sum())
            dram_bytes = dram_pages * self.page_size
            nvm_bytes = (self.n_pages - dram_pages) * self.page_size
            self._bytes_cache = (self.tier_version, dram_bytes, nvm_bytes)
        return dram_bytes if tier == Tier.DRAM else nvm_bytes

    # -- ground-truth access accounting --------------------------------------
    @property
    def pending_reads(self) -> np.ndarray:
        if self._pending_lazy:
            self._materialize_pending()
        return self._pending_reads

    @property
    def pending_writes(self) -> np.ndarray:
        if self._pending_lazy:
            self._materialize_pending()
        return self._pending_writes

    def _materialize_pending(self) -> None:
        self._pending_reads.fill(self._uniform_reads)
        self._pending_writes.fill(self._uniform_writes)
        self._pending_lazy = False

    def accumulate(self, weights: Optional[np.ndarray], reads: float, writes: float) -> None:
        """Distribute expected access counts over pages per ``weights``."""
        if reads < 0 or writes < 0:
            raise ValueError("access counts cannot be negative")
        if weights is None:
            if self.n_pages == 0:
                return
            per_page_r = reads / self.n_pages
            per_page_w = writes / self.n_pages
            if self._pending_lazy:
                self._uniform_reads += per_page_r
                self._uniform_writes += per_page_w
            else:
                self._pending_reads += per_page_r
                self._pending_writes += per_page_w
        else:
            if self._pending_lazy:
                self._materialize_pending()
            # Scale into a reused scratch buffer: same arithmetic, no
            # per-tick temporary allocation.
            scratch = self._scratch
            if reads:
                np.multiply(weights, reads, out=scratch)
                self._pending_reads += scratch
            if writes:
                np.multiply(weights, writes, out=scratch)
                self._pending_writes += scratch

    def clear_access_bits(self) -> None:
        self._uniform_reads = 0.0
        self._uniform_writes = 0.0
        if not self._pending_lazy:
            self._pending_reads[:] = 0.0
            self._pending_writes[:] = 0.0
            self._pending_lazy = True

    def __repr__(self) -> str:
        return (
            f"Region({self.name}, start={self.start:#x}, size={self.size}, "
            f"pages={self.n_pages}x{self.page_size}, kind={self.kind.value})"
        )
