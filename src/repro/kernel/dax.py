"""DAX files: the allocation backing HeMem maps each tier through.

HeMem reserves DRAM via the ``memmap`` kernel argument and exposes both
tiers as DAX (direct-access) device files mapped into the process at
startup; managed pages are then assigned (tier, file offset) pairs.  The
model keeps byte-accurate offset allocation with a free list so offsets are
recycled, which is what lets migration swap a DRAM page and an NVM page
without ever doubling the footprint.
"""

from __future__ import annotations

from typing import List

from repro.mem.page import Tier


class DaxFile:
    """Offset allocator over one tier's preallocated capacity."""

    def __init__(self, tier: Tier, capacity: int, page_size: int):
        if capacity <= 0 or page_size <= 0:
            raise ValueError("capacity and page size must be positive")
        if capacity % page_size != 0:
            capacity -= capacity % page_size
        self.tier = tier
        self.capacity = capacity
        self.page_size = page_size
        self.n_pages = capacity // page_size
        self._free: List[int] = list(range(self.n_pages - 1, -1, -1))

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.n_pages - len(self._free)

    @property
    def free_bytes(self) -> int:
        return self.free_pages * self.page_size

    def alloc_page(self) -> int:
        """Return a free page offset index; raises MemoryError when full."""
        if not self._free:
            raise MemoryError(f"DAX file for {self.tier.name} is full")
        return self._free.pop()

    def alloc_pages(self, n: int) -> List[int]:
        """``n`` offsets in the order ``n`` :meth:`alloc_page` calls return."""
        if n < 0:
            raise ValueError(f"negative page count: {n}")
        free = self._free
        if n > len(free):
            raise MemoryError(
                f"DAX file for {self.tier.name}: want {n} pages, {len(free)} free"
            )
        cut = len(free) - n
        out = free[cut:]
        del free[cut:]
        out.reverse()  # pop order: the tail of the free list first
        return out

    def free_page(self, offset_index: int) -> None:
        if not 0 <= offset_index < self.n_pages:
            raise ValueError(f"offset index out of range: {offset_index}")
        self._free.append(offset_index)

    def offset_bytes(self, offset_index: int) -> int:
        return offset_index * self.page_size

    def __repr__(self) -> str:
        return f"DaxFile({self.tier.name}, used={self.used_pages}/{self.n_pages})"
