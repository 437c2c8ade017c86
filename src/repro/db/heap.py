"""Slotted heap files over logical pages.

Rows are fixed width per table (TPC-C rows are), so a heap page holds
``page_bytes // row_bytes`` slots and a row id is ``(page, slot)``.
Every insert/read/update reports the logical page it touched through the
arena's touch callback — that record stream is what the access-model
adapter compiles into per-page weights.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.db.pages import DB_PAGE, PageAllocator, Touch, restore_attributes

Rid = Tuple[int, int]


class HeapFile:
    """Fixed-row-width slotted heap: insert/read/update/delete by rid.

    When a capped heap fills, inserts recycle the oldest page wholesale
    (TPC-C's history/order-line tables grow without bound; the
    functional database rotates instead, which keeps the page-touch
    distribution honest: fresh inserts always land on the write head).
    """

    __setstate__ = restore_attributes

    def __init__(self, name: str, row_bytes: int, allocator: PageAllocator,
                 touch: Touch, arena_id: int, page_bytes: int = DB_PAGE):
        if row_bytes <= 0:
            raise ValueError(f"{name}: row_bytes must be positive")
        self.name = name
        self.row_bytes = row_bytes
        self.allocator = allocator
        self.touch = touch
        self.arena_id = arena_id
        self.slots_per_page = max(page_bytes // row_bytes, 1)
        self.n_rows = 0
        self._pages: List[int] = []          # allocation order (for recycle)
        self._rows: Dict[Rid, tuple] = {}    # rid -> row payload
        self._head: Optional[int] = None     # current insert page
        self._head_used = 0

    def insert(self, row: tuple) -> Rid:
        """Append a row, recycling the oldest page if the extent is full."""
        if self._head is None or self._head_used >= self.slots_per_page:
            self._head = self._grab_page()
            self._head_used = 0
        rid = (self._head, self._head_used)
        self._head_used += 1
        self._rows[rid] = row
        self.n_rows += 1
        self.touch(self.arena_id, self._head, True)
        return rid

    def _grab_page(self) -> int:
        if (self.allocator.free_count == 0
                and self.allocator.high_water >= self.allocator.capacity):
            # Recycle the oldest page: drop its rows, reuse its id.
            victim = self._pages.pop(0)
            dropped = [rid for rid in self._rows if rid[0] == victim]
            for rid in dropped:
                del self._rows[rid]
                self.n_rows -= 1
            self.allocator.free(victim)
        page = self.allocator.alloc()
        self._pages.append(page)
        return page

    def rid_of(self, i: int) -> Rid:
        """Rid of the i-th inserted row (valid while no deletes occurred —
        used for the load-ordered warehouse/district tables)."""
        return (self._pages[i // self.slots_per_page], i % self.slots_per_page)

    def read(self, rid: Rid) -> Optional[tuple]:
        row = self._rows.get(rid)
        if row is not None:
            self.touch(self.arena_id, rid[0], False)
        return row

    def update(self, rid: Rid, row: tuple) -> bool:
        if rid not in self._rows:
            return False
        self._rows[rid] = row
        self.touch(self.arena_id, rid[0], True)
        return True

    def delete(self, rid: Rid) -> bool:
        row = self._rows.pop(rid, None)
        if row is None:
            return False
        self.n_rows -= 1
        self.touch(self.arena_id, rid[0], True)
        return True

    def __len__(self) -> int:
        return self.n_rows
