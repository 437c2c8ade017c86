"""Logical page arenas: the unit the database allocates in.

The functional database works in *logical pages* (4 KB by default — a
database block), many of which pack into one simulated region page
(2 MB huge pages).  An :class:`Arena` is one logical page space that
will back one simulated region; each storage structure (a heap file, a
B-tree) reserves an extent and allocates pages from its own
:class:`PageAllocator`, so touch records carry arena-global page ids
that the access-model adapter can map onto region pages.

Allocators keep an explicit free list and a high-water mark, giving the
conservation invariant the property tests pin down:
``live + free == high_water <= capacity``.
"""

from __future__ import annotations

from typing import Callable, List

#: default logical page size (a database block, not a VM page)
DB_PAGE = 4096

#: touch callback signature: (arena_id, logical_page, is_write)
Touch = Callable[[int, int, bool], None]


def restore_attributes(self, state: dict) -> None:
    """``__setstate__`` of the database's pickled classes.

    The default restore updates ``__dict__`` wholesale, which makes
    CPython 3.11 give up the object's inline attribute values for a real
    dict; setting each attribute keeps them, so a restored snapshot's
    attribute reads stay as fast as a freshly built object's.
    """
    for name, value in state.items():
        setattr(self, name, value)


class PageAllocator:
    """Fixed-size logical pages from one extent of an arena.

    Page ids are arena-global (``base`` offsets the extent), so two
    structures sharing an arena can never hand out the same id.
    """

    __setstate__ = restore_attributes

    def __init__(self, name: str, base: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"{name}: extent capacity must be positive")
        self.name = name
        self.base = base
        self.capacity = capacity
        self.high_water = 0
        self._free: List[int] = []
        self._live = 0

    def alloc(self) -> int:
        """Allocate one logical page (recycling freed pages LIFO)."""
        if self._free:
            pid = self._free.pop()
        elif self.high_water < self.capacity:
            pid = self.base + self.high_water
            self.high_water += 1
        else:
            raise MemoryError(
                f"{self.name}: extent exhausted ({self.capacity} pages)"
            )
        self._live += 1
        return pid

    def free(self, pid: int) -> None:
        if not self.base <= pid < self.base + self.high_water:
            raise ValueError(f"{self.name}: page {pid} was never allocated")
        self._live -= 1
        self._free.append(pid)

    @property
    def live(self) -> int:
        return self._live

    @property
    def free_count(self) -> int:
        return len(self._free)

    def check_conservation(self) -> None:
        """Allocated pages are conserved: live + free == high-water."""
        if self._live + len(self._free) != self.high_water:
            raise AssertionError(
                f"{self.name}: page leak — live {self._live} + free "
                f"{len(self._free)} != high water {self.high_water}"
            )
        if len(set(self._free)) != len(self._free):
            raise AssertionError(f"{self.name}: double free in free list")

    def __repr__(self) -> str:
        return (
            f"PageAllocator({self.name}, base={self.base}, "
            f"live={self._live}/{self.capacity})"
        )


class Arena:
    """One logical page space, backing one simulated region."""

    __setstate__ = restore_attributes

    def __init__(self, name: str, arena_id: int, page_bytes: int = DB_PAGE):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.name = name
        self.arena_id = arena_id
        self.page_bytes = page_bytes
        self.extents: List[PageAllocator] = []
        self.n_pages = 0  # total logical pages reserved so far

    def extent(self, name: str, n_pages: int) -> PageAllocator:
        """Reserve a contiguous extent and return its allocator."""
        allocator = PageAllocator(f"{self.name}.{name}", self.n_pages, n_pages)
        self.extents.append(allocator)
        self.n_pages += n_pages
        return allocator

    @property
    def size_bytes(self) -> int:
        return self.n_pages * self.page_bytes

    def check_conservation(self) -> None:
        for allocator in self.extents:
            allocator.check_conservation()
