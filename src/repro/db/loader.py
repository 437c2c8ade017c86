"""TPC-C storage layout and initial population.

:class:`TpccStorage` carves two arenas — ``heap`` (table rows) and
``index`` (B-tree nodes) — and records every logical-page touch between
``begin_txn`` and ``commit`` so the engine can hand per-transaction
touch lists to the access-model adapter.  :class:`TpccLoader` populates
the warehouses/districts/customers/stock heaps and their indexes the
way the spec's initial load does, all through the same touch-recorded
paths the transaction mix uses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.db.btree import BTree
from repro.db.heap import HeapFile
from repro.db.pages import DB_PAGE, Arena, restore_attributes
from repro.db.schema import DbScale, TABLES

#: arena ids used in touch records
HEAP_ARENA = 0
INDEX_ARENA = 1

#: (arena_id, logical_page, is_write)
TouchRecord = Tuple[int, int, bool]


class TpccStorage:
    """Heap files + B-tree indexes over two touch-recorded arenas."""

    __setstate__ = restore_attributes

    #: tables that get a B-tree primary index (the mix probes these);
    #: history/order_line are append-mostly and scanned via rids.
    INDEXED = ("item", "customer", "stock", "order", "new_order")

    def __init__(self, scale: DbScale, page_bytes: int = DB_PAGE,
                 btree_order: int = 32):
        self.scale = scale
        self.page_bytes = page_bytes
        self.heap_arena = Arena("heap", HEAP_ARENA, page_bytes)
        self.index_arena = Arena("index", INDEX_ARENA, page_bytes)
        self._txn: List[TouchRecord] = []
        self._recording = False

        self.heaps: Dict[str, HeapFile] = {}
        for name, spec in TABLES.items():
            rows = scale.capacity(name)
            slots = max(page_bytes // spec.row_bytes, 1)
            n_pages = (rows + slots - 1) // slots
            self.heaps[name] = HeapFile(
                name, spec.row_bytes,
                self.heap_arena.extent(name, n_pages),
                self._touch, HEAP_ARENA, page_bytes)

        self.indexes: Dict[str, BTree] = {}
        for name in self.INDEXED:
            rows = scale.capacity(name)
            # Extent sized for worst-case leaf occupancy plus interior
            # overhead; B-tree nodes are one page each.
            n_pages = max(4 * rows // btree_order + 8, 16)
            self.indexes[name] = BTree(
                name, self.index_arena.extent(name, n_pages),
                self._touch, INDEX_ARENA, order=btree_order)

    def _touch(self, arena_id: int, page: int, is_write: bool) -> None:
        if self._recording:
            self._txn.append((arena_id, page, is_write))

    def begin_txn(self) -> None:
        self._recording = True
        self._txn = []

    def commit(self) -> List[TouchRecord]:
        self._recording = False
        touches, self._txn = self._txn, []
        return touches

    @property
    def footprint_pages(self) -> Tuple[int, int]:
        """(heap_pages, index_pages) reserved — the arena shapes the
        workload maps onto manager-allocated regions."""
        return self.heap_arena.n_pages, self.index_arena.n_pages

    def check_invariants(self) -> None:
        self.heap_arena.check_conservation()
        self.index_arena.check_conservation()
        for tree in self.indexes.values():
            tree.check_invariants()


class TpccLoader:
    """Initial population (TPC-C clause 4.3, scaled)."""

    def __init__(self, storage: TpccStorage, rng: np.random.Generator):
        self.storage = storage
        self.rng = rng

    def load(self) -> None:
        s = self.storage
        scale = s.scale
        rng = self.rng

        for i_id in range(scale.rows("item")):
            price = float(rng.integers(100, 10_000)) / 100.0
            rid = s.heaps["item"].insert(("item", i_id, price))
            s.indexes["item"].insert(i_id, rid)

        n_customers = scale.rows("customer") // scale.warehouses
        n_stock = scale.rows("stock") // scale.warehouses
        n_items = scale.rows("item")
        for w_id in range(scale.warehouses):
            s.heaps["warehouse"].insert(("warehouse", w_id, 300_000.0))
            for d_id in range(TABLES["district"].rows_per_wh):
                s.heaps["district"].insert(("district", w_id, d_id, 3_000.0, 1))
            for c_id in range(n_customers):
                rid = s.heaps["customer"].insert(
                    ("customer", w_id, c_id, -10.0, 10.0))
                s.indexes["customer"].insert((w_id, c_id), rid)
            for i_id in range(n_stock):
                rid = s.heaps["stock"].insert(
                    ("stock", w_id, i_id % n_items,
                     int(rng.integers(10, 101))))
                s.indexes["stock"].insert((w_id, i_id % n_items), rid)
