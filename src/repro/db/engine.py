"""The TPC-C transaction mix, executed against :class:`TpccStorage`.

NewOrder/Payment/Delivery at the standard 45:43:4 weights (clause 5.2),
with NURand skew on customer and item selection (clause 2.1.6).  Each
transaction runs for real against the heaps and indexes — probing,
inserting, updating — and commits a list of logical-page touches, the
raw material the access-model adapter compiles into per-page weights
and per-transaction latency templates.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.db.loader import TouchRecord, TpccStorage
from repro.db.pages import restore_attributes
from repro.db.schema import (
    MIX_WEIGHTS, NURAND_C_ID, NURAND_OL_I_ID, TABLES,
)
from repro.sim.rng import WeightedChoice


class TpccEngine:
    """Deterministic TPC-C mix over a loaded storage."""

    __setstate__ = restore_attributes

    def __init__(self, storage: TpccStorage, rng: np.random.Generator):
        self.storage = storage
        self.rng = rng
        scale = storage.scale
        self.n_wh = scale.warehouses
        self.n_districts = TABLES["district"].rows_per_wh
        self.n_customers = scale.rows("customer") // scale.warehouses
        self.n_items = scale.rows("item")
        self._names = list(MIX_WEIGHTS)
        self._mix = WeightedChoice([MIX_WEIGHTS[n] for n in self._names])
        # next order id per (warehouse, district); delivery consumes the
        # oldest undelivered order per district, as the spec's queue does.
        self._next_o_id: Dict[tuple, int] = {}
        self._undelivered: Dict[tuple, List[int]] = {}
        self.committed: Dict[str, int] = {n: 0 for n in self._names}

    def _nurand(self, a: int, c: int, x: int, y: int) -> int:
        r1 = int(self.rng.integers(0, a + 1))
        r2 = int(self.rng.integers(x, y + 1))
        return (((r1 | r2) + c) % (y - x + 1)) + x

    def _pick_customer(self) -> int:
        return self._nurand(1023, NURAND_C_ID, 0, self.n_customers - 1) \
            % self.n_customers

    def _pick_item(self) -> int:
        return self._nurand(8191, NURAND_OL_I_ID, 0, self.n_items - 1) \
            % self.n_items

    def _pick_txn(self) -> str:
        """The next transaction's name: one ``random()`` draw, exactly as
        ``rng.choice(len(names), p=weights)`` would pick it."""
        return self._names[self._mix.draw(self.rng)]

    def run_one(self) -> tuple[str, List[TouchRecord]]:
        """Execute one mix-weighted transaction; returns
        ``(txn_name, touches)``."""
        name = self._pick_txn()
        self.storage.begin_txn()
        getattr(self, "_" + name)()
        touches = self.storage.commit()
        self.committed[name] += 1
        return name, touches

    def run(self, n: int) -> List[tuple]:
        return [self.run_one() for _ in range(n)]

    # ------------------------------------------------------ transactions
    def _new_order(self) -> None:
        s = self.storage
        w_id = int(self.rng.integers(0, self.n_wh))
        d_id = int(self.rng.integers(0, self.n_districts))
        c_id = self._pick_customer()

        # district read-update: take and bump the next order id
        d_rid = s.heaps["district"].rid_of(w_id * self.n_districts + d_id)
        s.heaps["district"].read(d_rid)
        o_id = self._next_o_id.setdefault((w_id, d_id), 0)
        self._next_o_id[(w_id, d_id)] = o_id + 1
        s.heaps["district"].update(d_rid, ("district", w_id, d_id, 3_000.0,
                                           o_id + 1))

        c_rid = s.indexes["customer"].search((w_id, c_id))
        if c_rid is not None:
            s.heaps["customer"].read(c_rid)

        o_rid = s.heaps["order"].insert(("order", w_id, d_id, o_id, c_id))
        s.indexes["order"].insert((w_id, d_id, o_id), o_rid)
        no_rid = s.heaps["new_order"].insert(("new_order", w_id, d_id, o_id))
        s.indexes["new_order"].insert((w_id, d_id, o_id), no_rid)
        self._undelivered.setdefault((w_id, d_id), []).append(o_id)

        n_lines = int(self.rng.integers(5, 16))  # ol_cnt uniform [5, 15]
        for _ in range(n_lines):
            i_id = self._pick_item()
            i_rid = s.indexes["item"].search(i_id)
            if i_rid is not None:
                s.heaps["item"].read(i_rid)
            st_rid = s.indexes["stock"].search((w_id, i_id % self.n_items))
            if st_rid is not None:
                row = s.heaps["stock"].read(st_rid)
                qty = row[3] if row else 50
                qty = qty - 5 if qty > 14 else qty + 91
                s.heaps["stock"].update(st_rid,
                                        ("stock", w_id, i_id, qty))
            s.heaps["order_line"].insert(
                ("order_line", w_id, d_id, o_id, i_id, 5))

    def _payment(self) -> None:
        s = self.storage
        w_id = int(self.rng.integers(0, self.n_wh))
        d_id = int(self.rng.integers(0, self.n_districts))
        c_id = self._pick_customer()
        amount = float(self.rng.integers(100, 500_000)) / 100.0

        w_rid = s.heaps["warehouse"].rid_of(w_id)
        s.heaps["warehouse"].read(w_rid)
        s.heaps["warehouse"].update(w_rid, ("warehouse", w_id, amount))
        s.heaps["district"].read(
            s.heaps["district"].rid_of(w_id * self.n_districts + d_id))
        c_rid = s.indexes["customer"].search((w_id, c_id))
        if c_rid is not None:
            row = s.heaps["customer"].read(c_rid)
            bal = (row[3] if row else 0.0) - amount
            s.heaps["customer"].update(c_rid,
                                       ("customer", w_id, c_id, bal, 10.0))
        s.heaps["history"].insert(("history", w_id, d_id, c_id, amount))

    def _delivery(self) -> None:
        """Deliver the oldest new order in each district of one warehouse."""
        s = self.storage
        w_id = int(self.rng.integers(0, self.n_wh))
        for d_id in range(self.n_districts):
            queue = self._undelivered.get((w_id, d_id))
            if not queue:
                continue
            o_id = queue.pop(0)
            no_rid = s.indexes["new_order"].search((w_id, d_id, o_id))
            if no_rid is not None:
                s.heaps["new_order"].delete(no_rid)
            s.indexes["new_order"].delete((w_id, d_id, o_id))
            o_rid = s.indexes["order"].search((w_id, d_id, o_id))
            if o_rid is not None:
                row = s.heaps["order"].read(o_rid)
                if row is not None:
                    c_id = row[4]
                    c_rid = s.indexes["customer"].search((w_id, c_id))
                    if c_rid is not None:
                        s.heaps["customer"].read(c_rid)
                        s.heaps["customer"].update(
                            c_rid, ("customer", w_id, c_id, 0.0, 10.0))
