"""TPC-C on the Silo database: schema, loader, and transaction mix.

Follows the TPC-C specification's structure (warehouse / district /
customer / order / order-line / stock / item / history / new-order tables,
NURand key skew, 1% remote new-order lines, 15% remote payments) with a
``rows_scale`` knob that shrinks per-warehouse row counts so functional
runs stay fast in Python.  The *shape* of each transaction — which tables
it reads, updates, and inserts into — is per spec, which is what the
memory-access profile depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.sim.rng import WeightedChoice
from repro.workloads.silo.db import Database, TransactionAborted

#: TPC-C transaction mix (standard weights).
MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)


@dataclass
class TpccConfig:
    """Workload shape; ``rows_scale`` divides per-warehouse row counts."""

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 3000
    items: int = 100_000
    rows_scale: int = 100
    remote_new_order_frac: float = 0.01
    remote_payment_frac: float = 0.15

    def __post_init__(self):
        if self.warehouses <= 0:
            raise ValueError("need at least one warehouse")
        if self.rows_scale <= 0:
            raise ValueError("rows_scale must be positive")

    @property
    def customers(self) -> int:
        return max(self.customers_per_district // self.rows_scale, 10)

    @property
    def n_items(self) -> int:
        return max(self.items // self.rows_scale, 20)


class TpccDriver:
    """Loads TPC-C data and executes the transaction mix."""

    def __init__(self, config: TpccConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self.rng = rng or np.random.default_rng(0)
        self.db = Database()
        self.executed: Dict[str, int] = {name: 0 for name, _w in MIX}
        self.aborted: Dict[str, int] = {name: 0 for name, _w in MIX}
        self._mix_names = [name for name, _w in MIX]
        self._mix = WeightedChoice([w for _n, w in MIX])
        self._load()

    # -- loader ---------------------------------------------------------------
    def _load(self) -> None:
        cfg = self.config
        db = self.db
        for name in ("warehouse", "district", "customer", "history", "new_order",
                     "order", "order_line", "item", "stock"):
            db.create_table(name)

        for i in range(cfg.n_items):
            db.table("item").insert_raw(i, {"name": f"item{i}", "price": 1.0 + i % 100})

        for w in range(cfg.warehouses):
            db.table("warehouse").insert_raw(w, {"ytd": 0.0, "tax": 0.05})
            for s in range(cfg.n_items):
                db.table("stock").insert_raw(
                    (w, s), {"quantity": 50, "ytd": 0, "order_cnt": 0, "remote_cnt": 0}
                )
            for d in range(cfg.districts_per_warehouse):
                db.table("district").insert_raw(
                    (w, d), {"ytd": 0.0, "tax": 0.05, "next_o_id": 1}
                )
                for c in range(cfg.customers):
                    db.table("customer").insert_raw(
                        (w, d, c),
                        {"balance": -10.0, "ytd_payment": 10.0, "payment_cnt": 1,
                         "delivery_cnt": 0, "credit": "GC"},
                    )

    # -- helpers --------------------------------------------------------------
    def _nurand(self, a: int, x: int, y: int) -> int:
        rng = self.rng
        return ((int(rng.integers(0, a + 1)) | int(rng.integers(x, y + 1))) % (y - x + 1)) + x

    def _random_item(self) -> int:
        return self._nurand(8191, 0, self.config.n_items - 1)

    def _random_customer(self) -> int:
        return self._nurand(1023, 0, self.config.customers - 1)

    # -- entry point -----------------------------------------------------------
    def run_one(self, home_warehouse: Optional[int] = None) -> str:
        """Execute one transaction from the mix; returns its name."""
        if home_warehouse is None:
            home_warehouse = int(self.rng.integers(0, self.config.warehouses))
        name = self._mix_names[self._mix.draw(self.rng)]
        runner = getattr(self, f"_tx_{name}")
        try:
            runner(home_warehouse)
            self.executed[name] += 1
        except TransactionAborted:
            self.aborted[name] += 1
        return name

    # -- transactions ----------------------------------------------------------
    def _tx_new_order(self, w: int) -> None:
        cfg = self.config
        rng = self.rng
        d = int(rng.integers(0, cfg.districts_per_warehouse))
        c = self._random_customer()
        tx = self.db.transaction()

        warehouse = tx.read("warehouse", w)
        district = tx.read("district", (w, d))
        tx.read("customer", (w, d, c))

        o_id = district["next_o_id"]
        tx.write("district", (w, d), {**district, "next_o_id": o_id + 1})

        n_lines = int(rng.integers(5, 16))
        all_local = 1
        for line in range(n_lines):
            item_id = self._random_item()
            supply_w = w
            if cfg.warehouses > 1 and rng.random() < cfg.remote_new_order_frac:
                supply_w = int(rng.integers(0, cfg.warehouses))
                if supply_w != w:
                    all_local = 0
            item = tx.read("item", item_id)
            stock = tx.read("stock", (supply_w, item_id))
            qty = int(rng.integers(1, 11))
            new_quantity = stock["quantity"] - qty
            if new_quantity < 10:
                new_quantity += 91
            tx.write("stock", (supply_w, item_id), {
                **stock,
                "quantity": new_quantity,
                "ytd": stock["ytd"] + qty,
                "order_cnt": stock["order_cnt"] + 1,
                "remote_cnt": stock["remote_cnt"] + (supply_w != w),
            })
            tx.insert("order_line", (w, d, o_id, line), {
                "item": item_id, "supply_w": supply_w, "qty": qty,
                "amount": qty * item["price"] * (1 + warehouse["tax"] + district["tax"]),
            })
        tx.insert("order", (w, d, o_id), {
            "customer": c, "lines": n_lines, "all_local": all_local, "carrier": None,
        })
        tx.insert("new_order", (w, d, o_id), {})
        tx.commit()

    def _tx_payment(self, w: int) -> None:
        cfg = self.config
        rng = self.rng
        d = int(rng.integers(0, cfg.districts_per_warehouse))
        c_w, c_d = w, d
        if cfg.warehouses > 1 and rng.random() < cfg.remote_payment_frac:
            c_w = int(rng.integers(0, cfg.warehouses))
            c_d = int(rng.integers(0, cfg.districts_per_warehouse))
        c = self._random_customer()
        amount = float(rng.uniform(1.0, 5000.0))
        tx = self.db.transaction()

        warehouse = tx.read("warehouse", w)
        tx.write("warehouse", w, {**warehouse, "ytd": warehouse["ytd"] + amount})
        district = tx.read("district", (w, d))
        tx.write("district", (w, d), {**district, "ytd": district["ytd"] + amount})
        customer = tx.read("customer", (c_w, c_d, c))
        tx.write("customer", (c_w, c_d, c), {
            **customer,
            "balance": customer["balance"] - amount,
            "ytd_payment": customer["ytd_payment"] + amount,
            "payment_cnt": customer["payment_cnt"] + 1,
        })
        tx.insert("history", (w, d, c_w, c_d, c, self.db.commits), {"amount": amount})
        tx.commit()

    def _tx_order_status(self, w: int) -> None:
        rng = self.rng
        d = int(rng.integers(0, self.config.districts_per_warehouse))
        c = self._random_customer()
        tx = self.db.transaction()
        tx.read("customer", (w, d, c))
        # Most recent order for the district (spec: for the customer; the
        # per-district scan keeps the read shape without a customer index).
        orders = tx.scan("order", (w, d, 0), (w, d, 1 << 60))
        if orders:
            (key, order) = orders[-1]
            for line in range(order["lines"]):
                tx.read("order_line", (w, d, key[2], line))
        tx.commit()

    def _tx_delivery(self, w: int) -> None:
        tx = self.db.transaction()
        for d in range(self.config.districts_per_warehouse):
            pending = tx.scan("new_order", (w, d, 0), (w, d, 1 << 60))
            if not pending:
                continue
            (key, _payload) = pending[0]
            o_id = key[2]
            order = tx.read("order", (w, d, o_id))
            tx.write("order", (w, d, o_id), {**order, "carrier": 7})
            total = 0.0
            for line in range(order["lines"]):
                ol = tx.read("order_line", (w, d, o_id, line))
                total += ol["amount"]
            c = order["customer"]
            customer = tx.read("customer", (w, d, c))
            tx.write("customer", (w, d, c), {
                **customer,
                "balance": customer["balance"] + total,
                "delivery_cnt": customer["delivery_cnt"] + 1,
            })
            # Consume the new-order entry (Silo models delete as tombstone).
            tx.write("new_order", (w, d, o_id), {"delivered": True})
        tx.commit()

    def _tx_stock_level(self, w: int) -> None:
        rng = self.rng
        d = int(rng.integers(0, self.config.districts_per_warehouse))
        tx = self.db.transaction()
        district = tx.read("district", (w, d))
        next_o = district["next_o_id"]
        low = 0
        for o_id in range(max(1, next_o - 20), next_o):
            order = tx.read("order", (w, d, o_id))
            if order is None:
                continue
            for line in range(order["lines"]):
                ol = tx.read("order_line", (w, d, o_id, line))
                if ol is None:
                    continue
                stock = tx.read("stock", (ol["supply_w"], ol["item"]))
                if stock["quantity"] < 15:
                    low += 1
        tx.commit()

    # -- calibration -----------------------------------------------------------
    def measure_access_profile(self, n_transactions: int = 500) -> Dict[str, float]:
        """Run the mix and report record accesses per committed transaction.

        The Silo adapter uses this to parameterise its access streams.
        """
        counter = self.db.counter
        counter.reset()
        commits_before = self.db.commits
        for _ in range(n_transactions):
            self.run_one()
        commits = max(self.db.commits - commits_before, 1)
        return {
            "reads_per_tx": counter.reads / commits,
            "writes_per_tx": counter.writes / commits,
            "index_probes_per_tx": counter.index_probes / commits,
        }
