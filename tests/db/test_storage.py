"""Tests for the functional TPC-C database: heap, loader, engine, adapter."""

import numpy as np
import pytest

from repro.db.adapter import TpccAccessModel
from repro.db.engine import TpccEngine
from repro.db.heap import HeapFile
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccLoader, TpccStorage
from repro.db.pages import DB_PAGE, Arena, PageAllocator
from repro.db.schema import MIX_WEIGHTS, TABLES, DbScale

SCALE = DbScale(warehouses=2, rows_scale=1000)


@pytest.fixture(scope="module")
def storage():
    storage = TpccStorage(SCALE)
    TpccLoader(storage, np.random.default_rng(11)).load()
    return storage


class TestSchema:
    def test_mix_weights_sum_to_one(self):
        assert sum(MIX_WEIGHTS.values()) == pytest.approx(1.0)

    def test_preloaded_tables_have_rows(self):
        for name, spec in TABLES.items():
            rows = SCALE.rows(name)
            if spec.preloaded:
                assert rows >= 1, name
            assert SCALE.capacity(name) >= rows

    def test_structural_tables_not_scaled_down(self):
        assert SCALE.rows("warehouse") == SCALE.warehouses
        assert SCALE.rows("district") == SCALE.warehouses * 10


class TestHeapFile:
    def _heap(self, capacity=16):
        touches = []
        alloc = PageAllocator("h", base=0, capacity=capacity)
        heap = HeapFile("h", row_bytes=1024, allocator=alloc,
                        touch=lambda a, p, w: touches.append((a, p, w)),
                        arena_id=7)
        return heap, touches

    def test_insert_read_update_delete(self):
        heap, touches = self._heap()
        rid = heap.insert(("a", 1))
        assert heap.read(rid) == ("a", 1)
        assert heap.update(rid, ("b", 2))
        assert heap.read(rid) == ("b", 2)
        assert heap.delete(rid)
        assert heap.read(rid) is None
        # insert + read + update + delete all touched arena 7
        assert {a for a, _p, _w in touches} == {7}
        assert any(w for _a, _p, w in touches)

    def test_rid_of_addresses_rows_in_load_order(self):
        heap, _ = self._heap()
        rids = [heap.insert((i,)) for i in range(20)]
        for i, rid in enumerate(rids):
            assert heap.rid_of(i) == rid

    def test_full_extent_recycles_oldest_page(self):
        heap, _ = self._heap(capacity=2)
        slots = heap.slots_per_page
        rid0 = heap.insert((0,))
        for i in range(1, 3 * slots):
            heap.insert((i,))
        # The extent never grows past its capacity; the oldest page's
        # rows were dropped to make room (page ids recycle, so a stale
        # rid now reads whatever row took its slot).
        heap.allocator.check_conservation()
        assert heap.allocator.live <= 2
        assert len(heap) <= 2 * slots
        assert heap.read(rid0) != (0,)


class TestArena:
    def test_extents_are_disjoint(self):
        arena = Arena("a", arena_id=0)
        x = arena.extent("x", 8)
        y = arena.extent("y", 8)
        assert x.base + 8 <= y.base
        assert arena.size_bytes == 16 * DB_PAGE
        arena.check_conservation()


class TestLoader:
    def test_row_counts(self, storage):
        assert len(storage.heaps["warehouse"]) == SCALE.warehouses
        assert len(storage.heaps["district"]) == SCALE.warehouses * 10
        assert len(storage.heaps["item"]) == SCALE.rows("item")
        assert len(storage.heaps["customer"]) == SCALE.rows("customer")
        assert len(storage.heaps["stock"]) == SCALE.rows("stock")

    def test_indexes_cover_loaded_rows(self, storage):
        assert len(storage.indexes["item"]) == len(storage.heaps["item"])
        assert len(storage.indexes["customer"]) == len(
            storage.heaps["customer"])

    def test_footprint_and_invariants(self, storage):
        heap_pages, index_pages = storage.footprint_pages
        assert heap_pages > 0 and index_pages > 0
        storage.check_invariants()

    def test_touches_only_recorded_inside_txn(self, storage):
        item = storage.heaps["item"]
        item.read(item.rid_of(0))  # outside a transaction: not recorded
        storage.begin_txn()
        item.read(item.rid_of(0))
        touches = storage.commit()
        assert len(touches) == 1
        assert touches[0][0] == HEAP_ARENA


class TestEngine:
    def test_mix_runs_and_keeps_invariants(self):
        storage = TpccStorage(SCALE)
        rng = np.random.default_rng(3)
        TpccLoader(storage, rng).load()
        engine = TpccEngine(storage, rng)
        for _ in range(500):
            name, touches = engine.run_one()
            assert name in MIX_WEIGHTS
            assert touches, "every transaction touches pages"
        storage.check_invariants()
        total = sum(engine.committed.values())
        assert total == 500
        # NewOrder and Payment dominate the mix at 45:43:4.
        assert engine.committed["new_order"] > engine.committed["delivery"]
        assert engine.committed["payment"] > engine.committed["delivery"]

    def test_same_seed_same_trace(self):
        def trace(seed):
            storage = TpccStorage(SCALE)
            rng = np.random.default_rng(seed)
            TpccLoader(storage, rng).load()
            engine = TpccEngine(storage, rng)
            return [engine.run_one() for _ in range(100)]

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)


class _FakeRegion:
    """Just enough region surface for the access-model adapter."""

    def __init__(self, n_pages, page_size, tier):
        self.n_pages = n_pages
        self.page_size = page_size
        self.size = n_pages * page_size
        self.tier = np.full(n_pages, tier, dtype=np.int8)
        self.tier_version = 0  # bumped after every tier write, as Region's


def _compiled_model() -> TpccAccessModel:
    storage = TpccStorage(SCALE)
    rng = np.random.default_rng(9)
    TpccLoader(storage, rng).load()
    model = TpccAccessModel(storage, TpccEngine(storage, rng),
                            profile_txns=200)
    model.compile()
    return model


class TestAccessModel:
    @pytest.fixture(scope="class")
    def model(self):
        return _compiled_model()

    def test_profile_shape(self, model):
        p = model.profile
        assert p["touches_per_tx"] == pytest.approx(
            p["heap_reads_per_tx"] + p["heap_writes_per_tx"]
            + p["index_reads_per_tx"] + p["index_writes_per_tx"])
        # every transaction probes at least one index and one heap page
        assert p["index_reads_per_tx"] >= 1.0
        assert p["heap_reads_per_tx"] >= 1.0

    def test_region_weights_normalised(self, model):
        from repro.mem.page import Tier

        region = _FakeRegion(64, 2 * 1024 * 1024, Tier.DRAM)
        for arena_id in (HEAP_ARENA, INDEX_ARENA):
            w = model.region_weights(arena_id, region)
            assert w is not None
            assert w.shape == (64,)
            assert w.sum() == pytest.approx(1.0)
            assert (w >= 0).all()

    def test_latency_orders_with_placement(self, model):
        from repro.db.adapter import T_DRAM_READ, T_NVM_READ
        from repro.mem.page import Tier

        rng = np.random.default_rng(2)
        fast = _FakeRegion(64, 2 * 1024 * 1024, Tier.DRAM)
        slow = _FakeRegion(64, 2 * 1024 * 1024, Tier.NVM)
        lat_fast = model.txn_latency_percentiles(fast, fast, rng)
        lat_slow = model.txn_latency_percentiles(slow, slow, rng)
        assert lat_slow[99] > lat_fast[99]
        assert lat_slow[50] > lat_fast[50]
        assert T_NVM_READ > T_DRAM_READ  # the constants the model prices

    @pytest.mark.parametrize("kwargs", [{"profile_txns": 0},
                                        {"keep_templates": 0}])
    def test_rejects_empty_profile(self, storage, kwargs):
        engine = TpccEngine(storage, np.random.default_rng(1))
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TpccAccessModel(storage, engine, **kwargs)


class TestTemplatePricingMemo:
    """The compiled templates and the per-template cost memo are exact."""

    KW = dict(cpu_ns_per_tx=14_000.0, access_overhead_ns=35.0, mlp=2.0)

    @staticmethod
    def _regions():
        from repro.mem.page import Tier

        rng = np.random.default_rng(5)
        heap = _FakeRegion(64, 2 * 1024 * 1024, Tier.DRAM)
        index = _FakeRegion(16, 2 * 1024 * 1024, Tier.DRAM)
        for region in (heap, index):
            region.tier[rng.random(region.n_pages) < 0.5] = Tier.NVM
            region.tier_version += 1
        return heap, index

    def _latency(self, model, heap, index, seed=3):
        return model.txn_latency_percentiles(
            heap, index, np.random.default_rng(seed), **self.KW)

    def test_warm_cache_matches_fresh_model(self):
        from repro.mem.page import Tier

        warm = _compiled_model()
        heap, index = self._regions()
        self._latency(warm, heap, index, seed=1)  # fill the memos
        assert self._latency(warm, heap, index) == self._latency(
            _compiled_model(), heap, index)
        # A tier write with its version bump must invalidate the costs.
        before = self._latency(warm, heap, index)
        heap.tier[:] = Tier.NVM
        index.tier[:] = Tier.NVM
        heap.tier_version += 1
        index.tier_version += 1
        after = self._latency(warm, heap, index)
        assert after == self._latency(_compiled_model(), heap, index)
        assert after[50] > before[50]

    def test_template_costs_match_price_txn(self):
        model = _compiled_model()
        heap, index = self._regions()
        self._latency(model, heap, index)
        costs = model._template_costs(
            heap, index, self.KW["cpu_ns_per_tx"],
            self.KW["access_overhead_ns"], self.KW["mlp"])
        for cost, (_, touches) in zip(costs, model.templates):
            assert float(cost) == model.price_txn(touches, heap, index,
                                                  **self.KW)
