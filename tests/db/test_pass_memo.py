"""The functional-pass memo: a hit replays a cold pass exactly.

``load_profiled`` memoizes the load + profile pass per process.  A hit
must be indistinguishable from a cold miss at the same generator state:
same profile, templates, counts and weights, the same generator state
afterwards, and the same live transactions from then on, while every
caller still mutates a storage of its own.
"""

import types

import numpy as np
import pytest

from repro.db import adapter
from repro.db.adapter import PASS_MEMO_SIZE, TpccAccessModel, load_profiled
from repro.db.engine import TpccEngine
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccLoader, TpccStorage
from repro.db.schema import DbScale
from repro.mem.page import HUGE_PAGE
from repro.sim.rng import make_rng

SCALE = DbScale(warehouses=2, rows_scale=200)
PROFILE = 150


class _FakeRegion:
    """The region shape ``region_weights`` reads."""

    def __init__(self, n_pages):
        self.n_pages = n_pages
        self.page_size = HUGE_PAGE
        self.size = n_pages * HUGE_PAGE


@pytest.fixture
def memo():
    adapter._PASSES.clear()
    yield adapter._PASSES
    adapter._PASSES.clear()


def profiled(seed=42, scale=SCALE, profile_txns=PROFILE):
    rng = make_rng(seed, "workload")
    return load_profiled(scale, rng, profile_txns=profile_txns), rng


def weights(model):
    regions = {HEAP_ARENA: _FakeRegion(64), INDEX_ARENA: _FakeRegion(16)}
    return [model.region_weights(arena, region, writes_only=writes)
            for arena, region in regions.items() for writes in (False, True)]


def same(a, b, restored) -> bool:
    """``b`` is a restored copy of ``a``: the same types, the same
    attribute names in the same order, and equal values all the way down.
    ``restored`` maps each visited original object's id to its copy."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            same(x, y, restored) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(
            same(a[k], b[k], restored) for k in a)
    if isinstance(a, types.MethodType):
        return a.__func__ is b.__func__ and same(a.__self__, b.__self__,
                                                 restored)
    slots = getattr(type(a), "__slots__", None)
    if slots is None and not hasattr(a, "__dict__"):
        return a == b
    if id(a) in restored:
        return restored[id(a)] is b
    restored[id(a)] = b
    if slots is not None:
        return all(same(getattr(a, n), getattr(b, n), restored)
                   for n in slots)
    return list(vars(a)) == list(vars(b)) and all(
        same(v, getattr(b, k), restored) for k, v in vars(a).items())


def shared_arrays(model):
    return [*model.read_counts.values(), *model.write_counts.values(),
            *weights(model)]


class TestPassMemo:
    def test_cold_miss_matches_an_unmemoized_pass(self, memo):
        cold, cold_rng = profiled()
        rng = make_rng(42, "workload")
        storage = TpccStorage(SCALE)
        TpccLoader(storage, rng).load()
        ref = TpccAccessModel(storage, TpccEngine(storage, rng),
                              profile_txns=PROFILE)
        ref.compile()
        assert cold.profile == ref.profile
        assert cold.templates == ref.templates
        for arena in (HEAP_ARENA, INDEX_ARENA):
            assert np.array_equal(cold.read_counts[arena],
                                  ref.read_counts[arena])
            assert np.array_equal(cold.write_counts[arena],
                                  ref.write_counts[arena])
        assert cold_rng.bit_generator.state == rng.bit_generator.state

    def test_hit_replays_the_cold_pass(self, memo):
        cold, cold_rng = profiled()
        cold_weights = weights(cold)
        hot, hot_rng = profiled()
        assert len(memo) == 1
        assert hot.storage is not cold.storage
        assert hot.engine is not cold.engine
        assert hot.engine.rng is hot_rng
        assert hot.profile == cold.profile
        assert hot.templates == cold.templates
        for arena in (HEAP_ARENA, INDEX_ARENA):
            assert np.array_equal(hot.read_counts[arena],
                                  cold.read_counts[arena])
            assert np.array_equal(hot.write_counts[arena],
                                  cold.write_counts[arena])
        for a, b in zip(weights(hot), cold_weights):
            assert np.array_equal(a, b)
        assert hot_rng.bit_generator.state == cold_rng.bit_generator.state
        assert hot.engine.committed == cold.engine.committed
        assert ([cold.engine.run_one() for _ in range(200)]
                == [hot.engine.run_one() for _ in range(200)])
        assert hot_rng.bit_generator.state == cold_rng.bit_generator.state

    def test_shared_arrays_are_read_only(self, memo):
        cold, _ = profiled()
        hot, _ = profiled()
        for model in (cold, hot):
            arrays = [a for a in shared_arrays(model) if a is not None]
            assert arrays
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                arrays[0][0] = 1.0

    def test_hits_mutate_their_own_storage(self, memo):
        profiled()
        a, _ = profiled()
        b, _ = profiled()
        assert a.storage is not b.storage
        committed = dict(b.engine.committed)
        for _ in range(20):
            a.engine.run_one()
        assert b.engine.committed == committed
        assert sum(a.engine.committed.values()) == sum(committed.values()) + 20
        a.storage.check_invariants()
        b.storage.check_invariants()

    def test_restored_structures_record_into_their_own_storage(self, memo):
        profiled()
        hot, _ = profiled()
        storage = hot.storage
        assert hot.engine.storage is storage
        for structure in (*storage.heaps.values(), *storage.indexes.values()):
            assert structure.touch.__self__ is storage
        name, touches = hot.engine.run_one()
        assert touches, "a live transaction's touches reach its storage"

    def test_restore_keeps_every_attribute(self, memo):
        cold, _ = profiled()
        hot, _ = profiled()
        for model in (cold, hot):
            model.engine.rng = None  # compared through its state above
        restored = {}
        assert same(cold.storage, hot.storage, restored)
        assert same(cold.engine, hot.engine, restored)
        assert {type(b).__name__ for b in restored.values()} >= {
            "TpccStorage", "TpccEngine", "Arena", "PageAllocator",
            "HeapFile", "BTree"}

    @pytest.mark.parametrize("change", [
        {"seed": 7},
        {"profile_txns": PROFILE + 1},
        {"scale": DbScale(warehouses=1, rows_scale=200)},
    ])
    def test_other_inputs_miss(self, memo, change):
        base, _ = profiled()
        other, _ = profiled(**change)
        assert len(memo) == 2
        assert other.read_counts is not base.read_counts

    def test_memo_is_bounded(self, memo):
        for seed in range(PASS_MEMO_SIZE + 2):
            profiled(seed=seed)
        assert len(memo) == PASS_MEMO_SIZE
