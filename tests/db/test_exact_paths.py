"""The live TPC-C fast paths are exact.

- ``price_txn`` prices from a memoized placement snapshot; it must give
  the float the original per-call numpy formula
  (``tests.oracles.legacy_pricing``) gives, and a tier write with its
  ``tier_version`` bump must miss the snapshot.
- ``TpccEngine`` picks the next transaction from a cached CDF; it must
  pick what ``Generator.choice(3, p=weights)`` picks, draw for draw, and
  leave the generator in the same state.
"""

import numpy as np
import pytest

from repro.db.adapter import TpccAccessModel
from repro.db.engine import TpccEngine
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccStorage
from repro.db.schema import MIX_WEIGHTS, DbScale
from repro.mem.page import Tier

from tests.oracles.legacy_pricing import legacy_price_txn

SCALE = DbScale(warehouses=2, rows_scale=200)
KW = dict(cpu_ns_per_tx=14_000.0, access_overhead_ns=70.0, mlp=2.0)
KB = 1024
#: (region pages, region page size): the first folds the arena onto fewer
#: pages than it spans, so the top logical pages clamp to the last one;
#: the others stretch it (expansion > 1) or leave pages idle
SHAPES = [(8, 16 * KB), (4, 2048 * KB), (40, 64 * KB), (1, 2048 * KB),
          (25, 16 * KB)]


class _FakeRegion:
    """The region surface the adapter reads."""

    def __init__(self, n_pages, page_size, rng):
        self.n_pages = n_pages
        self.page_size = page_size
        self.size = n_pages * page_size
        self.tier = np.where(rng.random(n_pages) < 0.5, Tier.DRAM,
                             Tier.NVM).astype(np.uint8)
        self.tier[0] = Tier.DRAM
        self.tier[-1] = Tier.NVM if n_pages > 1 else Tier.DRAM
        self.tier_version = 0


def _model():
    # price_txn reads only the arenas' shapes: no load or profile needed.
    storage = TpccStorage(SCALE)
    return TpccAccessModel(storage, TpccEngine(storage,
                                               np.random.default_rng(0)))


def _touches(model, rng, arenas):
    """Random touches over ``arenas``, each arena's last logical page
    among them; lists past 128 touches take numpy's recursive pairwise
    sum."""
    out = []
    for arena_id in arenas:
        last = model._arenas[arena_id].n_pages - 1
        out.append((arena_id, last, bool(rng.random() < 0.5)))
        for _ in range(int(rng.integers(1, 300))):
            out.append((arena_id, int(rng.integers(0, last + 1)),
                        bool(rng.random() < 0.4)))
    rng.shuffle(out)
    return [tuple(t) for t in out]


def test_first_shape_clamps():
    model = _model()
    n_pages, page_size = SHAPES[0]
    region = _FakeRegion(n_pages, page_size, np.random.default_rng(0))
    for arena_id in (HEAP_ARENA, INDEX_ARENA):
        e, slots = model._expansion(arena_id, region)
        last = model._arenas[arena_id].n_pages - 1
        assert last * e // slots > region.n_pages - 1


@pytest.mark.parametrize("seed", range(12))
def test_price_txn_matches_numpy_formula(seed):
    rng = np.random.default_rng(seed)
    model = _model()
    heap = _FakeRegion(*SHAPES[int(rng.integers(len(SHAPES)))], rng)
    index = _FakeRegion(*SHAPES[int(rng.integers(len(SHAPES)))], rng)
    arena_sets = [(HEAP_ARENA, INDEX_ARENA), (HEAP_ARENA,), (INDEX_ARENA,)]
    lists = [_touches(model, rng, arena_sets[(seed + k) % 3])
             for k in range(6)]
    lists.append([])
    for touches in lists:
        assert (model.price_txn(touches, heap, index, **KW)
                == legacy_price_txn(model, touches, heap, index, **KW))


def test_tier_write_with_version_bump_misses_the_snapshot():
    rng = np.random.default_rng(3)
    model = _model()
    heap = _FakeRegion(8, 16 * KB, rng)
    index = _FakeRegion(8, 16 * KB, rng)
    touches = _touches(model, rng, (HEAP_ARENA, INDEX_ARENA))
    before = model.price_txn(touches, heap, index, **KW)
    # A write without the bump is not seen: the snapshot is what prices.
    heap.tier[:] = Tier.NVM
    index.tier[:] = Tier.NVM
    assert model.price_txn(touches, heap, index, **KW) == before
    heap.tier_version += 1
    index.tier_version += 1
    after = model.price_txn(touches, heap, index, **KW)
    assert after == legacy_price_txn(model, touches, heap, index, **KW)
    assert after > before
    for arena_id, region in ((HEAP_ARENA, heap), (INDEX_ARENA, index)):
        cached = model._placements[arena_id]
        assert cached[0] is region and cached[1] == region.tier_version


def test_mix_pick_matches_generator_choice():
    names = list(MIX_WEIGHTS)
    weights = np.array([MIX_WEIGHTS[n] for n in names])
    ours, ref = np.random.default_rng(2024), np.random.default_rng(2024)
    engine = TpccEngine(TpccStorage(SCALE), ours)
    picked = [engine._pick_txn() for _ in range(10_000)]
    expected = [names[int(ref.choice(len(names), p=weights))]
                for _ in range(10_000)]
    assert picked == expected
    assert ours.bit_generator.state == ref.bit_generator.state
