"""TPC-C's per-transaction pricing before the placement snapshot, frozen as
an oracle.

This is ``TpccAccessModel.price_txn`` as it stood when every call compiled
its touch list into numpy arrays (region page, DRAM stall, NVM stall) and
summed one ``np.where`` over the region's live ``tier`` per arena.  It is
**not wired into anything**: ``tests/db/test_exact_paths.py`` prices the
same touch lists both ways and asserts equal floats.

Do not "fix" or modernise this file — divergence from the original
behaviour is exactly what the test exists to catch.
"""

from __future__ import annotations

import numpy as np

from repro.db.adapter import (
    T_DRAM_READ, T_DRAM_WRITE, T_NVM_READ, T_NVM_WRITE,
)
from repro.db.loader import HEAP_ARENA, INDEX_ARENA
from repro.mem.page import Tier


def _compile_touches(model, touches: list, regions: dict) -> dict:
    cols = {arena_id: ([], []) for arena_id in regions}
    for arena_id, page, is_write in touches:
        pages, writes = cols[arena_id]
        pages.append(page)
        writes.append(is_write)
    out = {}
    for arena_id, region in regions.items():
        e, slots = model._expansion(arena_id, region)
        pages, writes = cols[arena_id]
        pages = np.minimum(np.array(pages, dtype=np.int64) * e // slots,
                           region.n_pages - 1)
        w = np.array(writes, dtype=bool)
        out[arena_id] = (pages,
                         np.where(w, T_DRAM_WRITE, T_DRAM_READ),
                         np.where(w, T_NVM_WRITE, T_NVM_READ))
    return out


def legacy_price_txn(model, touches: list, heap_region, index_region,
                     cpu_ns_per_tx: float = 20_000.0,
                     access_overhead_ns: float = 0.0,
                     mlp: float = 2.0) -> float:
    regions = {HEAP_ARENA: heap_region, INDEX_ARENA: index_region}
    stall = 0.0
    for arena_id, (pages, dram_cost, nvm_cost) in _compile_touches(
            model, touches, regions).items():
        if len(pages):
            stall += float(np.where(
                regions[arena_id].tier[pages] == Tier.DRAM,
                dram_cost, nvm_cost).sum())
    return (cpu_ns_per_tx * 1e-9
            + len(touches) * access_overhead_ns * 1e-9
            + stall / mlp)
