"""Differential test: the buffer pool's array sweep vs the frozen tuple sweep
(``tests.oracles.legacy_bufferpool``).

Two pools are built by the same calls: the same regions, advice, prefault,
placement, second-chance bits and hand, then the same access counts over a
few sweeps.  The shipped sweep must leave exactly what the original
per-page sweep leaves: every region's tier and ``tier_version``, the
fetch/writeback/eviction counters, the CLOCK hand, the second-chance bits
and the DRAM pages charged to the budget.
"""

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.bufferpool import BufferPoolManager
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier

from tests.oracles.legacy_bufferpool import LegacyBufferPoolManager

PAGE = MachineSpec().page_size
COUNTERS = ("fetch.bytes_moved", "writeback.bytes_moved", "evictions")


def build(cls, budget, fraction, layout, setup):
    """A pool with ``layout``'s regions, then ``setup``'s placement."""
    machine = Machine(replace(MachineSpec().scaled(256),
                              dram_capacity=budget * PAGE), seed=1)
    pool = cls(max_sweep_fraction=fraction)
    pool.attach(machine, engine=None)
    regions = []
    for n_pages, kind, prefault in layout:
        region = pool.mmap(n_pages * PAGE)
        if kind is not None:
            pool.advise(region, kind)
        if prefault:
            pool.prefault(region)
        regions.append(region)
    if setup is not None:
        tiers, seconds, hand = setup
        for region, tier, second in zip(regions, tiers, seconds):
            if region in pool._clocked:
                region.tier[:] = tier
                region.tier_version += 1
                pool._second[region.region_id][:] = second
        pool._dram_pages_used = sum(int((r.tier == Tier.DRAM).sum())
                                    for r in regions)
        pool._hand = hand
    return pool, regions


def observe(pool, regions):
    return {
        "tier": [r.tier.tolist() for r in regions],
        "tier_version": [r.tier_version for r in regions],
        "second": [pool._second[r.region_id].tolist()
                   if r.region_id in pool._second else None
                   for r in regions],
        "counters": [pool.stats.counter(name).value for name in COUNTERS],
        "hand": pool._hand,
        "used": pool._dram_pages_used,
    }


def _bits(n):
    return st.lists(st.booleans(), min_size=n, max_size=n)


@st.composite
def scenarios(draw):
    budget = draw(st.integers(1, 24))
    fraction = draw(st.sampled_from([1 / 32, 1 / 8, 0.5, 1.0]))
    layout = draw(st.lists(
        st.tuples(st.integers(1, 20),
                  st.sampled_from(["index", "heap", None]),
                  st.booleans()),
        min_size=1, max_size=4))
    sizes = [n for n, _kind, _prefault in layout]
    setup = None
    if draw(st.booleans()):
        setup = ([draw(_bits(n)) for n in sizes],
                 [draw(_bits(n)) for n in sizes],
                 draw(st.integers(0, 100)))
    # Small integer counts make equal-count ties common.
    rounds = [[(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
               for n in sizes]
              for _ in range(draw(st.integers(1, 3)))]
    return budget, fraction, layout, setup, rounds


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_array_sweep_matches_tuple_sweep(scenario):
    budget, fraction, layout, setup, rounds = scenario
    if setup is not None:
        tiers, seconds, hand = setup
        setup = ([np.where(t, Tier.DRAM, Tier.NVM) for t in tiers],
                 seconds, hand)
    pools = [build(cls, budget, fraction, layout, setup)
             for cls in (BufferPoolManager, LegacyBufferPoolManager)]
    for k, per_region in enumerate(rounds):
        for pool, regions in pools:
            for region, (reads, writes) in zip(regions, per_region):
                region.pending_reads[:] = reads
                region.pending_writes[:] = writes
            pool.end_tick(now=float(k), dt=0.1)
        new, old = (observe(pool, regions) for pool, regions in pools)
        assert new == old
