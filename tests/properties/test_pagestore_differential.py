"""Differential test: columnar tracker vs the legacy object-graph tracker.

``tests.oracles.legacy_tracking`` keeps the original ``PageNode``/``PageList``
implementation purely as an oracle.  Under any random sequence of
accesses, cooling-clock bumps, tier migrations, and untracks, the
array-backed tracker must produce identical hot/cold membership, FIFO
order, counter values, and cooling state.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import HeMemConfig
from repro.core.pagestore import NO_LIST, UNDER_MIGRATION, WRITE_HEAVY
from repro.core.tracking import HotColdTracker
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.pebs import PebsEventKind
from repro.mem.region import Region
from repro.sim.stats import StatsRegistry

from tests.conftest import sample
from tests.oracles.legacy_tracking import HotColdTracker as LegacyTracker

N_PAGES = 24

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("sample"),
                  st.integers(min_value=0, max_value=N_PAGES - 1),
                  st.booleans()),
        st.tuples(st.just("scan"),
                  st.integers(min_value=0, max_value=N_PAGES - 1),
                  st.booleans()),
        st.tuples(st.just("cool"),
                  st.integers(min_value=0, max_value=N_PAGES - 1),
                  st.just(False)),
        st.tuples(st.just("migrate"),
                  st.integers(min_value=0, max_value=N_PAGES - 1),
                  st.just(False)),
        st.tuples(st.just("tick"), st.just(0), st.just(False)),
        st.tuples(st.just("untrack"),
                  st.integers(min_value=0, max_value=N_PAGES - 1),
                  st.just(False)),
    ),
    max_size=400,
)


def snapshot(tracker, region):
    """Canonical columnar-tracker state: per-page counters + FIFO order."""
    store = tracker.store
    pages = {}
    for page in range(N_PAGES):
        pid = tracker.pid_of(region, page)
        if pid < 0:
            pages[page] = None
        else:
            lid = store.list_id[pid]
            pages[page] = (
                store.reads[pid], store.writes[pid], store.clock[pid],
                bool(store.flags[pid] & WRITE_HEAVY),
                bool(store.flags[pid] & UNDER_MIGRATION),
                store.fifos[lid].name if lid != NO_LIST else None,
            )
    lists = {}
    for tier in (Tier.DRAM, Tier.NVM):
        for hot in (False, True):
            lst = tracker.list_for(tier, hot)
            order = [store.page_no[pid] for pid in lst]
            lists[lst.name] = (order, len(lst), lst.nbytes)
    return tracker.global_clock, pages, lists


def legacy_snapshot(tracker, region):
    """The same canonical state read off the legacy object graph."""
    pages = {}
    for page in range(N_PAGES):
        node = tracker.node(region, page)
        if node is None:
            pages[page] = None
        else:
            pages[page] = (
                node.reads, node.writes, node.clock,
                node.write_heavy, node.under_migration,
                node.owner.name if node.owner is not None else None,
            )
    lists = {}
    for tier in (Tier.DRAM, Tier.NVM):
        for hot in (False, True):
            lst = tracker.list_for(tier, hot)
            lists[lst.name] = ([node.page for node in lst], len(lst), lst.nbytes)
    return tracker.global_clock, pages, lists


def apply_ops(ops):
    stats = StatsRegistry()
    region_new = Region(0x1000000, N_PAGES * HUGE_PAGE)
    region_old = Region(0x1000000, N_PAGES * HUGE_PAGE)
    new = HotColdTracker(HeMemConfig(), stats.scoped("new"))
    old = LegacyTracker(HeMemConfig(), stats.scoped("old"))
    for kind, page, flag in ops:
        if kind == "sample":
            sample(new, region_new, page, flag)
            old.record_sample(region_old, page, flag)
        elif kind == "scan":
            new.record_scan_hit(region_new, page, True, flag)
            old.record_scan_hit(region_old, page, True, flag)
        elif kind == "cool":
            n, o = new.pid_of(region_new, page), old.node(region_old, page)
            if n >= 0 and o is not None:
                new.cool_if_stale(n)
                old.cool_if_stale(o)
        elif kind == "migrate":
            n, o = new.pid_of(region_new, page), old.node(region_old, page)
            if n >= 0 and o is not None:
                flipped = Tier.NVM if region_new.tier[page] == Tier.DRAM else Tier.DRAM
                region_new.tier[page] = flipped
                region_old.tier[page] = flipped
                new.page_migrated(n)
                old.page_migrated(o)
        elif kind == "tick":
            new.global_clock += 1
            old.global_clock += 1
        elif kind == "untrack":
            new.untrack_page(region_new, page)
            old.untrack_page(region_old, page)
    return new, old, region_new, region_old


@given(op_strategy)
@settings(max_examples=150, deadline=None)
def test_columnar_tracker_matches_legacy(ops):
    new, old, region_new, region_old = apply_ops(ops)
    assert snapshot(new, region_new) == legacy_snapshot(old, region_old)
    assert len(new) == len(old)
    assert new.violations() == []


def chunked(samples, cuts, region):
    """Split ``(page, is_store)`` samples into PEBS chunks: a new chunk
    starts at every drawn cut and wherever the event kind changes."""
    chunks = []
    for i, (page, is_store) in enumerate(samples):
        kind = PebsEventKind.STORE if is_store else PebsEventKind.DRAM_READ
        if not chunks or i in cuts or chunks[-1][0] is not kind:
            chunks.append((kind, region, []))
        chunks[-1][2].append(page)
    return chunks


@given(op_strategy, st.sets(st.integers(min_value=0, max_value=400)),
       st.sets(st.integers(min_value=0, max_value=400)))
@settings(max_examples=50, deadline=None)
def test_batched_apply_matches_legacy(ops, cuts, batch_ends):
    """The batched record_samples path against the legacy oracle, over
    arbitrary chunk boundaries and batch (drain) boundaries."""
    samples = [(page, flag) for kind, page, flag in ops if kind == "sample"]
    stats = StatsRegistry()
    region_new = Region(0x1000000, N_PAGES * HUGE_PAGE)
    region_old = Region(0x1000000, N_PAGES * HUGE_PAGE)
    new = HotColdTracker(HeMemConfig(), stats.scoped("new"))
    old = LegacyTracker(HeMemConfig(), stats.scoped("old"))
    bounds = sorted({0, len(samples)} | {b for b in batch_ends if b < len(samples)})
    for lo, hi in zip(bounds, bounds[1:]):
        new.record_samples(chunked(samples[lo:hi], cuts, region_new))
    for page, is_store in samples:
        old.record_sample(region_old, page, is_store)
    assert snapshot(new, region_new) == legacy_snapshot(old, region_old)
    assert stats.counter("new.tracker.samples").value == len(samples)
