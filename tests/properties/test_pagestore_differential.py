"""Differential test: columnar tracker vs the legacy object-graph tracker.

``tests.oracles.legacy_tracking`` keeps the original ``PageNode``/``PageList``
implementation purely as an oracle.  Under any random sequence of
accesses, cooling-clock bumps and tier migrations, the
array-backed tracker must produce identical hot/cold membership, FIFO
order, counter values, and cooling state.
"""

import random

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.config import HeMemConfig
from repro.core.pagestore import NO_LIST, UNDER_MIGRATION, WRITE_HEAVY
from repro.core.tracking import HotColdTracker
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.pebs import PebsBatch, PebsEventKind
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


# -- record_samples' batch path --------------------------------------------------
#
# A drained PebsBatch of at least BATCH_MIN_RECORDS records, with no tracer
# and every page tracked, takes the numpy path.  The cases below hold up to
# 40 pages, so the cooling clock advances many times within one batch.

def tracker_columns(tracker, stats_scope):
    """Everything record_samples can change, read off the columns."""
    store = tracker.store
    return {
        "reads": list(store.reads), "writes": list(store.writes),
        "clock": list(store.clock), "flags": bytes(store.flags),
        "list_id": bytes(store.list_id),
        "lists": [list(fifo) for fifo in store.fifos],
        "count": list(store._count), "nbytes": list(store._nbytes),
        "global_clock": tracker.global_clock,
        "samples": stats_scope.counter("tracker.samples").value,
        "coolings": stats_scope.counter("tracker.cooling_events").value,
    }


def regions_snapshot(tracker, regions):
    """``snapshot`` over several regions, pages named (region, page)."""
    store = tracker.store
    pages = {}
    for r, region in enumerate(regions):
        for page in range(region.n_pages):
            pid = tracker.pid_of(region, page)
            lid = store.list_id[pid]
            pages[r, page] = (
                store.reads[pid], store.writes[pid], store.clock[pid],
                bool(store.flags[pid] & WRITE_HEAVY),
                bool(store.flags[pid] & UNDER_MIGRATION),
                store.fifos[lid].name if lid != NO_LIST else None,
            )
    index = {region.region_id: r for r, region in enumerate(regions)}
    lists = {}
    for fifo in store.fifos:
        order = [(index[store.region_ref[pid].region_id], store.page_no[pid])
                 for pid in fifo]
        lists[fifo.name] = (order, len(fifo), fifo.nbytes)
    return tracker.global_clock, pages, lists


def legacy_regions_snapshot(tracker, regions):
    index = {region.region_id: r for r, region in enumerate(regions)}
    pages = {}
    for r, region in enumerate(regions):
        for page in range(region.n_pages):
            node = tracker.node(region, page)
            pages[r, page] = (
                node.reads, node.writes, node.clock,
                node.write_heavy, node.under_migration,
                node.owner.name if node.owner is not None else None,
            )
    lists = {}
    for tier in (Tier.DRAM, Tier.NVM):
        for hot in (False, True):
            lst = tracker.list_for(tier, hot)
            lists[lst.name] = (
                [(index[node.region.region_id], node.page) for node in lst],
                len(lst), lst.nbytes,
            )
    return tracker.global_clock, pages, lists


class BatchCase:
    """One tracker history, replayed on three trackers.

    ``batch`` gets the large batches as PebsBatches (the numpy path),
    ``loop`` as plain chunk lists (the per-record loop) and ``legacy``
    record by record on the object-graph oracle.  Before the batches,
    each gets the same warm-up traffic, clock bumps, tier flips,
    pages under migration and (columnar trackers only) shadow copies.
    """

    def __init__(self, rnd, write_priority, shadows):
        self.rnd = rnd
        n_regions = rnd.randint(1, 3)
        self.sizes = [rnd.randint(1, 40 // n_regions) for _ in range(n_regions)]
        config = HeMemConfig(write_priority=write_priority)
        self.stats = StatsRegistry()
        self.regions = {}
        self.trackers = {}
        for name in ("batch", "loop", "legacy"):
            regions = [Region(0x1000000 * (r + 1), size * HUGE_PAGE)
                       for r, size in enumerate(self.sizes)]
            self.regions[name] = regions
            tracker_cls = LegacyTracker if name == "legacy" else HotColdTracker
            self.trackers[name] = tracker_cls(config, self.stats.scoped(name))
        tiers = [[rnd.choice((Tier.DRAM, Tier.NVM)) for _ in range(size)]
                 for size in self.sizes]
        for name, tracker in self.trackers.items():
            for region, tier in zip(self.regions[name], tiers):
                region.tier[:] = tier
                if name == "legacy":
                    for page in range(region.n_pages):
                        tracker.track_page(region, page)
                else:
                    tracker.track_pages(region, np.arange(region.n_pages))
                    if shadows:
                        tracker.enable_shadow_tracking()
        for _ in range(rnd.randint(0, 4)):
            self.apply(self.records(rnd.randint(1, 60)), batched=False)
            if rnd.random() < 0.5:
                self.bump_clock(rnd.randint(1, 40))
            if rnd.random() < 0.3:
                self.flip_tier(*self.page())
        for _ in range(rnd.randint(0, 4)):
            self.start_migration(*self.page())
        if shadows:
            for r, size in enumerate(self.sizes):
                for page in range(size):
                    if rnd.random() < 0.4:
                        self.give_shadow(r, page)

    def page(self):
        r = self.rnd.randrange(len(self.sizes))
        return r, self.rnd.randrange(self.sizes[r])

    def records(self, n, store_frac=0.4):
        """``n`` records skewed toward low page numbers (hot pages)."""
        rnd = self.rnd
        out = []
        for _ in range(n):
            r = rnd.randrange(len(self.sizes))
            page = min(int(rnd.expovariate(0.2)), self.sizes[r] - 1)
            out.append((r, page, rnd.random() < store_frac))
        return out

    def chunks(self, name, records):
        """PEBS chunks: a new one wherever the kind or region changes,
        and at random cuts."""
        regions = self.regions[name]
        chunks = []
        for i, (r, page, is_store) in enumerate(records):
            kind = PebsEventKind.STORE if is_store else PebsEventKind.DRAM_READ
            cut = (i * 7919) % 13 == 0
            if (not chunks or cut or chunks[-1][0] is not kind
                    or chunks[-1][1] is not regions[r]):
                chunks.append((kind, regions[r], []))
            chunks[-1][2].append(page)
        return chunks

    def apply(self, records, batched):
        for name, tracker in self.trackers.items():
            if name == "legacy":
                regions = self.regions[name]
                for r, page, is_store in records:
                    tracker.record_sample(regions[r], page, is_store)
                continue
            chunks = self.chunks(name, records)
            if batched and name == "batch":
                tracker.record_samples(PebsBatch(chunks, len(records)))
            else:
                tracker.record_samples(chunks)

    def bump_clock(self, ticks):
        for tracker in self.trackers.values():
            tracker.global_clock += ticks

    def flip_tier(self, r, page):
        for name, tracker in self.trackers.items():
            region = self.regions[name][r]
            region.tier[page] = (Tier.NVM if region.tier[page] == Tier.DRAM
                                 else Tier.DRAM)
            if name == "legacy":
                node = tracker.node(region, page)
                if not node.under_migration:
                    tracker.page_migrated(node)
            else:
                pid = tracker.pid_of(region, page)
                if not tracker.store.flags[pid] & UNDER_MIGRATION:
                    tracker.page_migrated(pid)

    def start_migration(self, r, page):
        """Mark a page write-protected for a copy, as the migrator does."""
        for name, tracker in self.trackers.items():
            region = self.regions[name][r]
            if name == "legacy":
                node = tracker.node(region, page)
                if node.owner is not None:
                    node.owner.remove(node)
                node.under_migration = True
            else:
                pid = tracker.pid_of(region, page)
                tracker.store.flags[pid] |= UNDER_MIGRATION
                tracker.store.detach(pid)

    def give_shadow(self, r, page):
        for name in ("batch", "loop"):
            tracker = self.trackers[name]
            pid = tracker.pid_of(self.regions[name][r], page)
            if tracker.store.tier[pid] == Tier.DRAM:
                tracker.store.set_shadow(pid, pid * HUGE_PAGE)

    def check(self):
        batch, loop = self.trackers["batch"], self.trackers["loop"]
        assert (tracker_columns(batch, self.stats.scoped("batch"))
                == tracker_columns(loop, self.stats.scoped("loop")))
        assert (regions_snapshot(batch, self.regions["batch"])
                == legacy_regions_snapshot(self.trackers["legacy"],
                                           self.regions["legacy"]))
        assert batch.violations() == []


def spy_batch_path(tracker):
    """Record what each ``_apply_batch`` call returned."""
    taken = []
    apply_batch = tracker._apply_batch

    def spy(batch):
        taken.append(apply_batch(batch))
        return taken[-1]

    tracker._apply_batch = spy
    return taken


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    write_priority=st.booleans(),
    shadows=st.booleans(),
    store_frac=st.sampled_from([0.0, 0.1, 0.4, 0.8, 1.0]),
    lengths=st.lists(
        st.integers(min_value=HotColdTracker.BATCH_MIN_RECORDS, max_value=3000),
        min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_batch_path_matches_loop_and_legacy(seed, write_priority, shadows,
                                            store_frac, lengths):
    """Large drained batches (numpy path) against the per-record loop on
    every column, list order, count and counter, and against the legacy
    oracle, over store/load mixes, pages under migration, dirty shadows,
    ``write_priority`` off and several regions per batch."""
    rnd = random.Random(seed)
    case = BatchCase(rnd, write_priority, shadows)
    taken = spy_batch_path(case.trackers["batch"])
    for n in lengths:
        case.apply(case.records(n, store_frac), batched=True)
        if rnd.random() < 0.3:
            case.bump_clock(rnd.randint(1, 5))
    assert taken == [True] * len(lengths)
    case.check()


def drained_batch(regions, n, seed):
    """``n`` records over ``regions`` in PEBS-drain shape: runs of one kind
    and region, pages drawn with a heavy skew."""
    rng = np.random.default_rng(seed)
    chunks = []
    while n:
        size = min(int(rng.integers(1, 120)), n)
        region = regions[int(rng.integers(len(regions)))]
        kind = PebsEventKind.STORE if rng.random() < 0.3 else PebsEventKind.NVM_READ
        pages = np.minimum(rng.zipf(1.3, size) - 1, region.n_pages - 1)
        chunks.append((kind, region, pages.tolist()))
        n -= size
    return chunks


def twin_trackers(n_pages=300, tracer=None):
    stats = StatsRegistry()
    out = []
    for name in ("batch", "loop"):
        regions = [Region(0x1000000, n_pages * HUGE_PAGE),
                   Region(0x90000000, 32 * HUGE_PAGE)]
        regions[0].tier[: n_pages // 3] = Tier.NVM
        tracker = HotColdTracker(HeMemConfig(), stats.scoped(name),
                                 tracer=tracer if name == "batch" else None)
        for region in regions:
            tracker.track_pages(region, np.arange(region.n_pages))
        out.append((tracker, regions, stats.scoped(name)))
    return out


def test_batch_path_leaves_what_the_loop_leaves():
    """Drain-sized batches through both paths: equal columns, walked list
    order, list counts and bytes, cooling clock and counters."""
    (batch, batch_regions, batch_stats), (loop, loop_regions, loop_stats) = (
        twin_trackers())
    taken = spy_batch_path(batch)
    for seed in range(6):
        n = 2000 if seed % 2 else 1024
        batch.record_samples(
            PebsBatch(drained_batch(batch_regions, n, seed), n))
        loop.record_samples(drained_batch(loop_regions, n, seed))
        assert tracker_columns(batch, batch_stats) == tracker_columns(loop, loop_stats)
    assert taken == [True] * 6
    assert batch_stats.counter("tracker.cooling_events").value > 6
    assert batch.violations() == []


def test_loop_applies_small_traced_and_untracked_batches():
    """The per-record loop still applies batches below the crossover, any
    batch under a tracer (event order), and a batch with a page not yet
    tracked; the outcome matches either way."""
    from repro.obs.trace import Tracer

    small = HotColdTracker.BATCH_MIN_RECORDS - 1
    (batch, regions, batch_stats), (loop, loop_regions, loop_stats) = (
        twin_trackers())
    taken = spy_batch_path(batch)
    batch.record_samples(PebsBatch(drained_batch(regions, small, 1), small))
    loop.record_samples(drained_batch(loop_regions, small, 1))
    assert taken == []
    fresh = [Region(0x5000000, 4 * HUGE_PAGE) for _ in range(2)]
    chunks = drained_batch(regions, 600, 2) + [
        (PebsEventKind.STORE, fresh[0], [0, 1, 0])]
    batch.record_samples(PebsBatch(chunks, 603))
    loop.record_samples(drained_batch(loop_regions, 600, 2)
                        + [(PebsEventKind.STORE, fresh[1], [0, 1, 0])])
    assert taken == [False]
    assert tracker_columns(batch, batch_stats) == tracker_columns(loop, loop_stats)

    (traced, regions, traced_stats), (loop, loop_regions, loop_stats) = (
        twin_trackers(tracer=Tracer()))
    taken = spy_batch_path(traced)
    traced.record_samples(PebsBatch(drained_batch(regions, 2000, 3), 2000))
    loop.record_samples(drained_batch(loop_regions, 2000, 3))
    assert taken == []
    assert tracker_columns(traced, traced_stats) == tracker_columns(loop, loop_stats)
