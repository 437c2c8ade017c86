"""Tests for hot/cold tracking: FIFO lists, thresholds, cooling clock."""

import pytest

from repro.core.config import HeMemConfig
from repro.core.pagestore import (
    DIRTY,
    NO_LIST,
    UNDER_MIGRATION,
    WRITE_HEAVY,
    PageStore,
)
from repro.core.tracking import HotColdTracker
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.pebs import PebsEventKind
from repro.mem.region import Region

from tests.conftest import sample, tracked_pids


@pytest.fixture
def region():
    return Region(0x1000000, 32 * HUGE_PAGE)


@pytest.fixture
def tracker(stats):
    return HotColdTracker(HeMemConfig(), stats)


class TestPageFifo:
    """FIFO semantics of the index-linked lists (PageList parity)."""

    def make_store(self, region):
        store = PageStore()
        base = store.bind_region(region)
        return store, base

    def test_fifo_order(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        for pid in (base, base + 1, base + 2):
            lst.push_back(pid)
        assert lst.pop_front() == base
        assert lst.pop_front() == base + 1

    def test_push_front(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        lst.push_back(base)
        lst.push_front(base + 1)
        assert lst.front_pid == base + 1

    def test_remove_middle(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        a, b, c = base, base + 1, base + 2
        for pid in (a, b, c):
            lst.push_back(pid)
        lst.remove(b)
        assert list(lst) == [a, c]
        assert store.list_id[b] == NO_LIST

    def test_byte_accounting(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        lst.push_back(base)
        lst.push_back(base + 1)
        assert lst.nbytes == 2 * HUGE_PAGE
        lst.remove(base)
        assert lst.nbytes == HUGE_PAGE

    def test_double_insert_rejected(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        lst.push_back(base)
        with pytest.raises(ValueError):
            lst.push_back(base)

    def test_remove_foreign_pid_rejected(self, region):
        store, base = self.make_store(region)
        l1 = store.new_list("a")
        l2 = store.new_list("b")
        l1.push_back(base)
        with pytest.raises(ValueError):
            l2.remove(base)

    def test_pop_empty_returns_sentinel(self, region):
        store, _ = self.make_store(region)
        assert store.new_list("l").pop_front() == -1

    def test_iteration_allows_removal(self, region):
        store, base = self.make_store(region)
        lst = store.new_list("l")
        for pid in (base, base + 1, base + 2):
            lst.push_back(pid)
        for pid in lst:
            lst.remove(pid)
        assert len(lst) == 0

    def test_block_recycled_after_release(self, region):
        store, base = self.make_store(region)
        capacity = store.capacity
        store.release_region(region)
        assert store.base_of(region) is None
        twin = Region(0x2000000, 32 * HUGE_PAGE)
        assert store.bind_region(twin) == base  # same-size block reused
        assert store.capacity == capacity


class TestShadowColumns:
    """Shadow-copy bookkeeping on the store (Nomad non-exclusive tiering)."""

    def make_store(self, region):
        store = PageStore()
        base = store.bind_region(region)
        return store, base

    def test_set_and_clear_round_trip(self, region):
        store, base = self.make_store(region)
        store.set_shadow(base + 3, 77)
        assert store.shadow[base + 3] == 77
        assert store.shadow_pages == 1
        assert store.shadow_nbytes == HUGE_PAGE
        assert store.clear_shadow(base + 3) == 77
        assert store.shadow[base + 3] == -1
        assert store.shadow_pages == 0
        assert store.shadow_nbytes == 0

    def test_second_shadow_rejected(self, region):
        store, base = self.make_store(region)
        store.set_shadow(base, 1)
        with pytest.raises(ValueError):
            store.set_shadow(base, 2)

    def test_negative_offset_rejected(self, region):
        store, base = self.make_store(region)
        with pytest.raises(ValueError):
            store.set_shadow(base, -1)

    def test_clear_without_shadow_rejected(self, region):
        store, base = self.make_store(region)
        with pytest.raises(ValueError):
            store.clear_shadow(base)

    def test_out_of_order_frees_keep_counters_exact(self, region):
        store, base = self.make_store(region)
        pids = [base + 2, base + 5, base + 7, base + 11]
        for i, pid in enumerate(pids):
            store.set_shadow(pid, 100 + i)
        assert store.shadow_pages == 4
        # Free in an order unrelated to creation order.
        assert store.clear_shadow(base + 7) == 102
        assert store.clear_shadow(base + 2) == 100
        assert store.shadow_pages == 2
        assert store.shadow_nbytes == 2 * HUGE_PAGE
        assert store.shadow[base + 5] == 101
        assert store.shadow[base + 11] == 103

    def test_release_sweeps_leftover_shadows(self, region):
        store, base = self.make_store(region)
        store.set_shadow(base + 1, 9)
        store.set_shadow(base + 4, 10)
        store.clear_shadow(base + 4)
        store.release_region(region)
        # Defensive sweep: the straggler was counted out.
        assert store.shadow_pages == 0
        assert store.shadow_nbytes == 0

    def test_recycled_block_starts_with_clean_shadow_columns(self, region):
        """Blocks freed with shadows still set (in any order) must come
        back shadow-free for the next same-size region."""
        store, base = self.make_store(region)
        other = Region(0x2000000, 32 * HUGE_PAGE)
        base_b = store.bind_region(other)
        store.set_shadow(base + 7, 41)
        store.set_shadow(base_b + 3, 42)
        # Release out of creation order: second region first.
        store.release_region(other)
        store.release_region(region)
        assert store.shadow_pages == 0
        twin_a = Region(0x3000000, 32 * HUGE_PAGE)
        twin_b = Region(0x4000000, 32 * HUGE_PAGE)
        # LIFO recycling: last-released block is handed out first.
        assert store.bind_region(twin_a) == base
        assert store.bind_region(twin_b) == base_b
        for pid in range(store.capacity):
            assert store.shadow[pid] == -1
        # Fresh shadows on the recycled block behave as on a new one.
        store.set_shadow(base + 7, 55)
        assert store.shadow_pages == 1
        assert store.clear_shadow(base + 7) == 55


def lid_of(tracker, tier, hot):
    return tracker.list_for(tier, hot).lid


def state(tracker, region, page):
    """(reads, writes, clock, list name) of a tracked page."""
    store = tracker.store
    pid = tracker.pid_of(region, page)
    return (store.reads[pid], store.writes[pid], store.clock[pid],
            store.fifos[store.list_id[pid]].name)


class TestTrackPage:
    def test_new_pages_enter_cold_list(self, tracker, region):
        pid = tracker.track_page(region, 0)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.DRAM, False)

    def test_nvm_pages_enter_nvm_cold(self, tracker, region):
        region.tier[1] = Tier.NVM
        pid = tracker.track_page(region, 1)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.NVM, False)

    def test_idempotent(self, tracker, region):
        assert tracker.track_page(region, 0) == tracker.track_page(region, 0)
        assert len(tracker) == 1
        assert tracked_pids(tracker) == [tracker.pid_of(region, 0)]

    def test_untrack(self, tracker, region):
        tracker.track_page(region, 0)
        tracker.untrack_page(region, 0)
        assert tracker.pid_of(region, 0) == -1
        assert len(tracker.list_for(Tier.DRAM, hot=False)) == 0

    def test_untrack_region(self, tracker, region):
        for page in range(4):
            tracker.track_page(region, page)
        tracker.untrack_region(region)
        assert len(tracker) == 0
        assert len(tracker.list_for(Tier.DRAM, hot=False)) == 0
        assert tracker.pid_of(region, 0) == -1
        assert tracker.violations() == []


class TestClassification:
    def test_hot_after_8_loads(self, tracker, region):
        sample(tracker, region, 0, times=7)
        pid = tracker.pid_of(region, 0)
        assert not tracker.is_hot(pid)
        sample(tracker, region, 0)
        assert tracker.is_hot(pid)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.DRAM, True)

    def test_hot_after_4_stores(self, tracker, region):
        sample(tracker, region, 0, is_store=True, times=4)
        pid = tracker.pid_of(region, 0)
        assert tracker.is_hot(pid)
        assert tracker.store.flags[pid] & WRITE_HEAVY

    def test_write_heavy_goes_to_front(self, tracker, region):
        # Make page 0 read-hot first, then page 1 write-hot.
        sample(tracker, region, 0, times=8)
        sample(tracker, region, 1, is_store=True, times=4)
        hot = tracker.list_for(Tier.DRAM, hot=True)
        assert hot.front_pid == tracker.pid_of(region, 1)

    def test_hot_bytes(self, tracker, region):
        sample(tracker, region, 0, times=8)
        assert tracker.hot_bytes(Tier.DRAM) == HUGE_PAGE
        assert tracker.hot_bytes(Tier.NVM) == 0
        assert tracker.hot_bytes() == HUGE_PAGE


class TestCooling:
    def test_clock_advances_at_threshold(self, tracker, region):
        sample(tracker, region, 0, times=18)
        assert tracker.global_clock == 1

    def test_triggering_page_cooled_immediately(self, tracker, region):
        sample(tracker, region, 0, times=18)
        reads, _, clock, _ = state(tracker, region, 0)
        assert reads == 9
        assert clock == 1

    def test_lazy_cooling_on_next_touch(self, tracker, region):
        # Page 1 becomes hot; page 0 then triggers cooling; page 1 cools
        # only when next examined.
        sample(tracker, region, 1, times=8)
        sample(tracker, region, 0, times=18)
        assert state(tracker, region, 1)[0] == 8  # untouched so far
        sample(tracker, region, 1)
        assert state(tracker, region, 1)[0] == 5  # halved to 4, then +1

    def test_multi_epoch_cooling_halves_repeatedly(self, tracker, region):
        pid = tracker.track_page(region, 5)
        tracker.store.reads[pid] = 16
        tracker.global_clock = 3
        tracker.cool_if_stale(pid)
        assert tracker.store.reads[pid] == 2
        assert tracker.store.clock[pid] == 3

    def test_cooled_below_threshold_demotes_to_cold(self, tracker, region):
        sample(tracker, region, 2, times=8)
        pid = tracker.pid_of(region, 2)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.DRAM, True)
        tracker.global_clock += 1
        tracker.cool_if_stale(pid)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.DRAM, False)

    def test_formerly_write_heavy_gets_second_chance(self, tracker, region):
        # Write-heavy and read-hot: 4 stores + 12 loads.
        sample(tracker, region, 3, is_store=True, times=4)
        sample(tracker, region, 3, times=12)
        pid = tracker.pid_of(region, 3)
        assert tracker.store.flags[pid] & WRITE_HEAVY
        tracker.global_clock += 1
        tracker.cool_if_stale(pid)
        # writes 4->2 (not write-heavy), reads 12->6... still hot? 6 < 8 and
        # 2 < 4 means cold; craft counts so it stays hot: re-heat reads.
        assert not tracker.store.flags[pid] & WRITE_HEAVY

    def test_second_chance_keeps_hot_page_on_hot_list_back(self, tracker, region):
        store = tracker.store
        pid = tracker.track_page(region, 4)
        store.writes[pid] = 4
        store.reads[pid] = 16
        tracker._reclassify(pid)
        hot = tracker.list_for(Tier.DRAM, hot=True)
        assert store.list_id[pid] == hot.lid
        tracker.global_clock += 1
        tracker.cool_if_stale(pid)
        # writes -> 2 (no longer write-heavy), reads -> 8 (still hot):
        # stays on the hot list, at the back (second chance).
        assert store.list_id[pid] == hot.lid
        assert not store.flags[pid] & WRITE_HEAVY
        assert hot.front_pid != pid or len(hot) == 1


class TestMigrationInteraction:
    def test_under_migration_pages_stay_off_lists(self, tracker, region):
        store = tracker.store
        pid = tracker.track_page(region, 0)
        store.detach(pid)
        store.flags[pid] |= UNDER_MIGRATION
        sample(tracker, region, 0)
        assert store.list_id[pid] == NO_LIST
        assert tracker.violations() == []

    def test_page_migrated_rehomes(self, tracker, region):
        pid = tracker.track_page(region, 0)
        tracker.store.reads[pid] = 10  # hot
        region.tier[0] = Tier.NVM  # migrated down, say
        tracker.page_migrated(pid)
        assert tracker.store.list_id[pid] == lid_of(tracker, Tier.NVM, True)

    def test_page_migrated_write_heavy_front(self, tracker, region):
        store = tracker.store
        a = tracker.track_page(region, 0)
        store.reads[a] = 10
        tracker.page_migrated(a)  # hot DRAM
        b = tracker.track_page(region, 1)
        store.writes[b] = 5
        store.flags[b] |= WRITE_HEAVY
        tracker.page_migrated(b)
        assert tracker.list_for(Tier.DRAM, hot=True).front_pid == b


def mixed_chunks(region, other=None):
    """200 records as chunks of 1-9 records, mixed kinds (and regions)."""
    chunks, i = [], 0
    while i < 200:
        size = 1 + (i * 5) % 9
        kind = PebsEventKind.STORE if (i * 7) % 3 == 0 else PebsEventKind.DRAM_READ
        reg = other if other is not None and (i // 9) % 2 else region
        pages = [((i + j) * 13) % 8 for j in range(min(size, 200 - i))]
        chunks.append((kind, reg, pages))
        i += len(pages)
    return chunks


class TestBatchedSamples:
    """record_samples: chunk and batch boundaries never change the outcome."""

    def test_matches_per_record_application(self, tracker, region, stats):
        other_region = Region(0x9000000, 8 * HUGE_PAGE)
        chunks = mixed_chunks(region, other_region)
        other = HotColdTracker(HeMemConfig(), stats.scoped("other"))
        tracker.record_samples(chunks)
        for kind, reg, pages in chunks:
            for page in pages:
                other.record_samples([(kind, reg, [page])])
        assert tracker.global_clock == other.global_clock
        for reg in (region, other_region):
            for page in range(8):
                assert state(tracker, reg, page) == state(other, reg, page)

    def test_accepts_a_drained_batch(self, tracker, region, stats):
        from repro.mem.pebs import PebsSpec, PebsUnit
        from repro.sim.rng import make_rng

        unit = PebsUnit(PebsSpec(sample_period=1), stats, make_rng(1, "t"))
        for kind, reg, pages in mixed_chunks(region):
            unit.feed(kind, reg, len(pages), lambda _stream, n, pages=pages: pages)
        other = HotColdTracker(HeMemConfig(), stats.scoped("other"))
        other.record_samples(mixed_chunks(region))
        tracker.record_samples(unit.drain(150))
        tracker.record_samples(unit.drain(150))
        assert tracker.global_clock == other.global_clock
        assert stats.counter("tracker.samples").value == 200
        for page in range(8):
            assert state(tracker, region, page) == state(other, region, page)

    def test_hot_page_staying_hot_skips_reclassify(self, tracker, region):
        """A record that leaves a page on its list with its write-heavy
        bit unchanged never reaches _reclassify (hot or cold)."""
        sample(tracker, region, 0, times=8)  # read-hot
        sample(tracker, region, 1, is_store=True, times=4)  # write-hot
        calls = []
        reclassify = tracker._reclassify
        tracker._reclassify = lambda pid: (calls.append(pid), reclassify(pid))
        sample(tracker, region, 0, times=3)
        sample(tracker, region, 1, is_store=True, times=3)
        assert calls == []
        sample(tracker, region, 2, is_store=True, times=4)  # newly write-heavy
        assert calls == [tracker.pid_of(region, 2)]


class TestScanHits:
    def test_accessed_increments_reads(self, tracker, region):
        tracker.record_scan_hit(region, 0, accessed=True, dirty=False)
        assert state(tracker, region, 0)[0] == 1

    def test_dirty_increments_writes(self, tracker, region):
        tracker.record_scan_hit(region, 0, accessed=True, dirty=True)
        assert state(tracker, region, 0)[:2] == (1, 1)

    def test_untouched_pages_not_tracked(self, tracker, region):
        tracker.record_scan_hit(region, 0, accessed=False, dirty=False)
        assert tracker.pid_of(region, 0) == -1

    def test_scan_hits_reach_hot_threshold(self, tracker, region):
        for _ in range(4):
            tracker.record_scan_hit(region, 0, accessed=True, dirty=True)
        assert tracker.is_hot(tracker.pid_of(region, 0))


class TestViolations:
    """The tracker's structural-law checker flags each kind of damage."""

    def test_clean_after_mixed_traffic(self, tracker, region):
        tracker.record_samples(mixed_chunks(region))
        assert tracker.violations() == []

    def test_detects_page_on_wrong_tier_list(self, tracker, region):
        pid = tracker.track_page(region, 0)
        tracker.store.tier[pid] = int(Tier.NVM)  # mirror flipped, list not
        region.tier[0] = Tier.NVM
        assert any("holds NVM page" in v for v in tracker.violations())

    def test_detects_tracked_page_off_every_list(self, tracker, region):
        pid = tracker.track_page(region, 0)
        tracker.store.detach(pid)
        assert any("on no list" in v for v in tracker.violations())

    def test_detects_count_drift_and_dirty_without_shadow(self, tracker, region):
        pid = tracker.track_page(region, 0)
        tracker.store._count[tracker.store.list_id[pid]] += 1
        tracker.store.flags[pid] |= DIRTY
        problems = tracker.violations()
        assert any("walked 1 pages" in v for v in problems)
        assert any("dirty without a shadow" in v for v in problems)
