"""Property-based tests for the hot/cold tracker.

Under any sample sequence: every tracked page is on exactly one list, the
list matches its tier and classification, counters never go negative, and
cooling is monotone (never increases counts).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import HeMemConfig
from repro.core.tracking import HotColdTracker
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.region import Region
from repro.sim.stats import StatsRegistry

from tests.conftest import sample, tracked_pids

N_PAGES = 16

sample_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_PAGES - 1),  # page
        st.booleans(),  # is_store
        st.booleans(),  # flip the page's tier before sampling
    ),
    max_size=300,
)


def run_samples(samples):
    region = Region(0x1000000, N_PAGES * HUGE_PAGE)
    tracker = HotColdTracker(HeMemConfig(), StatsRegistry())
    for page, is_store, flip in samples:
        if flip:
            pid = tracker.pid_of(region, page)
            new_tier = Tier.NVM if region.tier[page] == Tier.DRAM else Tier.DRAM
            region.tier[page] = new_tier
            if pid >= 0:
                tracker.page_migrated(pid)
        sample(tracker, region, page, is_store)
    return region, tracker


LISTS = [(tier, hot) for tier in (Tier.DRAM, Tier.NVM) for hot in (False, True)]


@given(sample_strategy)
@settings(max_examples=150, deadline=None)
def test_every_tracked_page_on_exactly_one_list(samples):
    region, tracker = run_samples(samples)
    assert tracker.violations() == []
    seen = []
    for tier, hot in LISTS:
        seen.extend(tracker.list_for(tier, hot))
    assert sorted(seen) == tracked_pids(tracker)


@given(sample_strategy)
@settings(max_examples=150, deadline=None)
def test_list_membership_matches_classification(samples):
    region, tracker = run_samples(samples)
    store = tracker.store
    for tier, hot in LISTS:
        for pid in tracker.list_for(tier, hot):
            assert region.tier[store.page_no[pid]] == tier
            assert tracker.is_hot(pid) == hot


@given(sample_strategy)
@settings(max_examples=150, deadline=None)
def test_counters_nonnegative_and_bounded(samples):
    region, tracker = run_samples(samples)
    store = tracker.store
    limit = tracker.config.cooling_threshold + 1
    for pid in tracked_pids(tracker):
        assert store.reads[pid] >= 0
        assert store.writes[pid] >= 0
        # Cooling fires at the threshold, so counts can only exceed it by
        # the final increment.
        assert store.reads[pid] + store.writes[pid] <= limit


@given(sample_strategy)
@settings(max_examples=100, deadline=None)
def test_cooling_never_increases_counts(samples):
    region, tracker = run_samples(samples)
    store = tracker.store
    for pid in tracked_pids(tracker):
        before = (store.reads[pid], store.writes[pid])
        tracker.global_clock += 1
        tracker.cool_if_stale(pid)
        assert store.reads[pid] <= before[0]
        assert store.writes[pid] <= before[1]


@given(sample_strategy)
@settings(max_examples=100, deadline=None)
def test_hot_bytes_matches_lists(samples):
    region, tracker = run_samples(samples)
    for tier in (Tier.DRAM, Tier.NVM):
        manual = sum(
            tracker.store.psize[pid] for pid in tracker.list_for(tier, hot=True)
        )
        assert tracker.hot_bytes(tier) == manual
