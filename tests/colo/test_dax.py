"""Tests for quota-scoped tenant views over one shared DAX file."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.colo.dax import TenantDax
from repro.kernel.dax import DaxFile
from repro.mem.page import HUGE_PAGE, Tier


def make_shared(n_pages=16):
    return DaxFile(Tier.DRAM, n_pages * HUGE_PAGE, HUGE_PAGE)


class TestTenantDax:
    def test_capacity_views_delegate_to_shared(self):
        shared = make_shared(16)
        view = TenantDax(shared, quota_pages=4, name="a")
        assert view.n_pages == 16
        assert view.capacity == shared.capacity
        assert view.quota_bytes == 4 * HUGE_PAGE
        assert view.free_pages == 4

    def test_quota_bounds_allocation(self):
        view = TenantDax(make_shared(16), quota_pages=2, name="a")
        view.alloc_page()
        view.alloc_page()
        assert view.free_pages == 0
        with pytest.raises(MemoryError, match="quota exhausted"):
            view.alloc_page()

    def test_shared_exhaustion_also_starves(self):
        shared = make_shared(4)
        greedy = TenantDax(shared, quota_pages=4, name="g")
        view = TenantDax(shared, quota_pages=4, name="a")
        greedy.alloc_pages(4)
        assert view.free_pages == 0  # quota headroom, no device pages
        with pytest.raises(MemoryError):
            view.alloc_page()

    def test_offsets_are_machine_global(self):
        shared = make_shared(8)
        a = TenantDax(shared, quota_pages=4, name="a")
        b = TenantDax(shared, quota_pages=4, name="b")
        offsets = [a.alloc_page(), b.alloc_page(), a.alloc_page()]
        assert len(set(offsets)) == 3
        for off in offsets:
            assert shared.offset_bytes(off) == off * HUGE_PAGE

    def test_free_returns_capacity_to_the_pool(self):
        shared = make_shared(8)
        a = TenantDax(shared, quota_pages=8, name="a")
        off = a.alloc_page()
        assert (shared.used_pages, a.used_pages) == (1, 1)
        a.free_page(off)
        assert (shared.used_pages, a.used_pages) == (0, 0)

    def test_quota_shrink_does_not_unmap(self):
        a = TenantDax(make_shared(8), quota_pages=4, name="a")
        a.alloc_pages(4)
        a.set_quota_pages(1)
        assert a.used_pages == 4  # nothing forcibly freed
        assert a.free_pages == 0
        assert a.over_quota_pages == 3

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_bulk_alloc_matches_single_allocs(self, n):
        views = []
        for _ in range(2):
            shared = make_shared(8)
            other = TenantDax(shared, quota_pages=8, name="o")
            held = other.alloc_pages(3)  # interleave another tenant's frees
            other.free_page(held[1])
            views.append(TenantDax(shared, quota_pages=4, name="a"))
        bulk, single = views
        assert bulk.alloc_pages(n) == [single.alloc_page() for _ in range(n)]
        assert (bulk.used_pages, bulk.free_pages) == (n, 4 - n)
        assert bulk.shared._free == single.shared._free

    @pytest.mark.parametrize("quota, device", [(2, 8), (8, 2)])
    def test_oversize_bulk_alloc_changes_nothing(self, quota, device):
        shared = make_shared(device)
        view = TenantDax(shared, quota_pages=quota, name="a")
        view.alloc_page()
        with pytest.raises(MemoryError):
            view.alloc_pages(2)
        assert (view.used_pages, view.free_pages) == (1, 1)
        assert (shared.used_pages, shared.free_pages) == (1, device - 1)

    def test_negative_alloc_count_rejected(self):
        a = TenantDax(make_shared(8), quota_pages=4, name="a")
        with pytest.raises(ValueError):
            a.alloc_pages(-1)


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1),
                  st.sampled_from(["alloc", "free", "requota"]),
                  st.integers(min_value=0, max_value=12)),
        max_size=120,
    )
)
@settings(max_examples=150, deadline=None)
def test_two_views_conserve_shared_pages(ops):
    """Arbitrary alloc/free/re-quota interleavings across two tenant views:
    the shared file's used count always equals the sum of the tenant used
    counts, and used + free never drifts from the device size."""
    shared = make_shared(12)
    views = [
        TenantDax(shared, quota_pages=6, name="a"),
        TenantDax(shared, quota_pages=6, name="b"),
    ]
    held = [[], []]
    for who, op, arg in ops:
        view = views[who]
        if op == "alloc" and view.free_pages > 0:
            held[who].append(view.alloc_page())
        elif op == "free" and held[who]:
            view.free_page(held[who].pop())
        elif op == "requota":
            view.set_quota_pages(arg)
        assert shared.used_pages == sum(v.used_pages for v in views)
        assert shared.used_pages + shared.free_pages == shared.n_pages
        assert view.free_pages <= max(view.quota_pages - view.used_pages, 0)
