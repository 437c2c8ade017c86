"""Tests for DAX files and NUMA topology."""

import pytest

from repro.kernel.dax import DaxFile
from repro.kernel.numa import NumaTopology
from repro.mem.page import HUGE_PAGE, Tier
from repro.sim.units import GB, MB


class TestDaxFile:
    def test_page_accounting(self):
        dax = DaxFile(Tier.DRAM, 8 * HUGE_PAGE, HUGE_PAGE)
        assert dax.n_pages == 8
        assert dax.free_pages == 8
        p = dax.alloc_page()
        assert dax.used_pages == 1
        dax.free_page(p)
        assert dax.free_pages == 8

    def test_offsets_unique_until_freed(self):
        dax = DaxFile(Tier.NVM, 4 * HUGE_PAGE, HUGE_PAGE)
        pages = dax.alloc_pages(4)
        assert len(set(pages)) == 4
        with pytest.raises(MemoryError):
            dax.alloc_page()
        dax.free_page(pages[0])
        assert dax.alloc_page() == pages[0]

    def test_bulk_alloc_checks_space(self):
        dax = DaxFile(Tier.DRAM, 2 * HUGE_PAGE, HUGE_PAGE)
        with pytest.raises(MemoryError):
            dax.alloc_pages(3)

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_bulk_alloc_matches_single_allocs(self, n):
        bulk = DaxFile(Tier.DRAM, 8 * HUGE_PAGE, HUGE_PAGE)
        single = DaxFile(Tier.DRAM, 8 * HUGE_PAGE, HUGE_PAGE)
        for dax in (bulk, single):  # a recycled, out-of-order free list
            held = dax.alloc_pages(4)
            dax.free_page(held[2])
            dax.free_page(held[0])
        assert bulk.alloc_pages(n) == [single.alloc_page() for _ in range(n)]
        assert bulk._free == single._free

    def test_failed_bulk_alloc_changes_nothing(self):
        dax = DaxFile(Tier.DRAM, 4 * HUGE_PAGE, HUGE_PAGE)
        dax.alloc_page()
        with pytest.raises(MemoryError):
            dax.alloc_pages(4)
        assert (dax.free_pages, dax.used_pages) == (3, 1)

    def test_offset_bytes(self):
        dax = DaxFile(Tier.DRAM, 4 * HUGE_PAGE, HUGE_PAGE)
        assert dax.offset_bytes(3) == 3 * HUGE_PAGE

    def test_capacity_truncated_to_pages(self):
        dax = DaxFile(Tier.DRAM, HUGE_PAGE + 5, HUGE_PAGE)
        assert dax.n_pages == 1

    def test_out_of_range_free_rejected(self):
        dax = DaxFile(Tier.DRAM, HUGE_PAGE, HUGE_PAGE)
        with pytest.raises(ValueError):
            dax.free_page(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            DaxFile(Tier.DRAM, 0, HUGE_PAGE)
        with pytest.raises(ValueError):
            DaxFile(Tier.DRAM, HUGE_PAGE, 0)


class TestNuma:
    def test_two_nodes_with_distances(self):
        numa = NumaTopology(4 * GB, 16 * GB)
        assert numa.node(Tier.DRAM).distance < numa.node(Tier.NVM).distance

    def test_alloc_prefers_dram_then_falls_over(self):
        numa = NumaTopology(2 * MB, 16 * MB)
        assert numa.alloc(2 * MB) is Tier.DRAM
        assert numa.alloc(2 * MB) is Tier.NVM

    def test_alloc_raises_when_full(self):
        numa = NumaTopology(MB, MB)
        numa.alloc(MB)
        numa.alloc(MB)
        with pytest.raises(MemoryError):
            numa.alloc(MB)

    def test_migrate_accounting_moves_usage(self):
        numa = NumaTopology(4 * MB, 4 * MB)
        numa.alloc(2 * MB, preferred=Tier.NVM)
        assert numa.migrate_accounting(2 * MB, Tier.NVM, Tier.DRAM)
        assert numa.node(Tier.DRAM).free_bytes == 2 * MB
        assert numa.node(Tier.NVM).free_bytes == 4 * MB

    def test_migrate_fails_when_dst_full(self):
        numa = NumaTopology(MB, 4 * MB)
        numa.alloc(MB, preferred=Tier.DRAM)
        numa.alloc(MB, preferred=Tier.NVM)
        assert not numa.migrate_accounting(MB, Tier.NVM, Tier.DRAM)

    def test_same_node_migration_rejected(self):
        numa = NumaTopology(MB, MB)
        with pytest.raises(ValueError):
            numa.migrate_accounting(MB, Tier.DRAM, Tier.DRAM)

    def test_release(self):
        numa = NumaTopology(2 * MB, 2 * MB)
        numa.alloc(MB)
        numa.release(MB, Tier.DRAM)
        assert numa.node(Tier.DRAM).free_bytes == 2 * MB

