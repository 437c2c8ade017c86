"""Tests for pages, frame allocation, and regions."""

import numpy as np
import pytest

from repro.mem.page import BASE_PAGE, FrameAllocator, GIGA_PAGE, HUGE_PAGE, Tier
from repro.mem.region import _DOT_MEMO_LIMIT, Region, RegionKind
from repro.sim.units import GB, MB

from tests.conftest import pages_in


class TestFrameAllocator:
    def test_alloc_and_free_accounting(self):
        fa = FrameAllocator(Tier.DRAM, 10 * MB)
        assert fa.alloc(4 * MB)
        assert fa.used == 4 * MB
        assert fa.free == 6 * MB
        fa.release(2 * MB)
        assert fa.used == 2 * MB

    def test_alloc_fails_without_side_effect(self):
        fa = FrameAllocator(Tier.NVM, 2 * MB)
        assert not fa.alloc(3 * MB)
        assert fa.used == 0

    def test_over_release_rejected(self):
        fa = FrameAllocator(Tier.DRAM, MB)
        with pytest.raises(ValueError):
            fa.release(1)

    def test_negative_amounts_rejected(self):
        fa = FrameAllocator(Tier.DRAM, MB)
        with pytest.raises(ValueError):
            fa.alloc(-1)
        with pytest.raises(ValueError):
            fa.release(-1)

    def test_page_size_ladder(self):
        assert BASE_PAGE == 4096
        assert HUGE_PAGE == 2 * MB
        assert GIGA_PAGE == GB


class TestRegion:
    def make(self, size=8 * HUGE_PAGE):
        return Region(start=0x1000000, size=size, page_size=HUGE_PAGE)

    def test_page_count(self):
        region = self.make()
        assert region.n_pages == 8

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            Region(0, HUGE_PAGE + 1, page_size=HUGE_PAGE)

    def test_address_helpers(self):
        region = self.make()
        assert region.contains(region.start)
        assert not region.contains(region.end)
        assert region.end == region.start + region.n_pages * HUGE_PAGE

    def test_unique_ids(self):
        assert self.make().region_id != self.make().region_id

    def test_dram_fraction_uniform(self):
        region = self.make()
        region.tier[:4] = Tier.NVM
        assert region.dram_fraction() == pytest.approx(0.5)

    def test_dram_fraction_weighted(self):
        region = self.make()
        region.tier[:] = Tier.NVM
        region.tier[0] = Tier.DRAM
        weights = np.zeros(8)
        weights[0] = 0.75
        weights[1] = 0.25
        assert region.dram_fraction(weights) == pytest.approx(0.75)

    def test_dram_fraction_memo_interleaved_weights(self):
        """Alternating read and write distributions (one stream's loads
        and stores) each keep their memo entry, match ``np.dot`` bit for
        bit, and are invalidated by a ``tier_version`` bump."""
        region = self.make()
        rng = np.random.default_rng(4)
        reads = rng.random(8)
        reads /= reads.sum()
        writes = rng.random(8)
        writes /= writes.sum()
        region.tier[:3] = Tier.NVM
        region.tier_version += 1
        for _ in range(2):
            mask = (region.tier == Tier.DRAM).astype(np.float64)
            for _ in range(3):
                assert region.dram_fraction(reads) == float(np.dot(reads, mask))
                assert region.dram_fraction(writes) == float(np.dot(writes, mask))
            assert len(region._dot_memo) == 2
            region.tier[5] = Tier.NVM
            region.tier[0] = Tier.DRAM
            region.tier_version += 1

    def test_dram_fraction_memo_bounded(self):
        region = self.make()
        arrays = [np.full(8, 1.0 / 8) for _ in range(3 * _DOT_MEMO_LIMIT)]
        for weights in arrays:
            assert region.dram_fraction(weights) == 1.0
            assert len(region._dot_memo) <= _DOT_MEMO_LIMIT

    def test_bytes_in_tier(self):
        region = self.make()
        region.tier[:3] = Tier.NVM
        assert region.bytes_in(Tier.NVM) == 3 * HUGE_PAGE
        assert region.bytes_in(Tier.DRAM) == 5 * HUGE_PAGE

    def test_pages_in_tier(self):
        region = self.make()
        region.tier[2] = Tier.NVM
        assert list(pages_in(region, Tier.NVM)) == [2]

    def test_accumulate_uniform(self):
        region = self.make()
        region.accumulate(None, reads=8.0, writes=16.0)
        assert region.pending_reads[0] == pytest.approx(1.0)
        assert region.pending_writes[3] == pytest.approx(2.0)

    def test_accumulate_weighted(self):
        region = self.make()
        weights = np.zeros(8)
        weights[5] = 1.0
        region.accumulate(weights, reads=4.0, writes=0.0)
        assert region.pending_reads[5] == pytest.approx(4.0)
        assert region.pending_reads[0] == 0.0

    def test_accumulate_rejects_negative(self):
        with pytest.raises(ValueError):
            self.make().accumulate(None, reads=-1.0, writes=0.0)

    def test_clear_access_bits(self):
        region = self.make()
        region.accumulate(None, 8.0, 8.0)
        region.clear_access_bits()
        assert region.pending_reads.sum() == 0.0
        assert region.pending_writes.sum() == 0.0

    def test_kind_default(self):
        assert self.make().kind is RegionKind.HEAP
