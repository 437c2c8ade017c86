"""Tests for access streams and tier splits."""

import numpy as np
import pytest

from repro.mem.access import AccessStream, Pattern, StreamResult, TierSplit
from repro.mem.page import HUGE_PAGE
from repro.mem.region import Region


@pytest.fixture
def region():
    return Region(0x1000000, 8 * HUGE_PAGE)


class TestAccessStream:
    def test_uniform_weights_materialise(self, region):
        stream = AccessStream(name="s", region=region, threads=1)
        w = stream.page_weights()
        assert w.sum() == pytest.approx(1.0)
        assert len(w) == 8

    def test_weights_normalised(self, region):
        stream = AccessStream(name="s", region=region, threads=1,
                              weights=np.ones(8) * 5)
        assert stream.weights.sum() == pytest.approx(1.0)

    def test_weights_length_checked(self, region):
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=1, weights=np.ones(3))

    def test_zero_weights_rejected(self, region):
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=1, weights=np.zeros(8))

    def test_store_weights_default_to_weights(self, region):
        w = np.arange(1, 9, dtype=float)
        stream = AccessStream(name="s", region=region, threads=1, weights=w)
        assert np.array_equal(stream.store_weights(), stream.weights)

    def test_separate_write_weights(self, region):
        ww = np.zeros(8)
        ww[0] = 1.0
        stream = AccessStream(name="s", region=region, threads=1,
                              write_weights=ww)
        assert stream.store_weights()[0] == 1.0

    def test_weights_are_read_only(self, region):
        """Memos key on the weights' identity: in-place edits must raise."""
        ww = np.full(8, 1.0 / 8)  # already normalised: kept, not copied
        stream = AccessStream(name="s", region=region, threads=1,
                              weights=np.ones(8), write_weights=ww)
        assert stream.write_weights is ww
        with pytest.raises(ValueError, match="read-only"):
            stream.weights[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            stream.write_weights[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            ww *= 2.0

    def test_validation(self, region):
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=-1)
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=1, op_size=0)
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=1, mlp=0)
        with pytest.raises(ValueError):
            AccessStream(name="s", region=region, threads=1, reads_per_op=-1)

    def test_pattern_values(self):
        assert Pattern.SEQUENTIAL.value == "seq"
        assert Pattern.RANDOM.value == "rand"


class TestTierSplit:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            TierSplit(dram_read_frac=1.5)
        with pytest.raises(ValueError):
            TierSplit(dram_write_frac=-0.1)

    def test_float_noise_clamped(self):
        split = TierSplit(dram_read_frac=1.0 + 1e-12)
        assert split.dram_read_frac == 1.0


class TestStreamResult:
    def test_total_bytes(self):
        res = StreamResult(ops=1, dram_read_bytes=1, dram_write_bytes=2,
                           nvm_read_bytes=3, nvm_write_bytes=4)
        assert res.total_bytes == 10
