"""Tests for the performance model."""

import pytest

from repro.mem.access import AccessStream, Pattern, TierSplit
from repro.mem.devices import READ, WRITE
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.perf import PerfModel
from repro.mem.region import Region
from repro.sim.units import GB, gbps


@pytest.fixture
def perf(machine):
    return PerfModel(machine.devices)


def make_stream(region=None, **kw):
    region = region or Region(0x10000000, 64 * HUGE_PAGE)
    defaults = dict(
        name="s", region=region, threads=16, op_size=8,
        reads_per_op=1.0, writes_per_op=1.0, pattern=Pattern.RANDOM,
        cpu_ns_per_op=60.0,
    )
    defaults.update(kw)
    return AccessStream(**defaults)


ALL_DRAM = TierSplit(1.0, 1.0)
ALL_NVM = TierSplit(0.0, 0.0)


class TestOpTime:
    def test_dram_faster_than_nvm(self, perf):
        stream = make_stream()
        assert perf.op_time(stream, ALL_DRAM) < perf.op_time(stream, ALL_NVM)

    def test_op_time_interpolates(self, perf):
        stream = make_stream()
        mid = perf.op_time(stream, TierSplit(0.5, 0.5))
        assert perf.op_time(stream, ALL_DRAM) < mid < perf.op_time(stream, ALL_NVM)

    def test_mlp_divides_memory_stall(self, perf):
        slow = perf.op_time(make_stream(mlp=1.0), ALL_DRAM)
        fast = perf.op_time(make_stream(mlp=4.0), ALL_DRAM)
        assert fast < slow

    def test_gups_calibration(self, perf):
        """16-thread all-DRAM GUPS lands near 0.1 GUPS (paper's ballpark)."""
        stream = make_stream()
        rate = stream.threads / perf.op_time(stream, ALL_DRAM)
        assert 0.07e9 < rate < 0.13e9


class TestResolve:
    def test_empty(self, perf):
        assert perf.resolve([], [], 1.0, 0.01, {}) == []

    def test_dram_stream_unthrottled(self, perf):
        stream = make_stream()
        [res] = perf.resolve([stream], [ALL_DRAM], 1.0, 0.01, {})
        expected = stream.threads / perf.op_time(stream, ALL_DRAM) * 0.01
        assert res.ops == pytest.approx(expected)
        assert res.nvm_read_bytes == 0.0
        assert res.nvm_write_bytes == 0.0

    def test_nvm_writes_throttle(self, perf):
        """Random 8 B NVM writes bind at the 2.6 GB/s media cap."""
        stream = make_stream()
        [res] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, {})
        assert res.nvm_write_bytes / 0.01 <= gbps(2.6) * 1.01
        latency_bound = stream.threads / perf.op_time(stream, ALL_NVM) * 0.01
        assert res.ops < 0.5 * latency_bound

    def test_speed_factor_scales_ops(self, perf):
        stream = make_stream()
        [full] = perf.resolve([stream], [ALL_DRAM], 1.0, 0.01, {})
        [half] = perf.resolve([stream], [ALL_DRAM], 0.5, 0.01, {})
        assert half.ops == pytest.approx(full.ops / 2)

    def test_media_granularity_charged(self, perf):
        """An 8 B random NVM read moves 256 media bytes."""
        stream = make_stream(writes_per_op=0.0)
        [res] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, {})
        assert res.nvm_read_bytes == pytest.approx(res.ops * 256)

    def test_dram_line_granularity_charged(self, perf):
        stream = make_stream(writes_per_op=0.0)
        [res] = perf.resolve([stream], [ALL_DRAM], 1.0, 0.01, {})
        assert res.dram_read_bytes == pytest.approx(res.ops * 64)

    def test_reservation_reduces_capacity(self, perf):
        stream = make_stream()
        [free] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, {})
        reserved = {(Tier.NVM, WRITE): gbps(1.5)}
        [squeezed] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, reserved)
        assert squeezed.ops < free.ops

    def test_streams_share_bandwidth(self, perf):
        s1, s2 = make_stream(name="a"), make_stream(name="b")
        [alone] = perf.resolve([s1], [ALL_NVM], 1.0, 0.01, {})
        both = perf.resolve([s1, s2], [ALL_NVM, ALL_NVM], 1.0, 0.01, {})
        assert both[0].ops < alone.ops

    def test_extra_nvm_traffic_accounted(self, perf):
        """Memory-mode style fill/write-back traffic lands on NVM."""
        stream = make_stream(writes_per_op=0.0)
        split = TierSplit(1.0, 1.0, extra_nvm_write_bytes_per_op=64.0)
        [res] = perf.resolve([stream], [split], 1.0, 0.01, {})
        # 64 payload bytes of random line writes cost a 256 B media access.
        assert res.nvm_write_bytes == pytest.approx(res.ops * 256)

    def test_misaligned_inputs_rejected(self, perf):
        with pytest.raises(ValueError):
            perf.resolve([make_stream()], [], 1.0, 0.01, {})

    def test_avg_latency_reported(self, perf):
        stream = make_stream()
        [res] = perf.resolve([stream], [ALL_DRAM], 1.0, 0.01, {})
        assert res.avg_op_latency == pytest.approx(perf.op_time(stream, ALL_DRAM))

    def test_throttled_latency_inflates(self, perf):
        stream = make_stream()
        [res] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, {})
        assert res.avg_op_latency > perf.op_time(stream, ALL_NVM)

    def test_needs_both_devices(self, machine):
        with pytest.raises(ValueError):
            PerfModel({Tier.DRAM: machine.dram})


class TestWholeTickMemo:
    """The multi-stream whole-tick memo returns exactly what a fresh model
    computes, and stays out of the way when factors or reservations apply."""

    @staticmethod
    def tick():
        streams = [make_stream(name="heap", op_size=256, writes_per_op=0.4),
                   make_stream(name="index", op_size=64, writes_per_op=0.1)]
        return streams, [TierSplit(0.6, 0.3), TierSplit(0.9, 0.8)]

    def test_hit_matches_fresh_model(self, machine, perf):
        streams, splits = self.tick()
        first = perf.resolve(streams, splits, 0.9, 0.01, {})
        again = perf.resolve(streams, splits, 0.9, 0.01, {})
        assert all(a is b for a, b in zip(again, first))  # served by the memo
        assert again is not first
        fresh = PerfModel(machine.devices).resolve(streams, splits, 0.9, 0.01, {})
        assert again == fresh

    def test_new_speed_factor_misses(self, machine, perf):
        streams, splits = self.tick()
        perf.resolve(streams, splits, 0.9, 0.01, {})
        slower = perf.resolve(streams, splits, 0.5, 0.01, {})
        assert slower == PerfModel(machine.devices).resolve(
            streams, splits, 0.5, 0.01, {})

    @pytest.mark.parametrize("extra", [
        {"factors": [0.5, 1.0]},
        {"reserved_bw": {(Tier.NVM, WRITE): gbps(1.5)}},
    ])
    def test_bypassed_with_factors_or_reservation(self, machine, perf, extra):
        streams, splits = self.tick()
        plain = perf.resolve(streams, splits, 1.0, 0.01, {})
        slot = perf._multi_memo
        reserved = extra.get("reserved_bw", {})
        factors = extra.get("factors")
        got = perf.resolve(streams, splits, 1.0, 0.01, reserved, factors=factors)
        assert perf._multi_memo is slot  # neither read nor written
        assert got == PerfModel(machine.devices).resolve(
            streams, splits, 1.0, 0.01, reserved, factors=factors)
        assert got[0].ops < plain[0].ops


class TestPaperShapes:
    def test_dram_vs_nvm_gups_ratio(self, perf):
        """All-DRAM GUPS should be roughly 5-15x all-NVM GUPS."""
        stream = make_stream()
        [d] = perf.resolve([stream], [ALL_DRAM], 1.0, 0.01, {})
        [n] = perf.resolve([stream], [ALL_NVM], 1.0, 0.01, {})
        assert 5 < d.ops / n.ops < 15

    def test_write_placement_matters_more_than_read(self, perf):
        """NVM's write asymmetry: writes-in-NVM hurts more than reads-in-NVM."""
        stream = make_stream()
        [w_nvm] = perf.resolve([stream], [TierSplit(1.0, 0.0)], 1.0, 0.01, {})
        [r_nvm] = perf.resolve([stream], [TierSplit(0.0, 1.0)], 1.0, 0.01, {})
        assert w_nvm.ops < r_nvm.ops
