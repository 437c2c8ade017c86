"""Tests for the PEBS sampling unit."""

import pytest

from repro.mem.pebs import PebsBatch, PebsEventKind, PebsSpec, PebsUnit
from repro.mem.region import Region
from repro.sim.rng import make_rng
from repro.sim.stats import StatsRegistry
from repro.sim.units import MB


@pytest.fixture
def region():
    return Region(0x1000000, 16 * 2 * MB)


def make_unit(stats, period=100, capacity=64):
    return PebsUnit(PebsSpec(sample_period=period, buffer_capacity=capacity),
                    stats, make_rng(1, "t"))


def sampler_for(region):
    def sampler(_stream, n):
        return [i % region.n_pages for i in range(n)]

    return sampler


def records(batch):
    """Flatten a batch into ``(kind, region, page)`` triples."""
    return [(kind, region, page) for kind, region, pages in batch
            for page in pages]


class TestFeed:
    def test_one_record_per_period(self, stats, region):
        unit = make_unit(stats, period=100)
        n = unit.feed(PebsEventKind.STORE, region, 250, sampler_for(region))
        assert n == 2
        assert len(unit) == 2

    def test_carry_accumulates_across_feeds(self, stats, region):
        unit = make_unit(stats, period=100)
        unit.feed(PebsEventKind.STORE, region, 60, sampler_for(region))
        n = unit.feed(PebsEventKind.STORE, region, 60, sampler_for(region))
        assert n == 1

    def test_carries_are_per_event_kind(self, stats, region):
        unit = make_unit(stats, period=100)
        unit.feed(PebsEventKind.STORE, region, 99, sampler_for(region))
        n = unit.feed(PebsEventKind.NVM_READ, region, 99, sampler_for(region))
        assert n == 0

    def test_buffer_overflow_drops(self, stats, region):
        unit = make_unit(stats, period=1, capacity=8)
        unit.feed(PebsEventKind.STORE, region, 20, sampler_for(region))
        assert len(unit) == 8
        assert unit.records_dropped == 12
        assert unit.drop_fraction == pytest.approx(12 / 20)

    def test_negative_events_rejected(self, stats, region):
        unit = make_unit(stats)
        with pytest.raises(ValueError):
            unit.feed(PebsEventKind.STORE, region, -1, sampler_for(region))


class TestDrain:
    def test_fifo_order(self, stats, region):
        unit = make_unit(stats, period=1)
        unit.feed(PebsEventKind.STORE, region, 3, lambda _stream, n: list(range(n)))
        out = unit.drain(10)
        assert [page for _, _, page in records(out)] == [0, 1, 2]
        assert len(unit) == 0

    def test_drain_respects_budget(self, stats, region):
        unit = make_unit(stats, period=1)
        unit.feed(PebsEventKind.STORE, region, 5, sampler_for(region))
        out = unit.drain(2)
        assert len(out) == 2
        assert len(unit) == 3

    def test_negative_budget_rejected(self, stats, region):
        with pytest.raises(ValueError):
            make_unit(stats).drain(-1)

    def test_split_chunk_keeps_fifo_across_kinds_and_regions(self, stats, region):
        other = Region(0x9000000, 8 * 2 * MB)
        unit = make_unit(stats, period=1, capacity=1000)
        fed = []
        for kind, reg, pages in [
            (PebsEventKind.STORE, region, [3, 1, 4]),
            (PebsEventKind.DRAM_READ, other, [1, 5, 2, 6, 5]),
            (PebsEventKind.NVM_READ, region, [9]),
            (PebsEventKind.STORE, other, [2, 7]),
        ]:
            unit.feed(kind, reg, len(pages), lambda _stream, n, pages=pages: list(pages))
            fed += [(kind, reg, page) for page in pages]
        drained = []
        # budgets that end inside a chunk, on a boundary, and past the end
        for budget in (2, 3, 0, 4, 1, 50):
            batch = unit.drain(budget)
            assert len(batch) == min(budget, len(fed) - len(drained))
            drained += records(batch)
            assert len(unit) == len(fed) - len(drained)
        assert drained == fed

    def test_batch_len_is_record_count(self, stats, region):
        unit = make_unit(stats, period=1, capacity=1000)
        for kind in (PebsEventKind.STORE, PebsEventKind.NVM_READ):
            unit.feed(kind, region, 7, sampler_for(region))
        batch = unit.drain(100)
        assert isinstance(batch, PebsBatch)
        assert len(batch) == 14 == len(records(batch))
        assert len(list(batch)) == 2  # chunks, not records
        head = batch.head(9)
        assert len(head) == 9
        assert records(head) == records(batch)[:9]
        assert batch.head(14) is batch
        assert len(batch.head(0)) == 0 and records(batch.head(0)) == []

    def test_count_and_drops_exact_under_capacity_spikes(self, stats, region):
        unit = make_unit(stats, period=1, capacity=40)
        buffered = sampled = dropped = 0
        plan = [(1.0, 15, 0), (0.25, 7, 0), (0.1, 5, 3), (1.0, 30, 12),
                (0.5, 4, 40), (2.0, 60, 5), (1.0, 9, 0)]
        for factor, n_events, budget in plan:
            unit.set_capacity_factor(factor)
            room = max(unit.effective_capacity - buffered, 0)
            n = unit.feed(PebsEventKind.STORE, region, n_events, sampler_for(region))
            assert n == min(n_events, room)
            sampled += n
            dropped += n_events - n
            buffered += n
            out = unit.drain(budget)
            assert len(out) == len(records(out)) == min(budget, buffered)
            buffered -= len(out)
            assert len(unit) == buffered
            assert unit.records_sampled == sampled
            assert unit.records_dropped == dropped

    def test_short_sampler_buffers_what_it_returned(self, stats, region):
        unit = make_unit(stats, period=1)
        assert unit.feed(PebsEventKind.NVM_READ, region, 5, lambda _stream, n: [1, 2]) == 2
        assert unit.feed(PebsEventKind.NVM_READ, region, 5, lambda _stream, n: []) == 0
        assert len(unit) == 2 and unit.records_sampled == 2
        assert records(unit.drain(10)) == [
            (PebsEventKind.NVM_READ, region, 1), (PebsEventKind.NVM_READ, region, 2)
        ]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PebsSpec(sample_period=0)
        with pytest.raises(ValueError):
            PebsSpec(buffer_capacity=0)

    @pytest.mark.parametrize("cost", [0, 0.0, -1.0, float("nan")])
    def test_drain_cost_must_be_positive(self, cost):
        # 0 would divide by zero in the drain thread's budget; a negative
        # cost would fail mid-run as a negative drain budget.
        with pytest.raises(ValueError, match="drain cost"):
            PebsSpec(drain_ns_per_record=cost)
