"""Tests for weighted max-min water-filling (bandwidth partitioning math)."""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.colo.bandwidth import BandwidthPartitioner, water_fill
from repro.mem.access import AccessStream, Pattern, TierSplit
from repro.mem.devices import WRITE
from repro.mem.page import HUGE_PAGE, Tier
from repro.mem.perf import PerfModel
from repro.mem.region import Region
from repro.sim.units import gbps


class TestWaterFill:
    def test_undersubscribed_meets_every_demand(self):
        alloc = water_fill({"a": 3.0, "b": 2.0}, {"a": 1.0, "b": 1.0}, 10.0)
        assert alloc == {"a": 3.0, "b": 2.0}

    def test_oversubscribed_equal_weights_split_evenly(self):
        alloc = water_fill({"a": 10.0, "b": 10.0}, {"a": 1.0, "b": 1.0}, 8.0)
        assert alloc["a"] == alloc["b"] == 4.0

    def test_weights_bias_the_split(self):
        alloc = water_fill({"a": 10.0, "b": 10.0}, {"a": 3.0, "b": 1.0}, 8.0)
        assert alloc["a"] == 6.0
        assert alloc["b"] == 2.0

    def test_satisfied_tenants_release_their_share(self):
        # a needs only 1 of its equal half; b soaks up the rest.
        alloc = water_fill({"a": 1.0, "b": 100.0}, {"a": 1.0, "b": 1.0}, 10.0)
        assert alloc["a"] == 1.0
        assert abs(alloc["b"] - 9.0) < 1e-9

    def test_zero_demand_gets_nothing(self):
        alloc = water_fill({"a": 0.0, "b": 5.0}, {"a": 1.0, "b": 1.0}, 4.0)
        assert alloc == {"a": 0.0, "b": 4.0}

    def test_zero_capacity(self):
        alloc = water_fill({"a": 5.0}, {"a": 1.0}, 0.0)
        assert alloc == {"a": 0.0}


@given(
    demands=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.0, max_value=100.0),
        min_size=1,
    ),
    weights=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.1, max_value=10.0),
    ),
    cap=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=200, deadline=None)
def test_water_fill_is_feasible_and_work_conserving(demands, weights, cap):
    alloc = water_fill(demands, weights, cap)
    assert set(alloc) == set(demands)
    total = 0.0
    for name, demand in demands.items():
        assert -1e-9 <= alloc[name] <= demand + 1e-9  # never over-serves
        total += alloc[name]
    assert total <= cap + 1e-6  # never over-commits the channel
    # Work conservation: capacity is only left idle once all demand is met.
    if total < cap - 1e-6:
        assert all(alloc[n] >= demands[n] - 1e-6 for n in demands)


def _stream(region, name, **kw):
    fields = dict(name=name, region=region, threads=16, op_size=8,
                  reads_per_op=1.0, writes_per_op=1.0,
                  pattern=Pattern.RANDOM, cpu_ns_per_op=60.0)
    fields.update(kw)
    return AccessStream(**fields)


@pytest.mark.parametrize("mode, expected", [
    ("fair", [0.05690825777722288, 0.05690825777722288, 0.7674426148939617]),
    ("priority", [0.22763303110889152, 0.22763303110889152, 0.0]),
])
def test_stream_factors_pinned_on_congested_tick(machine, mode, expected):
    """Tenant ``a`` (two streams, weight 1, priority 1) and tenant ``b``
    (one sequential scan, weight 3, priority 0) congest NVM with part of
    its write bandwidth reserved for migration.  Exact floats are pinned,
    so any drift in the demand, capacity or reservation arithmetic shows."""
    region = Region(0x10000000, 64 * HUGE_PAGE)
    streams = [
        _stream(region, "a-heap", writes_per_op=0.5),
        _stream(region, "a-index", op_size=64, threads=8),
        _stream(region, "b-scan", op_size=256, pattern=Pattern.SEQUENTIAL,
                writes_per_op=0.2),
    ]
    splits = [TierSplit(0.3, 0.2), TierSplit(0.8, 0.5), TierSplit(0.1, 0.0)]
    a = SimpleNamespace(name="a", spec=SimpleNamespace(weight=1.0, priority=1))
    b = SimpleNamespace(name="b", spec=SimpleNamespace(weight=3.0, priority=0))
    owner = {id(streams[0]): a, id(streams[1]): a, id(streams[2]): b}
    colo = SimpleNamespace(tenant_of_stream=lambda s: owner.get(id(s)))
    reserved = {(Tier.NVM, WRITE): gbps(0.5)}
    factors = BandwidthPartitioner(colo, mode).stream_factors(
        streams, splits, 0.9, PerfModel(machine.devices), reserved
    )
    assert factors == expected
