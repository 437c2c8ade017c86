"""Property-based tests on the hardware model's numeric invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.mem.access import AccessStream, Pattern, TierSplit
from repro.mem.cache import CacheClass, DirectMappedCacheModel
from repro.mem.devices import RAND, READ, SEQ, WRITE, ddr4_spec, optane_spec
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import HUGE_PAGE
from repro.mem.perf import PerfModel
from repro.mem.region import Region
from repro.mem.sampling import WeightedSampler
from repro.sim.units import GB


@given(
    op=st.sampled_from([READ, WRITE]),
    pattern=st.sampled_from([SEQ, RAND]),
    size=st.integers(min_value=8, max_value=1 << 20),
    threads=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_microbench_bw_bounded_by_peak(op, pattern, size, threads):
    for spec in (ddr4_spec(), optane_spec()):
        bw = spec.microbench_bw(op, pattern, size, threads)
        assert 0 <= bw <= spec.peak_bw[(op, pattern)] * 1.0001


@given(
    op=st.sampled_from([READ, WRITE]),
    pattern=st.sampled_from([SEQ, RAND]),
    size=st.integers(min_value=8, max_value=1 << 16),
)
@settings(max_examples=200, deadline=None)
def test_microbench_monotone_in_threads(op, pattern, size):
    spec = optane_spec()
    values = [spec.microbench_bw(op, pattern, size, t) for t in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


@given(
    frac_r=st.floats(min_value=0, max_value=1),
    frac_w=st.floats(min_value=0, max_value=1),
    reads=st.floats(min_value=0, max_value=8),
    writes=st.floats(min_value=0, max_value=8),
    op_size=st.integers(min_value=8, max_value=8192),
)
@settings(max_examples=200, deadline=None)
def test_resolve_conserves_and_bounds(frac_r, frac_w, reads, writes, op_size):
    machine = Machine(MachineSpec().scaled(64), seed=1)
    perf = PerfModel(machine.devices)
    region = Region(0x1000000, 64 * HUGE_PAGE)
    stream = AccessStream(
        name="s", region=region, threads=8, op_size=op_size,
        reads_per_op=reads, writes_per_op=writes,
    )
    split = TierSplit(frac_r, frac_w)
    [res] = perf.resolve([stream], [split], 1.0, 0.01, {})
    assert res.ops >= 0
    assert res.total_bytes >= 0
    # Never more ops than the pure latency bound.
    op_t = perf.op_time(stream, split)
    if op_t > 0:
        assert res.ops <= stream.threads / op_t * 0.01 * 1.0001
    # Demanded NVM write media bandwidth stays under the device cap.
    cap = machine.nvm.capacity_bw(WRITE, RAND)
    assert res.nvm_write_bytes / 0.01 <= cap * 1.01


@given(
    footprints=st.lists(st.integers(min_value=1, max_value=1000), min_size=1,
                        max_size=4),
    rates=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                   max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_cache_hits_in_unit_interval(footprints, rates):
    n = min(len(footprints), len(rates))
    total = sum(rates[:n])
    classes = [
        CacheClass(rate_fraction=rates[i] / total, footprint=footprints[i] * GB)
        for i in range(n)
    ]
    model = DirectMappedCacheModel(192 * GB, rng=np.random.default_rng(5),
                                   mc_samples=512)
    for hit in model.steady_state_hit_rates(classes):
        assert 0.0 <= hit <= 1.0


def _result_fields(res):
    return (
        res.ops, res.dram_read_bytes, res.dram_write_bytes,
        res.nvm_read_bytes, res.nvm_write_bytes, res.avg_op_latency,
    )


@given(
    frac_r=st.floats(min_value=0, max_value=1),
    frac_w=st.floats(min_value=0, max_value=1),
    reads=st.floats(min_value=0, max_value=8),
    writes=st.floats(min_value=0, max_value=8),
    op_size=st.integers(min_value=8, max_value=8192),
    threads=st.integers(min_value=1, max_value=32),
    speed=st.floats(min_value=0.1, max_value=1.0),
    reserved=st.floats(min_value=0, max_value=1e10),
)
@settings(max_examples=200, deadline=None)
def test_perf_memo_bit_identical_to_cold_model(
    frac_r, frac_w, reads, writes, op_size, threads, speed, reserved
):
    """Memoized (warm) resolution must equal a fresh model bit-for-bit."""
    machine = Machine(MachineSpec().scaled(64), seed=1)
    region = Region(0x1000000, 64 * HUGE_PAGE)
    stream = AccessStream(
        name="s", region=region, threads=threads, op_size=op_size,
        reads_per_op=reads, writes_per_op=writes,
    )
    split = TierSplit(frac_r, frac_w)
    reserved_bw = {(machine.nvm.tier, WRITE): reserved}

    warm = PerfModel(machine.devices)
    first = warm.resolve([stream], [split], speed, 0.01, reserved_bw)[0]
    second = warm.resolve([stream], [split], speed, 0.01, reserved_bw)[0]
    cold = PerfModel(machine.devices).resolve(
        [stream], [split], speed, 0.01, reserved_bw
    )[0]
    assert _result_fields(first) == _result_fields(second)
    assert _result_fields(first) == _result_fields(cold)
    # op_time memoization is exact too.
    assert warm.op_time(stream, split) == PerfModel(machine.devices).op_time(
        stream, split
    )


@given(
    n_pages=st.integers(min_value=1, max_value=500),
    n=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_sampler_in_range(n_pages, n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(n_pages) + 1e-9
    weights /= weights.sum()
    sampler = WeightedSampler(np.random.default_rng(seed + 1))
    draw = sampler.sample(n_pages, weights, n)
    assert len(draw) == n
    if n:
        assert draw.min() >= 0
        assert draw.max() < n_pages
