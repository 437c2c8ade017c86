"""End-to-end tests for the TPC-C engine workload over real managers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.managers import make_manager
from repro.db.schema import DbScale
from repro.db.workload import TpccBufferConfig, TpccBufferWorkload
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import MB


def tiny_config(**kw) -> TpccBufferConfig:
    defaults = dict(
        heap_bytes=192 * MB,
        index_bytes=64 * MB,
        scale=DbScale(warehouses=2, rows_scale=1000),
        profile_txns=120,
        latency_samples=2000,
    )
    defaults.update(kw)
    return TpccBufferConfig(**defaults)


def tiny_machine(dram_mb=96) -> Machine:
    spec = replace(MachineSpec().scaled(256), dram_capacity=dram_mb * MB)
    return Machine(spec, seed=123)


def run_workload(manager_name, config=None, duration=3.0, dram_mb=96):
    machine = tiny_machine(dram_mb)
    workload = TpccBufferWorkload(config or tiny_config(), warmup=1.0)
    engine = Engine(machine, make_manager(manager_name), workload,
                    EngineConfig(tick=0.01, seed=7))
    engine.run(duration)
    return engine, workload


class TestAcrossBackends:
    @pytest.mark.parametrize("manager_name", ["hemem", "bufferpool", "mm"])
    def test_runs_and_commits(self, manager_name):
        engine, workload = run_workload(manager_name)
        assert workload.throughput(engine.clock.now) > 0
        assert workload._live_done > 0
        result = workload.result()  # also runs storage integrity checks
        assert result["workload"] == "tpcc"
        assert set(result["committed_mix"]) <= {
            "new_order", "payment", "delivery"}
        assert 0.0 <= result["index_dram_fraction"] <= 1.0

    def test_bufferpool_pins_index_in_dram(self):
        _engine, workload = run_workload("bufferpool")
        # 64 MB of index fits the 96 MB DRAM budget: fully pinned.
        assert (workload.index_region.tier == Tier.DRAM).all()

    def test_latency_percentiles_ordered(self):
        _engine, workload = run_workload("hemem")
        lat = workload.txn_latency_percentiles(percentiles=(50, 90, 99))
        assert 0 < lat[50] <= lat[90] <= lat[99]


class TestSelfTermination:
    def test_target_txns_stops_the_engine_early(self):
        config = tiny_config(target_txns=10_000.0)
        engine, workload = run_workload("hemem", config=config,
                                        duration=30.0)
        assert workload.finished(engine.clock.now)
        assert engine.clock.now < 30.0
        assert workload.total_ops >= 10_000.0

    def test_measured_rate_when_finished_before_measure_start(self):
        # The run ends inside the warmup window: measured_ops is empty,
        # and measured_rate must fall back to the whole-run average
        # instead of dividing by a zero-length measure window.
        config = tiny_config(target_txns=1_000.0)
        engine, workload = run_workload("hemem", config=config,
                                        duration=30.0)
        end = engine.clock.now
        assert workload.finished(end)
        assert end < workload.measure_start
        assert workload.measured_ops == 0.0
        rate = workload.measured_rate(end)
        assert rate > 0
        assert rate == pytest.approx(workload.total_ops / end)
        assert workload.throughput(end) == rate


class TestObservability:
    def test_latency_histogram_and_p99_series_recorded(self):
        from repro.db.workload import TXN_LATENCY_BOUNDS

        engine, _workload = run_workload("hemem")
        hist = engine.machine.stats.histogram("tpcc.txn_latency_s",
                                              bounds=TXN_LATENCY_BOUNDS)
        assert hist.count > 0
        series = engine.machine.stats.series("tpcc.txn_p99_s")
        assert len(series.values) > 0
        assert all(v > 0 for v in series.values)

    def test_txn_committed_events_traced(self):
        from repro.obs.trace import Tracer

        machine = tiny_machine()
        machine.install_tracer(Tracer())
        workload = TpccBufferWorkload(tiny_config(), warmup=1.0)
        engine = Engine(machine, make_manager("hemem"), workload,
                        EngineConfig(tick=0.01, seed=7))
        engine.run(2.0)
        kinds = [type(e).__name__ for e in machine.tracer.events]
        assert "TxnCommitted" in kinds


def test_determinism_same_seed_same_throughput():
    engine_a, workload_a = run_workload("bufferpool", duration=2.0)
    engine_b, workload_b = run_workload("bufferpool", duration=2.0)
    assert workload_a.throughput(engine_a.clock.now) == pytest.approx(
        workload_b.throughput(engine_b.clock.now))


@pytest.mark.parametrize("field", ["profile_txns", "latency_samples"])
def test_config_rejects_zero_counts(field):
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: 0})


def test_streams_built_once():
    machine = tiny_machine()
    workload = TpccBufferWorkload(tiny_config(), warmup=0.0)
    Engine(machine, make_manager("hemem"), workload,
           EngineConfig(tick=0.01, seed=7))
    first = workload.access_mix(0.0, 0.01)
    second = workload.access_mix(0.01, 0.01)
    assert [s.name for s in first] == ["tpcc_heap", "tpcc_index"]
    assert all(a is b for a, b in zip(first, second))
