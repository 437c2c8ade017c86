"""Tests for services and the tick engine wiring."""

import pytest

from repro.mem.machine import Machine, MachineSpec
from repro.sim.engine import Engine, EngineConfig
from repro.sim.service import Service
from repro.sim.units import GB
from repro.workloads.gups import GupsConfig, GupsWorkload
from repro.core.hemem import HeMemManager


class TickCounter(Service):
    def __init__(self, period=0.0):
        super().__init__("ticker", period=period)
        self.calls = 0

    def run(self, engine, now, dt):
        self.calls += 1
        return 0.0


class TestService:
    def test_period_zero_is_always_due(self):
        svc = TickCounter()
        assert svc.due(0.0)
        svc.mark_ran(0.0)
        assert svc.due(0.01)

    def test_periodic_schedule(self):
        svc = TickCounter(period=0.05)
        assert svc.due(0.0)
        svc.mark_ran(0.0)
        assert not svc.due(0.01)
        assert svc.due(0.05)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            TickCounter(period=-1)


def _make_engine(duration_tick=0.01):
    spec = MachineSpec().scaled(64)
    machine = Machine(spec, seed=1)
    manager = HeMemManager()
    workload = GupsWorkload(GupsConfig(working_set=1 * GB))
    return Engine(machine, manager, workload, EngineConfig(tick=duration_tick, seed=1))


class TestEngine:
    def test_run_advances_clock(self):
        engine = _make_engine()
        engine.run(0.1)
        assert engine.clock.now == pytest.approx(0.1)

    def test_every_tick_service_runs_every_tick(self):
        engine = _make_engine()
        svc = TickCounter()
        engine.add_service(svc)
        engine.run(0.1)
        assert svc.calls == 10

    def test_periodic_service_runs_at_period(self):
        engine = _make_engine()
        svc = TickCounter(period=0.05)
        engine.add_service(svc)
        engine.run(0.2)
        assert svc.calls == 4

    def test_add_service_idempotent(self):
        engine = _make_engine()
        svc = TickCounter()
        engine.add_service(svc)
        engine.add_service(svc)
        assert engine.services.count(svc) == 1

    def test_remove_service(self):
        engine = _make_engine()
        svc = TickCounter()
        engine.add_service(svc)
        engine.remove_service(svc)
        engine.run(0.05)
        assert svc.calls == 0

    def test_result_contains_counters_and_elapsed(self):
        engine = _make_engine()
        result = engine.run(0.05)
        assert result["elapsed"] == pytest.approx(0.05)
        assert "counters" in result
        assert result["total_ops"] > 0

    def test_throughput_series_recorded(self):
        engine = _make_engine()
        engine.run(0.05)
        series = engine.stats.series("app.ops_per_sec")
        assert len(series) == 5
        assert all(v > 0 for v in series.values)

    def test_last_app_threads_tracked(self):
        engine = _make_engine()
        engine.run(0.02)
        assert engine.last_app_threads == 16

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(tick=0)
        with pytest.raises(ValueError):
            EngineConfig(max_duration=-1)
