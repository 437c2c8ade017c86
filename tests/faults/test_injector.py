"""Tests for the fault injector service against a live machine."""

import pytest

from repro.core.config import HeMemConfig
from repro.core.hemem import HeMemManager
from repro.core.pagestore import UNDER_MIGRATION
from repro.faults import FaultPlan
from repro.mem.dma import ThreadCopyEngine
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB

from tests.conftest import IdleWorkload, pages_in

SCALE = 64


def make_faulted(plan_text, seed=3, config=None):
    manager = HeMemManager(config)
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    machine.install_faults(FaultPlan.parse(plan_text))
    engine = Engine(machine, manager, IdleWorkload(),
                    EngineConfig(tick=0.01, seed=seed))
    return engine, manager, machine


def step_until(engine, t):
    while engine.clock.now < t - 1e-9:
        engine.step()


class TestWiring:
    def test_engine_registers_injector(self):
        engine, _, machine = make_faulted("dma_down@t=1.0")
        assert engine.fault_injector is not None
        assert engine.fault_injector in engine.services

    def test_no_plan_no_injector(self):
        machine = Machine(MachineSpec().scaled(SCALE), seed=3)
        engine = Engine(machine, HeMemManager(), IdleWorkload(),
                        EngineConfig(tick=0.01, seed=3))
        assert engine.fault_injector is None

    def test_install_after_engine_rejected(self):
        machine = Machine(MachineSpec().scaled(SCALE), seed=3)
        Engine(machine, HeMemManager(), IdleWorkload(),
               EngineConfig(tick=0.01, seed=3))
        with pytest.raises(RuntimeError):
            machine.install_faults(FaultPlan.parse("dma_down"))


class TestDmaFaults:
    def test_channel_down_and_restore(self):
        engine, _, machine = make_faulted("dma_channel_down:1@t=0.05+0.1")
        assert machine.dma.active_channels == 2
        step_until(engine, 0.06)
        assert machine.dma.active_channels == 1
        assert machine.dma.operational
        step_until(engine, 0.2)
        assert machine.dma.active_channels == 2

    def test_dma_down_fails_over_and_back(self):
        engine, manager, machine = make_faulted("dma_down@t=0.05+0.2")
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        assert manager.migrator.mover is machine.dma
        step_until(engine, 0.06)
        assert not machine.dma.operational
        fallback = manager.migrator.mover
        assert isinstance(fallback, ThreadCopyEngine)
        assert fallback in machine.movers()
        # Migration still works through the fallback.
        page = int(pages_in(region, Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        assert manager.migrator.migrate(pid, Tier.DRAM, engine.clock.now)
        step_until(engine, 0.15)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert machine.stats.counter("faults.copy_threads.bytes_moved").value > 0
        # Recovery routes migration back onto the DMA engine.
        step_until(engine, 0.3)
        assert machine.dma.operational
        assert manager.migrator.mover is machine.dma

    def test_queued_copies_survive_failover(self):
        # Throttle migration so a submitted copy is still in flight when
        # the DMA engine dies mid-copy.
        config = HeMemConfig(migration_max_rate=50 * MB)
        engine, manager, machine = make_faulted("dma_down@t=0.02+0.5",
                                                config=config)
        region = manager.mmap(4 * GB, name="big")
        manager.prefault(region)
        page = int(pages_in(region, Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        step_until(engine, 0.03)
        assert not machine.dma.busy  # queue drained onto the fallback
        assert manager.migrator.busy
        step_until(engine, 0.3)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert not manager.tracker.store.flags[pid] & UNDER_MIGRATION

    def test_all_channels_down_acts_like_dma_down(self):
        engine, manager, machine = make_faulted(
            "dma_channel_down:2@t=0.05+0.1")
        step_until(engine, 0.06)
        assert not machine.dma.operational
        assert isinstance(manager.migrator.mover, ThreadCopyEngine)
        step_until(engine, 0.2)
        assert machine.dma.active_channels == 2
        assert manager.migrator.mover is machine.dma


class TestNvmDegradation:
    def test_degrade_window_scales_device_and_restores_exactly(self):
        engine, _, machine = make_faulted("nvm_degrade:0.5@t=0.05+0.1")
        spec_read_lat = machine.nvm.spec.read_latency
        base_bw = machine.nvm.capacity_bw("read", "seq")
        step_until(engine, 0.06)
        assert machine.nvm.degraded
        assert machine.nvm.bw_factor == 0.5
        assert machine.nvm.capacity_bw("read", "seq") == base_bw * 0.5
        assert machine.nvm.latency("read") == spec_read_lat * 2.0
        step_until(engine, 0.2)
        # Bit-exact restoration: the spec values, not approximations.
        assert not machine.nvm.degraded
        assert machine.nvm.latency("read") == spec_read_lat
        assert machine.nvm.capacity_bw("read", "seq") == base_bw

    def test_wear_curve_tracks_bytes_written(self):
        engine, _, machine = make_faulted("nvm_wear:0.01@t=0.0")
        injector = engine.fault_injector
        engine.step()
        assert machine.nvm.bw_factor == 1.0
        # One half-wear unit of writes => bandwidth halves (quantised).
        machine.nvm.record_traffic(0.0, 0.01 * GB)
        engine.step()
        assert machine.nvm.bw_factor == pytest.approx(0.5, abs=0.01)
        # Wear is monotone in written bytes, with a floor.
        machine.nvm.record_traffic(0.0, 10 * GB)
        engine.step()
        assert machine.nvm.bw_factor == 0.05
        assert injector is not None

    def test_perf_model_sees_degradation(self):
        engine, _, machine = make_faulted("nvm_degrade:0.5@t=0.05")
        before = machine.perf._nvm_read_lat
        step_until(engine, 0.06)
        assert machine.perf._nvm_read_lat == before * 2.0


class TestPebsSpike:
    def test_capacity_shrinks_and_recovers(self):
        engine, _, machine = make_faulted("pebs_spike:0.25@t=0.05+0.1")
        full = machine.pebs.spec.buffer_capacity
        assert machine.pebs._capacity == full
        step_until(engine, 0.06)
        assert machine.pebs._capacity == int(full * 0.25)
        step_until(engine, 0.2)
        assert machine.pebs._capacity == full


class TestCopyFailHook:
    def test_hook_installed_and_removed(self):
        engine, manager, _ = make_faulted("copy_fail:0.5@t=0.05+0.1")
        assert manager.migrator.copy_fault_hook is None
        step_until(engine, 0.06)
        assert manager.migrator.copy_fault_hook is not None
        step_until(engine, 0.2)
        assert manager.migrator.copy_fault_hook is None


class TestEventsAndCounters:
    def test_inject_and_recover_counted_and_traced(self):
        from repro.obs import capture

        with capture(trace=True, metrics=False) as cap:
            engine, _, machine = make_faulted(
                "nvm_degrade:0.5@t=0.05+0.05,pebs_spike:0.5@t=0.1+0.05")
            step_until(engine, 0.3)
        assert machine.stats.counter("faults.injected").value == 2
        assert machine.stats.counter("faults.recovered").value == 2
        [payload] = cap.payloads()
        kinds = [e["kind"] for e in payload["trace"]]
        assert kinds.count("fault_injected") == 2
        assert kinds.count("fault_recovered") == 2
        injected = [e for e in payload["trace"] if e["kind"] == "fault_injected"]
        assert {e["fault"] for e in injected} == {"nvm_degrade", "pebs_spike"}
