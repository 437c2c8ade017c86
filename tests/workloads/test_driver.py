"""Tests for the workload driver surface (:mod:`repro.workloads.base`)."""

from repro.core.hemem import HeMemManager
from repro.mem.access import AccessStream
from repro.mem.machine import Machine, MachineSpec
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import MB
from repro.workloads import Workload
from repro.workloads.gups import GupsConfig, GupsWorkload
from repro.workloads.kvs import KvsConfig, KvsWorkload


class TestProtocol:
    def test_every_workload_family_satisfies_the_protocol(self):
        from repro.db.workload import TpccBufferConfig, TpccBufferWorkload

        drivers = [
            GupsWorkload(GupsConfig(working_set=64 * MB)),
            KvsWorkload(KvsConfig(working_set=64 * MB)),
            TpccBufferWorkload(TpccBufferConfig()),
        ]
        for driver in drivers:
            assert isinstance(driver, Workload)

    def test_colo_composite_satisfies_the_protocol(self):
        from repro.colo import ColoWorkload

        assert isinstance(ColoWorkload(), Workload)

    def test_a_structural_driver_needs_no_base_class(self):
        class Bare:
            """Implements the lifecycle contract without ``Workload``."""

            name = "bare"

            def __init__(self):
                self.ops = 0.0

            def setup(self, manager, machine, rng):
                self.region = manager.mmap(64 * MB, name="bare")
                manager.prefault(self.region)

            def access_mix(self, now, dt):
                return [AccessStream("bare", self.region, threads=1.0)]

            def on_progress(self, stream, result, now, dt):
                self.ops += result.ops

            def finished(self, now):
                return False

            def result(self):
                return {"ops": self.ops}

        bare = Bare()
        assert not isinstance(bare, Workload)
        machine = Machine(MachineSpec().scaled(64), seed=1)
        engine = Engine(machine, HeMemManager(), bare,
                        EngineConfig(tick=0.01, seed=1))
        result = engine.run(0.01)
        assert engine.clock.now > 0
        assert bare.ops > 0
        assert result["ops"] == bare.ops


class TestMeasuredRate:
    def _workload(self, warmup=8.0):
        w = GupsWorkload(GupsConfig(working_set=64 * MB), warmup=warmup)
        return w

    def test_normal_window(self):
        w = self._workload(warmup=8.0)
        w.total_ops = 1000.0
        w.measured_ops = 600.0
        assert w.measured_rate(18.0) == 60.0

    def test_early_finish_falls_back_to_whole_run_average(self):
        # A self-terminating run that ends before the measured window
        # opens used to divide by (now - measure_start) <= 0.
        w = self._workload(warmup=8.0)
        w.total_ops = 1000.0
        w.finished = lambda now: True
        assert w.measured_rate(4.0) == 1000.0 / 4.0

    def test_zero_time_is_zero(self):
        w = self._workload()
        assert w.measured_rate(0.0) == 0.0
