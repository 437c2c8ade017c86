"""Telemetry capture in live runs: sampler windows, services, profiling."""

from types import SimpleNamespace

import repro.obs as obs
from repro.core.hemem import HeMemManager
from repro.mem.machine import MachineSpec
from repro.obs import telemetry
from repro.obs.metrics import MetricsSampler
from repro.obs.telemetry import MemorySink, parse_key
from repro.sim.stats import StatsRegistry
from repro.workloads.gups import GupsConfig

WINDOW = 0.5


def _migratory_gups():
    spec = MachineSpec().scaled(2048)
    return GupsConfig(working_set=int(spec.dram_capacity * 2), threads=4,
                      hot_set=int(spec.dram_capacity * 0.25))


def _run_quick(**session_kwargs):
    from tests.conftest import run_gups_quick

    sink = MemorySink()
    with telemetry.session(sink, **session_kwargs):
        with obs.capture(trace=False, metrics=True):
            run_gups_quick(HeMemManager(), _migratory_gups(),
                           duration=4.0, warmup=1.0, scale=2048)
    return sink


class TestSamplerPublish:
    def test_snapshots_on_aligned_window_grid(self):
        sink = _run_quick()
        snaps = [r for r in sink.rows if r["kind"] == "snapshot"]
        assert len(snaps) >= 4
        for snap in snaps:
            # grid-aligned virtual instants (modulo float tick accumulation)
            ratio = snap["t"] / WINDOW
            assert abs(ratio - round(ratio)) < 1e-6
        times = [s["t"] for s in snaps]
        assert times == sorted(times)

    def test_machine_metrics_published(self):
        sink = _run_quick()
        last = [r for r in sink.rows if r["kind"] == "snapshot"][-1]
        assert last["gauges"]["dram_bytes"] > 0
        assert last["gauges"]["nvm_bytes"] >= 0
        assert "migration_queue_bytes" in last["gauges"]
        assert last["counters"]["pebs_sampled_total"] > 0
        assert "pebs_dropped_total" in last["counters"]

    def test_stats_counters_mirrored_with_scope_label(self):
        sink = _run_quick()
        last = [r for r in sink.rows if r["kind"] == "snapshot"][-1]
        names = {}
        for key, value in last["counters"].items():
            name, labels = parse_key(key)
            names.setdefault(name, []).append((labels, value))
        # the migratory scenario migrated pages; the stats mirror carries
        # them under the manager scope
        [(labels, migrated)] = names["pages_migrated_total"]
        assert labels == {"scope": "hemem"}
        assert migrated > 0

    def test_counters_monotone_across_snapshots(self):
        sink = _run_quick()
        snaps = [r for r in sink.rows if r["kind"] == "snapshot"]
        for key in snaps[-1]["counters"]:
            values = [s["counters"][key] for s in snaps
                      if key in s["counters"]]
            assert values == sorted(values), key


class TestProfileSpool:
    def test_profile_session_spools_engine_record(self):
        from tests.conftest import run_gups_quick

        sink = MemorySink()
        with telemetry.session(sink, profile=True):
            run_gups_quick(HeMemManager(), _migratory_gups(),
                           duration=1.0, warmup=0.5, scale=2048)
            run_gups_quick(HeMemManager(), _migratory_gups(),
                           duration=1.0, warmup=0.5, scale=2048)
        # one span-tree row per session, however many engines ran in it
        profiles = [r for r in sink.rows if r["kind"] == "profile"]
        assert len(profiles) == 1
        [row] = profiles
        assert row["spans"]["sim.engine.tick"][0] == 200  # two 100-tick runs
        assert row["spans"]["sim.engine.setup"][0] == 2
        assert row["wall_s"] > row["overhead_s"] > 0
        assert row["trace.overhead_frac"] > 0
        # the page-store tracker's batches ran under the drain service
        assert any(path.endswith(";core.tracking.record_samples")
                   for path in row["spans"])

    def test_plain_session_spools_no_profile(self):
        sink = _run_quick()  # profile defaults to False
        assert not any(r["kind"] == "profile" for r in sink.rows)


def _engine_stub():
    """An engine whose sampler sits on a stand-in machine (monitor and
    controller only touch ``engine.metrics.registry``)."""
    machine = SimpleNamespace(stats=StatsRegistry())
    return SimpleNamespace(metrics=MetricsSampler(machine))


def _make_tenant(name, slo=1e6, ops=0.0):
    return SimpleNamespace(
        name=name,
        spec=SimpleNamespace(slo_ops_per_sec=slo, weight=1.0),
        workload=SimpleNamespace(total_ops=ops),
        evicted_pages=0,
        weight_boost=1.0,
        floor_boost_pages=0,
        dram_dax=SimpleNamespace(used_pages=0),
    )


class TestFleetMonitorPublish:
    def test_tenant_and_fleet_series(self):
        from repro.serve import FleetMonitor

        tenant = _make_tenant("web-000")
        colo = SimpleNamespace(active_tenants=lambda: [tenant],
                               all_tenants=lambda: [tenant])
        monitor = FleetMonitor(colo, window=WINDOW, warmup=0.0,
                               storm_pages=100)
        engine = _engine_stub()
        with telemetry.session(MemorySink()):
            monitor.run(engine, 0.5, WINDOW)  # baseline window
            tenant.workload.total_ops += 6e5  # rate 1.2e6 >= slo
            monitor.run(engine, 1.0, WINDOW)
            registry = engine.metrics.telemetry
            assert registry is not None
            snap = registry.snapshot(1.0)
        assert snap["counters"]['ops_total{tenant="web-000"}'] == 6e5
        assert snap["gauges"]['slo_attained{tenant="web-000"}'] == 1.0
        assert snap["gauges"]['slo_slowdown{tenant="web-000"}'] == 1.0
        assert snap["counters"]["slo_tenant_windows_total"] == 1.0
        assert snap["counters"]["slo_attained_windows_total"] == 1.0
        assert snap["gauges"]["slo_attainment"] == 1.0
        assert snap["counters"]["arbiter_evicted_pages_total"] == 0.0

    def test_no_session_publishes_nothing(self):
        from repro.serve import FleetMonitor

        tenant = _make_tenant("web-000")
        colo = SimpleNamespace(active_tenants=lambda: [tenant],
                               all_tenants=lambda: [tenant])
        monitor = FleetMonitor(colo, window=WINDOW, warmup=0.0,
                               storm_pages=100)
        engine = _engine_stub()
        monitor.run(engine, 0.5, WINDOW)
        assert engine.metrics.telemetry is None


class TestControllerPublish:
    def test_actions_counted_by_label(self):
        from repro.mem.page import Tier
        from repro.serve import SloController

        tenant = _make_tenant("web-000")
        colo = SimpleNamespace(
            active_tenants=lambda: [tenant],
            shared_dax={Tier.DRAM: SimpleNamespace(n_pages=1024)},
            machine=SimpleNamespace(tracer=None, stats=StatsRegistry()),
        )
        ctrl = SloController(colo, window=WINDOW, step=0.25, max_boost=4.0,
                             attack_windows=2, release_windows=3,
                             warn_pages=4, critical_pages=16,
                             floor_step_pages=8, max_floor_pages=64,
                             defend_headroom_pages=16)
        engine = _engine_stub()
        with telemetry.session(MemorySink()):
            tenant.evicted_pages += 10
            ctrl.run(engine, 0.5, WINDOW)
            tenant.evicted_pages += 10
            ctrl.run(engine, 1.0, WINDOW)  # streak 2 -> boost
            registry = engine.metrics.telemetry
            assert registry is not None
            snap = registry.snapshot(1.0)
        assert ctrl.actions == 1
        assert snap["counters"]['controller_actions_total{action="boost"}'] \
            == 1.0

    def test_no_session_leaves_registry_unbound(self):
        from repro.mem.page import Tier
        from repro.serve import SloController

        tenant = _make_tenant("web-000")
        colo = SimpleNamespace(
            active_tenants=lambda: [tenant],
            shared_dax={Tier.DRAM: SimpleNamespace(n_pages=1024)},
            machine=SimpleNamespace(tracer=None, stats=StatsRegistry()),
        )
        ctrl = SloController(colo, window=WINDOW, step=0.25, max_boost=4.0,
                             attack_windows=2, release_windows=3,
                             warn_pages=4, critical_pages=16,
                             floor_step_pages=8, max_floor_pages=64,
                             defend_headroom_pages=16)
        engine = _engine_stub()
        ctrl.run(engine, 0.5, WINDOW)
        assert ctrl._telemetry is None
        assert engine.metrics.telemetry is None
