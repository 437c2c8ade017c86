"""Telemetry capture in live runs: sampler windows, services, profiling."""

from types import SimpleNamespace

import repro.obs as obs
from repro.api import run_colocation
from repro.core.hemem import HeMemManager
from repro.mem.machine import MachineSpec
from repro.obs import telemetry
from repro.obs.metrics import MetricsSampler
from repro.obs.telemetry import MemorySink, metric_key, parse_key
from repro.sim.stats import StatsRegistry
from repro.sim.units import GB, MB
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


def _recording_put():
    """A ``put`` that records ``metric_key(name, labels) -> value``."""
    recorded = {}

    def put(name, value, **labels):
        recorded[metric_key(name, labels)] = value

    return put, recorded


def _sampler_exports(service, now):
    """Tick a sampler on an empty stand-in machine whose engine runs
    ``service``; return the sampler and the ``export_metrics`` calls it
    made (the service's own export is wrapped, not replaced)."""
    calls = []
    export = service.export_metrics

    def recording_export(put):
        calls.append(now)
        export(put)

    service.export_metrics = recording_export
    machine = SimpleNamespace(
        stats=StatsRegistry(), regions=[],
        pebs=SimpleNamespace(records_sampled=0, records_dropped=0),
        movers=lambda: [],
        engine=SimpleNamespace(services=[service], manager=None),
    )
    sampler = MetricsSampler(machine)
    sampler.sample(now, WINDOW)
    return sampler, calls


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
    def _monitor(self, tenants):
        from repro.serve import FleetMonitor

        colo = SimpleNamespace(active_tenants=lambda: list(tenants),
                               all_tenants=lambda: list(tenants))
        return FleetMonitor(colo, window=WINDOW, warmup=0.0,
                            storm_pages=100)

    def test_tenant_and_fleet_series(self):
        tenant = _make_tenant("web-000")
        monitor = self._monitor([tenant])
        monitor.run(None, 0.5, WINDOW)  # baseline window
        tenant.workload.total_ops += 6e5  # rate 1.2e6 >= slo
        monitor.run(None, 1.0, WINDOW)
        put, got = _recording_put()
        monitor.export_metrics(put)
        assert got == {
            'ops_total{tenant="web-000"}': 6e5,
            'slo_attained{tenant="web-000"}': 1.0,
            'slo_slowdown{tenant="web-000"}': 1.0,
            "slo_tenant_windows_total": 1,
            "slo_attained_windows_total": 1,
            "slo_attainment": 1.0,
        }

    def test_departed_tenant_leaves_the_export(self):
        web, batch = _make_tenant("web-000"), _make_tenant("web-001")
        tenants = [web, batch]
        monitor = self._monitor(tenants)
        monitor.run(None, 0.5, WINDOW)
        monitor.run(None, 1.0, WINDOW)
        tenants.remove(batch)
        monitor.run(None, 1.5, WINDOW)
        put, got = _recording_put()
        monitor.export_metrics(put)
        assert not any("web-001" in key for key in got)
        assert 'slo_slowdown{tenant="web-000"}' in got
        # the window totals keep the departed tenant's history
        assert got["slo_tenant_windows_total"] == 3

    def test_no_session_publishes_nothing(self):
        monitor = self._monitor([_make_tenant("web-000")])
        monitor.run(None, 0.5, WINDOW)
        sampler, calls = _sampler_exports(monitor, 0.5)
        assert calls == []
        assert sampler._labels is None
        # the same tick under a session does ask for the export
        sink = MemorySink()
        with telemetry.session(sink):
            sampler, calls = _sampler_exports(monitor, 0.5)
        assert calls == [0.5]
        (snap,) = [r for r in sink.rows if r["kind"] == "snapshot"]
        assert 'ops_total{tenant="web-000"}' in snap["counters"]

    def test_no_window_measured_exports_no_attainment(self):
        monitor = self._monitor([_make_tenant("web-000")])
        monitor.run(None, 0.5, WINDOW)  # baseline only: nothing measured
        put, got = _recording_put()
        monitor.export_metrics(put)
        assert "slo_attainment" not in got
        assert got["slo_tenant_windows_total"] == 0


class TestControllerPublish:
    def _controller(self, tenant):
        from repro.mem.page import Tier
        from repro.serve import SloController

        colo = SimpleNamespace(
            active_tenants=lambda: [tenant],
            shared_dax={Tier.DRAM: SimpleNamespace(n_pages=1024)},
            machine=SimpleNamespace(tracer=None),
        )
        return SloController(colo, window=WINDOW, step=0.25, max_boost=4.0,
                             attack_windows=2, release_windows=3,
                             warn_pages=4, critical_pages=16,
                             floor_step_pages=8, max_floor_pages=64,
                             defend_headroom_pages=16)

    def test_actions_counted_by_label(self):
        tenant = _make_tenant("web-000")
        ctrl = self._controller(tenant)
        put, got = _recording_put()
        ctrl.export_metrics(put)
        assert got == {}  # no action yet, no series
        tenant.evicted_pages += 10
        ctrl.run(None, 0.5, WINDOW)
        tenant.evicted_pages += 10
        ctrl.run(None, 1.0, WINDOW)  # streak 2 -> boost
        ctrl.export_metrics(put)
        assert ctrl.actions == 1
        assert got == {'controller_actions_total{action="boost"}': 1}

    def test_no_session_leaves_registry_unbound(self):
        ctrl = self._controller(_make_tenant("web-000"))
        ctrl.run(None, 0.5, WINDOW)
        sampler, calls = _sampler_exports(ctrl, 0.5)
        assert calls == []
        assert sampler._labels is None
        with telemetry.session(MemorySink()):
            sampler, calls = _sampler_exports(ctrl, 0.5)
        assert calls == [0.5]
        assert sampler._labels is not None


def test_departed_tenant_leaves_the_snapshots():
    """A departed tenant's series end at its departure: no later snapshot
    re-exports its last values, while the incumbents keep publishing."""
    from tests.colo.test_arbiter import gups_tenant, two_tenants

    specs = two_tenants() + [
        gups_tenant("burst", 1 * GB, 128 * MB, arrival=1.0, departure=2.5),
    ]
    sink = MemorySink()
    with telemetry.session(sink):
        with obs.capture(trace=False, metrics=True):
            run_colocation(specs, duration=4.0, policy="fair", scale=64,
                           tick=0.01)
    snaps = [r for r in sink.rows if r["kind"] == "snapshot"]

    def tenants(snap):
        return {parse_key(key)[1].get("tenant")
                for section in ("counters", "gauges")
                for key in snap[section]}

    assert any("burst" in tenants(s) for s in snaps)
    late = [s for s in snaps if s["t"] > 2.6]
    assert late, "no snapshot after the departure"
    for snap in late:
        assert "burst" not in tenants(snap), snap["t"]
        assert {"hot", "scan"} <= tenants(snap), snap["t"]
