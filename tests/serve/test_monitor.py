"""FleetMonitor unit tests: attainment math, phases, storms, pruning."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.serve import FleetMonitor
from repro.serve.monitor import percentile

WINDOW = 0.5


def make_tenant(name, slo=1e6, ops=0.0, evicted=0):
    return SimpleNamespace(
        name=name,
        spec=SimpleNamespace(slo_ops_per_sec=slo),
        workload=SimpleNamespace(total_ops=ops),
        evicted_pages=evicted,
    )


def make_colo(tenants):
    return SimpleNamespace(
        active_tenants=lambda: list(tenants),
        all_tenants=lambda: list(tenants),
    )


def make_monitor(tenants, **kw):
    defaults = dict(window=WINDOW, warmup=0.0, storm_pages=100)
    defaults.update(kw)
    return FleetMonitor(make_colo(tenants), **defaults)


class TestPercentile:
    def test_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 99) == 4.0
        assert percentile(samples, 1) == 1.0

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0


class TestAttainment:
    def test_attained_and_missed_windows(self):
        t = make_tenant("web-000", slo=1e6)
        mon = make_monitor([t])
        mon.run(None, 0.5, WINDOW)  # no baseline yet -> no sample
        t.workload.total_ops += 6e5  # rate 1.2e6 >= slo
        mon.run(None, 1.0, WINDOW)
        t.workload.total_ops += 2.5e5  # rate 5e5 -> slowdown 2.0
        mon.run(None, 1.5, WINDOW)
        s = mon.fleet_summary()
        assert s["tenant_windows"] == 2
        assert s["attainment"] == 0.5
        assert s["slowdown_p99"] == 2.0

    def test_zero_rate_caps_slowdown(self):
        t = make_tenant("web-000")
        mon = make_monitor([t], slowdown_cap=50.0)
        mon.run(None, 0.5, WINDOW)
        mon.run(None, 1.0, WINDOW)  # ops unchanged -> rate 0
        assert mon.fleet_summary()["slowdown_p99"] == 50.0

    def test_warmup_windows_not_scored(self):
        t = make_tenant("web-000")
        mon = make_monitor([t], warmup=1.0)
        mon.run(None, 0.5, WINDOW)
        t.workload.total_ops += 6e5
        mon.run(None, 1.0, WINDOW)  # still warmup (now <= warmup)
        t.workload.total_ops += 6e5
        mon.run(None, 1.5, WINDOW)
        s = mon.fleet_summary()
        assert s["tenant_windows"] == 1
        assert s["windows"] == 1

    def test_no_slo_tenants_score_no_windows(self):
        t = make_tenant("batch-000", slo=None)
        mon = make_monitor([t])
        mon.run(None, 0.5, WINDOW)
        t.workload.total_ops += 6e5
        mon.run(None, 1.0, WINDOW)
        s = mon.fleet_summary()
        assert s["tenant_windows"] == 0
        assert s["attainment"] is None


class TestPhases:
    def test_samples_bucket_by_day_quarter(self):
        t = make_tenant("web-000", slo=1e6)
        mon = make_monitor([t])
        mon.bind_day(2.0)  # quarters of 0.5s each
        mon.run(None, 0.1, WINDOW)
        for now in (0.3, 0.6, 1.1, 1.6):
            t.workload.total_ops += 6e5
            mon.run(None, now, WINDOW)
        s = mon.fleet_summary()
        for q in ("q1", "q2", "q3", "q4"):
            assert s["phases"][q]["samples"] == 1
            assert s["phases"][q]["attainment"] == 1.0

    def test_unbound_day_defaults_to_first_phase(self):
        t = make_tenant("web-000", slo=1e6)
        mon = make_monitor([t])
        mon.run(None, 0.5, WINDOW)
        t.workload.total_ops += 6e5
        mon.run(None, 1.9, WINDOW)
        s = mon.fleet_summary()
        assert s["phases"]["q1"]["samples"] == 1
        assert s["phases"]["q4"]["samples"] == 0

    def test_bind_day_rejects_nonpositive(self):
        mon = make_monitor([])
        with pytest.raises(ValueError):
            mon.bind_day(0.0)


class TestStorms:
    def test_windows_over_threshold_counted(self):
        t = make_tenant("web-000", slo=None)
        mon = make_monitor([t], storm_pages=100)
        mon.run(None, 0.5, WINDOW)
        t.evicted_pages += 150  # storm window
        mon.run(None, 1.0, WINDOW)
        t.evicted_pages += 10  # calm window
        mon.run(None, 1.5, WINDOW)
        t.evicted_pages += 120  # storm window
        mon.run(None, 2.0, WINDOW)
        s = mon.fleet_summary()
        assert s["storm_windows"] == 2
        assert s["evicted_pages"] == 280
        assert s["storm_threshold_pages"] == 100

    def test_each_run_is_its_own_window_under_clock_drift(self):
        # Tick accumulation drifts the service instants: these two runs are
        # consecutive windows although floor(t / 0.5) is 4 for both.
        t = make_tenant("web-000", slo=None)
        mon = make_monitor([t], storm_pages=40)
        mon.run(None, 1.5, WINDOW)
        for now in (2.0000000000000013, 2.4999999999999907):
            t.evicted_pages += 50
            mon.run(None, now, WINDOW)
        assert mon.fleet_summary()["storm_windows"] == 2

    def test_departed_tenant_evictions_still_counted(self):
        t = make_tenant("web-000", slo=None, evicted=50)
        tenants = [t]
        colo = SimpleNamespace(active_tenants=lambda: [],
                               all_tenants=lambda: list(tenants))
        mon = FleetMonitor(colo, window=WINDOW, storm_pages=40)
        mon.run(None, 0.5, WINDOW)
        assert mon.fleet_summary()["evicted_pages"] == 50


class TestPruning:
    def test_departed_tenant_baseline_dropped(self):
        t = make_tenant("web-000")
        tenants = [t]
        colo = SimpleNamespace(active_tenants=lambda: list(tenants),
                               all_tenants=lambda: list(tenants))
        mon = FleetMonitor(colo, window=WINDOW)
        mon.run(None, 0.5, WINDOW)
        assert "web-000" in mon._last_ops
        tenants.clear()
        mon.run(None, 1.0, WINDOW)
        assert "web-000" not in mon._last_ops


class TestValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            FleetMonitor(make_colo([]), window=0.0)
