"""End-to-end colocation tests: arbitration, churn, conservation, determinism.

These run short 2–3 tenant GUPS colocations on a 64x-scaled machine (a few
hundred ticks each) through ``api.run_colocation`` — the same entry point
the bench experiments use.
"""

import pytest

from repro.api import run_colocation
from repro.colo import ColoManager, ColoWorkload, TenantSpec
from repro.core.invariants import violations
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload


def gups_tenant(name, working_set, hot_set, **spec_kw):
    return TenantSpec(
        name,
        GupsWorkload(GupsConfig(working_set=working_set, hot_set=hot_set),
                     warmup=1.0),
        **spec_kw,
    )


def two_tenants(**hot_kw):
    # "hot" reuses a small hot set; "scan" sweeps a DRAM-sized one with no
    # reuse — on the 3 GB DRAM machine they cannot both fit.
    return [
        gups_tenant("hot", 2 * GB, 256 * MB, **hot_kw),
        gups_tenant("scan", 6 * GB, 3 * GB),
    ]


def colo_run(specs, policy="fair", duration=4.0, seed=7, **kw):
    return run_colocation(specs, duration=duration, policy=policy,
                          scale=64, seed=seed, tick=0.01, **kw)


class TestArbitration:
    def test_fair_share_follows_measured_hot_set(self):
        result = colo_run(two_tenants())
        slo = result["tenants_slo"]
        assert slo["hot"]["dram_quota_bytes"] > slo["scan"]["dram_quota_bytes"]
        assert slo["hot"]["hot_bytes"] > slo["scan"]["hot_bytes"]

    def test_strict_priority_serves_the_high_class_first(self):
        result = colo_run(two_tenants(priority=1), policy="priority")
        slo = result["tenants_slo"]
        assert slo["hot"]["dram_quota_bytes"] > slo["scan"]["dram_quota_bytes"]

    def test_quotas_never_exceed_machine_dram(self):
        for policy in ("static", "fair", "priority"):
            result = colo_run(two_tenants(), policy=policy)
            machine = result["engine"].machine
            total = sum(
                t.dram_dax.quota_pages
                for t in result["engine"].manager.active_tenants()
            )
            assert total * machine.spec.page_size <= machine.dram.capacity

    def test_cross_tenant_eviction_conserves_dax_pages(self):
        result = colo_run(two_tenants())
        engine = result["engine"]
        counters = engine.machine.stats.counters()
        # The scan tenant must actually have been squeezed for this check
        # to exercise the eviction path.
        assert counters.get("colo.evicted_pages", 0.0) > 0
        assert violations(engine) == []

    def test_every_tenant_makes_progress(self):
        result = colo_run(two_tenants())
        for name, slo in result["tenants_slo"].items():
            assert slo["gups"] > 0, name


class TestChurn:
    def test_arrival_and_departure_reclaim_dram(self):
        specs = two_tenants() + [
            gups_tenant("burst", 1 * GB, 128 * MB,
                        arrival=1.5, departure=3.0),
        ]
        result = colo_run(specs, duration=4.5)
        engine = result["engine"]
        colo = engine.manager
        burst = colo.get_tenant("burst")
        assert not burst.active
        assert burst.arrived_at == pytest.approx(1.5, abs=0.05)
        assert burst.departed_at == pytest.approx(3.0, abs=0.05)
        assert burst.dram_dax.used_pages == 0
        assert burst.nvm_dax.used_pages == 0
        assert burst.dram_dax.quota_pages == 0
        counters = engine.machine.stats.counters()
        assert counters["colo.tenants_arrived"] == 3.0
        assert counters["colo.tenants_departed"] == 1.0
        assert violations(engine) == []

    def test_departed_tenant_keeps_its_slo_row(self):
        specs = two_tenants() + [
            gups_tenant("burst", 1 * GB, 128 * MB,
                        arrival=1.5, departure=3.0),
        ]
        result = colo_run(specs, duration=4.5)
        slo = result["tenants_slo"]["burst"]
        assert slo["active"] is False
        assert slo["gups"] > 0  # measured over its lifetime
        assert slo["dram_bytes"] == 0


class TestDeterminism:
    def test_same_seed_and_tenants_identical_tables(self):
        first = colo_run(two_tenants(), seed=13)
        second = colo_run(two_tenants(), seed=13)
        assert first["tenants_slo"] == second["tenants_slo"]

    def test_different_seed_differs(self):
        first = colo_run(two_tenants(), seed=13)
        second = colo_run(two_tenants(), seed=14)
        assert (
            first["tenants_slo"]["hot"]["gups"]
            != second["tenants_slo"]["hot"]["gups"]
        )


class TestValidation:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant name"):
            ColoManager([
                gups_tenant("a", GB, 128 * MB),
                gups_tenant("a", GB, 128 * MB),
            ])

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ValueError):
            ColoManager([])

    def test_get_tenant_unknown_name(self):
        result = colo_run(two_tenants(), duration=1.0)
        with pytest.raises(KeyError):
            result["engine"].manager.get_tenant("ghost")

    def test_colo_workload_requires_colo_manager(self):
        from repro.api import run_workload

        with pytest.raises(TypeError, match="ColoManager"):
            run_workload(
                __import__("repro.core.hemem", fromlist=["HeMemManager"])
                .HeMemManager(),
                ColoWorkload(),
                duration=0.5, scale=64,
            )

    def test_spec_validation(self):
        wl = GupsWorkload(GupsConfig(working_set=GB, hot_set=128 * MB))
        with pytest.raises(ValueError):
            TenantSpec("", wl)
        with pytest.raises(ValueError):
            TenantSpec("a", wl, weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("a", wl, dram_floor_frac=1.5)
        with pytest.raises(ValueError):
            TenantSpec("a", wl, arrival=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("a", wl, arrival=2.0, departure=1.0)
