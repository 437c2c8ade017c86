"""Placement provenance: causal chains, ring bounding, tenant context."""

import pytest

import repro.obs as obs
from repro.core.hemem import HeMemManager
from repro.mem.machine import MachineSpec
from repro.obs.diagnose import PlacementProvenance
from repro.obs.events import (
    FaultInjected,
    FaultRecovered,
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    PageClassified,
    PageFault,
    QuotaUpdated,
    TenantArrived,
)
from repro.obs.replay import Trace
from repro.obs.stream import load_segment_trace
from repro.workloads.gups import GupsConfig

PAGE = 2 << 20


def lifecycle_events():
    """One page's full story: placed, turns hot, promoted, cools, demoted."""
    return [
        PageFault(0.0, "missing", "heap", 3, "NVM", PAGE, "nvm-watermark"),
        PageClassified(1.0, "heap", 3, "NVM", True, 9, 2),
        MigrationStart(1.1, "heap", 3, "NVM", "DRAM", PAGE, "promote-hot"),
        MigrationDone(1.2, "heap", 3, "NVM", "DRAM", PAGE, 0.1),
        PageClassified(4.0, "heap", 3, "DRAM", False, 1, 0),
        MigrationStart(4.1, "heap", 3, "DRAM", "NVM", PAGE, "demote-watermark"),
        MigrationDone(4.2, "heap", 3, "DRAM", "NVM", PAGE, 0.1),
    ]


class TestExplain:
    def test_chain_is_ordered_and_complete(self):
        prov = PlacementProvenance.from_trace(lifecycle_events())
        steps = prov.explain("heap", 3)
        assert [s.action for s in steps] == [
            "placed", "classified-hot", "migration-start", "promoted",
            "classified-cold", "migration-start", "demoted",
        ]
        assert [s.t for s in steps] == sorted(s.t for s in steps)

    def test_details_carry_decision_reasons(self):
        prov = PlacementProvenance.from_trace(lifecycle_events())
        text = prov.explain_text("heap", 3)
        assert "nvm-watermark" in text
        assert "promote-hot" in text
        assert "demote-watermark" in text
        assert "reads=9" in text

    def test_tier_and_hotness_track_the_fold(self):
        prov = PlacementProvenance.from_trace(lifecycle_events())
        lineage = prov.lineage("heap", 3)
        assert lineage.tier == "NVM"  # demoted back at the end
        assert lineage.hot is False

    def test_unknown_page_is_empty(self):
        prov = PlacementProvenance.from_trace(lifecycle_events())
        assert prov.explain("heap", 99) == []
        assert "no recorded history" in prov.explain_text("heap", 99)

    def test_abort_leaves_page_in_source_tier(self):
        events = [
            PageFault(0.0, "missing", "heap", 1, "NVM", PAGE, "nvm-watermark"),
            MigrationStart(1.0, "heap", 1, "NVM", "DRAM", PAGE, "promote-hot"),
            MigrationRetried(1.1, "heap", 1, 1, 0.01),
            MigrationAborted(1.5, "heap", 1, "NVM", "DRAM", 5),
        ]
        prov = PlacementProvenance.from_trace(events)
        assert prov.lineage("heap", 1).tier == "NVM"
        actions = [s.action for s in prov.explain("heap", 1)]
        assert actions[-1] == "migration-aborted"

    def test_from_trace_accepts_trace_objects(self):
        trace = Trace(lifecycle_events())
        assert len(PlacementProvenance.from_trace(trace).explain("heap", 3)) == 7


class TestRingBounding:
    def test_ring_keeps_newest_and_counts_drops(self):
        events = [
            PageClassified(float(i), "heap", 0, "NVM", bool(i % 2), i, 0)
            for i in range(10)
        ]
        prov = PlacementProvenance.from_trace(events, max_steps_per_page=4)
        lineage = prov.lineage("heap", 0)
        assert len(lineage.steps) == 4
        assert lineage.dropped == 6
        assert [s.t for s in lineage.steps] == [6.0, 7.0, 8.0, 9.0]
        assert "6 earlier steps dropped" in prov.explain_text("heap", 0)

    def test_invalid_ring_size_rejected(self):
        with pytest.raises(ValueError):
            PlacementProvenance(max_steps_per_page=0)


class TestTenantContext:
    def test_arbiter_evict_cites_the_quota_shrink(self):
        events = [
            TenantArrived(0.0, "kvs"),
            PageFault(0.1, "missing", "kvs.heap", 2, "DRAM", PAGE, "dram-free"),
            QuotaUpdated(3.0, "kvs", 512 * PAGE, "fair:grow"),
            QuotaUpdated(4.0, "kvs", 128 * PAGE, "fair:shrink"),
            MigrationStart(4.1, "kvs.heap", 2, "DRAM", "NVM", PAGE,
                           "arbiter-evict"),
            MigrationDone(4.2, "kvs.heap", 2, "DRAM", "NVM", PAGE, 0.1),
        ]
        prov = PlacementProvenance.from_trace(events)
        text = prov.explain_text("kvs.heap", 2)
        assert "arbiter-evict" in text
        assert "quota shrank" in text
        assert "t=4.000s" in text and "fair:shrink" in text

    def test_tenant_mapping_prefers_longest_prefix(self):
        prov = PlacementProvenance()
        prov.feed(TenantArrived(0.0, "kvs"))
        prov.feed(TenantArrived(0.0, "kvs-hot"))
        assert prov.tenant_of("kvs-hot.heap") == "kvs-hot"
        assert prov.tenant_of("kvs.heap") == "kvs"
        assert prov.tenant_of("other.heap") is None
        text_header = prov.explain_text("kvs.heap", 0)
        assert "no recorded history" in text_header


class TestFaultContext:
    def test_retry_names_active_injected_faults(self):
        events = [
            PageFault(0.0, "missing", "heap", 1, "NVM", PAGE, "nvm-watermark"),
            FaultInjected(1.0, "copy_fail", 0.5),
            MigrationStart(1.1, "heap", 1, "NVM", "DRAM", PAGE, "promote-hot"),
            MigrationRetried(1.2, "heap", 1, 1, 0.01),
            FaultRecovered(2.0, "copy_fail"),
            MigrationRetried(2.2, "heap", 1, 2, 0.02),
        ]
        prov = PlacementProvenance.from_trace(events)
        steps = prov.explain("heap", 1)
        during, after = steps[2], steps[3]
        assert "copy_fail" in during.detail
        assert "copy_fail" not in after.detail


def _captured_trace(run):
    with obs.capture(trace=True, metrics=False) as cap:
        run()
    [payload] = cap.payloads()
    return Trace.from_dicts(payload["trace"])


def assert_every_migrated_page_explained(trace):
    prov = PlacementProvenance.from_trace(trace)
    migrated = {(r.start.region, r.start.page) for r in trace.migrations()}
    assert migrated, "run produced no migrations; scenario too small"
    for region, page in migrated:
        chain = prov.explain(region, page)
        assert chain, f"{region}[{page}] migrated but has no provenance"
        assert any("migration" in s.action or s.action in ("promoted", "demoted")
                   for s in chain)


class TestRealRuns:
    def test_small_gups_run_explains_every_migrated_page(self):
        from tests.conftest import run_gups_quick

        spec = MachineSpec().scaled(2048)
        gups = GupsConfig(working_set=int(spec.dram_capacity * 2), threads=4,
                          hot_set=int(spec.dram_capacity * 0.25))
        trace = _captured_trace(lambda: run_gups_quick(
            HeMemManager(), gups, duration=6.0, warmup=1.0, scale=2048,
        ))
        assert_every_migrated_page_explained(trace)

    @pytest.mark.slow
    def test_fig9_fast_run_explains_every_migrated_page(
            self, fig9_colo_instrumented):
        # the hemem case of the instrumented fig9 run, from its segments
        trace = load_segment_trace(str(
            fig9_colo_instrumented / "diagnose.perfetto.json.segments"
            / "fig9" / "hemem" / "m0"))
        assert_every_migrated_page_explained(trace)
