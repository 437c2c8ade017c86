"""Tests for the Tracer sink and the replay reader's derived views."""

import json

import pytest

from repro.obs.events import (
    CoolingPass,
    MigrationDone,
    MigrationStart,
    PageFault,
    ServiceRun,
)
from repro.obs.replay import Trace, load_bench_export
from repro.obs.trace import Tracer

PAGE = 2 << 20


def mig(t, page, src, dst, done_at=None):
    start = MigrationStart(t, "heap", page, src, dst, PAGE)
    if done_at is None:
        return [start]
    return [start, MigrationDone(done_at, "heap", page, src, dst, PAGE,
                                 done_at - t)]


class TestTracer:
    def test_emit_appends_in_order(self):
        tracer = Tracer()
        events = mig(1.0, 0, "NVM", "DRAM", done_at=1.5)
        for e in events:
            tracer.emit(e)
        assert tracer.events == events
        assert len(tracer) == 2

    def test_counts(self):
        tracer = Tracer()
        for e in mig(0.0, 0, "NVM", "DRAM", done_at=0.1):
            tracer.emit(e)
        tracer.emit(CoolingPass(0.2, 1))
        trace = Trace.from_tracer(tracer)
        assert len(trace) == 3
        assert len(trace.of_kind(MigrationStart)) == 1
        assert trace.counts_by_kind() == {
            "migration_start": 1, "migration_done": 1, "cooling_pass": 1,
        }
        assert trace.of_kind(CoolingPass) == [CoolingPass(0.2, 1)]

    def test_to_dicts_preserves_order(self):
        tracer = Tracer()
        for e in mig(0.0, 0, "NVM", "DRAM", done_at=0.1):
            tracer.emit(e)
        kinds = [d["kind"] for d in tracer.to_dicts()]
        assert kinds == ["migration_start", "migration_done"]


class TestTraceConstruction:
    def test_from_dicts_round_trip(self):
        events = mig(0.0, 4, "DRAM", "NVM", done_at=0.3)
        trace = Trace.from_dicts(Trace(events).to_dicts())
        assert trace.events == events

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        events = mig(0.0, 4, "DRAM", "NVM", done_at=0.3)
        Trace(events).save(path)
        assert Trace.load(path).events == events

    def test_load_bare_list(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(Trace(mig(0.0, 1, "NVM", "DRAM")).to_dicts()))
        assert len(Trace.load(path)) == 1

    def test_load_rejects_non_traces(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_time_span(self):
        trace = Trace(mig(1.0, 0, "NVM", "DRAM", done_at=2.5))
        assert trace.time_span() == (1.0, 2.5)
        assert Trace([]).time_span() == (0.0, 0.0)


class TestMigrationPairing:
    def test_fifo_pairing_per_page(self):
        # The same page migrates twice; FIFO pairing keeps lifecycles apart.
        events = (
            mig(0.0, 7, "NVM", "DRAM") + mig(1.0, 7, "DRAM", "NVM")
            + [MigrationDone(0.5, "heap", 7, "NVM", "DRAM", PAGE, 0.5),
               MigrationDone(1.5, "heap", 7, "DRAM", "NVM", PAGE, 0.5)]
        )
        records = Trace(events).migrations()
        assert len(records) == 2
        assert all(r.completed for r in records)
        assert records[0].start.t == 0.0 and records[0].done.t == 0.5
        assert records[1].start.t == 1.0 and records[1].done.t == 1.5

    def test_in_flight_migration_has_no_done(self):
        records = Trace(mig(0.0, 1, "NVM", "DRAM")).migrations()
        assert len(records) == 1
        assert not records[0].completed
        assert records[0].latency is None

    def test_done_without_start_rejected(self):
        orphan = MigrationDone(1.0, "heap", 3, "NVM", "DRAM", PAGE, 0.0)
        with pytest.raises(ValueError, match="without a matching start"):
            Trace([orphan]).migrations()

    def test_latencies(self):
        events = mig(0.0, 0, "NVM", "DRAM", done_at=0.25) + mig(
            0.0, 1, "NVM", "DRAM", done_at=0.5
        )
        assert Trace(events).migration_latencies() == [0.25, 0.5]


class TestMigrationRate:
    def test_buckets_completions(self):
        events = []
        for i, done_at in enumerate([0.1, 0.2, 2.3]):
            events += mig(0.0, i, "NVM", "DRAM", done_at=done_at)
        rate = Trace(events).migration_rate(bucket=1.0)
        # Buckets anchored at the first completion; the empty middle bucket
        # is present so the series plots directly.
        assert rate == [(0.1, 2.0), (1.1, 0.0), (2.1, 1.0)]

    def test_empty_trace(self):
        assert Trace([]).migration_rate() == []

    def test_bucket_must_be_positive(self):
        with pytest.raises(ValueError):
            Trace([]).migration_rate(bucket=0.0)


class TestTierByteDeltas:
    def test_faults_and_migrations_compose(self):
        events = [
            PageFault(0.0, "missing", "heap", 0, "DRAM", PAGE),
            PageFault(0.0, "missing", "heap", 1, "NVM", PAGE),
            PageFault(0.1, "wp", "heap", 0, "DRAM", PAGE),  # not a placement
        ] + mig(0.2, 1, "NVM", "DRAM", done_at=0.4)
        deltas = Trace(events).tier_byte_deltas()
        assert deltas == {"DRAM": 2 * PAGE, "NVM": 0}

    def test_incomplete_migration_moves_nothing(self):
        events = [
            PageFault(0.0, "missing", "heap", 0, "NVM", PAGE)
        ] + mig(0.1, 0, "NVM", "DRAM")
        assert Trace(events).tier_byte_deltas() == {"NVM": PAGE}


class TestBenchExport:
    def test_load_bench_export(self, tmp_path):
        from repro.bench.report import save_observations

        events = Trace(mig(0.0, 0, "NVM", "DRAM", done_at=0.5)).to_dicts()
        observations = {
            "fig9": {
                "caseA": {"trace": [events], "metrics": None},
                "skipped": {"trace": None, "metrics": None},
            }
        }
        path = tmp_path / "traces.json"
        save_observations(path, observations, "trace")
        traces = load_bench_export(path)
        assert set(traces) == {("fig9", "caseA", 0)}
        assert traces[("fig9", "caseA", 0)].counts_by_kind() == {
            "migration_start": 1, "migration_done": 1,
        }

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "metrics"}')
        with pytest.raises(ValueError, match="trace export"):
            load_bench_export(path)

    def test_trace_event_also_spans_services(self):
        # Regression guard: ServiceRun events flow through counts_by_kind.
        trace = Trace([ServiceRun(0.0, "pebs_drain", 0.01)])
        assert trace.counts_by_kind() == {"service_run": 1}
