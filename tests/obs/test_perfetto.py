"""Perfetto/Chrome trace-event export: synthetic folds, the structural
validator's negative cases, and a real colo run with per-tenant grouping."""

import json

import pytest

import repro.obs as obs
from repro.obs.events import (
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    PageClassified,
    PageFault,
    PebsDrop,
    QuotaUpdated,
    ServiceRun,
    TenantArrived,
)
from repro.obs.perfetto import (
    export_file,
    export_trace,
    export_traces,
    perfetto_document,
    validate_chrome_trace,
)
from repro.obs.replay import Trace

PAGE = 2 << 20


def by_ph(events, ph):
    return [e for e in events if e["ph"] == ph]


class TestSyntheticExport:
    def test_service_runs_become_complete_slices(self):
        events = [
            ServiceRun(1.0, "policy", 0.002),
            ServiceRun(1.5, "cooling", 0.001),
        ]
        out = export_trace(Trace(events))
        slices = by_ph(out, "X")
        assert [s["name"] for s in slices] == ["policy", "cooling"]
        assert slices[0]["ts"] == 1_000_000
        assert slices[0]["dur"] == 2_000
        # distinct services land on distinct thread tracks
        assert slices[0]["tid"] != slices[1]["tid"]
        thread_names = {
            e["args"]["name"] for e in by_ph(out, "M")
            if e["name"] == "thread_name"
        }
        assert {"policy", "cooling"} <= thread_names

    def test_migration_becomes_balanced_async_slice(self):
        events = [
            MigrationStart(1.0, "heap", 3, "NVM", "DRAM", PAGE, "promote-hot"),
            MigrationRetried(1.1, "heap", 3, 1, 0.01),
            MigrationDone(1.2, "heap", 3, "NVM", "DRAM", PAGE, 0.2),
        ]
        out = export_trace(Trace(events))
        begin, = by_ph(out, "b")
        end, = by_ph(out, "e")
        instant, = by_ph(out, "n")
        assert begin["name"] == end["name"] == "NVM->DRAM"
        assert begin["id"] == end["id"] == instant["id"]
        assert begin["cat"] == "migration"
        assert begin["args"]["reason"] == "promote-hot"
        assert instant["name"] == "retry #1"
        assert validate_chrome_trace(perfetto_document(out)) == []

    def test_unfinished_migration_is_force_closed(self):
        events = [
            MigrationStart(1.0, "heap", 3, "NVM", "DRAM", PAGE, "promote-hot"),
            PebsDrop(2.0, "load", 5),  # trace keeps going, slice never ends
        ]
        out = export_trace(Trace(events))
        end, = by_ph(out, "e")
        assert end["args"]["unfinished"] is True
        assert end["ts"] == 2_000_000  # closed at the trace's last timestamp
        assert validate_chrome_trace(perfetto_document(out)) == []

    def test_abort_closes_the_slice_with_a_flag(self):
        events = [
            MigrationStart(1.0, "heap", 3, "NVM", "DRAM", PAGE, "promote-hot"),
            MigrationAborted(1.5, "heap", 3, "NVM", "DRAM", 5),
        ]
        out = export_trace(Trace(events))
        end, = by_ph(out, "e")
        assert end["args"] == {"aborted": True, "attempts": 5}
        assert validate_chrome_trace(perfetto_document(out)) == []

    def test_unmatched_done_is_rejected(self):
        # Pairing is Trace.migrations()'s, so an end without a start raises
        # here as it does there (capture starts before any migration, so a
        # simulator trace never holds one).
        events = [MigrationDone(1.0, "heap", 3, "NVM", "DRAM", PAGE, 0.1)]
        with pytest.raises(ValueError, match="without a matching start"):
            export_trace(Trace(events))

    def test_slices_follow_record_order_with_retries_inside(self):
        events = [
            MigrationStart(1.0, "heap", 7, "NVM", "DRAM", PAGE, "a"),
            MigrationStart(1.1, "heap", 7, "DRAM", "NVM", PAGE, "b"),
            MigrationRetried(1.2, "heap", 7, 1, 0.01),
            MigrationRetried(1.3, "?", -1, 1, 0.0),  # watchdog orphan
            MigrationDone(1.4, "heap", 7, "NVM", "DRAM", PAGE, 0.4),
            MigrationAborted(1.6, "heap", 7, "DRAM", "NVM", 5),
        ]
        out = export_trace(Trace(events))
        migration = [e for e in out if e.get("cat") == "migration"]
        assert [(e["ph"], e["id"], e["name"]) for e in migration] == [
            ("b", 1, "NVM->DRAM"), ("n", 1, "retry #1"), ("e", 1, "NVM->DRAM"),
            ("b", 2, "DRAM->NVM"), ("e", 2, "DRAM->NVM"),
        ]
        assert migration[-1]["args"] == {"aborted": True, "attempts": 5}
        assert validate_chrome_trace(perfetto_document(out)) == []

    def test_counters_coalesce_to_last_value_per_timestamp(self):
        # Two occupancy changes in the same tick -> one counter sample
        # holding the final state.
        events = [
            PageFault(1.0, "missing", "heap", 0, "DRAM", PAGE, "dram-free"),
            PageFault(1.0, "missing", "heap", 1, "DRAM", PAGE, "dram-free"),
            PageFault(2.0, "missing", "heap", 2, "NVM", PAGE, "nvm-watermark"),
        ]
        doc = export_traces({"m": Trace(events)})
        counters = [
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "tier occupancy (bytes)"
        ]
        assert [c["ts"] for c in counters] == [1_000_000, 2_000_000]
        assert counters[0]["args"] == {"DRAM": 2 * PAGE, "NVM": 0}
        assert counters[1]["args"] == {"DRAM": 2 * PAGE, "NVM": PAGE}

    def test_tenants_become_processes(self):
        events = [
            TenantArrived(0.0, "kvs"),
            TenantArrived(0.0, "scan"),
            MigrationStart(1.0, "kvs.heap", 3, "DRAM", "NVM", PAGE,
                           "arbiter-evict"),
            MigrationDone(1.1, "kvs.heap", 3, "DRAM", "NVM", PAGE, 0.1),
            QuotaUpdated(2.0, "scan", 64 * PAGE, "fair:shrink"),
            PageClassified(2.5, "scan.heap", 1, "NVM", True, 9, 0),
        ]
        doc = export_traces({"colo": Trace(events)})
        procs = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert sorted(procs.values()) == [
            "colo", "colo · tenant kvs", "colo · tenant scan",
        ]
        pid_of = {name: pid for pid, name in procs.items()}
        begin, = by_ph(doc["traceEvents"], "b")
        assert begin["pid"] == pid_of["colo · tenant kvs"]
        quota = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "dram quota (bytes)"
        )
        assert quota["pid"] == pid_of["colo · tenant scan"]
        hot = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "hot pages"
        )
        assert hot["pid"] == pid_of["colo · tenant scan"]
        assert validate_chrome_trace(doc) == []

    def test_multiple_traces_share_one_document_without_pid_clashes(self):
        a = Trace([ServiceRun(1.0, "policy", 0.001)])
        b = Trace([ServiceRun(1.0, "policy", 0.001)])
        doc = export_traces({"case-a": a, "case-b": b})
        names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"case-a", "case-b"}
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(pids) == 2
        assert validate_chrome_trace(doc) == []

    def test_export_file_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.perfetto.json"
        doc = export_file({"m": Trace([ServiceRun(1.0, "policy", 0.001)])}, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert on_disk["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(on_disk) == []


class TestValidatorNegatives:
    def _doc(self, *events):
        return {"traceEvents": list(events), "displayTimeUnit": "ms"}

    def test_non_object_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"foo": 1}) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_unknown_phase(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0},
        ))
        assert "unknown ph" in problem

    def test_missing_required_fields(self):
        problems = validate_chrome_trace(self._doc(
            {"ph": "i", "pid": 1, "tid": 0},  # no name, no ts
        ))
        assert any("missing name" in p for p in problems)
        assert any("missing numeric ts" in p for p in problems)

    def test_x_needs_nonnegative_dur(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0, "dur": -5},
        ))
        assert "dur" in problem

    def test_counter_needs_numeric_args(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "C", "name": "c", "pid": 1, "tid": 0, "ts": 0,
             "args": {"v": "high"}},
        ))
        assert "numeric args" in problem

    def test_async_end_without_begin(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "e", "name": "x", "pid": 1, "tid": 0, "ts": 0,
             "id": 1, "cat": "m"},
        ))
        assert "end without begin" in problem

    def test_async_never_closed(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "b", "name": "x", "pid": 1, "tid": 0, "ts": 0,
             "id": 1, "cat": "m"},
        ))
        assert "never closed" in problem

    def test_async_instant_outside_slice(self):
        [problem] = validate_chrome_trace(self._doc(
            {"ph": "n", "name": "x", "pid": 1, "tid": 0, "ts": 0,
             "id": 1, "cat": "m"},
        ))
        assert "outside a slice" in problem

    def test_async_id_reuse_while_open(self):
        problems = validate_chrome_trace(self._doc(
            {"ph": "b", "name": "x", "pid": 1, "tid": 0, "ts": 0,
             "id": 1, "cat": "m"},
            {"ph": "b", "name": "x", "pid": 1, "tid": 0, "ts": 1,
             "id": 1, "cat": "m"},
        ))
        assert any("reused while open" in p for p in problems)


@pytest.mark.slow
class TestRealColoRun:
    def test_colo_export_groups_tenants_and_validates(self):
        from repro.api import run_colocation
        from tests.colo.test_arbiter import two_tenants

        with obs.capture(trace=True, metrics=False) as cap:
            run_colocation(two_tenants(), duration=4.0, policy="fair",
                           scale=64, tick=0.01)
        [payload] = cap.payloads()
        trace = Trace.from_dicts(payload["trace"])
        doc = export_traces({"colo": trace})
        assert validate_chrome_trace(doc) == []
        procs = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {"colo", "colo · tenant hot", "colo · tenant scan"}
