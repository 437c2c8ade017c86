"""Bench-side diagnostics plumbing: trace collection and the offline
``diagnose`` subcommand."""

import json

import pytest

from repro.bench.diagnostics import (
    collect_traces,
    diagnose_main,
    health_document,
    health_summary,
    load_any,
    write_health,
)
from repro.obs.events import (
    MigrationDone,
    MigrationStart,
    PageFault,
    event_to_dict,
)
from repro.obs.perfetto import export_file, validate_chrome_trace
from repro.obs.replay import Trace

PAGE = 2 << 20


def sample_events():
    return [
        PageFault(0.0, "missing", "heap", 3, "NVM", PAGE, "nvm-watermark"),
        MigrationStart(1.0, "heap", 3, "NVM", "DRAM", PAGE, "promote-hot"),
        MigrationDone(1.2, "heap", 3, "NVM", "DRAM", PAGE, 0.2),
    ]


def sample_dicts():
    return [event_to_dict(e) for e in sample_events()]


class TestCollectTraces:
    def test_labels_are_experiment_case_machine(self):
        observed = {
            "fig9": {
                "hemem": {"trace": [sample_dicts(), sample_dicts()]},
                "nvm": {"trace": [sample_dicts()]},
            },
        }
        traces = collect_traces(observed)
        assert sorted(traces) == [
            "fig9/hemem/m0", "fig9/hemem/m1", "fig9/nvm/m0",
        ]
        assert all(isinstance(t, Trace) for t in traces.values())
        assert len(traces["fig9/hemem/m0"]) == 3

    def test_caseless_and_untraced_observations_are_skipped(self):
        observed = {
            "fig9": {
                "hemem": {"trace": None},
                "nvm": None,
                "dram": {"trace": [None, sample_dicts()]},
            },
        }
        assert sorted(collect_traces(observed)) == ["fig9/dram/m1"]


class TestWriters:
    def test_export_file_validates(self, tmp_path):
        path = tmp_path / "out.perfetto.json"
        doc = export_file({"fig9/hemem/m0": Trace(sample_events())}, path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        assert doc["traceEvents"]

    def test_write_health_shape_and_summary(self, tmp_path):
        path = tmp_path / "health.json"
        doc = write_health({"fig9/hemem/m0": Trace(sample_events())}, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert doc["kind"] == "health"
        assert list(doc["runs"]) == ["fig9/hemem/m0"]
        assert "fig9/hemem/m0: OK" in health_summary(doc)


class TestDiagnoseCli:
    def test_on_a_saved_raw_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        Trace(sample_events()).save(trace_path)
        health_path = tmp_path / "health.json"
        perfetto_path = tmp_path / "out.perfetto.json"
        rc = diagnose_main([
            str(trace_path),
            "--health-out", str(health_path),
            "--perfetto-out", str(perfetto_path),
            "--explain", "heap:3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loaded 1 trace(s)" in out
        assert "trace: OK" in out
        assert "promote-hot" in out  # the --explain chain printed
        health = json.loads(health_path.read_text())
        assert health["kind"] == "health"
        # the same builder as the bench run's --health-out
        assert health == health_document(load_any(trace_path))
        perfetto = json.loads(perfetto_path.read_text())
        assert validate_chrome_trace(perfetto) == []

    def test_on_a_bench_trace_export(self, tmp_path, capsys):
        export = {
            "kind": "trace",
            "experiments": {"fig9": {"hemem": [sample_dicts()]}},
        }
        path = tmp_path / "bench.trace.json"
        path.write_text(json.dumps(export))
        assert list(load_any(path)) == ["fig9/hemem/m0"]
        assert diagnose_main([str(path)]) == 0
        assert "fig9/hemem/m0" in capsys.readouterr().out

    def test_bad_explain_spec_errors(self, tmp_path):
        trace_path = tmp_path / "run.trace.json"
        Trace(sample_events()).save(trace_path)
        with pytest.raises(SystemExit):
            diagnose_main([str(trace_path), "--explain", "nonsense"])

