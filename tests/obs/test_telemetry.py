"""Unit tests for the live telemetry plane (repro.obs.telemetry)."""

import json
import urllib.request

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import (
    Collector,
    JsonlSink,
    MemorySink,
    TelemetryRegistry,
    TelemetrySession,
    exposition_errors,
    merge_histogram,
    merge_profiles,
    metric_key,
    parse_key,
    render_prometheus,
    serve_metrics,
    snapshot_schema_errors,
)


class TestMetricKeys:
    def test_bare_name(self):
        assert metric_key("dram_bytes") == "dram_bytes"
        assert metric_key("dram_bytes", {}) == "dram_bytes"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": "2", "a": "1"})
        assert key == 'x{a="1",b="2"}'

    def test_roundtrip(self):
        labels = {"tenant": "t03", "scope": "colo"}
        name, parsed = parse_key(metric_key("evicted_pages_total", labels))
        assert name == "evicted_pages_total"
        assert parsed == labels

    def test_escaping_roundtrips(self):
        labels = {"case": 'a"b\\c\nd'}
        name, parsed = parse_key(metric_key("m", labels))
        assert parsed == labels

    def test_malformed_key_raises(self):
        with pytest.raises(ValueError):
            parse_key("")


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = TelemetryRegistry()
        reg.counter_set("ops_total", 5, tenant="t0")
        reg.counter_add("actions_total", 2, action="boost")
        reg.counter_add("actions_total", action="boost")
        reg.gauge_set("dram_bytes", 17.0)
        reg.histogram_set("lat", {"bounds": [1.0], "counts": [2, 1],
                                  "count": 3, "total": 2.5,
                                  "min": 0.1, "max": 1.4})
        snap = reg.snapshot(0.5)
        assert snap["kind"] == "snapshot" and snap["t"] == 0.5
        assert snap["counters"]['ops_total{tenant="t0"}'] == 5.0
        assert snap["counters"]['actions_total{action="boost"}'] == 3.0
        assert snap["gauges"]["dram_bytes"] == 17.0
        assert snap["histograms"]["lat"]["count"] == 3
        assert len(reg) == 4

    def test_base_labels_fold_into_every_key(self):
        reg = TelemetryRegistry({"run": "1"})
        reg.gauge_set("g", 1.0)
        reg.counter_set("c", 2.0, tenant="t0")
        snap = reg.snapshot(0.0)
        assert 'g{run="1"}' in snap["gauges"]
        assert 'c{run="1",tenant="t0"}' in snap["counters"]

    def test_snapshot_is_a_copy(self):
        reg = TelemetryRegistry()
        reg.gauge_set("g", 1.0)
        snap = reg.snapshot(0.0)
        reg.gauge_set("g", 2.0)
        assert snap["gauges"]["g"] == 1.0


class TestSession:
    def test_scope_installs_and_uninstalls(self):
        sink = MemorySink()
        assert telemetry.active() is None
        with telemetry.session(sink) as session:
            assert telemetry.active() is session
            assert not telemetry.profiling_active()
        assert telemetry.active() is None

    def test_profile_flag(self):
        with telemetry.session(MemorySink(), profile=True):
            assert telemetry.profiling_active()

    def test_nested_session_rejected(self):
        with telemetry.session(MemorySink()):
            with pytest.raises(RuntimeError):
                TelemetrySession(MemorySink()).__enter__()

    def test_registries_get_run_labels_after_first(self):
        with telemetry.session(MemorySink()) as session:
            first = session.make_registry()
            second = session.make_registry()
        assert first.base_labels == {}
        assert second.base_labels == {"run": "1"}

    def test_next_boundary_grid_aligned(self):
        session = TelemetrySession(MemorySink(), interval=0.5)
        assert session.next_boundary(0.0) == 0.5
        assert session.next_boundary(0.01) == 0.5
        assert session.next_boundary(0.5) == 1.0
        # float now slightly below the boundary still lands on the next one
        assert session.next_boundary(0.9999999999) == 1.5

    def test_emit_counts_and_reaches_sink(self):
        sink = MemorySink()
        with telemetry.session(sink) as session:
            reg = session.make_registry()
            reg.gauge_set("g", 1.0)
            session.emit(reg, 0.0)
            session.add_profile({"label": "w/m", "ticks": 3,
                                 "sections": {}, "pagestore": {}})
        assert session.snapshots == 1 and session.profiles == 1
        kinds = [row["kind"] for row in sink.rows]
        assert kinds == ["snapshot", "profile"]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySession(MemorySink(), interval=0.0)


class TestJsonlSink:
    def test_header_then_rows_flushed_live(self, tmp_path):
        path = tmp_path / "chan" / "case.jsonl"
        sink = JsonlSink(str(path), labels={"case": "k"})
        sink.emit({"kind": "snapshot", "t": 0.0, "counters": {},
                   "gauges": {"g": 1.0}})
        # readable before close: the collector tails live channels
        rows = [json.loads(line) for line in
                path.read_text().strip().splitlines()]
        assert rows[0] == {"kind": "channel", "version": 1,
                           "labels": {"case": "k"}}
        assert rows[1]["gauges"]["g"] == 1.0
        sink.close()

    def test_no_file_until_first_emit(self, tmp_path):
        path = tmp_path / "case.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert not path.exists()


def _write_channel(path, labels, snapshots):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "channel", "version": 1,
                             "labels": labels}) + "\n")
        for snap in snapshots:
            fh.write(json.dumps(snap) + "\n")


def _snap(t, counters=None, gauges=None, histograms=None):
    row = {"kind": "snapshot", "t": t, "counters": counters or {},
           "gauges": gauges or {}}
    if histograms:
        row["histograms"] = histograms
    return row


class TestCollector:
    def test_sum_merge_for_fleet_shards(self, tmp_path):
        root = tmp_path / "live"
        for shard, dram in (("s0", 10.0), ("s1", 32.0)):
            _write_channel(
                root / "colo" / f"{shard}.jsonl",
                {"case": shard, "merge": "sum"},
                [_snap(0.0, gauges={"dram_bytes": dram},
                       counters={f'e_total{{tenant="{shard}"}}': 1.0})],
            )
        doc = Collector(str(root)).collect()
        series = doc["experiments"]["colo"]["series"]
        # same bare key sums pointwise; tenant-labelled keys union
        assert series["dram_bytes"]["values"] == [42.0]
        assert series['e_total{tenant="s0"}']["values"] == [1.0]
        assert series['e_total{tenant="s1"}']["values"] == [1.0]
        assert snapshot_schema_errors(doc) == []

    def test_case_label_isolates_unrelated_cases(self, tmp_path):
        root = tmp_path / "live"
        for case, dram in (("hemem", 10.0), ("mm", 20.0)):
            _write_channel(root / "fig" / f"{case}.jsonl", {"case": case},
                           [_snap(0.5, gauges={"dram_bytes": dram})])
        series = Collector(str(root)).collect()["experiments"]["fig"]["series"]
        assert series['dram_bytes{case="hemem"}']["values"] == [10.0]
        assert series['dram_bytes{case="mm"}']["values"] == [20.0]
        assert "dram_bytes" not in series

    def test_times_sorted_and_channel_metadata(self, tmp_path):
        root = tmp_path / "live"
        _write_channel(root / "e" / "c.jsonl", {"case": "c"},
                       [_snap(0.0, gauges={"g": 1.0}),
                        _snap(0.5, gauges={"g": 2.0})])
        exp = Collector(str(root)).collect()["experiments"]["e"]
        [channel] = exp["channels"]
        assert channel["file"] == "e/c.jsonl"
        assert channel["snapshots"] == 2
        entry = exp["series"]['g{case="c"}']
        assert entry["times"] == [0.0, 0.5]
        assert entry["values"] == [1.0, 2.0]
        assert entry["type"] == "gauge"

    def test_partial_trailing_line_skipped(self, tmp_path):
        root = tmp_path / "live"
        path = root / "e" / "c.jsonl"
        _write_channel(path, {"case": "c", "merge": "sum"},
                       [_snap(0.0, gauges={"g": 1.0})])
        with open(path, "a") as fh:
            fh.write('{"kind": "snapshot", "t": 0.5, "gau')  # live writer
        series = Collector(str(root)).collect()["experiments"]["e"]["series"]
        assert series["g"]["times"] == [0.0]

    def test_histograms_merge_across_channels(self, tmp_path):
        root = tmp_path / "live"
        hist = {"bounds": [1.0], "counts": [1, 0], "count": 1,
                "total": 0.5, "min": 0.5, "max": 0.5}
        other = {"bounds": [1.0], "counts": [0, 2], "count": 2,
                 "total": 6.0, "min": 2.0, "max": 4.0}
        _write_channel(root / "e" / "a.jsonl", {"merge": "sum"},
                       [_snap(0.5, histograms={"lat": hist})])
        _write_channel(root / "e" / "b.jsonl", {"merge": "sum"},
                       [_snap(0.5, histograms={"lat": other})])
        merged = Collector(str(root)).collect()["experiments"]["e"][
            "histograms"]["lat"]
        assert merged["counts"] == [1, 2]
        assert merged["count"] == 3
        assert merged["total"] == 6.5
        assert merged["min"] == 0.5 and merged["max"] == 4.0

    def test_profiles_carry_channel_context(self, tmp_path):
        root = tmp_path / "live"
        path = root / "e" / "c.jsonl"
        path.parent.mkdir(parents=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "channel", "version": 1,
                                 "labels": {"case": "c"}}) + "\n")
            fh.write(json.dumps({"kind": "profile", "version": 1,
                                 "label": "w/m", "ticks": 10,
                                 "sections": {"movers": 0.5},
                                 "pagestore": {}}) + "\n")
        doc = Collector(str(root)).collect()
        [profile] = doc["profiles"]
        assert profile["experiment"] == "e"
        assert profile["channel_labels"] == {"case": "c"}

    def test_empty_root(self, tmp_path):
        doc = Collector(str(tmp_path / "missing")).collect()
        assert doc["experiments"] == {}
        assert snapshot_schema_errors(doc) == []


class TestMergeHistogram:
    def test_bounds_mismatch_rejected(self):
        a = {"bounds": [1.0], "counts": [0, 0], "count": 0,
             "total": 0.0, "min": None, "max": None}
        b = {"bounds": [2.0], "counts": [0, 0], "count": 0,
             "total": 0.0, "min": None, "max": None}
        merged = merge_histogram(None, a)
        with pytest.raises(ValueError):
            merge_histogram(merged, b)

    def test_none_extremes(self):
        empty = {"bounds": [1.0], "counts": [0, 0], "count": 0,
                 "total": 0.0, "min": None, "max": None}
        full = {"bounds": [1.0], "counts": [1, 0], "count": 1,
                "total": 0.3, "min": 0.3, "max": 0.3}
        merged = merge_histogram(merge_histogram(None, empty), full)
        assert merged["min"] == 0.3 and merged["max"] == 0.3


class TestSchemaValidation:
    def test_flags_structural_problems(self):
        doc = {"kind": "telemetry", "version": 1, "experiments": {
            "e": {"channels": [], "series": {
                "ok": {"type": "gauge", "times": [0.0, 0.5],
                       "values": [1.0, 2.0]},
                "bad_type": {"type": "xyz", "times": [], "values": []},
                "mismatch": {"type": "gauge", "times": [0.0],
                             "values": []},
                "regress": {"type": "counter", "times": [1.0, 0.5],
                            "values": [0.0, 0.0]},
            }, "histograms": {}},
        }}
        problems = "\n".join(snapshot_schema_errors(doc))
        assert "no channels" in problems
        assert "bad type" in problems
        assert "times/values mismatch" in problems
        assert "times not increasing" in problems

    def test_wrong_kind(self):
        assert snapshot_schema_errors({"kind": "perf"})


class TestPrometheus:
    def _doc(self):
        return {
            "kind": "telemetry", "version": 1,
            "experiments": {
                "fig9": {
                    "channels": [{"file": "c", "labels": {},
                                  "snapshots": 1, "profiles": 0}],
                    "series": {
                        "dram_bytes": {"type": "gauge",
                                       "times": [0.0, 0.5],
                                       "values": [1.0, 2.5]},
                        'ops_total{tenant="t0"}': {
                            "type": "counter", "times": [0.5],
                            "values": [100.0]},
                    },
                    "histograms": {
                        'lat{scope="hemem"}': {
                            "bounds": [0.1, 1.0], "counts": [1, 2, 1],
                            "count": 4, "total": 2.0,
                            "min": 0.05, "max": 3.0, "t": 0.5},
                    },
                },
            },
        }

    def test_valid_exposition(self):
        text = render_prometheus(self._doc())
        assert exposition_errors(text) == []
        assert "# TYPE repro_dram_bytes gauge" in text
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_lat histogram" in text

    def test_latest_point_and_labels(self):
        text = render_prometheus(self._doc())
        assert 'repro_dram_bytes{experiment="fig9"} 2.5' in text
        assert ('repro_ops_total{experiment="fig9",tenant="t0"} 100'
                in text)

    def test_histogram_buckets_cumulative(self):
        text = render_prometheus(self._doc())
        lines = [l for l in text.splitlines() if "_bucket" in l]
        assert any('le="0.1"' in l and l.endswith(" 1") for l in lines)
        assert any('le="1"' in l and l.endswith(" 3") for l in lines)
        assert any('le="+Inf"' in l and l.endswith(" 4") for l in lines)
        assert 'repro_lat_sum{experiment="fig9",scope="hemem"} 2' in text
        assert 'repro_lat_count{experiment="fig9",scope="hemem"} 4' in text

    def test_name_sanitization(self):
        doc = {"kind": "telemetry", "version": 1, "experiments": {
            "": {"channels": [], "series": {
                "weird.metric-name": {"type": "gauge", "times": [0.0],
                                      "values": [1.0]},
            }, "histograms": {}},
        }}
        text = render_prometheus(doc)
        assert "repro_weird_metric_name 1" in text
        assert exposition_errors(text) == []

    def test_exposition_errors_catch_garbage(self):
        assert exposition_errors("not a metric line at all\n")


class TestServeMetrics:
    def test_live_scrape_tracks_spool(self, tmp_path):
        root = tmp_path / "live"
        _write_channel(root / "e" / "c.jsonl", {"case": "c", "merge": "sum"},
                       [_snap(0.0, gauges={"dram_bytes": 1.0})])
        server = serve_metrics(str(root), port=0)
        try:
            url = f"http://localhost:{server.server_port}/metrics"
            body = urllib.request.urlopen(url, timeout=10).read().decode()
            assert exposition_errors(body) == []
            assert 'repro_dram_bytes{experiment="e"} 1' in body
            # the run writes another snapshot; the next scrape sees it
            with open(root / "e" / "c.jsonl", "a") as fh:
                fh.write(json.dumps(_snap(0.5, gauges={"dram_bytes": 9.0}))
                         + "\n")
            body = urllib.request.urlopen(url, timeout=10).read().decode()
            assert 'repro_dram_bytes{experiment="e"} 9' in body
        finally:
            server.shutdown()

    def test_unknown_path_404(self, tmp_path):
        server = serve_metrics(str(tmp_path), port=0)
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://localhost:{server.server_port}/nope",
                    timeout=10)
        finally:
            server.shutdown()


class TestMergeProfiles:
    def test_aggregate_and_collapsed_stacks(self):
        tick = "sim.engine.tick"
        resolve = f"{tick};mem.machine.resolve"
        rows = [
            {"wall_s": 2.0, "overhead_s": 0.5, "trace.overhead_frac": 1 / 3,
             "spans": {tick: [100, 1.5, 0.5], resolve: [100, 0.5, 0.0]}},
            {"wall_s": 1.0, "overhead_s": 0.25, "trace.overhead_frac": 1 / 3,
             "spans": {tick: [50, 0.75, 0.75], resolve: [50, 0.75, 0.0],
                       "sim.engine.setup": [1, 0.25, 0.0]}},
        ]
        merged = merge_profiles(rows)
        assert merged["workers"] == rows
        agg = merged["aggregate"]
        assert agg["runs"] == 2 and agg["ticks"] == 150
        assert agg["wall_s"] == 3.0 and agg["overhead_s"] == 0.75
        assert agg["trace.overhead_frac"] == pytest.approx(0.75 / 2.25)
        assert agg["self_s"]["sim.engine.tick"] == pytest.approx(1.0)
        assert agg["self_s"]["mem.machine.resolve"] == pytest.approx(1.25)
        assert agg["calls"]["mem.machine.resolve"] == 150
        # every layer is listed, used or not
        assert agg["calls"]["core.tracking.cool"] == 0
        assert agg["self_s"]["core.tracking.cool"] == 0.0
        # collapsed lines: ;-joined span paths holding self microseconds,
        # zero-self paths omitted (the second row's tick self time is 0)
        assert merged["collapsed"] == [
            "sim.engine.setup 250000",
            "sim.engine.tick 1000000",
            "sim.engine.tick;mem.machine.resolve 1250000",
        ]

    def test_empty(self):
        merged = merge_profiles([])
        assert merged["aggregate"]["runs"] == 0
        assert merged["collapsed"] == []
