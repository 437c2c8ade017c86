"""Streaming-capture edge cases: empty tails, disorder, manifest totals."""

import json

import pytest

from repro.obs.events import PebsDrop
from repro.obs.stream import (
    StreamingTracer,
    TraceSegmentWriter,
    iter_segment_events,
)


def drops(n, t0=0.0):
    return [PebsDrop(t0 + 0.01 * i, "load", i + 1) for i in range(n)]


class TestEmptyFinalSegment:
    def test_exact_fill_leaves_no_empty_trailing_segment(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=10)
        writer.write(drops(20))  # exactly two segments
        manifest = writer.close()
        assert [s["events"] for s in manifest["segments"]] == [10, 10]
        # rotation is lazy: no empty segment-000002 was opened on disk
        files = sorted(p.name for p in (tmp_path / "seg").iterdir())
        assert files == ["manifest.json", "segment-000000.jsonl",
                         "segment-000001.jsonl"]

    def test_close_with_no_events(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg")
        manifest = writer.close()
        assert manifest["events"] == 0
        assert manifest["segments"] == []
        assert list(iter_segment_events(str(tmp_path / "seg"))) == []

    def test_close_is_idempotent(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=5)
        writer.write(drops(7))
        first = writer.close()
        second = writer.close()
        assert second == first
        assert [s["events"] for s in second["segments"]] == [5, 2]

    def test_finalize_with_empty_buffer(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "seg"), segment_events=4)
        tracer.events.extend(drops(3))
        tracer.now = 0.1  # drains the burst
        manifest = tracer.finalize()  # nothing left to flush
        assert manifest["events"] == 3
        assert tracer.max_buffered == 3
        assert len(tracer) == 3

    def test_empty_write_call_opens_nothing(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg")
        writer.write([])
        assert writer.events_written == 0
        assert writer.manifest()["segments"] == []


class TestOutOfOrderTimestamps:
    def test_segment_span_covers_disorder(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=10)
        # tick bursts arrive in emission order, not time order
        writer.write([PebsDrop(0.30, "load", 1),
                      PebsDrop(0.10, "load", 2),
                      PebsDrop(0.20, "load", 3)])
        manifest = writer.close()
        [seg] = manifest["segments"]
        assert seg["t_min"] == pytest.approx(0.10)
        assert seg["t_max"] == pytest.approx(0.30)
        # emission order is preserved on replay
        times = [d["t"] for d in iter_segment_events(str(tmp_path / "seg"))]
        assert times == pytest.approx([0.30, 0.10, 0.20])


class TestManifestTotals:
    def test_midrun_manifest_counts_open_segment(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=4)
        writer.write(drops(6))  # one full segment + 2 in the open one
        manifest = writer.manifest()
        assert manifest["events"] == writer.events_written == 6
        assert sum(s["events"] for s in manifest["segments"]) == 6
        assert [s["events"] for s in manifest["segments"]] == [4, 2]
        # the open segment's rows are flushed and readable right now
        live = (tmp_path / "seg" / "segment-000001.jsonl").read_text()
        assert len(live.strip().splitlines()) == 2
        # surfacing the open segment did not close it
        writer.write(drops(1, t0=1.0))
        final = writer.close()
        assert final["events"] == 7
        assert sum(s["events"] for s in final["segments"]) == 7

    def test_closed_manifest_totals_consistent(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=5)
        writer.write(drops(13))
        manifest = writer.close()
        assert manifest["events"] == writer.events_written == 13
        assert sum(s["events"] for s in manifest["segments"]) == 13
        on_disk = json.loads((tmp_path / "seg" / "manifest.json").read_text())
        assert on_disk["events"] == 13
        # every indexed file exists with exactly its indexed row count
        for seg in on_disk["segments"]:
            lines = (tmp_path / "seg" / seg["file"]).read_text()
            assert len(lines.strip().splitlines()) == seg["events"]

    def test_write_after_close_still_rejected_after_manifest(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg")
        writer.write(drops(2))
        writer.manifest()  # mid-run peek
        writer.close()
        with pytest.raises(ValueError):
            writer.write(drops(1))
