"""Streaming trace capture: rotating segments, bounded buffers, roll-ups."""

import json
import os

import pytest

import repro.obs as obs
from repro.obs.events import (
    PebsDrain,
    PebsDrop,
    event_from_dict,
    event_to_dict,
)
from repro.obs.stream import (
    StreamingTracer,
    TraceSegmentWriter,
    iter_segment_events,
    load_segment_trace,
)


def drops(n, t0=0.0):
    return [PebsDrop(t0 + 0.01 * i, "load", i + 1) for i in range(n)]


class TestSegmentWriter:
    def test_rotation_and_manifest(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=10)
        writer.write(drops(25))
        manifest = writer.close()
        assert manifest["kind"] == "trace_segments"
        assert manifest["events"] == 25
        assert [s["events"] for s in manifest["segments"]] == [10, 10, 5]
        assert [s["file"] for s in manifest["segments"]] == [
            "segment-000000.jsonl", "segment-000001.jsonl",
            "segment-000002.jsonl",
        ]
        # spans cover the written range, in order
        assert manifest["segments"][0]["t_min"] == pytest.approx(0.0)
        assert manifest["segments"][-1]["t_max"] == pytest.approx(0.24)
        on_disk = json.loads((tmp_path / "seg" / "manifest.json").read_text())
        assert on_disk == manifest

    def test_round_trip_through_iter(self, tmp_path):
        events = drops(12) + [PebsDrain(0.5, 100, 90)]
        writer = TraceSegmentWriter(tmp_path / "seg", segment_events=5)
        writer.write(events)
        writer.close()
        replayed = [
            event_from_dict(d)
            for d in iter_segment_events(str(tmp_path / "seg"))
        ]
        assert replayed == events

    def test_load_segment_trace(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg")
        writer.write(drops(3))
        writer.close()
        trace = load_segment_trace(str(tmp_path / "seg"))
        assert len(trace.events) == 3

    def test_write_after_close_rejected(self, tmp_path):
        writer = TraceSegmentWriter(tmp_path / "seg")
        writer.close()
        with pytest.raises(ValueError):
            writer.write(drops(1))


class TestStreamingTracer:
    def test_buffer_identity_survives_flush(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "seg"))
        events_list = tracer.events
        emit = tracer.emit
        for e in drops(7):
            emit(e)
        tracer.flush()
        # the list object is preserved: hoisted appends and direct
        # ``tracer.events.extend`` callers keep working after a flush
        assert tracer.events is events_list
        assert tracer.events == []
        emit(PebsDrain(1.0, 1, 1))
        assert len(tracer.events) == 1
        assert len(tracer) == 8

    def test_now_setter_flushes_per_tick(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "seg"))
        for e in drops(6):
            tracer.emit(e)
        tracer.now = 0.01  # the engine's per-tick store
        assert tracer.events == []
        assert tracer.now == 0.01
        assert tracer.events_written == 6
        assert tracer.max_buffered == 6

    def test_small_buffer_stays_small_across_ticks(self, tmp_path):
        tracer = StreamingTracer(str(tmp_path / "seg"))
        for tick in range(50):
            for e in drops(5, t0=tick * 0.01):
                tracer.emit(e)
            tracer.now = (tick + 1) * 0.01
        manifest = tracer.finalize()
        assert manifest["events"] == 250
        assert tracer.max_buffered == 5  # one tick's burst, not the run

    def test_to_dicts_matches_plain_tracer(self, tmp_path):
        from repro.obs.trace import Tracer

        plain = Tracer()
        streaming = StreamingTracer(str(tmp_path / "seg"), segment_events=4)
        for e in drops(10):
            plain.emit(e)
            streaming.emit(e)
            streaming.now = e.t
        assert streaming.to_dicts() == plain.to_dicts()


class TestCaptureStreaming:
    def _run(self, stream_dir=None):
        from tests.colo.test_arbiter import colo_run, two_tenants

        with obs.capture(trace=True, metrics=False,
                         stream_dir=stream_dir) as cap:
            colo_run(two_tenants(), duration=2.0)
        [payload] = cap.payloads()
        return payload

    @pytest.mark.slow
    def test_streamed_payload_is_a_manifest(self, tmp_path):
        payload = self._run(stream_dir=str(tmp_path / "stream"))
        trace = payload["trace"]
        assert trace["streamed"] is True
        assert trace["dir"] == os.path.join(str(tmp_path / "stream"), "m0")
        assert trace["events"] > 0
        assert trace["max_buffered"] < trace["events"]
        assert os.path.exists(os.path.join(trace["dir"], "manifest.json"))

    @pytest.mark.slow
    def test_streamed_events_equal_in_memory_capture(self, tmp_path):
        streamed = self._run(stream_dir=str(tmp_path / "stream"))
        in_memory = self._run(stream_dir=None)
        replayed = list(iter_segment_events(streamed["trace"]["dir"]))
        assert replayed == in_memory["trace"]

    @pytest.mark.slow
    def test_payloads_idempotent_after_finalize(self, tmp_path):
        from tests.colo.test_arbiter import colo_run, two_tenants

        with obs.capture(trace=True, metrics=False,
                         stream_dir=str(tmp_path / "stream")) as cap:
            colo_run(two_tenants(), duration=1.0)
        first = cap.payloads()
        second = cap.payloads()
        assert first[0]["trace"] == second[0]["trace"]


def test_event_dict_helpers_inverse():
    e = PebsDrop(0.5, "store", 3)
    assert event_from_dict(event_to_dict(e)) == e
