"""Streaming trace/metrics sinks: capture that is O(window), never O(run).

A multi-day serving run emits hundreds of millions of events; buffering
them all in a :class:`~repro.obs.trace.Tracer` list (and serialising one
giant JSON document at the end) makes trace capture O(run) in memory.
This module bounds it:

- :class:`TraceSegmentWriter` appends events to rotating JSONL segment
  files (``segment-000000.jsonl``, ...) under one directory, plus a
  ``manifest.json`` indexing every segment with its event count and time
  span, so consumers can seek without reading everything.
- :class:`StreamingTracer` is a drop-in :class:`Tracer` that drains its
  buffer to a segment writer every tick (the engine's per-tick
  ``tracer.now = ...`` store is the flush hook).  The in-memory ``events``
  list — whose *identity* emit sites and the tracking layer hold on to —
  only ever holds the current tick's burst, so peak memory tracks the
  event **rate**, not the run length.
- :func:`iter_segment_events` / :func:`load_segment_trace` replay a
  segment directory (or its manifest payload) back into event dicts or a
  :class:`~repro.obs.replay.Trace`.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, List, Optional

from repro.obs.events import event_from_dict, event_to_dict
from repro.obs.trace import Tracer

MANIFEST_NAME = "manifest.json"

#: default events per segment file before rotation
SEGMENT_EVENTS = 65536

class TraceSegmentWriter:
    """Rotating JSONL event sink with a manifest index."""

    def __init__(self, directory: str, segment_events: int = SEGMENT_EVENTS):
        if segment_events <= 0:
            raise ValueError(f"segment_events must be positive: {segment_events}")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.segment_events = segment_events
        self.segments: List[dict] = []
        self.events_written = 0
        self._fh = None
        self._seg: Optional[dict] = None
        self._closed = False

    def write(self, events) -> None:
        """Append ``events`` (typed event tuples), rotating as needed."""
        if self._closed:
            raise ValueError("segment writer is closed")
        dumps = json.dumps
        for event in events:
            seg = self._seg
            if seg is None or seg["events"] >= self.segment_events:
                self._roll()
                seg = self._seg
            t = event.t
            self._fh.write(dumps(event_to_dict(event)))
            self._fh.write("\n")
            seg["events"] += 1
            if seg["t_min"] is None or t < seg["t_min"]:
                seg["t_min"] = t
            if seg["t_max"] is None or t > seg["t_max"]:
                seg["t_max"] = t
            self.events_written += 1

    def _roll(self) -> None:
        self._finish_segment()
        name = f"segment-{len(self.segments):06d}.jsonl"
        self._fh = open(os.path.join(self.directory, name), "w")
        self._seg = {"file": name, "events": 0, "t_min": None, "t_max": None}

    def _finish_segment(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._seg is not None:
            self.segments.append(self._seg)
            self._seg = None

    def close(self) -> dict:
        """Flush, write ``manifest.json``, and return the manifest dict."""
        if not self._closed:
            self._finish_segment()
            self._closed = True
        manifest = self.manifest()
        path = os.path.join(self.directory, MANIFEST_NAME)
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1)
        return manifest

    def manifest(self) -> dict:
        segments = list(self.segments)
        if self._seg is not None and self._seg["events"]:
            # Mid-run manifest: surface the open segment too (flushed so
            # its rows are readable on disk).
            self._fh.flush()
            segments.append(dict(self._seg))
        return {
            "kind": "trace_segments",
            "version": 1,
            "dir": self.directory,
            "events": self.events_written,
            "segments": segments,
        }


class StreamingTracer(Tracer):
    """A :class:`Tracer` that drains to rotating segments every tick.

    The engine stores ``tracer.now = now`` at the top of each tick; the
    ``now`` setter is therefore a once-per-tick hook where the buffered
    events are appended to the segment writer and the buffer is emptied
    *in place* (``del events[:]``) — emit sites hold the hoisted bound
    ``events.append`` and the tracking layer extends ``tracer.events``
    directly, so the list object must never be replaced.
    """

    def __init__(self, directory: str,
                 segment_events: int = SEGMENT_EVENTS):
        # Set before super().__init__(): the base constructor assigns
        # ``self.now = 0.0``, which runs the property setter below.
        self._writer = TraceSegmentWriter(directory,
                                          segment_events=segment_events)
        #: high-water mark of the in-memory buffer (the bounded-memory
        #: claim is asserted against this: it tracks per-tick burst size,
        #: not run length)
        self.max_buffered = 0
        self._now = 0.0
        super().__init__()

    @property
    def now(self) -> float:
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        buffered = len(self.events)
        if buffered:
            if buffered > self.max_buffered:
                self.max_buffered = buffered
            self.flush()
        self._now = value

    @property
    def events_written(self) -> int:
        return self._writer.events_written

    @property
    def directory(self) -> str:
        return self._writer.directory

    def flush(self) -> None:
        events = self.events
        if events:
            self._writer.write(events)
            del events[:]  # keep the list identity; see class docstring

    def finalize(self) -> dict:
        """Flush the tail, close the writer, return the manifest."""
        buffered = len(self.events)
        if buffered > self.max_buffered:
            self.max_buffered = buffered
        self.flush()
        return self._writer.close()

    def __len__(self) -> int:
        return self._writer.events_written + len(self.events)

    def to_dicts(self) -> List[dict]:
        """Materialise the full trace (disk segments + live buffer).

        Defeats the purpose for huge runs — exists so small streamed runs
        stay drop-in compatible with in-memory consumers.
        """
        out = list(iter_segment_events(self._writer.directory,
                                       manifest=self._writer.manifest()))
        out.extend(event_to_dict(e) for e in self.events)
        return out

    def __repr__(self) -> str:
        return (f"StreamingTracer({self._writer.events_written} written, "
                f"{len(self.events)} buffered, now={self._now})")


def iter_segment_events(directory: str,
                        manifest: Optional[dict] = None) -> Iterator[dict]:
    """Yield event dicts from a segment directory, in emission order."""
    if manifest is None:
        with open(os.path.join(directory, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
    for seg in manifest["segments"]:
        with open(os.path.join(directory, seg["file"])) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)


def load_segment_trace(directory: str):
    """Replay a segment directory into a :class:`repro.obs.replay.Trace`."""
    from repro.obs.replay import Trace

    return Trace([event_from_dict(d) for d in iter_segment_events(directory)])

