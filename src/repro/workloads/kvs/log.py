"""Segmented log allocator (Rosenblum & Ousterhout's LFS, as in FlexKVS).

Items are appended to fixed-size segments; a segment is sealed when full
and a new one opened.  Per-item state lives at a (segment, offset) address,
so the log owner can map addresses to memory pages — which is how the
adapter derives page-level hotness from key-level hotness (items written
together share segments, and therefore pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class LogEntry:
    """One item's location and size in the log."""

    segment: int
    offset: int
    size: int


class SegmentedLog:
    """Append-only allocator over fixed-size segments."""

    def __init__(self, segment_size: int, capacity: int):
        if segment_size <= 0:
            raise ValueError(f"segment size must be positive: {segment_size}")
        if capacity < segment_size:
            raise ValueError("capacity must hold at least one segment")
        self.segment_size = segment_size
        self.max_segments = capacity // segment_size
        self._fill: List[int] = [0]  # bytes used per segment
        self._freed: List[int] = [0]  # bytes freed (dead items) per segment

    @property
    def live_bytes(self) -> int:
        return sum(self._fill) - sum(self._freed)

    @property
    def capacity(self) -> int:
        return self.max_segments * self.segment_size

    def append(self, size: int) -> LogEntry:
        """Allocate ``size`` bytes at the head; opens a new segment if full."""
        if size <= 0:
            raise ValueError(f"item size must be positive: {size}")
        if size > self.segment_size:
            raise ValueError(
                f"item ({size} B) larger than a segment ({self.segment_size} B)"
            )
        head = len(self._fill) - 1
        if self._fill[head] + size > self.segment_size:
            if len(self._fill) >= self.max_segments:
                raise MemoryError("log is full (no cleaner configured)")
            self._fill.append(0)
            self._freed.append(0)
            head += 1
        entry = LogEntry(segment=head, offset=self._fill[head], size=size)
        self._fill[head] += size
        return entry

    def free(self, entry: LogEntry) -> None:
        """Mark an item dead (space reclaimed by a cleaner, not modelled)."""
        self._freed[entry.segment] += entry.size
        if self._freed[entry.segment] > self._fill[entry.segment]:
            raise ValueError(f"segment {entry.segment} over-freed")

    def address(self, entry: LogEntry) -> int:
        """Byte address of an entry within the log's flat address range."""
        return entry.segment * self.segment_size + entry.offset

    def segment_utilization(self, segment: int) -> float:
        fill = self._fill[segment]
        if fill == 0:
            return 0.0
        return (fill - self._freed[segment]) / self.segment_size
