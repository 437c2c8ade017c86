"""Processor event-based sampling (PEBS) unit.

HeMem configures three PEBS events and records the virtual address of every
``period``-th occurrence into a preallocated ring buffer:

- ``MEM_LOAD_RETIRED.LOCAL_PMM``      -> loads served from NVM,
- ``MEM_LOAD_L3_MISS_RETIRED.LOCAL_DRAM`` -> loads served from DRAM,
- ``MEM_INST_RETIRED.ALL_STORES``     -> all stores.

The unit is fed aggregate event counts per tick (with a page sampler that
draws which pages the sampled instructions touched) and exposes a drain
interface for HeMem's PEBS thread.  When the buffer fills because the drain
thread lags, new records are *dropped* — the effect behind the high-variance
left side of the paper's Fig 10.  Most feeds stay below the sample period
and only add to a per-kind carry; ``carry`` and ``period`` are public so
the per-stream feed path can do that arithmetic inline and call
:meth:`PebsUnit.feed` only when a record is due.

The buffer is columnar: one ``feed`` call's records all share an event
kind and a region, so they are stored as one ``(kind, region, pages)``
chunk with ``pages`` a list of page indices, never as one object per
record.  ``drain(n)`` hands back a :class:`PebsBatch` of chunks in FIFO
order (the last one sliced when ``n`` ends inside it); ``len(batch)`` is
its record count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, List, Tuple

import numpy as np

from repro.mem.region import Region
from repro.obs.events import PebsDrop


class PebsEventKind(Enum):
    """Which performance counter produced a record."""

    DRAM_READ = "dram_read"
    NVM_READ = "nvm_read"
    STORE = "store"

    # Members are singletons: hash by identity in C instead of through
    # ``Enum.__hash__`` (Python code hashing the name) on every carry
    # lookup.
    __hash__ = object.__hash__


#: ``(kind, region, pages)``: consecutive records of one kind and region
Chunk = Tuple[PebsEventKind, Region, List[int]]


def _take(chunks: Deque[Chunk], n: int) -> List[Chunk]:
    """Pop the first ``n`` records off ``chunks``, splitting the last chunk
    when ``n`` ends inside it (its tail stays at the front of ``chunks``)."""
    out = []
    popleft = chunks.popleft
    while n:
        kind, region, pages = chunk = popleft()
        if len(pages) > n:
            out.append((kind, region, pages[:n]))
            chunks.appendleft((kind, region, pages[n:]))
            break
        out.append(chunk)
        n -= len(pages)
    return out


class PebsBatch:
    """Records drained in one call: chunks in FIFO order.

    Iterating yields the ``(kind, region, pages)`` chunks; ``len`` is the
    number of records, not of chunks.
    """

    __slots__ = ("chunks", "n_records")

    def __init__(self, chunks: List[Chunk], n_records: int):
        self.chunks = chunks
        self.n_records = n_records

    def __len__(self) -> int:
        return self.n_records

    def __iter__(self):
        return iter(self.chunks)

    def head(self, n: int) -> "PebsBatch":
        """The first ``n`` records (``self`` when that is all of them)."""
        if n >= self.n_records:
            return self
        return PebsBatch(_take(deque(self.chunks), n), n)


@dataclass(frozen=True)
class PebsSpec:
    """Sampling configuration.

    ``sample_period`` is the counter reload value (one record per that many
    events; the paper uses ~5000).  ``buffer_capacity`` is the ring buffer
    size in records.  ``drain_ns_per_record`` is the CPU cost HeMem's PEBS
    thread pays per record processed.
    """

    sample_period: int = 5000
    buffer_capacity: int = 16384
    drain_ns_per_record: float = 300.0

    def __post_init__(self):
        if self.sample_period <= 0:
            raise ValueError(f"sample period must be positive: {self.sample_period}")
        if self.buffer_capacity <= 0:
            raise ValueError(f"buffer capacity must be positive: {self.buffer_capacity}")
        if not self.drain_ns_per_record > 0:
            raise ValueError(
                f"drain cost per record must be positive: {self.drain_ns_per_record}"
            )


class PebsUnit:
    """Counter state + ring buffer for all three configured events.

    ``period_scale`` corrects for capacity-scaled machines: each modelled
    page aggregates ``scale`` real pages' traffic, so sampling every
    ``period x scale`` events restores the *per-real-page* sample rate
    that HeMem's thresholds and cooling clock were designed around.
    """

    def __init__(self, spec: PebsSpec, stats, rng: np.random.Generator,
                 period_scale: float = 1.0):
        if period_scale <= 0:
            raise ValueError(f"period scale must be positive: {period_scale}")
        self.spec = spec
        self.period_scale = period_scale
        self._rng = rng
        self._chunks: Deque[Chunk] = deque()
        #: records buffered across all chunks (read-only outside the unit)
        self.n_buffered = 0
        #: events counted towards each kind's next record; a caller may add
        #: to it directly while the sum stays below ``period`` (exactly
        #: what :meth:`feed` does then) and must call ``feed`` otherwise
        self.carry = {kind: 0.0 for kind in PebsEventKind}
        #: events per record, after the capacity-scale correction
        self.period = spec.sample_period * period_scale
        self._capacity = spec.buffer_capacity
        self._sampled = stats.counter("pebs.records")
        self._dropped = stats.counter("pebs.dropped")
        #: set by Machine.install_tracer when tracing is enabled
        self.tracer = None

    def __len__(self) -> int:
        return self.n_buffered

    def set_capacity_factor(self, factor: float) -> None:
        """Fault-injection hook: shrink/restore the effective ring buffer.

        A buffer-pressure spike (``factor`` < 1) models the kernel stealing
        PEBS buffer pages or a mis-sized mmap: records beyond the shrunken
        capacity are dropped exactly as on a lagging drain thread (Fig 10).
        ``factor=1.0`` restores the configured capacity bit-exactly.
        """
        if factor <= 0:
            raise ValueError(f"capacity factor must be positive: {factor}")
        self._capacity = max(int(self.spec.buffer_capacity * factor), 1)

    @property
    def effective_capacity(self) -> int:
        return self._capacity

    @property
    def records_sampled(self) -> float:
        return self._sampled.value

    @property
    def records_dropped(self) -> float:
        return self._dropped.value

    @property
    def drop_fraction(self) -> float:
        total = self._sampled.value + self._dropped.value
        return self._dropped.value / total if total else 0.0

    def feed(
        self,
        kind: PebsEventKind,
        region: Region,
        n_events: float,
        sampler: Callable[[object, int], List[int]],
        stream: object = None,
    ) -> int:
        """Account ``n_events`` occurrences; emit every period-th as a record.

        ``sampler(stream, n)`` must return the page indices (in ``region``)
        of up to ``n`` records drawn from the access distribution
        (``stream``) that generated the events; it is called only when a
        record is due and the buffer has room.  Returns the number of records actually
        buffered (excludes drops).
        """
        if n_events < 0:
            raise ValueError(f"negative event count: {n_events}")
        period = self.period
        carry = self.carry[kind] + n_events
        # ``carry // period <= 0`` exactly when ``carry < period``.
        if carry < period:
            self.carry[kind] = carry
            return 0
        n_samples = int(carry // period)
        self.carry[kind] = carry - n_samples * period
        # Records beyond the buffer's free space are dropped by the
        # hardware; don't bother materialising them.
        room = self._capacity - self.n_buffered
        n_emit = min(n_samples, max(room, 0))
        if n_emit < n_samples:
            self._dropped.add(n_samples - n_emit)
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(PebsDrop(tracer.now, kind.value, n_samples - n_emit))
        if n_emit == 0:
            return 0
        pages = sampler(stream, n_emit)
        n = len(pages)
        if n:
            self._chunks.append((kind, region, pages))
            self.n_buffered += n
        self._sampled.add(n)
        return n

    def drain(self, max_records: int) -> PebsBatch:
        """Pop up to ``max_records`` records in FIFO order."""
        if max_records < 0:
            raise ValueError(f"negative drain budget: {max_records}")
        chunks = self._chunks
        if max_records >= self.n_buffered:
            batch = PebsBatch(list(chunks), self.n_buffered)
            chunks.clear()
            self.n_buffered = 0
            return batch
        self.n_buffered -= max_records
        return PebsBatch(_take(chunks, max_records), max_records)
