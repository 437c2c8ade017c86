"""Trace reader: load a saved trace and compute derived views.

A :class:`Trace` wraps a list of typed events (see
:mod:`repro.obs.events`) and answers the questions the paper's figures
ask of HeMem's internals:

- :meth:`Trace.migrations` pairs every ``MigrationStart`` with the
  ``MigrationRetried`` events of its copy and the ``MigrationDone`` or
  ``MigrationAborted`` that ends it (per-page FIFO, matching the mover's
  queue order).  It is the only migration pairing in ``repro.obs``: the
  Perfetto exporter and health's thrash detector read its records,
- :meth:`Trace.migration_rate` buckets completed migrations into a
  time series (Fig 9's dynamic phases),
- :meth:`Trace.tier_byte_deltas` folds initial placement (page-missing
  faults) and migrations into net bytes per tier, which must equal the
  tiers' final occupancy — a property the test suite enforces.

Traces load from a bare JSON event list, a ``{"events": [...]}`` object,
or one case of a ``repro.bench --trace-out`` export.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from typing import Dict, List, NamedTuple, Optional, Tuple, Type, Union

from repro.obs.events import (
    EVENT_KINDS,
    KIND_TO_EVENT,
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    PageFault,
    event_from_dict,
    event_to_dict,
)


class MigrationRecord(NamedTuple):
    """One migration lifecycle.  ``done`` is None if the migration was
    rolled back (``aborted`` holds the abort) or still in flight at the end
    of the trace (both None); ``retries`` are its failed copy attempts."""

    start: MigrationStart
    done: Optional[MigrationDone]
    aborted: Optional[MigrationAborted] = None
    retries: Tuple[MigrationRetried, ...] = ()

    @property
    def completed(self) -> bool:
        return self.done is not None

    @property
    def latency(self) -> Optional[float]:
        return self.done.latency if self.done is not None else None


class Trace:
    """An event list plus derived-view helpers."""

    def __init__(self, events: List):
        self.events = list(events)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dicts(cls, dicts: List[dict]) -> "Trace":
        return cls([event_from_dict(d) for d in dicts])

    @classmethod
    def from_tracer(cls, tracer) -> "Trace":
        """The whole trace of a live tracer.  A streaming tracer holds only
        the current tick in ``events``; its segments are read back too."""
        if len(tracer) != len(tracer.events):
            return cls.from_dicts(tracer.to_dicts())
        return cls(tracer.events)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a JSON trace: a bare event list or ``{"events": [...]}``."""
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("events", data)
        if not isinstance(data, list):
            raise ValueError(f"{path}: not a trace (expected an event list)")
        return cls.from_dicts(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"events": self.to_dicts()}, fh)

    def to_dicts(self) -> List[dict]:
        return [event_to_dict(e) for e in self.events]

    # -- basics --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: Union[str, Type]) -> List:
        """Events of one type (accepts the class or its wire kind string)."""
        if isinstance(kind, str):
            kind = KIND_TO_EVENT[kind]
        return [e for e in self.events if type(e) is kind]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            name = EVENT_KINDS[type(event)]
            out[name] = out.get(name, 0) + 1
        return out

    def time_span(self) -> Tuple[float, float]:
        if not self.events:
            return (0.0, 0.0)
        times = [e.t for e in self.events]
        return (min(times), max(times))

    # -- migration lifecycles ------------------------------------------------
    def migrations(self) -> List[MigrationRecord]:
        """Pair starts with their retries and their done or abort per
        (region, page), FIFO order; records come back in start order.

        A retry attaches to the oldest pending start of its page and is
        dropped when none is pending (a watchdog requeue of an untagged
        copy names no page).
        A done or abort closes the oldest pending start and raises
        ``ValueError`` when there is none.
        """
        pending: Dict[Tuple[str, int], deque] = defaultdict(deque)
        records: List[MigrationRecord] = []
        for event in self.events:
            kind = type(event)
            if kind is MigrationStart:
                pending[(event.region, event.page)].append(len(records))
                records.append(MigrationRecord(event, None))
            elif kind is MigrationRetried:
                queue = pending.get((event.region, event.page))
                if queue:
                    record = records[queue[0]]
                    records[queue[0]] = record._replace(
                        retries=record.retries + (event,)
                    )
            elif kind is MigrationDone or kind is MigrationAborted:
                queue = pending.get((event.region, event.page))
                if not queue:
                    raise ValueError(
                        f"{kind.__name__} without a matching start: {event}"
                    )
                slot = queue.popleft()
                if kind is MigrationDone:
                    records[slot] = records[slot]._replace(done=event)
                else:
                    records[slot] = records[slot]._replace(aborted=event)
        return records

    def migration_latencies(self) -> List[float]:
        return [r.done.latency for r in self.migrations() if r.done is not None]

    def migration_rate(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """Completed migrations per second, bucketed by completion time.

        Returns ``[(bucket_start_time, migrations_per_second), ...]`` with
        empty buckets included, so the series plots directly against the
        Fig 9 throughput timeline.
        """
        if bucket <= 0:
            raise ValueError(f"bucket must be positive: {bucket}")
        done = self.of_kind(MigrationDone)
        if not done:
            return []
        t0 = min(e.t for e in done)
        t1 = max(e.t for e in done)
        n_buckets = int((t1 - t0) / bucket) + 1
        counts = [0] * n_buckets
        for event in done:
            counts[int((event.t - t0) / bucket)] += 1
        return [(t0 + i * bucket, c / bucket) for i, c in enumerate(counts)]

    # -- occupancy -----------------------------------------------------------

    def tier_byte_deltas(self) -> Dict[str, int]:
        """Net bytes placed into each tier over the trace.

        Sums first-touch placements (page-missing faults carry the tier the
        page landed in) with migration flows (``MigrationDone`` moves
        ``nbytes`` from ``src`` to ``dst``).  For a run that unmaps nothing,
        the result equals each tier's final occupancy of faulted pages.
        """
        deltas: Dict[str, int] = {}
        for event in self.events:
            kind = type(event)
            if kind is PageFault and event.fault == "missing":
                deltas[event.tier] = deltas.get(event.tier, 0) + event.nbytes
            elif kind is MigrationDone:
                deltas[event.dst] = deltas.get(event.dst, 0) + event.nbytes
                deltas[event.src] = deltas.get(event.src, 0) - event.nbytes
        return deltas


def tenant_of(region: str, tenants: List[str]) -> Optional[str]:
    """The colocation tenant owning ``region`` (None outside colo).

    The colocation layer names tenant regions ``{tenant}.{region}``; the
    longest matching tenant name wins, so nested prefixes resolve to the
    most specific tenant.
    """
    return max(
        (t for t in tenants if region == t or region.startswith(t + ".")),
        key=len, default=None,
    )


def load_bench_export(path) -> Dict[Tuple[str, str, int], Trace]:
    """Load a ``repro.bench --trace-out`` JSON export.

    Returns ``{(experiment, case_key, machine_index): Trace}`` — one trace
    per machine each case built (cases whose trace was not captured are
    skipped).
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "trace":
        raise ValueError(f"{path}: not a repro.bench trace export")
    out: Dict[Tuple[str, str, int], Trace] = {}
    for experiment, cases in doc.get("experiments", {}).items():
        for case_key, machines in cases.items():
            if machines is None:
                continue
            for index, events in enumerate(machines):
                if events is not None:
                    out[(experiment, case_key, index)] = Trace.from_dicts(events)
    return out
