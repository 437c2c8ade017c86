"""The event collector threaded through the simulator.

A :class:`Tracer` is an append-only event sink with a *tick-scoped clock*:
the engine stores the current virtual time into ``tracer.now`` once per
tick, so emit sites deep in the stack (the PEBS unit, the tracker's cooling
clock) never need ``now`` threaded through their signatures.

Instrumented components hold a ``tracer`` attribute that is ``None`` when
tracing is disabled; every emit site is guarded by a single ``is None``
check, so the fast path pays nothing.
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import Dict, List, Optional, Type

from repro.obs.events import EVENT_KINDS, event_to_dict


class Tracer:
    """Append-only, timestamp-ordered event sink for one simulation."""

    def __init__(self):
        self.events: List = []
        #: virtual time of the current tick; the engine refreshes this at
        #: the top of every tick, emit sites read it instead of taking
        #: ``now`` parameters.
        self.now: float = 0.0
        # bound method hoisted for the hot emit path
        self.emit = self.events.append

    def __len__(self) -> int:
        return len(self.events)

    def count(self, event_type: Optional[Type] = None) -> int:
        """Number of events, optionally of one type."""
        if event_type is None:
            return len(self.events)
        return sum(1 for e in self.events if type(e) is event_type)

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: count}`` over all events."""
        counted = _Counter(type(e) for e in self.events)
        return {EVENT_KINDS[cls]: n for cls, n in counted.items()}

    def of_type(self, event_type: Type) -> List:
        return [e for e in self.events if type(e) is event_type]

    def to_dicts(self) -> List[dict]:
        """JSON-able form of the whole trace (emission order preserved)."""
        return [event_to_dict(e) for e in self.events]

    def __repr__(self) -> str:
        return f"Tracer({len(self.events)} events, now={self.now})"
