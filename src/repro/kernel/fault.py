"""Page-fault cost model and fault-event tracing.

The paper measures userfaultfd overhead and finds it irrelevant for its
workloads because big-data applications pre-fault their heaps precisely to
avoid faults at runtime; the model's prefault is accordingly immediate.
The one fault cost charged is the wake-up of a store that hit a page
write-protected under migration.  When tracing is enabled, every
page-missing fault lands in the trace as a
:class:`~repro.obs.events.PageFault` carrying the tier the page occupies,
which is what lets replay reconstruct initial placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.page import Tier
from repro.obs.events import PageFault


@dataclass(frozen=True)
class FaultCostModel:
    """Latency constant (seconds) of the one fault path a run charges."""

    wp_resolution: float = 4.0e-6  # write-protect fault wake-up


def trace_fault(tracer, fault_kind_value: str, region, page: int,
                reason: str = "") -> None:
    """Emit one :class:`PageFault` event (no-op when ``tracer`` is None).

    The tier is read from the region's placement at emit time: for a
    page-missing fault that is where the page was just installed.
    ``reason`` carries the allocator's placement decision (``pinned``,
    ``dram-free``, ``nvm-watermark``).
    """
    if tracer is None:
        return
    tracer.emit(PageFault(
        tracer.now,
        fault_kind_value,
        region.name,
        page,
        Tier(region.tier[page]).name,
        region.page_size,
        reason,
    ))
