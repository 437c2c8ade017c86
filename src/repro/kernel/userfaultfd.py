"""userfaultfd: kernel-to-user page fault forwarding.

HeMem registers every managed region with userfaultfd so that

- *page-missing* faults (first touch of an unmapped page) and
- *write-protection* faults (stores to pages HeMem write-protected while
  they are under migration)

are delivered to its page-fault thread instead of being handled in the
kernel.  The write-protection half requires the kernel patch the paper
applies; our model simply supports both event kinds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List, Set

from repro.kernel.fault import trace_fault
from repro.mem.region import Region


class FaultKind(Enum):
    PAGE_MISSING = "missing"
    WRITE_PROTECT = "wp"


@dataclass(frozen=True)
class FaultEvent:
    """One forwarded fault: which page of which region, and why."""

    kind: FaultKind
    region: Region
    page: int
    time: float


class UserFaultFd:
    """Registration + event queue between the kernel and the manager."""

    def __init__(self, stats, tracer=None):
        self._registered: Set[int] = set()
        self._queue: Deque[FaultEvent] = deque()
        self._write_protected = {}  # region_id -> set of protected pages
        self._missing_ctr = stats.counter("uffd.missing_faults")
        self._wp_ctr = stats.counter("uffd.wp_faults")
        self._tracer = tracer

    # -- registration ----------------------------------------------------------
    def register(self, region: Region) -> None:
        self._registered.add(region.region_id)
        self._write_protected.setdefault(region.region_id, set())

    def unregister(self, region: Region) -> None:
        self._registered.discard(region.region_id)
        self._write_protected.pop(region.region_id, None)

    def is_registered(self, region: Region) -> bool:
        return region.region_id in self._registered

    # -- write protection --------------------------------------------------------
    def write_protect(self, region: Region, pages) -> None:
        """Mark pages write-protected (the pre-migration step)."""
        self._require_registered(region)
        self._write_protected[region.region_id].update(int(p) for p in pages)

    def write_unprotect(self, region: Region, pages) -> None:
        self._require_registered(region)
        protected = self._write_protected[region.region_id]
        for p in pages:
            protected.discard(int(p))

    def is_write_protected(self, region: Region, page: int) -> bool:
        pages = self._write_protected.get(region.region_id)
        return bool(pages) and page in pages

    def protected_pages(self, region: Region) -> Set[int]:
        return set(self._write_protected.get(region.region_id, set()))

    # -- fault delivery ------------------------------------------------------------
    def post_fault(self, kind: FaultKind, region: Region, page: int, now: float,
                   reason: str = "") -> None:
        """Kernel side: enqueue a fault for the user-level handler.

        ``reason`` labels the placement decision behind a page-missing
        fault in the trace; it does not affect fault delivery.
        """
        self._require_registered(region)
        self._queue.append(FaultEvent(kind, region, page, now))
        if kind is FaultKind.PAGE_MISSING:
            self._missing_ctr.add(1)
        else:
            self._wp_ctr.add(1)
        if self._tracer is not None:
            trace_fault(self._tracer, kind.value, region, page, reason)

    def resolve_missing(self, region: Region, runs) -> None:
        """Page-missing faults the handler resolves as they are raised.

        A prefault maps the pages itself, so nothing is queued for the
        handler: the faults are counted and, with a tracer installed,
        traced page by page.  ``runs`` is a sequence of ``(pages,
        reason)``, traced in order, with ``reason`` as in
        :meth:`post_fault`.
        """
        self._require_registered(region)
        self._missing_ctr.add(sum(len(pages) for pages, _ in runs))
        tracer = self._tracer
        if tracer is not None:
            kind = FaultKind.PAGE_MISSING.value
            for pages, reason in runs:
                for page in pages.tolist():
                    trace_fault(tracer, kind, region, page, reason)

    def read_events(self, max_events: int = 0) -> List[FaultEvent]:
        """User side: drain pending fault events (0 = all)."""
        out: List[FaultEvent] = []
        while self._queue and (max_events <= 0 or len(out) < max_events):
            out.append(self._queue.popleft())
        return out

    def pending(self) -> int:
        return len(self._queue)

    def _require_registered(self, region: Region) -> None:
        if region.region_id not in self._registered:
            raise KeyError(f"{region.name} is not registered with userfaultfd")
