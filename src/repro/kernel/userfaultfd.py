"""userfaultfd: kernel-to-user page fault forwarding.

HeMem registers every managed region with userfaultfd so that
*page-missing* faults (first touch of an unmapped page) reach its
page-fault thread instead of the kernel.  A prefault maps a region's pages
itself, so the model keeps only registration and the accounting of those
missing faults (counted, and traced when a tracer is installed).

HeMem's kernel patch also forwards *write-protection* faults: stores to a
page under DMA migration.  Those are modelled where the page lives, not
here: the tracker's ``UNDER_MIGRATION`` flag marks the page protected and
:class:`repro.core.migrate.Migrator` charges the stores that hit it from
the region's ``pending_writes``.  The ``uffd.wp_faults`` counter is kept
(at 0) so counter dumps keep their shape.
"""

from __future__ import annotations

from typing import Set

from repro.kernel.fault import trace_fault
from repro.mem.region import Region


class UserFaultFd:
    """Region registration plus page-missing fault accounting."""

    def __init__(self, stats, tracer=None):
        self._registered: Set[int] = set()
        self._missing_ctr = stats.counter("uffd.missing_faults")
        stats.counter("uffd.wp_faults")
        self._tracer = tracer

    # -- registration ----------------------------------------------------------
    def register(self, region: Region) -> None:
        self._registered.add(region.region_id)

    def unregister(self, region: Region) -> None:
        self._registered.discard(region.region_id)

    def is_registered(self, region: Region) -> bool:
        return region.region_id in self._registered

    # -- fault delivery ------------------------------------------------------------
    def resolve_missing(self, region: Region, runs) -> None:
        """Page-missing faults the handler resolves as they are raised.

        A prefault maps the pages itself, so the faults are only counted
        and, with a tracer installed, traced page by page.  ``runs`` is a
        sequence of ``(pages, reason)``, traced in order; ``reason`` labels
        the placement decision behind the faults (``pinned``,
        ``dram-free``, ``nvm-watermark``).
        """
        self._require_registered(region)
        self._missing_ctr.add(sum(len(pages) for pages, _ in runs))
        tracer = self._tracer
        if tracer is not None:
            for pages, reason in runs:
                for page in pages.tolist():
                    trace_fault(tracer, "missing", region, page, reason)

    def _require_registered(self, region: Region) -> None:
        if region.region_id not in self._registered:
            raise KeyError(f"{region.name} is not registered with userfaultfd")
