"""Asynchronous page migration with write-protection (§3.2).

To migrate a page HeMem:

1. write-protects it through userfaultfd (reads proceed; writes fault and
   wait until the copy finishes — measured at < 0.00013% of writes),
2. submits the copy to the I/OAT DMA engine (or copy threads if no DMA),
3. on completion remaps the virtual page to the new tier's DAX offset,
   restores access rights, and wakes any stalled writers.

The migrator owns DAX offset accounting: the destination page is reserved
at submit time and the source page freed at completion, so a migration
transiently holds both (copy-then-remap).

Migrations are *transactional* in the face of injected copy failures
(Nomad-style): a failed copy never commits any placement state.  The
destination reservation is kept across retries — resubmitted with capped
exponential backoff — and only two outcomes exist: the copy eventually
completes (source freed, page remapped) or the migration is aborted after
``max_retries`` (reservation rolled back, page stays put, write protection
lifted).  Either way no DAX page is leaked or double-freed.

Non-exclusive tiering (Nomad, arXiv 2401.13154) extends the same
machinery: a promotion submitted with ``retain_shadow=True`` keeps the
source NVM page allocated at completion and records it as the page's
*shadow copy* in the pagestore.  While the shadow stays clean (no sampled
store — see ``HotColdTracker.enable_shadow_tracking``) a later demotion
commits as a zero-byte remap (:meth:`Migrator.remap_demote`); dirty or
pressure-reclaimed shadows are released through :meth:`Migrator.drop_shadow`.
Rollback (``_abort``) never touches shadow state: a failed copy leaves the
shadow columns exactly as they were at submit.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.pagestore import DIRTY, UNDER_MIGRATION
from repro.core.tracking import HotColdTracker
from repro.kernel.dax import DaxFile
from repro.kernel.fault import FaultCostModel
from repro.kernel.userfaultfd import UserFaultFd
from repro.mem.dma import CopyEngine, CopyRequest
from repro.mem.page import Tier
from repro.obs.events import (
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    ShadowCreated,
    ShadowDropped,
)


class Migrator:
    """Submits and completes write-protected page copies."""

    #: retry policy for failure-injected copies: capped exponential backoff
    MAX_RETRIES = 5
    RETRY_BACKOFF_BASE = 0.01  # seconds (one policy period)
    RETRY_BACKOFF_CAP = 0.16

    def __init__(
        self,
        mover: CopyEngine,
        dax: Dict[Tier, DaxFile],
        uffd: UserFaultFd,
        tracker: HotColdTracker,
        machine,
        fault_costs: Optional[FaultCostModel] = None,
        stats=None,
    ):
        self.mover = mover
        self.dax = dax
        self.uffd = uffd
        self.tracker = tracker
        self.machine = machine
        self.fault_costs = fault_costs or FaultCostModel()
        self._offsets = {}  # region_id -> offset array (owned by manager)
        # Counters live in a manager-named scope so two managers on one
        # machine can never merge (the default matches HeMem's own name).
        stats = stats if stats is not None else machine.stats.scoped("hemem")
        self._migrated = stats.counter("pages_migrated")
        self._promoted = stats.counter("pages_promoted")
        self._demoted = stats.counter("pages_demoted")
        self._wp_stalls = stats.counter("wp_write_stalls")
        self._retried = stats.counter("migration_retries")
        self._aborted = stats.counter("migrations_aborted")
        self._nocopy = stats.counter("demotions_nocopy")
        self._shadows_created = stats.counter("shadows_created")
        self._shadows_dropped = stats.counter("shadows_dropped")
        self._latency = stats.histogram("migration_latency_s")
        self._tracer = machine.tracer
        #: fault-injection hook: ``hook(request, now) -> True`` marks the
        #: completing copy as failed.  None (the default) skips the entire
        #: retry machinery, keeping the no-fault path byte-identical.
        self.copy_fault_hook: Optional[Callable[[CopyRequest, float], bool]] = None
        #: (ready_at, request) pairs waiting out their retry backoff
        self._retry_queue: List[Tuple[float, CopyRequest]] = []
        #: shadow copies in creation order, as (pid, offset) pairs; the
        #: offset pins the entry to one specific shadow, so entries whose
        #: shadow was already dropped (or whose pid block was recycled)
        #: are detected as stale and skipped during reclamation.
        self.shadow_fifo: Deque[Tuple[int, int]] = deque()

    def bind_offsets(self, region_id: int, offsets) -> None:
        """Manager hands us the region's per-page DAX offset array."""
        self._offsets[region_id] = offsets

    # -- queue state -----------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.mover.busy or bool(self._retry_queue)

    @property
    def queued_bytes(self) -> float:
        return self.mover.pending_bytes

    def retry_requests(self) -> List[CopyRequest]:
        """Requests waiting out their backoff (occupancy/invariant checks)."""
        return [request for _ready_at, request in self._retry_queue]

    def cancel_region(self, region, now: float) -> int:
        """Abort every in-flight or backoff-waiting copy touching ``region``.

        Used when a region is being torn down mid-run (tenant departure):
        each affected migration is rolled back through the same transactional
        path as a retry-exhausted copy — destination reservation released,
        page left in its source tier, write protection lifted — so the
        subsequent munmap sees consistent offsets and no DAX page leaks.
        """
        region_ref = self.tracker.store.region_ref
        cancelled = 0
        for request in self.mover.queued_requests():
            if region_ref[request.tag[0]] is region:
                self.mover.remove(request)
                self._abort(request, now)
                cancelled += 1
        if self._retry_queue:
            keep = []
            for ready_at, request in self._retry_queue:
                if region_ref[request.tag[0]] is region:
                    self._abort(request, now)
                    cancelled += 1
                else:
                    keep.append((ready_at, request))
            self._retry_queue = keep
        return cancelled

    def switch_mover(self, mover: CopyEngine) -> None:
        """Re-route all queued copies onto ``mover`` (DMA-down fallback).

        Queue order is preserved, so FIFO completion (and the trace
        pairing that relies on it) survives the switch.
        """
        if mover is self.mover:
            return
        for request in self.mover.drain_queue():
            mover.submit(request)
        self.mover = mover

    # -- migration -------------------------------------------------------------
    def migrate(self, pid: int, dst: Tier, now: float,
                reason: str = "", retain_shadow: bool = False) -> bool:
        """Begin migrating page ``pid`` to ``dst``; False if no space there.

        ``reason`` labels the submitting policy's decision in the trace
        (``promote-hot``, ``demote-watermark``, ``arbiter-evict``, ...); it
        affects nothing but the emitted ``MigrationStart`` event.

        ``retain_shadow`` (promotions only) keeps the source NVM page
        allocated at completion as the page's shadow copy instead of
        freeing it — Nomad's non-exclusive tiering.
        """
        store = self.tracker.store
        region = store.region_ref[pid]
        page = store.page_no[pid]
        if store.flags[pid] & UNDER_MIGRATION:
            return False
        if Tier(region.tier[page]) == dst:
            raise ValueError(f"{store.describe(pid)} is already in {dst.name}")
        if region.pinned_tier is not None:
            raise ValueError(f"{region.name} is pinned to {region.pinned_tier.name}")
        if dst == Tier.NVM and store.shadow[pid] >= 0:
            # Copy-demotion of a shadow holder: the shadow's bytes are
            # stale the moment the fresh copy lands, so release it up
            # front (this also hands its NVM page to the reservation
            # below).  Policies demote clean shadow holders through
            # remap_demote instead and never reach this.
            self.drop_shadow(pid, now, reason="copy-demote")
        dax_dst = self.dax[dst]
        if dax_dst.free_pages == 0:
            return False
        new_offset = dax_dst.alloc_page()

        # Write-protect: stores to the page now wait on the copy.
        self.uffd.write_protect(region, [page])
        store.flags[pid] |= UNDER_MIGRATION
        store.detach(pid)
        writes_at_submit = float(region.pending_writes[page])

        src = Tier(region.tier[page])
        retain = retain_shadow and dst == Tier.DRAM
        request = CopyRequest(
            nbytes=region.page_size,
            src_tier=src,
            dst_tier=dst,
            tag=(pid, new_offset, writes_at_submit, now, retain),
            on_complete=self._complete,
            submitted_at=now,
        )
        self.mover.submit(request)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(MigrationStart(
                now, region.name, page, src.name, dst.name,
                region.page_size, reason,
            ))
        return True

    def _complete(self, request: CopyRequest, now: float) -> None:
        if self.copy_fault_hook is not None and self.copy_fault_hook(request, now):
            self._on_copy_failure(request, now)
            return
        pid, new_offset, writes_at_submit, submitted_at, retain = request.tag
        store = self.tracker.store
        region = store.region_ref[pid]
        page = store.page_no[pid]
        src = Tier(region.tier[page])
        dst = request.dst_tier

        # Remap: free the old DAX page (or retain it as a shadow copy),
        # install the new one.
        offsets = self._offsets.get(region.region_id)
        if offsets is None:
            raise RuntimeError(f"no DAX offsets bound for {region.name}")
        old_offset = int(offsets[page])
        if retain:
            store.set_shadow(pid, old_offset)
            self.shadow_fifo.append((pid, old_offset))
            self._shadows_created.add(1)
        else:
            self.dax[src].free_page(old_offset)
        offsets[page] = new_offset

        region.tier[page] = dst
        region.tier_version += 1
        self.uffd.write_unprotect(region, [page])
        store.flags[pid] &= ~UNDER_MIGRATION & 0xFF
        self.tracker.page_migrated(pid)

        # Writers that hit the page while protected stalled until now.
        stalled = max(float(region.pending_writes[page]) - writes_at_submit, 0.0)
        if stalled > 0:
            self._wp_stalls.add(stalled)
            self.machine.add_interference(stalled * self.fault_costs.wp_resolution)

        latency = max(now - submitted_at, 0.0)
        self._latency.observe(latency)
        self._migrated.add(1)
        if dst == Tier.DRAM:
            self._promoted.add(1)
        else:
            self._demoted.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(MigrationDone(
                now, region.name, page, src.name, dst.name,
                region.page_size, latency,
            ))
            if retain:
                tracer.emit(ShadowCreated(
                    now, region.name, page, region.page_size, "promote",
                ))

    # -- non-exclusive tiering (shadow copies) -----------------------------------
    def remap_demote(self, pid: int, now: float,
                     reason: str = "demote-nocopy") -> bool:
        """Demote a clean shadow-holding DRAM page by remapping alone.

        No bytes move: the page's DRAM slot is freed and its virtual pages
        point back at the still-valid NVM shadow copy — the commit is a
        zero-byte transaction, so it is instantaneous and can never fail
        mid-way.  Demoting a DIRTY page this way would resurrect stale
        bytes, so it raises; a page with no shadow raises too.
        """
        store = self.tracker.store
        if store.flags[pid] & UNDER_MIGRATION:
            return False
        if store.flags[pid] & DIRTY:
            raise ValueError(
                f"{store.describe(pid)} is dirty: its shadow is stale "
                "and cannot be remapped onto"
            )
        region = store.region_ref[pid]
        page = store.page_no[pid]
        if Tier(region.tier[page]) != Tier.DRAM:
            raise ValueError(f"{store.describe(pid)} is not in DRAM")
        if region.pinned_tier is not None:
            raise ValueError(f"{region.name} is pinned to {region.pinned_tier.name}")
        offsets = self._offsets.get(region.region_id)
        if offsets is None:
            raise RuntimeError(f"no DAX offsets bound for {region.name}")
        shadow_offset = store.clear_shadow(pid)  # raises if there is none

        tracer = self._tracer
        if tracer is not None:
            tracer.emit(MigrationStart(
                now, region.name, page, Tier.DRAM.name, Tier.NVM.name,
                region.page_size, reason,
            ))
        self.dax[Tier.DRAM].free_page(int(offsets[page]))
        offsets[page] = shadow_offset
        region.tier[page] = Tier.NVM
        region.tier_version += 1
        self.tracker.page_migrated(pid)
        self._migrated.add(1)
        self._demoted.add(1)
        self._nocopy.add(1)
        if tracer is not None:
            tracer.emit(MigrationDone(
                now, region.name, page, Tier.DRAM.name, Tier.NVM.name,
                region.page_size, 0.0,
            ))
        return True

    def drop_shadow(self, pid: int, now: float, reason: str = "") -> int:
        """Release a page's shadow copy back to the NVM DAX pool.

        Returns the freed offset.  Raises if the page holds no shadow.
        """
        store = self.tracker.store
        region = store.region_ref[pid]
        offset = store.clear_shadow(pid)
        self.dax[Tier.NVM].free_page(int(offset))
        self._shadows_dropped.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(ShadowDropped(
                now, region.name, store.page_no[pid], int(store.psize[pid]),
                reason,
            ))
        return offset

    def reclaim_shadows(self, n_pages: int, now: float,
                        reason: str = "pressure") -> int:
        """Drop up to ``n_pages`` shadows, oldest first; returns the count.

        Stale FIFO entries — shadows already dropped (dirty demotions,
        copy-demotions) or pids recycled to a new region — are identified
        by offset mismatch and skipped.
        """
        store = self.tracker.store
        fifo = self.shadow_fifo
        freed = 0
        while fifo and freed < n_pages:
            pid, offset = fifo.popleft()
            if store.shadow[pid] != offset:
                continue  # stale entry: that shadow is already gone
            self.drop_shadow(pid, now, reason=reason)
            freed += 1
        return freed

    # -- failure handling (fault injection) -------------------------------------
    def _on_copy_failure(self, request: CopyRequest, now: float) -> None:
        """A copy completed *unsuccessfully*: retry with backoff or abort.

        The destination DAX reservation is deliberately kept across retries
        — releasing and re-acquiring it would let a concurrent allocation
        steal the slot and strand the migration halfway (the partial-failure
        corruption transactional migration exists to prevent).
        """
        pid = request.tag[0]
        store = self.tracker.store
        region = store.region_ref[pid]
        page = store.page_no[pid]
        attempt = request.attempt + 1
        if attempt > self.MAX_RETRIES:
            self._abort(request, now)
            return
        backoff = min(
            self.RETRY_BACKOFF_BASE * (2 ** (attempt - 1)),
            self.RETRY_BACKOFF_CAP,
        )
        request.attempt = attempt
        request.remaining = float(request.nbytes)
        self._retry_queue.append((now + backoff, request))
        self._retried.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(MigrationRetried(
                now, region.name, page, attempt, backoff,
            ))

    def _abort(self, request: CopyRequest, now: float) -> None:
        """Roll the migration back: release the reservation, leave the page
        where it is, and lift the write protection."""
        # Shadow state is deliberately untouched here: a rolled-back copy
        # leaves the shadow columns exactly as they were at submit.
        pid, new_offset, writes_at_submit, _submitted_at, _retain = request.tag
        store = self.tracker.store
        region = store.region_ref[pid]
        page = store.page_no[pid]
        self.dax[request.dst_tier].free_page(int(new_offset))
        self.uffd.write_unprotect(region, [page])
        store.flags[pid] &= ~UNDER_MIGRATION & 0xFF
        # Tier never changed; re-home the page on its current tier's list.
        self.tracker.page_migrated(pid)
        stalled = max(float(region.pending_writes[page]) - writes_at_submit, 0.0)
        if stalled > 0:
            self._wp_stalls.add(stalled)
            self.machine.add_interference(stalled * self.fault_costs.wp_resolution)
        self._aborted.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(MigrationAborted(
                now, region.name, page, request.src_tier.name,
                request.dst_tier.name, request.attempt,
            ))

    def flush_retries(self, now: float) -> int:
        """Resubmit every retry whose backoff has expired; returns the count.

        Driven each tick by the fault injector service; a no-op (one list
        check) when no failures have been injected.
        """
        if not self._retry_queue:
            return 0
        due = [entry for entry in self._retry_queue if entry[0] <= now + 1e-12]
        if not due:
            return 0
        self._retry_queue = [
            entry for entry in self._retry_queue if entry[0] > now + 1e-12
        ]
        for _ready_at, request in due:
            request.submitted_at = now
            self.mover.submit(request)
        return len(due)
