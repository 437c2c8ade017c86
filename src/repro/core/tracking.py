"""Hot/cold page tracking: counters, FIFO lists, and the lazy cooling clock.

HeMem keeps, for each memory type (DRAM and NVM), FIFO lists of hot and
cold pages (§3).  The PEBS thread classifies pages:

- a page becomes *hot* after 8 sampled loads or 4 sampled stores,
- a page with >= 4 sampled stores is *write-heavy* and goes to the *front*
  of its hot list, so it is promoted before read-heavy pages,
- once any page accumulates 18 sampled accesses, a global *cooling clock*
  ticks; each page is cooled lazily — the next time it is examined, its
  counts are halved once per missed clock tick.  A cooled page that drops
  below the hot threshold moves to the cold list; a formerly write-heavy
  page that is still hot re-enters the *back* of the hot list (its "second
  chance" to stay in DRAM).

Per-page state lives in the flat columns of
:class:`~repro.core.pagestore.PageStore`; every page is a dense integer id
(pid), and the pid is the only page handle the tracker takes or returns.
Sampled accesses enter through one path, the batched
:meth:`HotColdTracker.record_samples` the PEBS drain thread calls (a single
record is a one-record batch); page-table scans use
:meth:`HotColdTracker.record_scan_hit`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import HeMemConfig
from repro.core.pagestore import (
    DIRTY,
    NO_LIST,
    TIER_NAMES,
    TRACKED,
    UNDER_MIGRATION,
    WRITE_HEAVY,
    PageFifo,
    PageStore,
)
from repro.mem.page import Tier
from repro.mem.pebs import PebsEventKind
from repro.mem.region import Region
from repro.obs.events import CoolingPass, PageClassified

_STORE_KIND = PebsEventKind.STORE


class HotColdTracker:
    """The PEBS-thread-side data classification state (§3.1).

    Pages are identified by pid (see :mod:`repro.core.pagestore`); read a
    page's state through ``store`` columns, e.g.
    ``tracker.store.reads[tracker.pid_of(region, page)]``.
    """

    def __init__(self, config: HeMemConfig, stats, tracer=None):
        self.config = config
        self.global_clock = 0
        self.store = PageStore()
        # List ids are (tier << 1) | hot so the hot path derives the target
        # list index arithmetically from the tier column.
        for tier in (Tier.DRAM, Tier.NVM):
            for hot in (False, True):
                self.store.new_list(
                    f"{tier.name.lower()}_{'hot' if hot else 'cold'}"
                )
        self._fifos = self.store.fifos
        self._n_tracked = 0
        self._hot_reads = config.hot_read_threshold
        self._hot_writes = config.hot_write_threshold
        self._cooling_threshold = config.cooling_threshold
        self._write_priority = config.write_priority
        self._samples = stats.counter("tracker.samples")
        self._coolings = stats.counter("tracker.cooling_events")
        self._tracer = tracer
        #: batched-event buffer; non-None only inside ``record_samples``,
        #: which flushes it to the tracer in one ``extend`` (same order).
        self._event_buffer = None
        #: non-exclusive tiering support: when enabled (the Nomad policy's
        #: ``bind``), sampled stores to shadow-holding pages set the DIRTY
        #: flag.  Off by default so the exclusive-tiering hot loop pays a
        #: single ``is None`` test per store sample.
        self._shadow_tracking = False

    def enable_shadow_tracking(self) -> None:
        """Fold sampled stores into per-page dirty bits (shadow copies)."""
        self._shadow_tracking = True

    def _emit(self, event) -> None:
        """Route one trace event through the batch buffer when active."""
        buffer = self._event_buffer
        if buffer is not None:
            buffer.append(event)
        else:
            self._tracer.emit(event)

    def _advance_clock(self) -> None:
        """Tick the global cooling clock (and trace the pass)."""
        self.global_clock += 1
        self._coolings.add(1)
        tracer = self._tracer
        if tracer is not None:
            self._emit(CoolingPass(tracer.now, self.global_clock))

    # -- structure ------------------------------------------------------------
    def list_for(self, tier: Tier, hot: bool) -> PageFifo:
        return self._fifos[(int(tier) << 1) | (1 if hot else 0)]

    def pid_of(self, region: Region, page: int) -> int:
        """Pid of a tracked page, or -1 if it is not tracked."""
        base = self.store.base_of(region)
        if base is None:
            return -1
        pid = base + page
        if not self.store.flags[pid] & TRACKED:
            return -1
        return pid

    def track_pages(self, region: Region, pages: np.ndarray) -> None:
        """Start tracking ``pages`` (ascending page indices of ``region``).

        Each page enters its tier's cold list; each tier's pages are
        appended as one run in ascending page order, the order tracking
        them one at a time leaves.  Already-tracked pages are skipped.
        """
        store = self.store
        base = store.bind_region(region)
        pages = np.asarray(pages, dtype=np.int64)
        flags = np.frombuffer(store.flags, dtype=np.uint8)
        fresh = (flags[base + pages] & TRACKED) == 0
        pages = pages[fresh]
        pids = base + pages
        tiers = region.tier[pages]
        flags[pids] |= TRACKED
        np.frombuffer(store.clock, dtype=np.uint32)[pids] = self.global_clock
        np.frombuffer(store.tier, dtype=np.uint8)[pids] = tiers
        del flags  # a live view would block the columns from growing
        for tier in (Tier.DRAM, Tier.NVM):
            store.push_back_run(int(tier) << 1, pids[tiers == tier])
        self._n_tracked += len(pids)

    def _track_pid(self, pid: int, region: Region, page: int) -> None:
        store = self.store
        store.flags[pid] |= TRACKED
        store.clock[pid] = self.global_clock
        tier = int(region.tier[page])
        store.tier[pid] = tier
        store.push_back(tier << 1, pid)  # the tier's cold list
        self._n_tracked += 1

    def untrack_region(self, region: Region) -> None:
        """Stop tracking every page of ``region`` and recycle its pid block."""
        store = self.store
        base = store.base_of(region)
        if base is None:
            return
        flags = store.flags
        for pid in range(base, base + region.n_pages):
            if flags[pid] & TRACKED:
                store.detach(pid)
                self._n_tracked -= 1
        store.release_region(region)

    def refresh_tiers(self, region: Region) -> None:
        """Re-home every tracked page of ``region`` whose tier changed.

        Needed only by code that moves pages *without* the migrator (the
        fig8 oracle placement); normal migrations re-home one page at a
        time in :meth:`page_migrated`.
        """
        store = self.store
        base = store.base_of(region)
        if base is None:
            return
        tier_col = store.tier
        flags = store.flags
        for page, tier in enumerate(region.tier.tobytes()):
            pid = base + page
            if tier_col[pid] != tier and flags[pid] & TRACKED:
                self.page_migrated(pid)

    def __len__(self) -> int:
        return self._n_tracked

    # -- classification ------------------------------------------------------------
    def hot_bytes(self, tier: Optional[Tier] = None) -> int:
        tiers = (tier,) if tier is not None else (Tier.DRAM, Tier.NVM)
        nbytes = self.store._nbytes
        return sum(nbytes[(int(t) << 1) | 1] for t in tiers)

    # -- sampling --------------------------------------------------------------
    def record_samples(self, chunks) -> None:
        """Apply a batch of PEBS records (the drain-thread hot loop).

        ``chunks`` iterates ``(kind, region, pages)`` runs of records, e.g.
        a :class:`~repro.mem.pebs.PebsBatch`.  Each record, in order: track
        the page on first sight, cool it if stale, bump its load or store
        counter (a store also dirties a shadow copy), advance the cooling
        clock if the page reached the threshold (the triggering page is
        cooled at once, the rest lazily), reclassify.  How records are cut
        into chunks and batches never changes the outcome.  Trace events
        produced by the batch (``CoolingPass``, ``PageClassified``) are
        accumulated in order and flushed to the tracer in a single
        ``extend``.
        """
        store = self.store
        reads = store.reads
        writes = store.writes
        clock = store.clock
        flags = store.flags
        list_id = store.list_id
        tier_col = store.tier
        cooling_threshold = self._cooling_threshold
        hot_reads = self._hot_reads
        hot_writes = self._hot_writes
        skip_mask = WRITE_HEAVY | UNDER_MIGRATION
        # Shadow (non-exclusive tiering) dirty folding: None unless the
        # bound policy enabled it, so the default path's per-store cost is
        # one ``is not None`` test.
        shadow = store.shadow if self._shadow_tracking else None
        cool_if_stale = self.cool_if_stale
        reclassify = self._reclassify
        tracer = self._tracer
        events = None
        if tracer is not None:
            events = []
            self._event_buffer = events
        try:
            bind = store.bind_region
            base = -1
            last_region = None
            n_samples = 0
            gclock = self.global_clock
            for kind, region, pages in chunks:
                if region is not last_region:
                    base = bind(region)
                    last_region = region
                if kind is _STORE_KIND:
                    counts = writes
                    dirty = shadow
                else:
                    counts = reads
                    dirty = None
                n_samples += len(pages)
                for page in pages:
                    pid = base + page
                    if not flags[pid] & TRACKED:
                        self._track_pid(pid, region, page)
                    if gclock - clock[pid] > 0:
                        cool_if_stale(pid)
                    counts[pid] += 1
                    if dirty is not None and dirty[pid] >= 0:
                        flags[pid] |= DIRTY
                    r = reads[pid]
                    w = writes[pid]
                    if r + w >= cooling_threshold:
                        self._advance_clock()
                        gclock = self.global_clock
                        cool_if_stale(pid)
                        r = reads[pid]
                        w = writes[pid]
                    write_heavy = w >= hot_writes
                    if (
                        flags[pid] & skip_mask
                        == (WRITE_HEAVY if write_heavy else 0)
                        and list_id[pid]
                        == (tier_col[pid] << 1) | (write_heavy or r >= hot_reads)
                    ):
                        # Not under migration, write-heavy bit current,
                        # already on the list its tier and heat select:
                        # _reclassify would be a provable no-op (no move, no
                        # trace event), so skip the call.
                        continue
                    reclassify(pid)
            if n_samples:
                self._samples.add(n_samples)
        finally:
            self._event_buffer = None
        if events:
            tracer.events.extend(events)

    def record_scan_hit(self, region: Region, page: int, accessed: bool, dirty: bool) -> None:
        """Apply one page-table scan observation (HeMem-PT ablations)."""
        if not accessed and not dirty:
            return
        store = self.store
        pid = store.bind_region(region) + page
        if not store.flags[pid] & TRACKED:
            self._track_pid(pid, region, page)
        self.cool_if_stale(pid)
        if accessed:
            store.reads[pid] += 1
        if dirty:
            store.writes[pid] += 1
            if self._shadow_tracking and store.shadow[pid] >= 0:
                store.flags[pid] |= DIRTY
        self._samples.add(1)
        if store.reads[pid] + store.writes[pid] >= self._cooling_threshold:
            self._advance_clock()
            self.cool_if_stale(pid)
        self._reclassify(pid)

    def cool_if_stale(self, pid: int) -> None:
        """Halve counts once per missed cooling-clock tick (lazy cooling)."""
        store = self.store
        missed = self.global_clock - store.clock[pid]
        if missed <= 0:
            return
        shift = min(missed, 30)
        store.reads[pid] >>= shift
        store.writes[pid] >>= shift
        store.clock[pid] = self.global_clock
        self._reclassify(pid)

    # -- list maintenance ------------------------------------------------------------
    def _reclassify(self, pid: int) -> None:
        store = self.store
        flags = store.flags
        f = flags[pid]
        r = store.reads[pid]
        w = store.writes[pid]
        write_heavy = w >= self._hot_writes
        if f & UNDER_MIGRATION:
            # The migrator owns the page until the copy completes; it will
            # re-home it via page_migrated().
            flags[pid] = (f | WRITE_HEAVY) if write_heavy else (f & 0xFE)
            return
        hot = r >= self._hot_reads or write_heavy
        was_write_heavy = f & WRITE_HEAVY
        flags[pid] = (f | WRITE_HEAVY) if write_heavy else (f & 0xFE)
        cur_lid = store.list_id[pid]
        tracer = self._tracer
        if (
            tracer is not None
            and cur_lid != NO_LIST
            and bool(cur_lid & 1) != hot
        ):
            # Classification flipped (cold->hot or hot->cold): record the
            # transition and the sample evidence behind it.
            self._emit(PageClassified(
                tracer.now, store.region_ref[pid].name, store.page_no[pid],
                TIER_NAMES[store.tier[pid]], hot, r, w,
            ))
        prioritise = write_heavy and self._write_priority
        target_lid = (store.tier[pid] << 1) | (1 if hot else 0)
        if cur_lid == target_lid:
            if (
                prioritise
                and not was_write_heavy
                and store._head[target_lid] != pid
            ):
                # Newly write-heavy pages jump to the front of the hot list
                # so they are promoted before read-heavy pages (§3.3).
                store.unlink(target_lid, pid)
                store.push_front(target_lid, pid)
            return
        if cur_lid != NO_LIST:
            store.unlink(cur_lid, pid)
        if hot and prioritise:
            store.push_front(target_lid, pid)
        else:
            # A cooled, formerly write-heavy page that is still hot gets its
            # second chance at the back of the hot list.
            store.push_back(target_lid, pid)

    def page_migrated(self, pid: int) -> None:
        """Called after a page's tier flipped; re-home it on the right list."""
        store = self.store
        store.detach(pid)
        tier = int(store.region_ref[pid].tier[store.page_no[pid]])
        store.tier[pid] = tier
        hot = (
            store.reads[pid] >= self._hot_reads
            or store.writes[pid] >= self._hot_writes
        )
        target_lid = (tier << 1) | (1 if hot else 0)
        if hot and store.flags[pid] & WRITE_HEAVY and self._write_priority:
            store.push_front(target_lid, pid)
        else:
            store.push_back(target_lid, pid)

    # -- invariants ------------------------------------------------------------
    def violations(self) -> List[str]:
        """Check the tracker's structural laws; returns the broken ones.

        - Each list's links, length and byte total agree with a walk of it.
        - A tracked page is on exactly one list unless it is under
          migration (then on none), and that list belongs to its tier; an
          untracked page is on no list.
        - The tier mirror equals ``region.tier``; the shadow counters
          match the shadow column; only a shadow holder can be DIRTY.
        - A shadow belongs to a DRAM-resident page, and no two pages share
          a shadow offset.

        For tests and smoke checks (:mod:`repro.core.invariants` runs it
        on every member tracker); the simulation never calls it.
        """
        store = self.store
        describe = store.describe
        bad: List[str] = []
        for fifo in store.fifos:
            lid = fifo.lid
            count = nbytes = 0
            prev = -1
            pid = store._head[lid]
            while pid >= 0:
                if store.list_id[pid] != lid or store.prev[pid] != prev:
                    bad.append(f"{fifo.name}: broken link at {describe(pid)}")
                    break
                if store.tier[pid] != lid >> 1:
                    bad.append(f"{fifo.name}: holds {TIER_NAMES[store.tier[pid]]}"
                               f" page {describe(pid)}")
                count += 1
                nbytes += store.psize[pid]
                prev = pid
                pid = store.next[pid]
            if pid < 0 and prev != store._tail[lid]:
                bad.append(f"{fifo.name}: tail is not the last page")
            if (count, nbytes) != (len(fifo), fifo.nbytes):
                bad.append(f"{fifo.name}: walked {count} pages / {nbytes} B, "
                           f"recorded {len(fifo)} / {fifo.nbytes} B")
        n_tracked = shadows = shadow_bytes = 0
        shadow_owner = {}
        for pid in range(store.capacity):
            f = store.flags[pid]
            listed = store.list_id[pid] != NO_LIST
            if f & TRACKED:
                n_tracked += 1
                region = store.region_ref[pid]
                if store.tier[pid] != region.tier[store.page_no[pid]]:
                    bad.append(f"{describe(pid)}: stale tier mirror")
                if listed and f & UNDER_MIGRATION:
                    bad.append(f"{describe(pid)}: listed while under migration")
                elif not listed and not f & UNDER_MIGRATION:
                    bad.append(f"{describe(pid)}: tracked but on no list")
            elif listed:
                bad.append(f"{describe(pid)}: listed but not tracked")
            offset = store.shadow[pid]
            if offset >= 0:
                shadows += 1
                shadow_bytes += store.psize[pid]
                if store.tier[pid] != Tier.DRAM:
                    bad.append(f"{describe(pid)}: shadow on an NVM page")
                owner = shadow_owner.setdefault(offset, pid)
                if owner != pid:
                    bad.append(f"{describe(pid)}: shares shadow offset "
                               f"{offset} with pid {owner}")
            elif f & DIRTY:
                bad.append(f"{describe(pid)}: dirty without a shadow")
        if n_tracked != self._n_tracked:
            bad.append(f"{n_tracked} tracked pages, counted {self._n_tracked}")
        if (shadows, shadow_bytes) != (store.shadow_pages, store.shadow_nbytes):
            bad.append(f"{shadows} shadows / {shadow_bytes} B, counted "
                       f"{store.shadow_pages} / {store.shadow_nbytes} B")
        return bad
