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
:meth:`HotColdTracker.record_scan_hit`.  A large drained batch is applied
with numpy, one cooling-clock segment at a time, with one relink of the
FIFO lists per batch; it leaves exactly what the per-record loop leaves.
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
from repro.mem.pebs import PebsBatch, PebsEventKind
from repro.mem.region import Region
from repro.obs.events import CoolingPass, PageClassified

_STORE_KIND = PebsEventKind.STORE


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative int64 ``keys``; numpy radix-sorts
    16-bit keys, so they are narrowed when they fit."""
    if keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


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
        #: non-exclusive tiering support: when enabled (the Nomad policy's
        #: ``bind``), sampled stores to shadow-holding pages set the DIRTY
        #: flag.  Off by default so the exclusive-tiering hot loop pays a
        #: single ``is None`` test per store sample.
        self._shadow_tracking = False

    def enable_shadow_tracking(self) -> None:
        """Fold sampled stores into per-page dirty bits (shadow copies)."""
        self._shadow_tracking = True

    def _advance_clock(self) -> None:
        """Tick the global cooling clock (and trace the pass)."""
        self.global_clock += 1
        self._coolings.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(CoolingPass(tracer.now, self.global_clock))

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
    #: Records from which :meth:`record_samples` applies a drained
    #: :class:`~repro.mem.pebs.PebsBatch` with numpy (:meth:`_apply_batch`).
    #: Measured on fig10 drain batches on a 2-vCPU host: the loop costs
    #: 117-276 us at 256 records against 242-332 us, 310-408 us at 512
    #: against 383-445 us, and 887-916 us at 1,024 against 534-557 us.
    BATCH_MIN_RECORDS = 512

    def record_samples(self, chunks) -> None:
        """Apply a batch of PEBS records (the drain-thread hot loop).

        ``chunks`` iterates ``(kind, region, pages)`` runs of records, e.g.
        a :class:`~repro.mem.pebs.PebsBatch`.  Each record, in order: track
        the page on first sight, cool it if stale, bump its load or store
        counter (a store also dirties a shadow copy), advance the cooling
        clock if the page reached the threshold (the triggering page is
        cooled at once, the rest lazily), reclassify.  How records are cut
        into chunks and batches never changes the outcome.  Trace events
        (``CoolingPass``, ``PageClassified``) go straight to the tracer in
        record order.

        A :class:`~repro.mem.pebs.PebsBatch` of at least
        ``BATCH_MIN_RECORDS`` records goes to :meth:`_apply_batch`, which
        leaves the same columns, list order, clock and counters.  The loop
        below still applies smaller batches, any batch while a tracer is
        installed (so trace events keep the loop's order) and any batch
        holding a page not yet tracked.
        """
        if (
            type(chunks) is PebsBatch
            and chunks.n_records >= self.BATCH_MIN_RECORDS
            and self._tracer is None
            and self._apply_batch(chunks)
        ):
            return
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

    def _apply_batch(self, batch: PebsBatch) -> bool:
        """Apply ``batch`` with numpy, leaving what the record loop leaves.

        Returns False, having only bound the batch's regions, when a page
        in it is not tracked yet; the loop then applies the batch.

        The records are sorted by page once (:meth:`_group_batch`) and the
        cooling clock is walked one segment at a time
        (:meth:`_walk_segments`).  Every ``_reclassify`` the loop would
        make is then evaluated at once, in (page, record) order: a cooling
        evaluation before a page's first record in a segment when the page
        is stale, and one per record.  A list operation happens where the
        hot class flips, or where the page turns write-heavy under
        ``write_priority`` (a move to the front).  Nothing in a batch reads
        list order, so only each page's last operation decides where it
        ends up: the moved pages are unlinked and pushed again in the
        order of their last operations.
        """
        grouped = self._group_batch(batch)
        if grouped is None:
            return False
        order, starts, ends, upids, n_pages, stores_before = grouped
        n = len(order)
        index = np.arange(n + 1)
        loads_before = index - stores_before
        r, w, c, run_first, stale, cooled_r, cooled_w, trigger = (
            self._walk_segments(order, starts, ends, upids,
                                loads_before, stores_before))

        # The counts after each record, halved on a record that advanced
        # the clock, and the class they give.
        run = np.maximum.accumulate(np.where(run_first[:n], index[:n], 0))
        counts = cooled_w[run] - stores_before[run] + stores_before[1:]
        counts >>= trigger
        rec_wh = counts >= self._hot_writes
        counts = cooled_r[run] - loads_before[run] + loads_before[1:]
        counts >>= trigger
        rec_hot = counts >= self._hot_reads
        rec_hot |= rec_wh
        del run, counts
        # The class before each record: the page's previous record's, or
        # its list and WRITE_HEAVY flag before the batch...
        store = self.store
        flags = np.frombuffer(store.flags, dtype=np.uint8)
        f0 = flags[upids]
        lid0 = np.frombuffer(store.list_id, dtype=np.uint8)[upids]
        prev_hot = np.empty(n + 1, dtype=bool)
        prev_hot[1:n] = rec_hot[:-1]
        prev_hot[starts] = lid0 & 1  # index n takes the padding pages
        prev_hot = prev_hot[:n]
        prev_wh = np.empty(n + 1, dtype=bool)
        prev_wh[1:n] = rec_wh[:-1]
        prev_wh[starts] = f0 & WRITE_HEAVY
        prev_wh = prev_wh[:n]
        # ...and after the cooling evaluation that comes first when the
        # record is a stale page's first in a segment.
        cooling = run_first[:n] & stale[:n]
        cool_wh = cooled_w[:n] >= self._hot_writes
        mid_wh = np.where(cooling, cool_wh, prev_wh)
        cool_hot = cooled_r[:n] >= self._hot_reads
        cool_hot |= cool_wh
        mid_hot = np.where(cooling, cool_hot, prev_hot)
        cool_op = mid_hot != prev_hot
        rec_op = rec_hot != mid_hot
        write_priority = self._write_priority
        if write_priority:
            cool_op |= mid_wh & ~prev_wh
            rec_op |= rec_wh & ~mid_wh
        # Each page's last list operation as a slot: 2k for the cooling
        # evaluation before sorted record k, 2k + 1 for record k's own.
        op_slot = np.full(n + 1, -1)
        slots = 2 * index[:n]
        np.copyto(op_slot[:n], slots, where=cool_op)
        slots += 1
        np.copyto(op_slot[:n], slots, where=rec_op)
        del slots
        last = np.maximum.reduceat(op_slot, starts)
        last[(f0 & UNDER_MIGRATION) != 0] = -1  # the migrator re-homes it
        moved = last >= 0
        n_moved = int(np.count_nonzero(moved))
        if n_moved:
            rec = last >> 1
            own = last & 1
            hot = np.where(own, rec_hot[rec], mid_hot[rec])
            front = hot & np.where(own, rec_wh[rec], mid_wh[rec])
            front &= write_priority
            tier = np.frombuffer(store.tier, dtype=np.uint8)[upids]
            target = tier.astype(np.int64) * 2 + hot
            # Unmoved pages first, then the moved ones in the order of
            # their last operations: replaying only those leaves every
            # list as all of the batch's operations would.
            by_time = _stable_argsort(
                np.where(moved, order[rec] * 2 + own + 1, 0))
            skip = len(upids) - n_moved
            store.requeue(
                upids[by_time].tolist()[skip:],
                target[by_time].tolist()[skip:],
                front[by_time].tolist()[skip:],
            )

        f = f0 & (0xFF ^ WRITE_HEAVY)
        f |= rec_wh[ends - 1]
        if self._shadow_tracking:
            stored = stores_before[ends] > stores_before[starts]
            stored &= np.frombuffer(store.shadow, dtype=np.int64)[upids] >= 0
            np.bitwise_or(f, DIRTY, out=f, where=stored)
        real = upids[:n_pages]
        flags[real] = f[:n_pages]
        np.frombuffer(store.reads, dtype=np.uint32)[real] = r[:n_pages]
        np.frombuffer(store.writes, dtype=np.uint32)[real] = w[:n_pages]
        np.frombuffer(store.clock, dtype=np.uint32)[real] = c[:n_pages]
        self._samples.add(n)
        return True

    def _group_batch(self, batch: PebsBatch):
        """The batch's records sorted by page, or None if one is untracked.

        Returns ``(order, starts, ends, upids, n_pages, stores_before)``:
        ``order`` sorts the records by pid, in record order within a pid.
        Page ``j`` (pid ``upids[j]``) has the sorted positions
        ``[starts[j], ends[j])``.  The page arrays are padded to a multiple
        of 128 entries with pages that have no records (``starts = ends =
        n``) past the ``n_pages`` real ones: their sizes then repeat from
        batch to batch, and numpy's cache of small freed blocks does not
        fill up with every size in turn.  ``stores_before[k]`` counts the
        stores among the first ``k`` sorted records.
        """
        store = self.store
        bind = store.bind_region
        flat: List[int] = []
        bases = []
        lengths = []
        kinds = []
        # Bind every region before taking views: binding can grow the
        # columns, which a live view would block.
        for kind, region, pages in batch:
            bases.append(bind(region))
            lengths.append(len(pages))
            kinds.append(kind is _STORE_KIND)
            flat.extend(pages)
        n = len(flat)
        pids = np.array(flat, dtype=np.int64)
        del flat
        pids += np.repeat(bases, lengths)
        flags = np.frombuffer(store.flags, dtype=np.uint8)
        if np.count_nonzero(flags[pids] & TRACKED) < n:
            return None
        order = _stable_argsort(pids - pids.min())
        sorted_pids = pids[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_pids[1:], sorted_pids[:-1], out=first[1:])
        n_pages = int(np.count_nonzero(first))
        width = -(-n_pages // 128) * 128
        starts = np.full(width, n)
        np.compress(first, np.arange(n), out=starts[:n_pages])
        ends = np.full(width, n)
        ends[:-1] = starts[1:]
        upids = sorted_pids[np.minimum(starts, n - 1)]
        stores_before = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.repeat(kinds, lengths)[order], out=stores_before[1:])
        return order, starts, ends, upids, n_pages, stores_before

    def _walk_segments(self, order, starts, ends, upids,
                       loads_before, stores_before):
        """Advance the cooling clock through a grouped batch.

        A segment ends at the first record whose page reaches the cooling
        threshold: the page's counts cooled to the segment's clock, plus
        its records in the segment.  That record advances the clock
        (``_advance_clock``) and halves its page; every other page the
        segment touches takes the segment's clock.  Each segment is one
        step over the batch's pages.

        Returns the pages' final ``(reads, writes, clock)`` and, per sorted
        position, ``run_first`` (the page's first record in a segment),
        ``stale`` (the page was cooled there), ``cooled_reads`` /
        ``cooled_writes`` (its counts after that cooling; both set only
        where ``run_first``) and ``trigger`` (the record advanced the
        clock).
        """
        store = self.store
        n = len(order)
        r = np.frombuffer(store.reads, dtype=np.uint32)[upids].astype(np.int64)
        w = np.frombuffer(store.writes, dtype=np.uint32)[upids].astype(np.int64)
        c = np.frombuffer(store.clock, dtype=np.uint32)[upids].astype(np.int64)
        # (page, record) as one ascending key over the sorted positions.
        key = np.repeat(np.arange(len(starts)) * n, ends - starts) + order
        page_key = np.arange(len(starts)) * n
        pos = starts  # each page's first record not yet applied
        # Index n takes the writes for pages a segment does not touch.
        run_first = np.zeros(n + 1, dtype=bool)
        stale = np.zeros(n + 1, dtype=bool)
        cooled_r = np.zeros(n + 1, dtype=np.int64)
        cooled_w = np.zeros(n + 1, dtype=np.int64)
        trigger = np.zeros(n, dtype=bool)
        threshold = self._cooling_threshold
        gclock = self.global_clock
        while True:
            shift = np.minimum(gclock - c, 30)
            r0 = r >> shift
            w0 = w >> shift
            # The sorted position at which each page would reach the
            # threshold, and that record's place in the batch.
            at = pos + np.maximum(threshold - r0 - w0, 1) - 1
            reach = np.where(at < ends, order[np.minimum(at, n - 1)], n)
            j = int(reach.argmin())
            end = int(reach[j])
            if end < n:
                pos_next = np.searchsorted(key, page_key + end, side="right")
            else:
                pos_next = ends
            touched = pos_next > pos
            slot = np.where(touched, pos, n)
            run_first[slot] = True
            stale[slot] = c < gclock
            cooled_r[slot] = r0
            cooled_w[slot] = w0
            r = np.where(touched, r0, r)
            r += loads_before[pos_next] - loads_before[pos]
            w = np.where(touched, w0, w)
            w += stores_before[pos_next] - stores_before[pos]
            c[touched] = gclock
            pos = pos_next
            if end == n:
                return r, w, c, run_first, stale, cooled_r, cooled_w, trigger
            trigger[at[j]] = True
            self._advance_clock()
            gclock = self.global_clock
            r[j] >>= 1
            w[j] >>= 1
            c[j] = gclock

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
            tracer.emit(PageClassified(
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
