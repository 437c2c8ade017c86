"""Columnar per-page tracking state: flat arrays indexed by dense page id.

The hot/cold tracker touches per-page state on every applied PEBS record —
up to a few thousand times per tick.  Holding that state as one Python
object per page (the original ``PageNode``) costs an attribute dictionary
walk per field and a pointer chase per FIFO hop.  This module keeps the
same state as parallel columns over a dense integer *page id* (pid):

- ``reads`` / ``writes`` / ``clock`` — ``array('I')`` sample counters,
- ``flags`` — ``bytearray`` bit field (write-heavy, under-migration,
  tracked),
- ``tier`` — ``bytearray`` mirror of the owning region's per-page tier
  (``int(Tier)``; see below for the coherence rule),
- ``prev`` / ``next`` — ``array('i')`` intrusive FIFO links (``-1`` is the
  null sentinel), with per-list head/tail/count/nbytes kept as plain ints,
- ``region_ref`` / ``page_no`` / ``psize`` — pid → (region, page index,
  page size) resolution for the cold paths.

**Id allocation.**  Pids are handed out in one contiguous block per region
(``pid = block base + page index``), so resolving a PEBS record to its pid
is a dict lookup plus an add — no per-page dictionary.  When a region is
torn down (``release_region``, e.g. a departing colocation tenant), its
block is wiped back to the pristine column state and parked on a free list
keyed by block size; the next same-sized region reuses it, so tenant churn
does not grow the columns without bound.

**Tier mirror coherence.**  The ``tier`` column caches the owning region's
``region.tier[page]`` so classification never touches numpy on the
per-sample path.  It is written when a page is tracked and in
``HotColdTracker.page_migrated``; code that rewrites ``region.tier``
wholesale behind the tracker's back (the fig8 oracle placement) must call
``HotColdTracker.refresh_tiers(region)`` afterwards, which re-homes every
moved page at once.

**FIFO semantics** are identical to the original ``PageList``: O(1)
push/pop/remove, byte accounting, double-insert and foreign-remove raise
``ValueError``, and iteration tolerates removal of the yielded element.

**One page identity.**  The pid is the only page handle, in the hot loops
and at every API boundary alike: lists yield pids, ``-1`` means "no page",
and callers read a page's state by indexing the columns.  There is no
per-page view object.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional

import numpy as np

#: ``list_id`` sentinel for "on no list".
NO_LIST = 255

#: ``flags`` bits.
WRITE_HEAVY = 1
UNDER_MIGRATION = 2
TRACKED = 4
#: a PEBS-sampled store hit the page while it held an NVM shadow copy
#: (non-exclusive tiering): the shadow's bytes are stale, so the page can
#: no longer be demoted by remap alone.
DIRTY = 8

#: raw tier int -> display name (no enum construction on hot paths)
TIER_NAMES = ("DRAM", "NVM")


class PageStore:
    """Flat parallel columns of per-page tracker state, plus FIFO lists."""

    def __init__(self):
        self.capacity = 0
        self.reads = array("I")
        self.writes = array("I")
        self.clock = array("I")
        self.flags = bytearray()
        self.tier = bytearray()
        self.list_id = bytearray()
        self.prev = array("i")
        self.next = array("i")
        self.psize = array("Q")
        self.page_no = array("I")
        #: NVM DAX offset of the page's shadow copy (non-exclusive
        #: tiering), -1 when the page has none.  The offset itself is the
        #: shadow's identity: stale bookkeeping (e.g. a recycled pid) is
        #: detected by comparing offsets.
        self.shadow = array("q")
        #: incremental shadow accounting (DAX conservation extends to
        #: shadows: live used pages include these)
        self.shadow_pages = 0
        self.shadow_nbytes = 0
        self.region_ref: List = []
        # pid block allocation
        self._base: Dict[int, int] = {}  # region_id -> block base
        self._free_blocks: Dict[int, List[int]] = {}  # n_pages -> [base, ...]
        # per-list state, indexed by list id
        self.fifos: List["PageFifo"] = []
        self._head: List[int] = []
        self._tail: List[int] = []
        self._count: List[int] = []
        self._nbytes: List[int] = []

    # -- lists ---------------------------------------------------------------
    def new_list(self, name: str) -> "PageFifo":
        lid = len(self.fifos)
        if lid >= NO_LIST:
            raise ValueError("page store supports at most 254 lists")
        fifo = PageFifo(self, lid, name)
        self.fifos.append(fifo)
        self._head.append(-1)
        self._tail.append(-1)
        self._count.append(0)
        self._nbytes.append(0)
        return fifo

    # -- pid blocks ------------------------------------------------------------
    def _grow(self, n: int) -> None:
        self.reads.frombytes(bytes(4 * n))
        self.writes.frombytes(bytes(4 * n))
        self.clock.frombytes(bytes(4 * n))
        self.flags.extend(bytes(n))
        self.tier.extend(bytes(n))
        self.list_id.extend(b"\xff" * n)
        self.prev.frombytes(b"\xff\xff\xff\xff" * n)  # -1 sentinels
        self.next.frombytes(b"\xff\xff\xff\xff" * n)
        self.psize.frombytes(bytes(8 * n))
        self.page_no.frombytes(bytes(4 * n))
        self.shadow.frombytes(b"\xff" * (8 * n))  # -1 sentinels
        self.region_ref.extend([None] * n)
        self.capacity += n

    def bind_region(self, region) -> int:
        """Return the pid block base for ``region``, allocating on first use."""
        base = self._base.get(region.region_id)
        if base is not None:
            return base
        n = region.n_pages
        free = self._free_blocks.get(n)
        if free:
            base = free.pop()
        else:
            base = self.capacity
            self._grow(n)
        self._base[region.region_id] = base
        end = base + n
        self.region_ref[base:end] = [region] * n
        self.page_no[base:end] = array("I", range(n))
        self.psize[base:end] = array("Q", [region.page_size]) * n
        return base

    def base_of(self, region) -> Optional[int]:
        return self._base.get(region.region_id)

    def release_region(self, region) -> None:
        """Wipe the region's pid block and park it for same-size reuse.

        The caller must already have detached every tracked pid from its
        list (the tracker's ``untrack_region`` does both in one pass).
        """
        base = self._base.pop(region.region_id, None)
        if base is None:
            return
        n = region.n_pages
        end = base + n
        self.reads[base:end] = array("I", bytes(4 * n))
        self.writes[base:end] = array("I", bytes(4 * n))
        self.clock[base:end] = array("I", bytes(4 * n))
        self.flags[base:end] = bytes(n)
        self.tier[base:end] = bytes(n)
        self.list_id[base:end] = b"\xff" * n
        self.prev[base:end] = array("i", b"\xff\xff\xff\xff" * n)
        self.next[base:end] = array("i", b"\xff\xff\xff\xff" * n)
        for pid in range(base, end):
            if self.shadow[pid] >= 0:
                # The manager frees shadow DAX pages before release; this
                # keeps the aggregate counters honest if one slipped by.
                self.shadow_pages -= 1
                self.shadow_nbytes -= self.psize[pid]
        self.shadow[base:end] = array("q", b"\xff" * (8 * n))
        self.region_ref[base:end] = [None] * n
        self._free_blocks.setdefault(n, []).append(base)

    def describe(self, pid: int) -> str:
        """``region[page]`` plus the page's counters, for error messages."""
        region = self.region_ref[pid]
        return (
            f"{region.name if region else '?'}[{self.page_no[pid]}] "
            f"(pid {pid}, r={self.reads[pid]}, w={self.writes[pid]}, "
            f"clk={self.clock[pid]}, flags={self.flags[pid]:#x})"
        )

    # -- shadow copies ---------------------------------------------------------
    def set_shadow(self, pid: int, offset: int) -> None:
        """Record ``offset`` as ``pid``'s NVM shadow copy.

        At most one shadow per page: installing over a live shadow raises
        (the caller must drop the old one first — silently overwriting
        would leak its DAX page).  A fresh shadow is clean by definition.
        """
        if offset < 0:
            raise ValueError(f"invalid shadow offset {offset}")
        if self.shadow[pid] >= 0:
            raise ValueError(f"pid {pid} already holds a shadow copy")
        self.shadow[pid] = offset
        self.flags[pid] &= ~DIRTY & 0xFF
        self.shadow_pages += 1
        self.shadow_nbytes += self.psize[pid]

    def clear_shadow(self, pid: int) -> int:
        """Forget ``pid``'s shadow and return its DAX offset.

        The caller owns freeing (or remapping onto) the returned offset;
        the store only does the bookkeeping.
        """
        offset = self.shadow[pid]
        if offset < 0:
            raise ValueError(f"pid {pid} has no shadow copy")
        self.shadow[pid] = -1
        self.flags[pid] &= ~DIRTY & 0xFF
        self.shadow_pages -= 1
        self.shadow_nbytes -= self.psize[pid]
        return offset

    # -- FIFO primitives -----------------------------------------------------
    def push_back(self, lid: int, pid: int) -> None:
        if self.list_id[pid] != NO_LIST:
            raise ValueError(
                f"pid {pid} is already on list {self.fifos[self.list_id[pid]].name}"
            )
        self.list_id[pid] = lid
        self._count[lid] += 1
        self._nbytes[lid] += self.psize[pid]
        tail = self._tail[lid]
        if tail < 0:
            self._head[lid] = self._tail[lid] = pid
        else:
            self.prev[pid] = tail
            self.next[tail] = pid
            self._tail[lid] = pid

    def push_back_run(self, lid: int, pids: np.ndarray) -> None:
        """Append ``pids`` (distinct, on no list) to list ``lid`` in order.

        Leaves the links, count and bytes that one :meth:`push_back` per
        pid would, written through numpy views of the columns.
        """
        n = len(pids)
        if n == 0:
            return
        list_id = np.frombuffer(self.list_id, dtype=np.uint8)
        listed = pids[list_id[pids] != NO_LIST]
        if len(listed):
            pid = int(listed[0])
            del list_id  # a live view would block the columns from growing
            raise ValueError(
                f"pid {pid} is already on list {self.fifos[self.list_id[pid]].name}"
            )
        list_id[pids] = lid
        prev = np.frombuffer(self.prev, dtype=np.int32)
        nxt = np.frombuffer(self.next, dtype=np.int32)
        first = int(pids[0])
        tail = self._tail[lid]
        if tail < 0:
            self._head[lid] = first
        else:
            prev[first] = tail
            nxt[tail] = first
        prev[pids[1:]] = pids[:-1]
        nxt[pids[:-1]] = pids[1:]
        self._tail[lid] = int(pids[-1])
        self._count[lid] += n
        self._nbytes[lid] += int(
            np.frombuffer(self.psize, dtype=np.uint64)[pids].sum())

    def push_front(self, lid: int, pid: int) -> None:
        if self.list_id[pid] != NO_LIST:
            raise ValueError(
                f"pid {pid} is already on list {self.fifos[self.list_id[pid]].name}"
            )
        self.list_id[pid] = lid
        self._count[lid] += 1
        self._nbytes[lid] += self.psize[pid]
        head = self._head[lid]
        if head < 0:
            self._head[lid] = self._tail[lid] = pid
        else:
            self.next[pid] = head
            self.prev[head] = pid
            self._head[lid] = pid

    def requeue(self, pids, lids, fronts) -> None:
        """Move each of ``pids``, in order, to the front (where ``fronts``
        is true) or the back of list ``lids[i]``.

        Leaves what :meth:`detach` then :meth:`push_front` or
        :meth:`push_back` per pid would, with the links kept in locals.
        """
        prev = self.prev
        nxt = self.next
        list_id = self.list_id
        head = self._head
        tail = self._tail
        count = self._count
        nbytes = self._nbytes
        psize = self.psize
        for pid, lid, front in zip(pids, lids, fronts):
            size = psize[pid]
            old = list_id[pid]
            if old != NO_LIST:
                p = prev[pid]
                n = nxt[pid]
                if p >= 0:
                    nxt[p] = n
                else:
                    head[old] = n
                if n >= 0:
                    prev[n] = p
                else:
                    tail[old] = p
                count[old] -= 1
                nbytes[old] -= size
            list_id[pid] = lid
            count[lid] += 1
            nbytes[lid] += size
            if front:
                n = head[lid]
                prev[pid] = -1
                nxt[pid] = n
                if n < 0:
                    tail[lid] = pid
                else:
                    prev[n] = pid
                head[lid] = pid
            else:
                p = tail[lid]
                prev[pid] = p
                nxt[pid] = -1
                if p < 0:
                    head[lid] = pid
                else:
                    nxt[p] = pid
                tail[lid] = pid

    def unlink(self, lid: int, pid: int) -> None:
        """Detach ``pid`` from list ``lid`` (caller guarantees membership)."""
        p = self.prev[pid]
        n = self.next[pid]
        if p >= 0:
            self.next[p] = n
        else:
            self._head[lid] = n
        if n >= 0:
            self.prev[n] = p
        else:
            self._tail[lid] = p
        self.prev[pid] = -1
        self.next[pid] = -1
        self.list_id[pid] = NO_LIST
        self._count[lid] -= 1
        self._nbytes[lid] -= self.psize[pid]

    def detach(self, pid: int) -> None:
        """Remove ``pid`` from whatever list holds it (no-op if none)."""
        lid = self.list_id[pid]
        if lid != NO_LIST:
            self.unlink(lid, pid)


class PageFifo:
    """Read-only FIFO view over one list id (the API face of the linked
    columns); the store's ``push_*``/``unlink`` change membership.

    Pages are named by pid; ``-1`` means "no page".
    """

    __slots__ = ("store", "lid", "name")

    def __init__(self, store: PageStore, lid: int, name: str):
        self.store = store
        self.lid = lid
        self.name = name

    def __len__(self) -> int:
        return self.store._count[self.lid]

    def __bool__(self) -> bool:
        return self.store._count[self.lid] > 0

    @property
    def nbytes(self) -> int:
        return self.store._nbytes[self.lid]

    @property
    def front_pid(self) -> int:
        """Pid at the front, or -1 when empty."""
        return self.store._head[self.lid]

    def __iter__(self) -> Iterator[int]:
        """Yield pids front to back; the yielded pid may be removed."""
        store = self.store
        nxt = store.next
        pid = store._head[self.lid]
        while pid >= 0:
            following = nxt[pid]
            yield pid
            pid = following

    def __repr__(self) -> str:
        return f"PageFifo({self.name}, n={len(self)})"
