"""Reference (pre-columnar) hot/cold tracking implementation.

This is the original object-graph tracker — one ``PageNode`` per page on
intrusive doubly-linked ``PageList``s — kept under ``tests/`` **only** as the
differential-testing oracle for the array-backed store in
:mod:`repro.core.pagestore`/:mod:`repro.core.tracking`.  Shipped code
cannot import it; the hypothesis property suite drives both
implementations through identical operation sequences and asserts equal
hot/cold membership, FIFO order, and cooling state.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.config import HeMemConfig
from repro.mem.page import Tier
from repro.mem.region import Region
from repro.obs.events import CoolingPass, PageClassified


class PageNode:
    """Tracking state for one managed page (intrusive list node)."""

    __slots__ = (
        "region",
        "page",
        "reads",
        "writes",
        "clock",
        "write_heavy",
        "under_migration",
        "owner",
        "prev",
        "next",
    )

    def __init__(self, region: Region, page: int):
        self.region = region
        self.page = page
        self.reads = 0
        self.writes = 0
        self.clock = 0
        self.write_heavy = False
        self.under_migration = False
        self.owner: Optional["PageList"] = None
        self.prev: Optional[PageNode] = None
        self.next: Optional[PageNode] = None

    @property
    def tier(self) -> Tier:
        return Tier(self.region.tier[self.page])

    @property
    def nbytes(self) -> int:
        return self.region.page_size

    def __repr__(self) -> str:
        return (
            f"PageNode({self.region.name}[{self.page}], r={self.reads}, "
            f"w={self.writes}, clk={self.clock}, wh={self.write_heavy})"
        )


class PageList:
    """Doubly-linked FIFO with O(1) arbitrary removal and byte accounting.

    ``hot`` records which classification the list represents, so the
    tracker can tell whether moving a node between lists flips its
    hot/cold state (the transition the provenance trace records) without
    string-parsing list names.
    """

    def __init__(self, name: str, hot: bool = False):
        self.name = name
        self.hot = hot
        self._head: Optional[PageNode] = None
        self._tail: Optional[PageNode] = None
        self._count = 0
        self.nbytes = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[PageNode]:
        node = self._head
        while node is not None:
            nxt = node.next  # allow removal during iteration
            yield node
            node = nxt

    @property
    def front(self) -> Optional[PageNode]:
        return self._head

    def push_back(self, node: PageNode) -> None:
        self._attach(node, front=False)

    def push_front(self, node: PageNode) -> None:
        self._attach(node, front=True)

    def pop_front(self) -> Optional[PageNode]:
        node = self._head
        if node is not None:
            self.remove(node)
        return node

    def remove(self, node: PageNode) -> None:
        if node.owner is not self:
            raise ValueError(f"{node!r} is not on list {self.name}")
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None
        node.owner = None
        self._count -= 1
        self.nbytes -= node.nbytes

    def _attach(self, node: PageNode, front: bool) -> None:
        if node.owner is not None:
            raise ValueError(f"{node!r} is already on list {node.owner.name}")
        node.owner = self
        self._count += 1
        self.nbytes += node.nbytes
        if self._head is None:
            self._head = self._tail = node
            return
        if front:
            node.next = self._head
            self._head.prev = node
            self._head = node
        else:
            node.prev = self._tail
            self._tail.next = node
            self._tail = node


class HotColdTracker:
    """The PEBS-thread-side data classification state (§3.1)."""

    def __init__(self, config: HeMemConfig, stats, tracer=None):
        self.config = config
        self.global_clock = 0
        self.lists: Dict[Tuple[Tier, bool], PageList] = {
            (tier, hot): PageList(
                f"{tier.name.lower()}_{'hot' if hot else 'cold'}", hot=hot
            )
            for tier in (Tier.DRAM, Tier.NVM)
            for hot in (True, False)
        }
        self._nodes: Dict[Tuple[int, int], PageNode] = {}
        self._samples = stats.counter("tracker.samples")
        self._coolings = stats.counter("tracker.cooling_events")
        self._tracer = tracer

    def _advance_clock(self) -> None:
        """Tick the global cooling clock (and trace the pass)."""
        self.global_clock += 1
        self._coolings.add(1)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(CoolingPass(tracer.now, self.global_clock))

    # -- structure ------------------------------------------------------------
    def list_for(self, tier: Tier, hot: bool) -> PageList:
        return self.lists[(tier, hot)]

    def node(self, region: Region, page: int) -> Optional[PageNode]:
        return self._nodes.get((region.region_id, page))

    def track_page(self, region: Region, page: int) -> PageNode:
        """Start tracking a page (it enters its tier's cold list)."""
        key = (region.region_id, page)
        node = self._nodes.get(key)
        if node is None:
            node = PageNode(region, page)
            node.clock = self.global_clock
            self._nodes[key] = node
            self.list_for(node.tier, hot=False).push_back(node)
        return node

    def untrack_page(self, region: Region, page: int) -> None:
        node = self._nodes.pop((region.region_id, page), None)
        if node is not None and node.owner is not None:
            node.owner.remove(node)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- classification ------------------------------------------------------------
    def is_hot(self, node: PageNode) -> bool:
        return (
            node.reads >= self.config.hot_read_threshold
            or node.writes >= self.config.hot_write_threshold
        )

    def is_write_heavy(self, node: PageNode) -> bool:
        return node.writes >= self.config.hot_write_threshold

    def hot_bytes(self, tier: Optional[Tier] = None) -> int:
        tiers = (tier,) if tier is not None else (Tier.DRAM, Tier.NVM)
        return sum(self.list_for(t, hot=True).nbytes for t in tiers)

    # -- sampling --------------------------------------------------------------
    def record_sample(self, region: Region, page: int, is_store: bool) -> PageNode:
        """Apply one PEBS record: cool-if-stale, count, reclassify."""
        node = self.track_page(region, page)
        self.cool_if_stale(node)
        if is_store:
            node.writes += 1
        else:
            node.reads += 1
        self._samples.add(1)
        if node.reads + node.writes >= self.config.cooling_threshold:
            # Any page reaching the cooling threshold advances the clock;
            # the triggering page is cooled immediately, the rest lazily.
            self._advance_clock()
            self.cool_if_stale(node)
        self._reclassify(node)
        return node

    def record_scan_hit(self, region: Region, page: int, accessed: bool, dirty: bool) -> None:
        """Apply one page-table scan observation (HeMem-PT ablations)."""
        if not accessed and not dirty:
            return
        node = self.track_page(region, page)
        self.cool_if_stale(node)
        if accessed:
            node.reads += 1
        if dirty:
            node.writes += 1
        self._samples.add(1)
        if node.reads + node.writes >= self.config.cooling_threshold:
            self._advance_clock()
            self.cool_if_stale(node)
        self._reclassify(node)

    def cool_if_stale(self, node: PageNode) -> None:
        """Halve counts once per missed cooling-clock tick (lazy cooling)."""
        missed = self.global_clock - node.clock
        if missed <= 0:
            return
        shift = min(missed, 30)
        node.reads >>= shift
        node.writes >>= shift
        node.clock = self.global_clock
        self._reclassify(node, cooled=True)

    # -- list maintenance ------------------------------------------------------------
    def _reclassify(self, node: PageNode, cooled: bool = False) -> None:
        if node.under_migration:
            # The migrator owns the node until the copy completes; it will
            # re-home it via page_migrated().
            node.write_heavy = self.is_write_heavy(node)
            return
        hot = self.is_hot(node)
        write_heavy = self.is_write_heavy(node)
        was_write_heavy = node.write_heavy
        node.write_heavy = write_heavy
        tracer = self._tracer
        if (
            tracer is not None
            and node.owner is not None
            and node.owner.hot != hot
        ):
            # Classification flipped (cold->hot or hot->cold): record the
            # transition and the sample evidence behind it.
            tracer.emit(PageClassified(
                tracer.now, node.region.name, node.page,
                Tier(node.region.tier[node.page]).name, hot,
                node.reads, node.writes,
            ))
        prioritise = write_heavy and self.config.write_priority
        # raw int tier avoids constructing a Tier enum per sample; IntEnum
        # keys hash/compare equal to their integer values.
        target = self.lists[(int(node.region.tier[node.page]), hot)]
        if node.owner is target:
            if prioritise and not was_write_heavy and node is not target.front:
                # Newly write-heavy pages jump to the front of the hot list
                # so they are promoted before read-heavy pages (§3.3).
                target.remove(node)
                target.push_front(node)
            return
        if node.owner is not None:
            node.owner.remove(node)
        if hot and prioritise:
            target.push_front(node)
        else:
            # A cooled, formerly write-heavy page that is still hot gets its
            # second chance at the back of the hot list.
            target.push_back(node)

    def page_migrated(self, node: PageNode) -> None:
        """Called after a page's tier flipped; re-home it on the right list."""
        if node.owner is not None:
            node.owner.remove(node)
        hot = self.is_hot(node)
        target = self.list_for(node.tier, hot)
        if hot and node.write_heavy and self.config.write_priority:
            target.push_front(node)
        else:
            target.push_back(node)
