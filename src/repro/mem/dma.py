"""Migration data movers: I/OAT DMA engine and copy-thread fallback.

HeMem offloads page copies to an I/OAT DMA engine exposed through a patched
``ioatdma`` driver (batched ioctls, multiple channels); when no DMA engine
exists it falls back to parallel copy threads, like Nimble.  Both movers
share an interface:

- ``submit(request)`` queues a copy,
- ``advance(now, dt)`` makes progress, firing completion callbacks,
- ``last_tick_bw()`` reports the (tier, op) media bandwidth consumed, which
  the performance model subtracts from what applications can use,
- ``cpu_cost_last_tick`` is the core-seconds the mover burned (zero for the
  DMA engine — that is its whole point; Fig 7 quantifies the difference).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.mem.devices import READ, WRITE
from repro.mem.page import Tier
from repro.obs.events import DmaTransfer
from repro.sim.units import gbps


@dataclass
class CopyRequest:
    """One page-range copy between tiers.

    ``remaining`` is kept as a float throughout its life: progress is
    subtracted in (possibly fractional) rate x dt chunks, and mixing int
    and float states made downstream accounting type-unstable.  ``attempt``
    counts failure-injected resubmissions of the same logical migration;
    ``submitted_at`` is stamped by the submitter for watchdog age checks.
    """

    nbytes: int
    src_tier: Tier
    dst_tier: Tier
    on_complete: Optional[Callable[["CopyRequest", float], None]] = None
    tag: object = None
    attempt: int = 0
    submitted_at: float = 0.0
    remaining: float = field(init=False)

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError(f"copy must move a positive byte count: {self.nbytes}")
        if self.src_tier == self.dst_tier:
            raise ValueError("copy source and destination tiers are identical")
        self.remaining = float(self.nbytes)


class CopyEngine:
    """Common queueing/progress logic for both movers."""

    def __init__(self, total_bw: float, stats, name: str, max_rate: Optional[float] = None):
        if total_bw <= 0:
            raise ValueError(f"mover bandwidth must be positive: {total_bw}")
        self.total_bw = total_bw
        self.name = name
        #: administrative cap (HeMem sets 10 GB/s so migration never swamps
        #: the application); None = unlimited.
        self.max_rate = max_rate
        self._queue: Deque[CopyRequest] = deque()
        self._moved = stats.counter(f"{name}.bytes_moved")
        self._last_bw: Dict[Tuple[Tier, str], float] = {}
        self.cpu_cost_last_tick = 0.0
        # Running total of queued ``remaining`` bytes.  Extended on submit
        # exactly as ``sum()`` over the grown queue would (left-to-right
        # float addition) and recomputed once per mutation of the queue's
        # interior (advance/remove/drain), so reads are O(1) while the value
        # stays bit-identical to a fresh ``sum(r.remaining for r in queue)``.
        self._pending = 0.0
        #: set by Machine.install_tracer / register_mover when tracing
        self.tracer = None

    def submit(self, request: CopyRequest) -> None:
        self._queue.append(request)
        self._pending += request.remaining

    def _recompute_pending(self) -> None:
        self._pending = sum(r.remaining for r in self._queue)

    @property
    def pending_bytes(self) -> float:
        return self._pending

    def peek(self) -> Optional[CopyRequest]:
        """Oldest queued request (None when idle)."""
        return self._queue[0] if self._queue else None

    def queued_requests(self) -> List[CopyRequest]:
        """Snapshot of the queue in FIFO order (invariant checks, cancels)."""
        return list(self._queue)

    def remove(self, request: CopyRequest) -> bool:
        """Withdraw one queued request (watchdog re-queueing); False if absent."""
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        self._recompute_pending()
        return True

    def drain_queue(self) -> List[CopyRequest]:
        """Withdraw every queued request, e.g. to re-route onto a fallback
        mover when this one fails.  In-progress partial copies keep their
        ``remaining`` byte count."""
        pending = list(self._queue)
        self._queue.clear()
        self._pending = 0.0
        return pending

    @property
    def busy(self) -> bool:
        return bool(self._queue)

    @property
    def bytes_moved(self) -> float:
        return self._moved.value

    def last_tick_bw(self) -> Dict[Tuple[Tier, str], float]:
        """Media bandwidth (bytes/s) consumed last tick, per (tier, op)."""
        return dict(self._last_bw)

    @property
    def moved_last_tick(self) -> bool:
        """True when last tick consumed any media bandwidth (O(1) probe)."""
        return bool(self._last_bw)

    def _effective_rate(self) -> float:
        rate = self.total_bw
        if self.max_rate is not None:
            rate = min(rate, self.max_rate)
        return rate

    def advance(self, now: float, dt: float, devices=None) -> List[CopyRequest]:
        """Move bytes for ``dt`` seconds; returns completed requests."""
        self._last_bw = {}
        self.cpu_cost_last_tick = 0.0
        if not self._queue:
            return []
        self._charge_cpu(dt)
        budget = self._effective_rate() * dt
        completed: List[CopyRequest] = []
        flows: Dict[Tuple[Tier, str], float] = {}
        while self._queue and budget > 0:
            req = self._queue[0]
            moved = min(req.remaining, budget)
            req.remaining -= moved
            budget -= moved
            self._moved.add(moved)
            flows[(req.src_tier, READ)] = flows.get((req.src_tier, READ), 0.0) + moved
            flows[(req.dst_tier, WRITE)] = flows.get((req.dst_tier, WRITE), 0.0) + moved
            if req.remaining <= 0:
                self._queue.popleft()
                completed.append(req)
            else:
                break
        self._recompute_pending()
        self._last_bw = {key: volume / dt for key, volume in flows.items()}
        if devices is not None:
            for (tier, op), volume in flows.items():
                device = devices[tier]
                if op == READ:
                    device.record_traffic(volume, 0.0)
                else:
                    device.record_traffic(0.0, volume)
        tracer = self.tracer
        for req in completed:
            if tracer is not None:
                tracer.emit(DmaTransfer(
                    tracer.now, self.name, req.src_tier.name,
                    req.dst_tier.name, req.nbytes,
                ))
            if req.on_complete is not None:
                req.on_complete(req, now)
        return completed

    def _charge_cpu(self, dt: float) -> None:
        """Subclasses that burn cores override this."""
        self.cpu_cost_last_tick = 0.0


@dataclass(frozen=True)
class DmaSpec:
    """I/OAT engine configuration (paper: batch of 4 on 2 channels wins)."""

    n_channels: int = 8
    channel_bw: float = gbps(3.2)
    channels_used: int = 2
    batch_size: int = 4
    max_batch: int = 32
    #: syscall round trip per copy-batch submission (the patched ioatdma
    #: driver accepts up to ``max_batch`` requests per ioctl to amortise it)
    ioctl_overhead: float = 2e-6

    def __post_init__(self):
        if not 1 <= self.channels_used <= self.n_channels:
            raise ValueError(
                f"channels_used {self.channels_used} out of range 1..{self.n_channels}"
            )
        if not 1 <= self.batch_size <= self.max_batch:
            raise ValueError(f"batch_size {self.batch_size} out of range 1..{self.max_batch}")


def sustained_copy_bw(spec: DmaSpec, copy_size: int, batch_size: int,
                      channels: int, device_cap: float = float("inf")) -> float:
    """Analytic sustained copy bandwidth for one DMA configuration.

    A submitting thread issues ioctls of ``batch_size`` copies; channels
    stream concurrently but the slower of (channel aggregate, destination
    device) bounds transfer.  Submission overhead amortises with batch
    size — the effect behind the paper's "batch of 4" finding; extra
    channels stop paying once the device-side cap binds — the effect
    behind "2 channels".
    """
    if copy_size <= 0 or batch_size <= 0 or channels <= 0:
        raise ValueError("copy size, batch size and channels must be positive")
    link = min(channels * spec.channel_bw, device_cap)
    batch_bytes = batch_size * copy_size
    batch_time = spec.ioctl_overhead + batch_bytes / link
    return batch_bytes / batch_time


class DmaEngine(CopyEngine):
    """I/OAT-style offloaded mover: consumes zero application cores."""

    def __init__(self, spec: DmaSpec, stats, max_rate: Optional[float] = None):
        super().__init__(
            total_bw=spec.channel_bw * spec.channels_used,
            stats=stats,
            name="dma",
            max_rate=max_rate,
        )
        self.spec = spec
        #: channels currently operational (fault injection can take channels
        #: offline and bring them back; 0 means the engine is dead)
        self.active_channels = spec.channels_used

    def set_active_channels(self, n: int) -> None:
        """Fault-injection hook: run on ``n`` of the configured channels.

        With 0 channels the engine still accepts submissions but makes no
        progress (``advance`` gets a zero byte budget) — callers are
        expected to re-route its queue to a fallback mover.
        """
        if not 0 <= n <= self.spec.channels_used:
            raise ValueError(
                f"active channels {n} out of range 0..{self.spec.channels_used}"
            )
        self.active_channels = n
        self.total_bw = self.spec.channel_bw * n

    @property
    def operational(self) -> bool:
        return self.active_channels > 0


class ThreadCopyEngine(CopyEngine):
    """Kernel copy-thread mover (Nimble-style); burns one core per thread.

    The paper finds 4 threads maximise copy throughput; each thread streams
    at roughly the single-thread NVM-bound memcpy rate.
    """

    def __init__(self, stats, n_threads: int = 4, per_thread_bw: float = gbps(1.6),
                 max_rate: Optional[float] = None):
        if n_threads <= 0:
            raise ValueError(f"need at least one copy thread: {n_threads}")
        super().__init__(
            total_bw=per_thread_bw * n_threads,
            stats=stats,
            name="copy_threads",
            max_rate=max_rate,
        )
        self.n_threads = n_threads

    def _charge_cpu(self, dt: float) -> None:
        # Threads spin for the whole tick whenever there is queued work.
        self.cpu_cost_last_tick = self.n_threads * dt if self.busy else 0.0
