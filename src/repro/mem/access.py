"""Access streams: how workloads describe their memory behaviour per tick.

A workload does not issue individual loads and stores to the simulator
(16 billion GUPS updates would be intractable in Python).  Instead it
describes each homogeneous class of traffic as an :class:`AccessStream`:
"16 threads doing read-modify-write of 8-byte objects, randomly, over these
pages with these relative weights".  The performance model resolves streams
into achieved operation rates; the manager under test resolves where the
accesses land (a :class:`TierSplit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class Pattern(Enum):
    """Spatial access pattern of a stream."""

    SEQUENTIAL = "seq"
    RANDOM = "rand"


@dataclass
class AccessStream:
    """One homogeneous class of application memory traffic.

    Attributes:
        name: label for stats/debugging.
        region: the :class:`~repro.mem.region.Region` the stream targets.
        weights: per-page access probabilities over ``region`` (sums to 1).
            ``None`` means uniform over the region's mapped pages.
        threads: number of application threads driving this stream.
        op_size: bytes of payload touched per access (e.g. 8 for GUPS).
        reads_per_op: memory loads issued per application operation.
        writes_per_op: memory stores issued per application operation.
        pattern: spatial pattern (determines media efficiency, prefetch).
        cpu_ns_per_op: non-memory CPU work per operation (index math, etc.).
        mlp: memory-level parallelism — how many outstanding misses a thread
            overlaps; divides the effective memory stall per op.
        write_weights: optional separate per-page distribution for stores
            (the write-skew experiment concentrates stores on a sub-range);
            ``None`` means stores follow ``weights``.  Both arrays are made
            read-only: a workload replaces them, never edits them in place.
        cache_classes: optional hint for cache-based managers (Memory Mode):
            ``[(rate_fraction, footprint_bytes), ...]`` describing the
            stream's locality structure.  Placement-based managers ignore it.
    """

    name: str
    region: "Region"  # noqa: F821 - forward ref, avoids import cycle
    threads: float
    op_size: int = 8
    reads_per_op: float = 1.0
    writes_per_op: float = 0.0
    pattern: Pattern = Pattern.RANDOM
    cpu_ns_per_op: float = 60.0
    mlp: float = 1.0
    weights: Optional[np.ndarray] = None
    write_weights: Optional[np.ndarray] = None
    cache_classes: Optional[list] = None
    #: fraction of this stream's accesses whose *backing content* changed
    #: this tick (e.g. a hot-set shift).  Placement-based managers see the
    #: change through the weights themselves; cache-model managers (Memory
    #: Mode) use this hint to invalidate the corresponding hit share.
    content_shift: float = 0.0

    def __post_init__(self):
        if self.threads < 0:
            raise ValueError(f"stream {self.name}: threads must be >= 0")
        if self.op_size <= 0:
            raise ValueError(f"stream {self.name}: op_size must be positive")
        if self.reads_per_op < 0 or self.writes_per_op < 0:
            raise ValueError(f"stream {self.name}: negative access counts")
        if self.mlp <= 0:
            raise ValueError(f"stream {self.name}: mlp must be positive")
        self.weights = self._normalize(self.weights, "weights")
        self.write_weights = self._normalize(self.write_weights, "write_weights")

    def _normalize(self, weights: Optional[np.ndarray], label: str) -> Optional[np.ndarray]:
        if weights is None:
            return None
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != self.region.n_pages:
            raise ValueError(
                f"stream {self.name}: {label} length {len(weights)} != "
                f"region pages {self.region.n_pages}"
            )
        total = float(weights.sum())
        if total <= 0:
            raise ValueError(f"stream {self.name}: {label} sum to {total}")
        if abs(total - 1.0) > 1e-9:
            weights = weights / total
        # Placement and resolve memos key on the array's identity, so an
        # in-place edit would serve stale answers: make it raise instead.
        weights.setflags(write=False)
        return weights

    def page_weights(self) -> np.ndarray:
        """Per-page probability vector (materialises uniform weights)."""
        if self.weights is not None:
            return self.weights
        n = self.region.n_pages
        return np.full(n, 1.0 / n)

    def store_weights(self) -> np.ndarray:
        """Per-page probability vector for stores."""
        if self.write_weights is not None:
            return self.write_weights
        return self.page_weights()


@dataclass
class TierSplit:
    """Where a stream's accesses land, as decided by the manager under test.

    ``dram_read_frac`` / ``dram_write_frac`` are the fractions of the
    stream's loads/stores served from DRAM (the rest hit NVM).  The two
    ``extra_*`` fields carry traffic the *manager* induces per operation on
    top of the demand accesses — Memory Mode uses them for cache-fill reads
    and dirty write-backs, which hit NVM and count as wear.
    """

    dram_read_frac: float = 1.0
    dram_write_frac: float = 1.0
    extra_nvm_read_bytes_per_op: float = 0.0
    extra_nvm_write_bytes_per_op: float = 0.0

    def __post_init__(self):
        for frac in (self.dram_read_frac, self.dram_write_frac):
            if not 0.0 <= frac <= 1.0 + 1e-9:
                raise ValueError(f"tier fraction out of range: {frac}")
        self.dram_read_frac = min(self.dram_read_frac, 1.0)
        self.dram_write_frac = min(self.dram_write_frac, 1.0)


@dataclass
class StreamResult:
    """Achieved throughput of one stream over one tick."""

    ops: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    nvm_read_bytes: float = 0.0
    nvm_write_bytes: float = 0.0
    avg_op_latency: float = 0.0

    @property
    def total_bytes(self) -> float:
        return (
            self.dram_read_bytes
            + self.dram_write_bytes
            + self.nvm_read_bytes
            + self.nvm_write_bytes
        )
