"""Abstract interface every tiered memory manager implements.

The engine talks to managers through four calls: ``attach`` (wire into a
machine and register background services), ``mmap``/``munmap`` (the
allocation surface workloads use), ``split_by_tier`` (where does this
stream's traffic land?), and ``observe`` (feedback of achieved traffic, from
which the manager's tracking mechanism — PEBS, page tables, or a hardware
cache — derives its view).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from repro.kernel.syscalls import SyscallLayer
from repro.mem.access import AccessStream, StreamResult, TierSplit
from repro.mem.machine import Machine
from repro.mem.page import Tier
from repro.mem.region import Region

#: Bound on the per-manager split cache; evicted wholesale when exceeded.
_SPLIT_CACHE_LIMIT = 64


class TieredMemoryManager(ABC):
    """Base class for HeMem and all baseline managers."""

    #: short identifier used in experiment tables
    name: str = "base"

    def __init__(self):
        self.machine: Optional[Machine] = None
        self.engine = None
        self.syscalls: Optional[SyscallLayer] = None
        # (read_frac, write_frac) -> TierSplit; placement repeats in steady
        # state, so most ticks reuse an earlier (immutable) split, also
        # when several streams alternate.  Identical splits let the perf
        # model's identity-keyed memos hit.
        self._split_cache: Dict[Tuple[float, float], TierSplit] = {}

    # -- lifecycle -------------------------------------------------------------
    def attach(self, machine: Machine, engine) -> None:
        """Bind to a machine/engine; subclasses register services here."""
        self.machine = machine
        self.engine = engine
        self.syscalls = SyscallLayer(machine)
        self._on_attach()

    def _on_attach(self) -> None:
        """Subclass hook: create services, allocators, interceptors."""

    # -- allocation surface ------------------------------------------------------
    @abstractmethod
    def mmap(self, size: int, name: str = "", pinned_tier: Optional[Tier] = None) -> Region:
        """Allocate an anonymous mapping; returns the (possibly managed) region."""

    def munmap(self, region: Region) -> None:
        self.syscalls.munmap(region)

    def prefault(self, region: Region, now: float = 0.0) -> None:
        """Touch every page once (big-data apps pre-fill their heaps).

        Default: map everything according to current placement (regions made
        by the kernel path are already DRAM).
        """
        region.mapped[:] = True

    # -- placement queries ---------------------------------------------------------
    def split_by_tier(self, stream: AccessStream, now: float) -> TierSplit:
        """Default: true page placement of the stream's target region."""
        region = stream.region
        read_frac = region.dram_fraction(stream.weights)
        write_weights = getattr(stream, "write_weights", None)
        if write_weights is not None:
            write_frac = region.dram_fraction(write_weights)
        else:
            write_frac = read_frac
        cache = self._split_cache
        split = cache.get((read_frac, write_frac))
        if split is None:
            split = TierSplit(dram_read_frac=read_frac, dram_write_frac=write_frac)
            if len(cache) >= _SPLIT_CACHE_LIMIT:
                cache.clear()
            cache[(read_frac, write_frac)] = split
        return split

    # -- feedback ---------------------------------------------------------------
    def observe(
        self,
        stream: AccessStream,
        split: TierSplit,
        result: StreamResult,
        now: float,
        dt: float,
    ) -> None:
        """Feed achieved traffic back into the manager's tracking mechanism."""

    def end_tick(self, now: float, dt: float) -> None:
        """Per-tick bookkeeping after all streams resolved."""

    # -- introspection -------------------------------------------------------------
    def describe(self) -> str:
        return self.name
