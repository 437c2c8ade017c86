"""NUMA topology: the substrate kernel-managed tiering (Nimble) runs on.

In app-direct mode NVM can be exposed as a CPU-less NUMA node at a further
distance; Linux NUMA machinery (and Nimble's extensions) then migrates pages
between nodes.  We model two nodes — node 0 (DRAM) and node 1 (NVM) — each
wrapping a frame allocator, plus a ``migrate_pages``-shaped bookkeeping API.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.page import FrameAllocator, Tier


class NumaNode:
    """One NUMA node backed by a single memory tier."""

    def __init__(self, node_id: int, tier: Tier, capacity: int, distance: int):
        self.node_id = node_id
        self.tier = tier
        self.distance = distance
        self.allocator = FrameAllocator(tier, capacity)

    @property
    def free_bytes(self) -> int:
        return self.allocator.free

    def __repr__(self) -> str:
        return f"NumaNode({self.node_id}, {self.tier.name}, distance={self.distance})"


class NumaTopology:
    """Two-node DRAM+NVM topology with allocation fallback by distance."""

    def __init__(self, dram_capacity: int, nvm_capacity: int):
        self.nodes: List[NumaNode] = [
            NumaNode(0, Tier.DRAM, dram_capacity, distance=10),
            NumaNode(1, Tier.NVM, nvm_capacity, distance=40),
        ]
        self._by_tier: Dict[Tier, NumaNode] = {n.tier: n for n in self.nodes}

    def node(self, tier: Tier) -> NumaNode:
        return self._by_tier[tier]

    def alloc(self, nbytes: int, preferred: Tier = Tier.DRAM) -> Tier:
        """First-touch allocation with fallback to the farther node.

        Returns the tier that satisfied the allocation; raises MemoryError
        if no node can.
        """
        order = [preferred] + [t for t in (Tier.DRAM, Tier.NVM) if t != preferred]
        for tier in order:
            if self._by_tier[tier].allocator.alloc(nbytes):
                return tier
        raise MemoryError(f"NUMA: cannot allocate {nbytes} bytes on any node")

    def release(self, nbytes: int, tier: Tier) -> None:
        self._by_tier[tier].allocator.release(nbytes)

    def migrate_accounting(self, nbytes: int, src: Tier, dst: Tier) -> bool:
        """Reserve space on ``dst`` and release ``src`` (page migration).

        Returns False if the destination node lacks capacity.
        """
        if src == dst:
            raise ValueError("migration source and destination are the same node")
        if not self._by_tier[dst].allocator.alloc(nbytes):
            return False
        self._by_tier[src].allocator.release(nbytes)
        return True
