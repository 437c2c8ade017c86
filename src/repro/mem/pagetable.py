"""Page-table model: scan cost and simulated access/dirty bits.

The paper's Fig 3 shows that scanning access bits over terabytes of 4 KB
pages takes whole seconds, while huge and giga pages shrink both the number
of entries and the table depth.  We model:

- **scan cost**: entries x per-entry cost, where the per-entry cost grows
  with table depth (deeper walks touch more cache-cold directory levels);
- **access/dirty bits**: derived from each region's accumulated ground-truth
  expected access counts since the last clear.  A page's accessed bit is set
  with probability ``1 - exp(-expected_accesses)`` (Poisson arrival of at
  least one access), which reproduces the paper's central pathology: over a
  long scan interval nearly *every* page looks accessed, so page-table-based
  tracking over-estimates the hot set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.mem.page import BASE_PAGE, GIGA_PAGE, HUGE_PAGE
from repro.mem.region import Region


@dataclass(frozen=True)
class PageTableSpec:
    """Per-entry scan costs by page size (seconds per PTE visited).

    Calibrated to Fig 3: 1 TB of base pages (~268M entries) scans in ~2 s;
    2 MB pages cut that by 512x plus a shallower walk; clearing bits adds a
    write per entry (folded in) — TLB shootdown cost is charged separately
    by :class:`repro.mem.tlb.TlbModel`.
    """

    per_entry_ns: Dict[int, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.per_entry_ns is None:
            object.__setattr__(
                self,
                "per_entry_ns",
                {BASE_PAGE: 8.0, HUGE_PAGE: 6.0, GIGA_PAGE: 5.0},
            )


class PageTable:
    """Scan cost + simulated accessed/dirty bits over managed regions."""

    def __init__(self, spec: PageTableSpec = PageTableSpec(), seed_rng=None):
        self.spec = spec
        self._rng = seed_rng if seed_rng is not None else np.random.default_rng(0)

    # -- cost model ----------------------------------------------------------
    def scan_time(self, capacity_bytes: int, page_size: int) -> float:
        """Seconds to walk access bits over ``capacity_bytes`` of mappings."""
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity: {capacity_bytes}")
        if page_size not in self.spec.per_entry_ns:
            raise ValueError(f"unsupported page size: {page_size}")
        entries = capacity_bytes // page_size
        return entries * self.spec.per_entry_ns[page_size] * 1e-9

    def scan_time_regions(self, regions: Iterable[Region]) -> float:
        return sum(self.scan_time(r.size, r.page_size) for r in regions)

    # -- access/dirty bit sampling --------------------------------------------
    def scan_bits(
        self, region: Region, clear: bool = True, fidelity: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample (accessed, dirty) bit vectors for ``region``.

        Bits reflect all traffic accumulated since the previous clearing
        scan.  When ``clear`` is True the accumulated ground truth is reset,
        modelling the scanner clearing the bits (which is what forces the
        TLB shootdown).

        ``fidelity`` rescales the expected access counts before converting
        them to touch probabilities.  On a capacity-scaled machine each
        modelled page stands for ``scale`` real pages and absorbs their
        combined traffic; passing ``fidelity = 1/scale`` restores the
        *per-real-page* touch probability, which is what decides whether an
        access bit is set.
        """
        if fidelity <= 0:
            raise ValueError(f"fidelity must be positive: {fidelity}")
        lam_r = region.pending_reads * fidelity
        lam_w = region.pending_writes * fidelity
        p_accessed = 1.0 - np.exp(-(lam_r + lam_w))
        p_dirty = 1.0 - np.exp(-lam_w)
        draw = self._rng.random(region.n_pages)
        accessed = draw < p_accessed
        # Dirty implies accessed; reuse the same uniform draw so that
        # dirty ⊆ accessed holds sample-wise (p_dirty <= p_accessed).
        dirty = draw < p_dirty
        if clear:
            region.clear_access_bits()
        return accessed, dirty
