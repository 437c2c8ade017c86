"""Access-model adapter: functional TPC-C touches -> engine streams.

The functional database is small (a few thousand logical pages); the
paper-scale footprint is not.  The adapter stretches the measured
per-logical-page touch distribution onto a manager-allocated region by
an integer *expansion factor* ``e``: logical page ``l`` stands for the
``e`` consecutive 4 KB blocks ``[l*e, (l+1)*e)``, which are then folded
onto the region's 2 MB pages.  The *shape* of the distribution (index
root/interior hot, heap long-tailed) survives; only the scale changes.

The adapter also retains per-transaction touch *templates* — the actual
page lists of sampled NewOrder/Payment/Delivery executions — and prices
them against the current page placement by seeded Monte Carlo, which is
where p99 transaction latency comes from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.db.engine import TpccEngine
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccStorage
from repro.mem.page import Tier

#: per-touch media stall (seconds): device latency per cacheline-sized
#: probe of a database block (HeMem's measured device points)
T_DRAM_READ = 82e-9
T_DRAM_WRITE = 82e-9
T_NVM_READ = 175e-9
T_NVM_WRITE = 94e-9


class TpccAccessModel:
    """Compiled touch statistics of a TPC-C mix run."""

    def __init__(self, storage: TpccStorage, engine: TpccEngine,
                 profile_txns: int = 400, keep_templates: int = 96):
        if profile_txns <= 0:
            raise ValueError(f"profile_txns must be positive: {profile_txns}")
        if keep_templates <= 0:
            raise ValueError(
                f"keep_templates must be positive: {keep_templates}")
        self.storage = storage
        self.engine = engine
        self.profile_txns = profile_txns
        self.keep_templates = keep_templates
        arenas = {HEAP_ARENA: storage.heap_arena,
                  INDEX_ARENA: storage.index_arena}
        self._arenas = arenas
        self.read_counts = {a: np.zeros(ar.n_pages) for a, ar in arenas.items()}
        self.write_counts = {a: np.zeros(ar.n_pages) for a, ar in arenas.items()}
        #: (txn_name, [(arena, page, is_write), ...]) samples of the mix
        self.templates: List[Tuple[str, list]] = []
        self.profile: Dict[str, float] = {}
        #: (heap region, index region, per-arena compiled templates)
        self._compiled: Optional[tuple] = None
        #: (placement/pricing key, per-template cost vector), one slot
        self._cost_memo: Optional[tuple] = None

    # ------------------------------------------------------------ compile
    def compile(self) -> Dict[str, float]:
        """Run the mix, accumulate page counts, keep txn templates."""
        per_txn = {"heap_reads": 0.0, "heap_writes": 0.0,
                   "index_reads": 0.0, "index_writes": 0.0}
        for i in range(self.profile_txns):
            name, touches = self.engine.run_one()
            if len(self.templates) < self.keep_templates:
                self.templates.append((name, touches))
            for arena, page, is_write in touches:
                if is_write:
                    self.write_counts[arena][page] += 1
                    key = "heap_writes" if arena == HEAP_ARENA else "index_writes"
                else:
                    self.read_counts[arena][page] += 1
                    key = "heap_reads" if arena == HEAP_ARENA else "index_reads"
                per_txn[key] += 1
        self._compiled = self._cost_memo = None  # the templates changed
        n = float(self.profile_txns)
        self.profile = {k + "_per_tx": v / n for k, v in per_txn.items()}
        self.profile["touches_per_tx"] = sum(per_txn.values()) / n
        return self.profile

    # ------------------------------------------------ expansion mapping
    def _expansion(self, arena_id: int, region) -> Tuple[int, int]:
        """(e, slots_per_sim_page) for mapping this arena onto ``region``."""
        arena = self._arenas[arena_id]
        e = max(region.size // (arena.n_pages * arena.page_bytes), 1)
        slots = max(region.page_size // arena.page_bytes, 1)
        return e, slots

    def region_weights(self, arena_id: int, region,
                       writes_only: bool = False) -> Optional[np.ndarray]:
        """Per-sim-page access weights for ``region`` backed by this arena."""
        counts = self.write_counts[arena_id] if writes_only else (
            self.read_counts[arena_id] + self.write_counts[arena_id])
        total = counts.sum()
        if total <= 0:
            return None
        e, slots = self._expansion(arena_id, region)
        # Stretch logical pages over e virtual 4 KB blocks each, then fold
        # the block vector onto the region's pages.
        virtual = np.repeat(counts / (e * total), e)
        n_slots = region.n_pages * slots
        if len(virtual) < n_slots:
            virtual = np.concatenate(
                [virtual, np.zeros(n_slots - len(virtual))])
        else:
            virtual = virtual[:n_slots]
        weights = virtual.reshape(region.n_pages, slots).sum(axis=1)
        total = weights.sum()
        if total <= 0:
            return None
        return weights / total

    # ------------------------------------------------------ txn latency
    def _compile_touches(self, touches: list, regions: dict) -> dict:
        """Per arena: the region pages ``touches`` land on and each touch's
        DRAM and NVM media stall (seconds), in touch order."""
        cols = {arena_id: ([], []) for arena_id in regions}
        for arena_id, page, is_write in touches:
            pages, writes = cols[arena_id]
            pages.append(page)
            writes.append(is_write)
        out = {}
        for arena_id, region in regions.items():
            e, slots = self._expansion(arena_id, region)
            pages, writes = cols[arena_id]
            pages = np.minimum(np.array(pages, dtype=np.int64) * e // slots,
                               region.n_pages - 1)
            w = np.array(writes, dtype=bool)
            out[arena_id] = (pages,
                             np.where(w, T_DRAM_WRITE, T_DRAM_READ),
                             np.where(w, T_NVM_WRITE, T_NVM_READ))
        return out

    def price_txn(self, touches: list, heap_region, index_region,
                  cpu_ns_per_tx: float = 20_000.0,
                  access_overhead_ns: float = 0.0,
                  mlp: float = 2.0) -> float:
        """Modeled latency (seconds) of one transaction's touch list."""
        regions = {HEAP_ARENA: heap_region, INDEX_ARENA: index_region}
        stall = 0.0
        for arena_id, (pages, dram_cost, nvm_cost) in self._compile_touches(
                touches, regions).items():
            if len(pages):
                stall += float(np.where(
                    regions[arena_id].tier[pages] == Tier.DRAM,
                    dram_cost, nvm_cost).sum())
        return (cpu_ns_per_tx * 1e-9
                + len(touches) * access_overhead_ns * 1e-9
                + stall / mlp)

    def _template_costs(self, heap_region, index_region,
                        cpu_ns_per_tx: float, access_overhead_ns: float,
                        mlp: float) -> np.ndarray:
        """Every retained template's modeled latency at current placement.

        The templates are compiled once per region pair into one
        concatenated (pages, DRAM cost, NVM cost) array set per arena, and
        the cost vector is memoized on both regions' ``tier_version``.
        Each template's arena stall is still one ``np.where(...).sum()``
        over its own touches, heap then index, so every value is
        bit-identical to pricing the template alone with ``price_txn``.
        """
        key = (heap_region, index_region, heap_region.tier_version,
               index_region.tier_version, cpu_ns_per_tx, access_overhead_ns,
               mlp)
        memo = self._cost_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        regions = {HEAP_ARENA: heap_region, INDEX_ARENA: index_region}
        compiled = self._compiled
        if (compiled is None or compiled[0] is not heap_region
                or compiled[1] is not index_region):
            compiled = (heap_region, index_region,
                        self._compile_templates(regions))
            self._compiled = compiled
        n = len(self.templates)
        stall = np.zeros(n)
        for arena_id, (pages, dram_cost, nvm_cost, bounds) in compiled[2].items():
            cost = np.where(regions[arena_id].tier[pages] == Tier.DRAM,
                            dram_cost, nvm_cost)
            for t in range(n):
                lo, hi = bounds[t], bounds[t + 1]
                if hi > lo:
                    stall[t] += float(cost[lo:hi].sum())
        n_touches = np.array([len(touches) for _, touches in self.templates],
                             dtype=np.float64)
        costs = (cpu_ns_per_tx * 1e-9
                 + n_touches * access_overhead_ns * 1e-9
                 + stall / mlp)
        self._cost_memo = (key, costs)
        return costs

    def _compile_templates(self, regions: dict) -> dict:
        """Per arena: every template's compiled touches, concatenated, plus
        the bounds of template ``t``'s slice, ``[bounds[t], bounds[t+1])``."""
        per_template = [self._compile_touches(touches, regions)
                        for _, touches in self.templates]
        out = {}
        for arena_id in regions:
            parts = [c[arena_id] for c in per_template]
            bounds = [0]
            for pages, _, _ in parts:
                bounds.append(bounds[-1] + len(pages))
            out[arena_id] = (np.concatenate([p[0] for p in parts]),
                             np.concatenate([p[1] for p in parts]),
                             np.concatenate([p[2] for p in parts]),
                             bounds)
        return out

    def txn_latency_percentiles(
        self,
        heap_region,
        index_region,
        rng: np.random.Generator,
        cpu_ns_per_tx: float = 20_000.0,
        access_overhead_ns: float = 0.0,
        mlp: float = 2.0,
        load: float = 0.7,
        n_samples: int = 20_000,
        percentiles=(50, 90, 99),
    ) -> Dict[float, float]:
        """Monte-Carlo per-transaction latency against current placement.

        Each retained template is priced touch-by-touch: DRAM or NVM
        stall depending on where its page sits *right now*, overlapped
        by ``mlp``, plus fixed CPU work, plus the backend's per-touch
        overhead (the buffer pool's latch/lookup tax), plus an M/M/1
        queueing wait at ``load``.
        """
        costs = self._template_costs(heap_region, index_region,
                                     cpu_ns_per_tx, access_overhead_ns, mlp)
        picks = rng.integers(0, len(self.templates), size=n_samples)
        svc = costs[picks]
        rho = min(max(load, 0.0), 0.95)
        mean_wait = rho / (1.0 - rho) * float(svc.mean())
        wait = rng.exponential(mean_wait, size=n_samples) if mean_wait > 0 else 0.0
        lat = svc + wait
        return {p: float(np.percentile(lat, p)) for p in percentiles}
