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
where p99 transaction latency comes from.  Live transactions are priced
one by one (:meth:`TpccAccessModel.price_txn`) from a placement snapshot
per arena: a logical→region page list built once per region and the
region's ``tier`` bytes, re-taken only when its ``tier_version`` moves.
Every cost is summed in the order the original numpy formula summed it,
so the snapshot changes no float.

:func:`load_profiled` runs the functional pass (load, profile, compile)
behind a small in-process memo: every case of a sweep that starts from
the same generator state gets the same pass, so only the first pays for
it and the rest restore its result (see the function).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.db.engine import TpccEngine
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccLoader, TpccStorage
from repro.db.schema import DbScale
from repro.mem.page import Tier

#: per-touch media stall (seconds): device latency per cacheline-sized
#: probe of a database block (HeMem's measured device points)
T_DRAM_READ = 82e-9
T_DRAM_WRITE = 82e-9
T_NVM_READ = 175e-9
T_NVM_WRITE = 94e-9

_DRAM = int(Tier.DRAM)


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
        self._arenas = {HEAP_ARENA: storage.heap_arena,
                        INDEX_ARENA: storage.index_arena}
        # What the functional pass produces (``compile``, or a memoized
        # pass's restore).  Read-only once produced: a memoized pass shares
        # these objects with every model that restores it.
        #: per-arena read and write counts per logical page
        self.read_counts: Dict[int, np.ndarray] = {}
        self.write_counts: Dict[int, np.ndarray] = {}
        #: (txn_name, ((arena, page, is_write), ...)) samples of the mix
        self.templates: Tuple[Tuple[str, tuple], ...] = ()
        self.profile: Dict[str, float] = {}
        #: region_weights results by (arena, writes_only, region size,
        #: page size, n_pages)
        self._weights: Dict[tuple, Optional[np.ndarray]] = {}
        # Per-case pricing state, keyed on the case's own regions.
        #: (heap region, index region, per-arena compiled templates)
        self._compiled: Optional[tuple] = None
        #: (placement/pricing key, per-template cost vector), one slot
        self._cost_memo: Optional[tuple] = None
        #: arena -> (region, tier_version, page map, tier bytes)
        self._placements: Dict[int, tuple] = {}

    # ------------------------------------------------------------ compile
    def compile(self) -> Dict[str, float]:
        """Run the mix, count page touches, keep txn templates."""
        reads = {a: np.zeros(ar.n_pages) for a, ar in self._arenas.items()}
        writes = {a: np.zeros(ar.n_pages) for a, ar in self._arenas.items()}
        templates = []
        per_txn = {"heap_reads": 0.0, "heap_writes": 0.0,
                   "index_reads": 0.0, "index_writes": 0.0}
        for i in range(self.profile_txns):
            name, touches = self.engine.run_one()
            if len(templates) < self.keep_templates:
                templates.append((name, tuple(touches)))
            for arena, page, is_write in touches:
                if is_write:
                    writes[arena][page] += 1
                    key = "heap_writes" if arena == HEAP_ARENA else "index_writes"
                else:
                    reads[arena][page] += 1
                    key = "heap_reads" if arena == HEAP_ARENA else "index_reads"
                per_txn[key] += 1
        for counts in (*reads.values(), *writes.values()):
            counts.flags.writeable = False
        self.read_counts, self.write_counts = reads, writes
        self.templates = tuple(templates)
        n = float(self.profile_txns)
        self.profile = {k + "_per_tx": v / n for k, v in per_txn.items()}
        self.profile["touches_per_tx"] = sum(per_txn.values()) / n
        self._weights = {}
        self._compiled = self._cost_memo = None  # the templates changed
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
        """Per-sim-page access weights for ``region`` backed by this arena
        (read-only; memoized by the region's shape)."""
        key = (arena_id, writes_only, region.size, region.page_size,
               region.n_pages)
        if key not in self._weights:
            weights = self._region_weights(arena_id, region, writes_only)
            if weights is not None:
                weights.flags.writeable = False
            self._weights[key] = weights
        return self._weights[key]

    def _region_weights(self, arena_id: int, region,
                        writes_only: bool) -> Optional[np.ndarray]:
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
    def _page_map(self, arena_id: int, region) -> list:
        """The region page each of the arena's logical pages lands on:
        logical page ``l``'s first 4 KB block is ``l * e``, ``slots``
        blocks fold onto one region page, clamped to the last page."""
        e, slots = self._expansion(arena_id, region)
        pages = np.arange(self._arenas[arena_id].n_pages, dtype=np.int64)
        return np.minimum(pages * e // slots, region.n_pages - 1).tolist()

    def _placement(self, arena_id: int, region) -> Tuple[list, bytes]:
        """``(page map, tier bytes)`` for pricing touches on ``region``.

        One slot per arena: the page map is kept while the region stays
        the same, the ``tier`` snapshot while its ``tier_version`` does.
        """
        memo = self._placements.get(arena_id)
        if memo is not None and memo[0] is region:
            if memo[1] == region.tier_version:
                return memo[2], memo[3]
            page_map = memo[2]
        else:
            page_map = self._page_map(arena_id, region)
        tier = region.tier.tobytes()
        self._placements[arena_id] = (region, region.tier_version,
                                      page_map, tier)
        return page_map, tier

    def price_txn(self, touches: list, heap_region, index_region,
                  cpu_ns_per_tx: float = 20_000.0,
                  access_overhead_ns: float = 0.0,
                  mlp: float = 2.0) -> float:
        """Modeled latency (seconds) of one transaction's touch list.

        Each touch's DRAM or NVM media stall goes to its arena's list in
        touch order, and each arena's stall is one numpy sum of that list,
        heap then index: the same float64 values in the same order as an
        ``np.where`` over the arena's touches, so the same pairwise sum.
        """
        plans = {HEAP_ARENA: self._placement(HEAP_ARENA, heap_region),
                 INDEX_ARENA: self._placement(INDEX_ARENA, index_region)}
        costs = {arena_id: [] for arena_id in plans}
        for arena_id, page, is_write in touches:
            page_map, tier = plans[arena_id]
            if tier[page_map[page]] == _DRAM:
                cost = T_DRAM_WRITE if is_write else T_DRAM_READ
            else:
                cost = T_NVM_WRITE if is_write else T_NVM_READ
            costs[arena_id].append(cost)
        stall = 0.0
        for arena_costs in costs.values():
            if arena_costs:
                stall += float(np.array(arena_costs).sum())
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
        """Per arena: every template's touches, concatenated in template
        then touch order, as (region page, DRAM stall, NVM stall) arrays,
        plus the bounds of template ``t``'s slice, ``[bounds[t],
        bounds[t+1])``."""
        maps = {arena_id: self._page_map(arena_id, region)
                for arena_id, region in regions.items()}
        cols = {arena_id: ([], [], [], [0]) for arena_id in regions}
        for _, touches in self.templates:
            for arena_id, page, is_write in touches:
                pages, dram, nvm, _ = cols[arena_id]
                pages.append(maps[arena_id][page])
                dram.append(T_DRAM_WRITE if is_write else T_DRAM_READ)
                nvm.append(T_NVM_WRITE if is_write else T_NVM_READ)
            for pages, _, _, bounds in cols.values():
                bounds.append(len(pages))
        return {arena_id: (np.array(pages, dtype=np.int64), np.array(dram),
                           np.array(nvm), bounds)
                for arena_id, (pages, dram, nvm, bounds) in cols.items()}

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


#: functional passes kept per process; a tpcc_buffer sweep needs one per
#: seed (plus one for its colocated tenant), and each entry holds about
#: 0.2 MB of snapshot plus its counts and weights
PASS_MEMO_SIZE = 4


class _Pass(NamedTuple):
    """One memoized functional pass: what it produced, the storage and
    engine it left behind (pickled), and the generator state after it."""

    read_counts: Dict[int, np.ndarray]
    write_counts: Dict[int, np.ndarray]
    templates: Tuple[Tuple[str, tuple], ...]
    profile: Dict[str, float]
    weights: Dict[tuple, Optional[np.ndarray]]
    snapshot: bytes
    rng_state: dict


#: (scale, profile_txns, keep_templates, pickled generator state before
#: the pass) -> _Pass, least recently used first
_PASSES: "OrderedDict[tuple, _Pass]" = OrderedDict()


def load_profiled(scale: DbScale, rng: np.random.Generator,
                  profile_txns: int = 400,
                  keep_templates: int = 96) -> TpccAccessModel:
    """Load a TPC-C database and profile its mix: a compiled model whose
    ``storage`` and ``engine`` are ready for live transactions on ``rng``.

    The pass is a function of its arguments and ``rng``'s state, so it is
    memoized on them.  A repeat restores the storage and engine from a
    snapshot taken right after the first pass (each caller mutates its
    own copy), points the engine at ``rng`` and sets ``rng`` to the state
    the pass left it in, so every later draw matches a fresh pass.  The
    counts, templates, profile and region weights are shared read-only.
    """
    key = (scale, profile_txns, keep_templates,
           pickle.dumps(rng.bit_generator.state))
    entry = _PASSES.get(key)
    if entry is not None:
        _PASSES.move_to_end(key)
        storage, engine = pickle.loads(entry.snapshot)
        engine.rng = rng
        rng.bit_generator.state = entry.rng_state
        model = TpccAccessModel(storage, engine, profile_txns=profile_txns,
                                keep_templates=keep_templates)
        model.read_counts = entry.read_counts
        model.write_counts = entry.write_counts
        model.templates = entry.templates
        model.profile = entry.profile
        model._weights = entry.weights
        return model
    storage = TpccStorage(scale)
    TpccLoader(storage, rng).load()
    engine = TpccEngine(storage, rng)
    model = TpccAccessModel(storage, engine, profile_txns=profile_txns,
                            keep_templates=keep_templates)
    model.compile()
    engine.rng = None  # the snapshot carries no generator
    snapshot = pickle.dumps((storage, engine), pickle.HIGHEST_PROTOCOL)
    engine.rng = rng
    _PASSES[key] = _Pass(model.read_counts, model.write_counts,
                         model.templates, model.profile, model._weights,
                         snapshot, rng.bit_generator.state)
    if len(_PASSES) > PASS_MEMO_SIZE:
        _PASSES.popitem(last=False)
    return model
