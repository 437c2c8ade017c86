"""TPC-C as an engine workload, swappable across memory backends.

``TpccBufferWorkload`` loads the functional database at setup through
whatever manager it is handed — HeMem's transparent paging, a policy-zoo
variant, the app-directed buffer pool, or Memory Mode — exactly the way
py-tpcc runs one benchmark over interchangeable drivers.  App-directed
backends are hinted through the duck-typed ``manager.advise(region,
kind)`` call and may charge a per-touch ``access_overhead_ns`` tax
(latch/lookup work a transparent backend does not do); the workload
reads the tax off the manager and folds it into both throughput and
latency, which is what produces the paper-motivated crossover.

A transaction serially touches index then heap, so the modeled commit
rate composes the two streams harmonically: if the index part alone
would run at rate ``r_i`` and the heap part at ``r_h``, transactions
complete at ``1 / (1/r_i + 1/r_h)``.

The workload is *self-terminating*: once ``target_txns`` modeled
transactions have committed, ``finished()`` returns True and the engine
stops — the first workload in the repo to exercise that path (see
``Workload.measured_rate``'s early-finish fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.db.adapter import TpccAccessModel
from repro.db.engine import TpccEngine
from repro.db.loader import HEAP_ARENA, INDEX_ARENA, TpccLoader, TpccStorage
from repro.db.schema import DbScale
from repro.mem.access import AccessStream, Pattern
from repro.obs.events import TxnCommitted
from repro.sim.stats import log_bounds
from repro.sim.units import GB
from repro.workloads.base import Workload

#: histogram bounds for modeled txn latency: 1 us .. 100 ms
TXN_LATENCY_BOUNDS = log_bounds(1e-6, 0.1, per_decade=4)


@dataclass
class TpccBufferConfig:
    """Adapter parameters (sizes must be pre-scaled by the scenario)."""

    #: simulated footprints the functional arenas are stretched onto
    heap_bytes: int = 8 * GB
    index_bytes: int = 2 * GB
    #: functional database sizing (kept small; expansion does the rest)
    scale: DbScale = field(default_factory=lambda: DbScale(
        warehouses=2, rows_scale=200))
    threads: int = 16
    #: CPU work per transaction outside memory stalls (validation, logging)
    cpu_ns_per_tx: float = 14_000.0
    mlp: float = 2.0
    #: bytes touched per heap record access (rows run 8-655 B)
    row_bytes: int = 256
    #: functional transactions run at setup to compile the access model
    profile_txns: int = 400
    #: modeled committed transactions after which the run self-terminates
    #: (None = run for the configured duration)
    target_txns: Optional[float] = None
    #: live functional transactions per virtual second during the run
    #: (each emits a TxnCommitted event priced at current placement)
    live_txn_rate: float = 25.0
    max_live_txns: int = 4000
    #: cadence of the tpcc.txn_p99_s series (virtual seconds)
    latency_window: float = 2.0
    #: offered load for the M/M/1 queueing term of the latency model
    load: float = 0.7
    latency_samples: int = 20_000

    def __post_init__(self):
        if self.heap_bytes <= 0 or self.index_bytes <= 0:
            raise ValueError("footprints must be positive")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.live_txn_rate < 0:
            raise ValueError("live_txn_rate cannot be negative")
        if self.profile_txns <= 0:
            raise ValueError(
                f"profile_txns must be positive: {self.profile_txns}")
        if self.latency_samples <= 0:
            raise ValueError(
                f"latency_samples must be positive: {self.latency_samples}")


class TpccBufferWorkload(Workload):
    """TPC-C over tiered memory (the ``repro.db`` workload family)."""

    name = "tpcc"

    def __init__(self, config: TpccBufferConfig, warmup: float = 0.0):
        super().__init__(warmup=warmup)
        self.config = config
        self.storage: Optional[TpccStorage] = None
        self.engine: Optional[TpccEngine] = None
        self.model: Optional[TpccAccessModel] = None
        self.heap_region = None
        self.index_region = None
        self._rng: Optional[np.random.Generator] = None
        self._machine = None
        self._overhead_ns = 0.0
        self._weights: Dict[int, Optional[np.ndarray]] = {}
        self._write_weights: Dict[int, Optional[np.ndarray]] = {}
        self._streams: Tuple[AccessStream, ...] = ()
        self._tick_ops: Dict[str, float] = {}
        self._live_accum = 0.0
        self._live_done = 0
        self._next_p99_at = 0.0
        self._finished = False

    # -- setup ---------------------------------------------------------------
    def setup(self, manager, machine, rng: np.random.Generator) -> None:
        cfg = self.config
        self._rng = rng
        self._machine = machine
        # Functional pass: load the database and compile its access shape.
        self.storage = TpccStorage(cfg.scale)
        TpccLoader(self.storage, rng).load()
        self.engine = TpccEngine(self.storage, rng)
        self.model = TpccAccessModel(self.storage, self.engine,
                                     profile_txns=cfg.profile_txns)
        self.model.compile()

        page = machine.spec.page_size
        heap_size = max((cfg.heap_bytes + page - 1) // page, 1) * page
        index_size = max((cfg.index_bytes + page - 1) // page, 1) * page
        self.heap_region = manager.mmap(heap_size, name="tpcc_heap")
        self.index_region = manager.mmap(index_size, name="tpcc_index")
        # App-directed backends accept placement hints; transparent ones
        # simply lack the attribute (py-tpcc-style backend swap).
        advise = getattr(manager, "advise", None)
        if advise is not None:
            advise(self.index_region, "index")
            advise(self.heap_region, "heap")
        self._overhead_ns = float(getattr(manager, "access_overhead_ns", 0.0))
        manager.prefault(self.heap_region)
        manager.prefault(self.index_region)

        for arena_id, region in ((HEAP_ARENA, self.heap_region),
                                 (INDEX_ARENA, self.index_region)):
            self._weights[arena_id] = self.model.region_weights(
                arena_id, region)
            self._write_weights[arena_id] = self.model.region_weights(
                arena_id, region, writes_only=True)
        self._streams = self._build_streams()
        self._next_p99_at = self.measure_start

    def _build_streams(self) -> Tuple[AccessStream, ...]:
        """The heap and index streams; every input is fixed after setup."""
        cfg = self.config
        p = self.model.profile
        heap_touches = p["heap_reads_per_tx"] + p["heap_writes_per_tx"]
        index_touches = p["index_reads_per_tx"] + p["index_writes_per_tx"]
        # CPU splits by touch share: B-tree arithmetic is real work, and a
        # costless stream would run away with the shared NVM bandwidth.
        heap_cpu_frac = heap_touches / (heap_touches + index_touches)
        # Each stream carries the full thread count: it models "the time
        # the threads spend in this part of the transaction", and
        # on_progress composes the two parts serially.
        return (
            AccessStream(
                name="tpcc_heap",
                region=self.heap_region,
                threads=cfg.threads,
                op_size=cfg.row_bytes,
                reads_per_op=p["heap_reads_per_tx"],
                writes_per_op=p["heap_writes_per_tx"],
                pattern=Pattern.RANDOM,
                cpu_ns_per_op=(cfg.cpu_ns_per_tx * heap_cpu_frac
                               + self._overhead_ns * heap_touches),
                mlp=cfg.mlp,
                weights=self._weights[HEAP_ARENA],
                write_weights=self._write_weights[HEAP_ARENA],
                cache_classes=[(1.0, cfg.heap_bytes)],
            ),
            AccessStream(
                name="tpcc_index",
                region=self.index_region,
                threads=cfg.threads,
                op_size=64,
                reads_per_op=p["index_reads_per_tx"],
                writes_per_op=p["index_writes_per_tx"],
                pattern=Pattern.RANDOM,
                cpu_ns_per_op=(cfg.cpu_ns_per_tx * (1.0 - heap_cpu_frac)
                               + self._overhead_ns * index_touches),
                mlp=cfg.mlp,
                weights=self._weights[INDEX_ARENA],
                write_weights=self._write_weights[INDEX_ARENA],
                cache_classes=[(1.0, cfg.index_bytes)],
            ),
        )

    # -- per-tick mix --------------------------------------------------------
    def access_mix(self, now: float, dt: float) -> List[AccessStream]:
        # The streams are built once at setup, like GupsWorkload's: the
        # same objects every tick let the identity-keyed placement and
        # resolve memos hit in steady state.
        return list(self._streams)

    def on_progress(self, stream, result, now, dt) -> None:
        self._tick_ops[stream.name] = result.ops
        if len(self._tick_ops) < 2:
            return
        h = self._tick_ops.pop("tpcc_heap", 0.0)
        i = self._tick_ops.pop("tpcc_index", 0.0)
        self._tick_ops.clear()
        # Serial composition: index part then heap part per transaction.
        txns = (h * i / (h + i)) if h > 0 and i > 0 else 0.0
        self.total_ops += txns
        if now >= self.measure_start:
            self.measured_ops += txns
        cfg = self.config
        if cfg.target_txns is not None and self.total_ops >= cfg.target_txns:
            self._finished = True
        self._run_live_txns(now, dt)
        if now >= self._next_p99_at:
            self._next_p99_at = now + cfg.latency_window
            p99 = self.txn_latency_percentiles(percentiles=(99,))[99]
            self._machine.stats.series("tpcc.txn_p99_s").record(now, p99)

    def _run_live_txns(self, now: float, dt: float) -> None:
        """A paced trickle of real functional transactions during the run,
        each priced at the current placement and traced."""
        cfg = self.config
        self._live_accum += cfg.live_txn_rate * dt
        n = int(self._live_accum)
        if n <= 0 or self._live_done >= cfg.max_live_txns:
            return
        self._live_accum -= n
        hist = self._machine.stats.histogram("tpcc.txn_latency_s",
                                             bounds=TXN_LATENCY_BOUNDS)
        tracer = self._machine.tracer
        for _ in range(min(n, cfg.max_live_txns - self._live_done)):
            name, touches = self.engine.run_one()
            latency = self.model.price_txn(
                touches, self.heap_region, self.index_region,
                cpu_ns_per_tx=cfg.cpu_ns_per_tx,
                access_overhead_ns=self._overhead_ns, mlp=cfg.mlp)
            hist.observe(latency)
            self._live_done += 1
            if tracer is not None:
                tracer.emit(TxnCommitted(now, self.name, name, latency,
                                         len(touches)))

    def finished(self, now: float) -> bool:
        return self._finished

    # -- results -------------------------------------------------------------
    def throughput(self, now: float) -> float:
        """Committed transactions per second over the measured window."""
        return self.measured_rate(now)

    def txn_latency_percentiles(self, percentiles=(50, 90, 99)) -> Dict[float, float]:
        cfg = self.config
        return self.model.txn_latency_percentiles(
            self.heap_region, self.index_region, self._rng,
            cpu_ns_per_tx=cfg.cpu_ns_per_tx,
            access_overhead_ns=self._overhead_ns,
            mlp=cfg.mlp, load=cfg.load, n_samples=cfg.latency_samples,
            percentiles=percentiles)

    def result(self) -> dict:
        out = super().result()
        out["workload"] = self.name
        out["warehouses"] = self.config.scale.warehouses
        out["profile"] = dict(self.model.profile)
        out["committed_mix"] = dict(self.engine.committed)
        out["live_txns"] = self._live_done
        out["index_dram_fraction"] = self.index_region.dram_fraction(
            self._weights[INDEX_ARENA])
        out["heap_dram_fraction"] = self.heap_region.dram_fraction(
            self._weights[HEAP_ARENA])
        self.storage.check_invariants()
        return out
