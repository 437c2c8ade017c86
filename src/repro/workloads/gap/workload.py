"""GAP BC access-model adapter (Figs 14-16).

A real (scaled-down) Kronecker graph is generated at setup; its measured
degree distribution becomes the page-weight vector for the CSR region —
power-law graphs have locality because traversal frequency grows with
degree (Beamer et al., IISWC'15).  The BC state arrays (sigma, depth,
delta, scores) form a second, *write-intensive* region; their traffic is
what makes BC so expensive on NVM (256 B media granularity + low write
bandwidth) and what HeMem's store threshold migrates first.

Footprint calibration: GAP keeps the graph in both directions plus five
64-bit per-vertex arrays; with edge factor 16 that is ~420 B/vertex, which
puts 2^28 vertices (~105 GB) inside the paper's 192 GB DRAM and 2^29
(~210 GB) beyond it, matching "fits"/"exceeds DRAM" in §5.2.3.

Progress: one adapter op = one edge traversal.  The logical edge count per
source iteration is the functional run's measured traversals scaled by the
logical/actual vertex ratio; iteration boundaries record wall time and NVM
write volume (Fig 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mem.access import AccessStream, Pattern
from repro.workloads.base import Workload
from repro.workloads.gap.bc import bc_from_source
from repro.workloads.gap.graph import CsrGraph
from repro.workloads.gap.kronecker import kronecker_edges

#: bytes per logical vertex: CSR in+out (2 * 8 * (1 + 16)) + 5 state arrays
BYTES_PER_VERTEX = 420
STATE_BYTES_PER_VERTEX = 5 * 8


@dataclass
class BcConfig:
    """Adapter parameters.

    ``logical_vertices`` sets the modelled footprint (pre-scaled by the
    scenario); ``actual_scale`` sets the generated graph used for degree
    structure and work measurement (2**actual_scale vertices).
    """

    logical_vertices: int = 1 << 24
    actual_scale: int = 14
    edge_factor: int = 16
    iterations: int = 15
    threads: int = 16
    cpu_ns_per_edge: float = 15.0
    mlp: float = 2.0
    #: multiplies the per-iteration edge work.  On a capacity-scaled
    #: machine the vertex count shrinks by `scale` and with it the per-
    #: iteration work — but PEBS detection runs in unscaled real time, so
    #: without compensation iterations end before the hot set is even
    #: identified.  Scenarios pass ~scale/8 to keep iteration duration
    #: long relative to detection, as on the paper's testbed.
    work_multiplier: float = 1.0

    def __post_init__(self):
        if self.logical_vertices <= 0:
            raise ValueError("need at least one vertex")
        if self.iterations <= 0:
            raise ValueError("need at least one iteration")

    @property
    def graph_bytes(self) -> int:
        return self.logical_vertices * (BYTES_PER_VERTEX - STATE_BYTES_PER_VERTEX)

    @property
    def state_bytes(self) -> int:
        return self.logical_vertices * STATE_BYTES_PER_VERTEX


class BcWorkload(Workload):
    """Betweenness centrality as an engine workload (fixed total work)."""

    name = "gap-bc"

    def __init__(self, config: BcConfig, warmup: float = 0.0):
        super().__init__(warmup=warmup)
        self.config = config
        self.graph: Optional[CsrGraph] = None
        self.graph_region = None
        self.state_region = None
        self._graph_weights: Optional[np.ndarray] = None
        self._state_weights: Optional[np.ndarray] = None
        #: the vertex whose traversal sized an iteration (set in setup)
        self.source: Optional[int] = None
        self._ops_per_iteration = 0.0
        self._ops_into_iteration = 0.0
        self.iterations_done = 0
        self.iteration_times: List[float] = []
        self.iteration_nvm_writes: List[float] = []
        self._iter_start = 0.0
        self._nvm_writes_at_iter_start = 0.0
        self._machine = None

    # -- setup ----------------------------------------------------------------
    def setup(self, manager, machine, rng: np.random.Generator) -> None:
        cfg = self.config
        self._machine = machine
        edges = kronecker_edges(cfg.actual_scale, cfg.edge_factor, rng)
        self.graph = CsrGraph(1 << cfg.actual_scale, edges)

        # Measure traversal work for one source on the functional graph.
        # Like GAP's SourcePicker, redraw a source with no out-edges: its
        # traversal would measure no work at all.
        n_vertices = self.graph.n_vertices
        out_degrees = self.graph.out_degrees()
        source = int(rng.integers(0, n_vertices))
        while out_degrees[source] == 0 and out_degrees.any():
            source = int(rng.integers(0, n_vertices))
        self.source = source
        sample = bc_from_source(self.graph, source)
        ratio = cfg.logical_vertices / self.graph.n_vertices
        self._ops_per_iteration = max(
            sample.edges_traversed * ratio * cfg.work_multiplier, 1.0
        )

        self.graph_region = manager.mmap(cfg.graph_bytes, name="bc_graph")
        self.state_region = manager.mmap(cfg.state_bytes, name="bc_state")
        manager.prefault(self.graph_region)
        manager.prefault(self.state_region)
        self._build_weights()

    def _build_weights(self, rng: Optional[np.random.Generator] = None) -> None:
        """Degree-derived page weights for both regions.

        A page's access rate is the summed traversal frequency (~degree) of
        the vertices it holds.  One 2 MB page holds thousands of vertices'
        CSR data, so per-page rates are the degree distribution aggregated
        ``vertices_per_page`` at a time — by the CLT their relative spread
        shrinks as 1/sqrt(k).  We draw page weights from a gamma
        distribution whose shape reproduces exactly that aggregate spread,
        using the *measured* coefficient of variation of the generated
        graph's degrees.  (Mapping the few thousand functional vertices
        directly onto pages would give every page a single hub's skew —
        locality the real layout does not have.)
        """
        rng = rng or np.random.default_rng(11)
        degrees = self.graph.out_degrees().astype(np.float64) + 1.0
        mean = float(degrees.mean())
        cv2 = float(degrees.var()) / (mean * mean) if mean > 0 else 1.0
        for region, attr in ((self.graph_region, "_graph_weights"),
                             (self.state_region, "_state_weights")):
            v_per_page = max(self.config.logical_vertices / region.n_pages, 1.0)
            shape = max(v_per_page / max(cv2, 1e-9), 1e-3)
            weights = rng.gamma(shape, scale=1.0, size=region.n_pages)
            weights = np.maximum(weights, 1e-12)
            setattr(self, attr, weights / weights.sum())

    # -- per-tick mix -------------------------------------------------------------
    def access_mix(self, now: float, dt: float) -> List[AccessStream]:
        if self.finished(now):
            return []
        cfg = self.config
        hot_frac = self._top_weight_fraction()
        graph_classes = [(hot_frac, int(self.config.graph_bytes * 0.1)),
                         (1.0 - hot_frac, self.config.graph_bytes)]
        return [
            AccessStream(
                name="bc_graph",
                region=self.graph_region,
                threads=cfg.threads * 0.6,
                op_size=8,
                reads_per_op=1.0 * 0.6,
                writes_per_op=0.0,
                pattern=Pattern.RANDOM,
                cpu_ns_per_op=cfg.cpu_ns_per_edge * 0.6,
                mlp=cfg.mlp,
                weights=self._graph_weights,
                cache_classes=graph_classes,
            ),
            AccessStream(
                name="bc_state",
                region=self.state_region,
                threads=cfg.threads * 0.4,
                op_size=8,
                reads_per_op=1.5 * 0.4,
                writes_per_op=0.8 * 0.4,
                pattern=Pattern.RANDOM,
                cpu_ns_per_op=cfg.cpu_ns_per_edge * 0.4,
                mlp=cfg.mlp,
                weights=self._state_weights,
                write_weights=self._state_weights,
                cache_classes=[(hot_frac, int(self.config.state_bytes * 0.1)),
                               (1.0 - hot_frac, self.config.state_bytes)],
            ),
        ]

    def _top_weight_fraction(self) -> float:
        """Access share of the top 10% of graph pages (locality summary)."""
        if self._graph_weights is None:
            return 0.5
        top = max(len(self._graph_weights) // 10, 1)
        return float(np.sort(self._graph_weights)[-top:].sum())

    # -- progress -------------------------------------------------------------
    def on_progress(self, stream, result, now, dt) -> None:
        if stream.name != "bc_graph":
            return
        # The graph stream's thread share and per-op costs are both scaled
        # by the same fraction, so its op rate equals the edge-traversal
        # rate (the state stream advances in lockstep and is not counted).
        ops = result.ops
        self.total_ops += ops
        if now >= self.measure_start:
            self.measured_ops += ops
        self._ops_into_iteration += ops
        while (
            self._ops_into_iteration >= self._ops_per_iteration
            and self.iterations_done < self.config.iterations
        ):
            self._ops_into_iteration -= self._ops_per_iteration
            self.iterations_done += 1
            self.iteration_times.append(now + dt - self._iter_start)
            self._iter_start = now + dt
            writes = self._machine.nvm.bytes_written
            self.iteration_nvm_writes.append(writes - self._nvm_writes_at_iter_start)
            self._nvm_writes_at_iter_start = writes

    def finished(self, now: float) -> bool:
        return self.iterations_done >= self.config.iterations

    # -- results --------------------------------------------------------------
    def result(self) -> dict:
        out = super().result()
        out["workload"] = self.name
        out["iterations_done"] = self.iterations_done
        out["iteration_times"] = list(self.iteration_times)
        out["iteration_nvm_writes"] = list(self.iteration_nvm_writes)
        return out
