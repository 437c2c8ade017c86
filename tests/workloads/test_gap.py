"""Tests for GAP: Kronecker generation, CSR, Brandes BC, and the adapter."""

import numpy as np
import pytest

from repro.core.hemem import HeMemManager
from repro.mem.machine import Machine, MachineSpec
from repro.sim.engine import Engine, EngineConfig
from repro.workloads.gap import (
    BcConfig,
    BcWorkload,
    CsrGraph,
    betweenness_centrality,
    kronecker_edges,
)
from repro.workloads.gap.bc import bc_from_source


class TestKronecker:
    def test_edge_count(self):
        edges = kronecker_edges(8, edge_factor=16, rng=np.random.default_rng(1))
        assert edges.shape == (256 * 16, 2)

    def test_endpoints_in_range(self):
        edges = kronecker_edges(8, rng=np.random.default_rng(1))
        assert edges.min() >= 0
        assert edges.max() < 256

    def test_power_law_degrees(self):
        """Kronecker graphs are skewed: the top 10% of vertices own far
        more than 10% of the edges."""
        edges = kronecker_edges(12, rng=np.random.default_rng(2))
        graph = CsrGraph(1 << 12, edges)
        degrees = np.sort(graph.out_degrees())[::-1]
        top_decile = degrees[: len(degrees) // 10].sum()
        assert top_decile > 0.3 * degrees.sum()

    def test_deterministic_given_rng(self):
        a = kronecker_edges(8, rng=np.random.default_rng(3))
        b = kronecker_edges(8, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            kronecker_edges(0)
        with pytest.raises(ValueError):
            kronecker_edges(8, edge_factor=0)


class TestCsrGraph:
    def test_neighbors(self):
        graph = CsrGraph(4, np.array([[0, 1], [0, 2], [2, 3]]))
        assert list(graph.neighbors(0)) == [1, 2]
        assert list(graph.neighbors(2)) == [3]
        assert list(graph.neighbors(3)) == []

    def test_self_loops_dropped(self):
        graph = CsrGraph(3, np.array([[1, 1], [0, 1]]))
        assert graph.n_edges == 1

    def test_duplicates_dropped(self):
        graph = CsrGraph(3, np.array([[0, 1], [0, 1], [0, 2]]))
        assert graph.n_edges == 2

    def test_degrees(self):
        graph = CsrGraph(3, np.array([[0, 1], [0, 2], [1, 2]]))
        assert list(graph.out_degrees()) == [2, 1, 0]

    def test_csr_bytes(self):
        graph = CsrGraph(3, np.array([[0, 1]]))
        assert graph.csr_bytes == 8 * (3 + 1 + 1)

    def test_empty_graph(self):
        graph = CsrGraph(4, np.zeros((0, 2)))
        assert graph.n_edges == 0
        assert list(graph.neighbors(0)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            CsrGraph(0, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            CsrGraph(2, np.array([[0, 5]]))


class TestBrandesBc:
    def path_graph(self):
        # 0 -> 1 -> 2 -> 3 (and reverse), so 1 and 2 are between everyone.
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 2], [2, 1], [1, 0]])
        return CsrGraph(4, edges)

    def test_middle_vertices_most_central(self):
        graph = self.path_graph()
        scores = np.zeros(4)
        for src in range(4):
            bc_from_source(graph, src, scores)
        assert scores[1] > scores[0]
        assert scores[2] > scores[3]

    def test_known_path_values(self):
        """On a bidirectional path of 4, full Brandes gives ends 0 and
        middles 4 (two dependent pairs each way)."""
        graph = self.path_graph()
        scores = np.zeros(4)
        for src in range(4):
            bc_from_source(graph, src, scores)
        assert scores[0] == pytest.approx(0.0)
        assert scores[1] == pytest.approx(4.0)
        assert scores[2] == pytest.approx(4.0)

    def test_work_accounting(self):
        graph = self.path_graph()
        result = bc_from_source(graph, 0)
        assert result.vertices_visited == 4
        assert result.edges_traversed > 0

    def test_disconnected_source(self):
        graph = CsrGraph(5, np.array([[0, 1], [1, 0]]))
        result = bc_from_source(graph, 4)
        assert result.vertices_visited == 1

    def test_sampled_bc_accumulates(self):
        edges = kronecker_edges(8, rng=np.random.default_rng(4))
        graph = CsrGraph(256, edges)
        result = betweenness_centrality(graph, n_sources=3,
                                        rng=np.random.default_rng(5))
        assert result.scores.max() > 0

    def test_source_validation(self):
        with pytest.raises(ValueError):
            bc_from_source(self.path_graph(), 99)
        with pytest.raises(ValueError):
            betweenness_centrality(self.path_graph(), n_sources=0)


class TestBcWorkload:
    def make_engine(self, lv=1 << 21, iterations=2, seed=13):
        config = BcConfig(logical_vertices=lv, actual_scale=10,
                          iterations=iterations)
        machine = Machine(MachineSpec().scaled(64), seed=seed)
        workload = BcWorkload(config)
        engine = Engine(machine, HeMemManager(), workload,
                        EngineConfig(seed=seed))
        return engine, workload

    def test_two_regions_allocated(self):
        engine, workload = self.make_engine()
        assert workload.graph_region is not None
        assert workload.state_region is not None
        assert workload.graph_region.size > workload.state_region.size

    def test_state_stream_write_heavy(self):
        engine, workload = self.make_engine()
        graph, state = workload.access_mix(0.0, 0.01)
        assert graph.writes_per_op == 0.0
        assert state.writes_per_op > 0

    def test_page_weights_near_uniform_for_big_pages(self):
        """Thousands of logical vertices per page smooth hub skew away."""
        engine, workload = self.make_engine(lv=1 << 24)
        weights = workload._graph_weights
        assert weights.max() < 5.0 * weights.mean()

    def test_runs_to_completion(self):
        engine, workload = self.make_engine(iterations=3)
        engine.run(200.0)
        assert workload.iterations_done == 3
        assert len(workload.iteration_times) == 3
        assert len(workload.iteration_nvm_writes) == 3
        assert workload.finished(engine.clock.now)

    def test_iteration_times_positive(self):
        engine, workload = self.make_engine(iterations=2)
        engine.run(200.0)
        assert all(t > 0 for t in workload.iteration_times)

    def test_result_payload(self):
        engine, workload = self.make_engine(iterations=2)
        result = engine.run(200.0)
        assert result["iterations_done"] == 2
        assert len(result["iteration_times"]) == 2

    def test_work_multiplier_lengthens_iterations(self):
        e1, w1 = self.make_engine(iterations=1)
        e1.run(200.0)
        config = BcConfig(logical_vertices=1 << 21, actual_scale=10,
                          iterations=1, work_multiplier=3.0)
        machine = Machine(MachineSpec().scaled(64), seed=13)
        w2 = BcWorkload(config)
        e2 = Engine(machine, HeMemManager(), w2, EngineConfig(seed=13))
        e2.run(600.0)
        assert w2.iteration_times[0] > 2.0 * w1.iteration_times[0]

    def test_isolated_source_is_redrawn(self):
        """At seed 1 the first vertex drawn (fig14-16's graph) has no
        out-edges; setup draws again, as GAP's SourcePicker does, so an
        iteration is sized by real traversal work."""
        from repro.sim.rng import make_rng

        config = BcConfig(logical_vertices=1 << 21, actual_scale=13)
        rng = make_rng(1, "workload")
        graph = CsrGraph(1 << 13, kronecker_edges(13, config.edge_factor, rng))
        first = int(rng.integers(0, graph.n_vertices))
        assert graph.out_degrees()[first] == 0
        machine = Machine(MachineSpec().scaled(64), seed=1)
        workload = BcWorkload(config)
        Engine(machine, HeMemManager(), workload, EngineConfig(seed=1))
        assert workload.source != first
        assert workload.graph.out_degrees()[workload.source] > 0
        assert workload._ops_per_iteration > 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BcConfig(logical_vertices=0)
        with pytest.raises(ValueError):
            BcConfig(iterations=0)
