"""Correctness tests for every ACC algorithm against the reference oracles,
across several graph families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank, KCore, WCC, SpMV, BeliefPropagation, ALGORITHMS
from repro.baselines import reference as ref
from repro.core.engine import SIMDXEngine
from repro.graph import generators as gen
from tests.conftest import assert_distances_equal
from tests import graphs, oracles

GRAPH_BUILDERS = {
    "chain": lambda: graphs.chain_graph(50, seed=1),
    "star": lambda: graphs.star_graph(100, seed=2),
    "grid": lambda: gen.grid_graph(10, 10, seed=3),
    "rmat": lambda: gen.rmat_graph(9, 8, seed=7),
    "clusters": lambda: graphs.two_level_graph(3, 12, 8, seed=9),
    "road": lambda: gen.road_network_graph(16, 16, seed=11),
}


@pytest.fixture(params=list(GRAPH_BUILDERS), scope="module")
def any_graph(request):
    return GRAPH_BUILDERS[request.param]()


def run(graph, algorithm, **params):
    return SIMDXEngine(graph).run(algorithm, **params)


class TestBFS:
    def test_matches_reference_on_all_graphs(self, any_graph):
        src = int(np.argmax(any_graph.out_degrees()))
        result = run(any_graph, BFS(source=src))
        assert not result.failed
        assert np.array_equal(result.values, ref.bfs_levels(any_graph, src))

    def test_levels_monotone_along_edges(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        levels = run(rmat_graph, BFS(source=src)).values
        for u, v, _ in graphs.edge_triples(rmat_graph):
            if levels[u] >= 0 and levels[v] >= 0:
                assert abs(levels[u] - levels[v]) <= 1

    def test_source_level_zero(self, grid_graph):
        levels = run(grid_graph, BFS(source=5)).values
        assert levels[5] == 0

    def test_chain_levels_are_positions(self):
        g = graphs.chain_graph(30, seed=1)
        levels = run(g, BFS(source=0)).values
        assert np.array_equal(levels, np.arange(30))

    def test_star_two_hops(self):
        g = graphs.star_graph(50, seed=1)
        levels = run(g, BFS(source=1)).values
        assert levels[1] == 0 and levels[0] == 1
        assert np.all(levels[2:] == 2)

    def test_iteration_count_equals_eccentricity_plus_one(self):
        g = graphs.chain_graph(20, seed=1)
        result = run(g, BFS(source=0))
        # 19 levels to fill, plus the final iteration that discovers nothing.
        assert result.iterations in (19, 20)


class TestSSSP:
    def test_matches_dijkstra_on_all_graphs(self, any_graph):
        src = int(np.argmax(any_graph.out_degrees()))
        result = run(any_graph, SSSP(source=src))
        assert_distances_equal(result.values, ref.sssp_distances(any_graph, src))

    def test_delta_stepping_matches_default(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        plain = run(rmat_graph, SSSP(source=src)).values
        bucketed = run(rmat_graph, SSSP(source=src, delta=16.0)).values
        assert_distances_equal(plain, bucketed)

    def test_delta_stepping_on_weighted_grid(self, grid_graph):
        src = 0
        result = run(grid_graph, SSSP(source=src, delta=8.0))
        assert_distances_equal(result.values, ref.sssp_distances(grid_graph, src))

    def test_distances_bounded_by_hops_times_max_weight(self, grid_graph):
        src = 0
        dist = run(grid_graph, SSSP(source=src)).values
        hops = ref.bfs_levels(grid_graph, src)
        max_w = float(grid_graph.out_csr.weights.max())
        reachable = hops >= 0
        assert np.all(dist[reachable] <= hops[reachable] * max_w + 1e-9)

    def test_triangle_inequality_along_edges(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        dist = run(rmat_graph, SSSP(source=src)).values
        for u, v, w in graphs.edge_triples(rmat_graph):
            if np.isfinite(dist[u]):
                assert dist[v] <= dist[u] + w + 1e-6

    def test_delta_stepping_from_a_source_without_out_edges_stops(self):
        """The frontier hook fires for a frontier with no out-edges too, so
        the source's pending mark clears and the run converges at once
        (it used to re-seed the source until ``max_iterations``)."""
        graph = gen.rmat_graph(9, 8, seed=7)
        assert graph.out_degrees()[9] == 0
        result = run(graph, SSSP(source=9, delta=2.0))
        assert result.iterations <= 2
        assert not result.extra["stopped_at_cap"]
        assert_distances_equal(result.values, ref.sssp_distances(graph, 9))

    def test_sssp_revisits_vertices_unlike_bfs(self, tiny_graph):
        # Figure 1: SSSP updates vertex b in iterations 1 and 3.
        result = run(tiny_graph, SSSP(source=0))
        assert result.values[1] == pytest.approx(4.0)   # a->d->e->b = 1+2+1
        assert result.values[2] == pytest.approx(5.0)   # ...->c
        assert result.iterations >= 3


class TestPageRank:
    def test_matches_power_iteration(self, any_graph):
        result = run(any_graph, PageRank(tolerance=1e-7))
        expected = ref.pagerank_scores(any_graph)
        assert np.abs(result.values - expected).max() < 1e-4

    def test_ranks_sum_to_one(self, rmat_graph):
        ranks = run(rmat_graph, PageRank()).values
        assert ranks.sum() == pytest.approx(1.0)
        assert np.all(ranks >= 0)

    def test_hub_ranks_highest_in_star(self):
        g = graphs.star_graph(100, seed=1)
        ranks = run(g, PageRank(tolerance=1e-8)).values
        assert np.argmax(ranks) == 0

    def test_tighter_tolerance_more_iterations(self, rmat_graph):
        loose = run(rmat_graph, PageRank(tolerance=1e-2))
        tight = run(rmat_graph, PageRank(tolerance=1e-6))
        assert tight.iterations > loose.iterations

    def test_damping_changes_result(self, rmat_graph):
        a = run(rmat_graph, PageRank(damping=0.5, tolerance=1e-7)).values
        b = run(rmat_graph, PageRank(damping=0.95, tolerance=1e-7)).values
        assert not np.allclose(a, b)


class TestKCore:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_membership_matches_reference(self, rmat_graph, k):
        algo = KCore(k=k)
        result = run(rmat_graph, algo)
        assert np.array_equal(
            algo.core_membership(result.values), oracles.kcore_membership(rmat_graph, k)
        )

    def test_clustered_graph_core_by_construction(self):
        # Each cluster is a K12, so every vertex survives k=11 peeling.
        g = graphs.two_level_graph(3, 12, 0, seed=5)
        algo = KCore(k=11)
        result = run(g, algo)
        assert algo.core_membership(result.values).all()

    def test_chain_has_no_2core(self):
        g = graphs.chain_graph(30, seed=1)
        algo = KCore(k=2)
        result = run(g, algo)
        assert not algo.core_membership(result.values).any()

    def test_survivors_have_k_surviving_neighbors(self, any_graph):
        k = 4
        algo = KCore(k=k)
        result = run(any_graph, algo)
        members = algo.core_membership(result.values)
        for v in np.nonzero(members)[0]:
            nbrs = any_graph.out_neighbors(int(v))
            assert int(np.count_nonzero(members[nbrs])) >= k

    def test_k_parameter_via_init(self, rmat_graph):
        algo = KCore(k=4)
        result = SIMDXEngine(rmat_graph).run(algo, k=8)
        assert algo.k == 8
        assert np.array_equal(
            algo.core_membership(result.values), oracles.kcore_membership(rmat_graph, 8)
        )


class TestWCC:
    def test_matches_reference_on_clusters(self):
        g = graphs.two_level_graph(4, 8, 0, seed=3)
        result = run(g, WCC())
        assert np.array_equal(result.values, oracles.wcc_labels(g))
        assert np.unique(result.values).size == 4

    def test_connected_graph_single_label(self, grid_graph):
        labels = run(grid_graph, WCC()).values
        assert np.unique(labels).size == 1
        assert labels[0] == 0

    def test_labels_are_component_minima(self, clustered_graph):
        labels = run(clustered_graph, WCC()).values
        expected = oracles.wcc_labels(clustered_graph)
        assert np.array_equal(labels, expected)


class TestSpMVAndBP:
    def test_spmv_matches_reference(self, rmat_graph):
        x = np.random.default_rng(8).random(rmat_graph.num_vertices)
        result = run(rmat_graph, SpMV(x=x))
        assert np.allclose(result.values, oracles.spmv_product(rmat_graph, x))
        assert result.iterations == 1

    def test_spmv_zero_vector(self, grid_graph):
        x = np.zeros(grid_graph.num_vertices)
        result = run(grid_graph, SpMV(x=x))
        assert np.allclose(result.values, 0.0)

    def test_spmv_rejects_bad_vector(self, grid_graph):
        with pytest.raises(ValueError):
            SpMV(x=np.ones(3)).init(grid_graph)

    def test_bp_matches_reference(self, rmat_graph):
        algo = BeliefPropagation(num_iterations=8, damping=0.5)
        result = run(rmat_graph, algo)
        expected = oracles.bp_beliefs(
            rmat_graph, algo._prior, damping=0.5, num_iterations=8
        )
        assert np.allclose(result.values, expected)
        assert result.iterations == 8

    def test_bp_custom_priors(self, grid_graph):
        priors = np.ones(grid_graph.num_vertices)
        algo = BeliefPropagation(num_iterations=5)
        result = SIMDXEngine(grid_graph).run(algo, priors=priors)
        expected = oracles.bp_beliefs(grid_graph, priors, damping=0.5, num_iterations=5)
        assert np.allclose(result.values, expected)

    def test_bp_beliefs_normalized(self, rmat_graph):
        result = run(rmat_graph, BeliefPropagation(num_iterations=5))
        assert result.values.sum() == pytest.approx(1.0)

    def test_bp_parameter_validation(self):
        with pytest.raises(ValueError):
            BeliefPropagation(damping=1.5)
        with pytest.raises(ValueError):
            BeliefPropagation(num_iterations=0)

    def test_bp_rejects_bad_priors(self, grid_graph):
        algo = BeliefPropagation()
        with pytest.raises(ValueError):
            algo.init(grid_graph, priors=np.ones(3))
        with pytest.raises(ValueError):
            algo.init(grid_graph, priors=-np.ones(grid_graph.num_vertices))


class TestRegistry:
    def test_registry_names_match_instances(self):
        for name, cls in ALGORITHMS.items():
            assert cls().name == name

    def test_registry_contains_paper_algorithms(self):
        assert {"bfs", "sssp", "pagerank", "kcore", "bp", "spmv", "wcc"} == set(ALGORITHMS)
