"""Tests for the synthetic generators, dataset registry and graph properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import WCC
from repro.core.engine import SIMDXEngine
from repro.graph import generators as gen
from repro.graph.datasets import (
    DATASETS,
    DATASET_ORDER,
    HIGH_DIAMETER_GRAPHS,
    LARGE_GRAPHS,
    load_dataset,
)
from repro.graph import properties as props
from tests import graphs


class TestFixtureGenerators:
    def test_chain_structure(self):
        g = graphs.chain_graph(10)
        assert g.num_vertices == 10
        assert g.num_edges == 18
        assert g.out_degrees()[0] == 1
        assert g.out_degrees()[5] == 2

    def test_star_structure(self):
        g = graphs.star_graph(20)
        assert g.num_vertices == 21
        assert g.out_degrees()[0] == 20
        assert (g.out_degrees()[1:] == 1).all()

    def test_complete_graph_degrees(self):
        g = graphs.complete_graph(8)
        assert g.num_edges == 8 * 7
        assert (g.out_degrees() == 7).all()

    def test_grid_degrees_bounded_by_four(self):
        g = gen.grid_graph(6, 7)
        assert g.num_vertices == 42
        degs = g.out_degrees()
        assert degs.max() == 4
        assert degs.min() == 2

    def test_grid_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            gen.grid_graph(0, 5)


class TestRandomGenerators:
    def test_rmat_size_and_determinism(self):
        g1 = gen.rmat_graph(8, 8, seed=5)
        g2 = gen.rmat_graph(8, 8, seed=5)
        assert g1.num_vertices == 256
        assert g1.num_edges == g2.num_edges
        assert np.array_equal(g1.out_csr.targets, g2.out_csr.targets)

    def test_rmat_different_seeds_differ(self):
        g1 = gen.rmat_graph(8, 8, seed=5)
        g2 = gen.rmat_graph(8, 8, seed=6)
        assert g1.num_edges != g2.num_edges or not np.array_equal(
            g1.out_csr.targets, g2.out_csr.targets
        )

    def test_rmat_is_skewed(self):
        g = gen.rmat_graph(11, 16, seed=9)
        stats = props.degree_stats(g)
        assert stats.max / stats.mean > 10  # heavy tail

    def test_rmat_parameter_validation(self):
        with pytest.raises(ValueError):
            gen.rmat_graph(0)
        with pytest.raises(ValueError):
            gen.rmat_graph(4, 0)
        with pytest.raises(ValueError):
            gen.rmat_graph(4, 4, a=0.6, b=0.3, c=0.3)

    def test_kronecker_is_rmat_special_case(self):
        g = gen.kronecker_graph(8, 8, seed=2)
        assert g.num_vertices == 256
        assert g.num_edges > 0

    def test_power_law_mean_degree_near_target(self):
        g = gen.power_law_graph(4000, 20.0, seed=3)
        assert 10 <= g.average_degree() <= 40

    def test_power_law_skew_exceeds_uniform(self):
        pl = gen.power_law_graph(3000, 16.0, seed=3)
        uni = gen.random_uniform_graph(3000, 24000, seed=3)
        assert props.degree_stats(pl).gini > props.degree_stats(uni).gini

    def test_random_uniform_validation(self):
        with pytest.raises(ValueError):
            gen.random_uniform_graph(1, 10)

    def test_small_world_requires_even_k(self):
        with pytest.raises(ValueError):
            gen.small_world_graph(100, k=3)

    def test_small_world_degree_concentrated(self):
        g = gen.small_world_graph(500, k=4, rewire_probability=0.01, seed=1)
        stats = props.degree_stats(g)
        assert stats.mean == pytest.approx(4.0, rel=0.2)

    def test_two_level_graph_structure(self):
        g = graphs.two_level_graph(3, 10, 5, seed=4)
        assert g.num_vertices == 30
        # Every vertex has at least the in-cluster degree.
        assert g.out_degrees().min() >= 9

    def test_web_graph_combines_backbone_and_overlay(self):
        g = gen.web_graph(1000, average_degree=12, seed=6)
        assert g.num_vertices == 1000
        assert g.average_degree() > 4


class TestRoadGenerator:
    def test_road_graph_low_degree(self):
        g = gen.road_network_graph(30, 30, seed=5)
        assert g.max_degree() <= 8

    def test_road_graph_high_diameter(self):
        g = gen.road_network_graph(30, 30, seed=5)
        diameter = props.diameter_estimate(g, num_sweeps=3)
        assert diameter >= 30  # at least the grid dimension

    def test_road_graph_much_higher_diameter_than_rmat(self):
        road = gen.road_network_graph(30, 30, seed=5)
        rmat = gen.rmat_graph(10, 16, seed=5)
        assert props.diameter_estimate(road) > 3 * props.diameter_estimate(rmat)


class TestDatasets:
    def test_registry_lists_the_papers_eleven_graphs(self):
        assert len(DATASET_ORDER) == 11
        assert set(DATASET_ORDER) == set(DATASETS)

    def test_every_dataset_builds_and_validates(self):
        for abbrev in DATASET_ORDER:
            graph = load_dataset(abbrev, scale=0.25)
            graphs.assert_valid_csr(graph)
            assert graph.num_vertices > 0
            assert graph.num_edges > 0
            assert graph.name == abbrev

    def test_meta_carries_paper_sizes(self):
        g = load_dataset("FB", scale=0.25)
        assert g.meta["paper_vertices"] == DATASETS["FB"].paper_vertices
        assert g.meta["paper_edges"] == DATASETS["FB"].paper_edges
        assert g.modeled_num_edges == DATASETS["FB"].paper_edges

    def test_directedness_matches_spec(self):
        assert load_dataset("PK", scale=0.25).directed
        assert not load_dataset("OR", scale=0.25).directed

    def test_road_analogues_have_high_diameter_class(self):
        for abbrev in HIGH_DIAMETER_GRAPHS:
            assert DATASETS[abbrev].diameter_class == "high"
            g = load_dataset(abbrev, scale=0.25)
            assert props.diameter_estimate(g) > 20

    def test_social_analogues_are_skewed(self):
        for abbrev in ("FB", "TW", "LJ"):
            g = load_dataset(abbrev, scale=0.25)
            stats = props.degree_stats(g)
            assert stats.max / stats.mean > 10

    def test_large_graph_list_is_subset(self):
        assert set(LARGE_GRAPHS) <= set(DATASET_ORDER)

    def test_cache_returns_same_object(self):
        a = load_dataset("RC", scale=0.25)
        b = load_dataset("RC", scale=0.25)
        assert a is b
        c = load_dataset("RC", scale=0.25, cache=False)
        assert c is not a

    def test_scale_changes_size(self):
        small = load_dataset("LJ", scale=0.25, cache=False)
        large = load_dataset("LJ", scale=0.5, cache=False)
        assert large.num_vertices > small.num_vertices

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            DATASETS["FB"].build(0.0)


class TestProperties:
    def test_degree_stats_on_star(self, star_graph):
        stats = props.degree_stats(star_graph)
        assert stats.max == 200
        assert stats.min == 1
        assert stats.gini > 0.4

    def test_degree_stats_on_regular_graph(self):
        g = graphs.complete_graph(10)
        stats = props.degree_stats(g)
        assert stats.gini == pytest.approx(0.0, abs=1e-9)
        assert stats.max == pytest.approx(stats.mean)

    def test_degree_stats_empty_graph(self):
        stats = props.degree_stats(graphs.empty_graph(3))
        assert stats.max == 0 and stats.mean == 0.0

    def test_bfs_levels_chain(self, chain_graph):
        levels = props.bfs_levels(chain_graph, 0)
        assert levels[0] == 0
        assert levels[-1] == chain_graph.num_vertices - 1

    def test_bfs_levels_unreachable(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1)], weights=[1])
        levels = props.bfs_levels(g, 0)
        assert levels[2] == -1 and levels[3] == -1

    def test_bfs_levels_source_validation(self, chain_graph):
        with pytest.raises(ValueError):
            props.bfs_levels(chain_graph, 10_000)

    def test_diameter_estimate_chain(self, chain_graph):
        assert props.diameter_estimate(chain_graph, num_sweeps=3) == 63

    def test_eccentricity_le_diameter(self, grid_graph):
        ecc = int(props.bfs_levels(grid_graph, 0).max())
        diam = props.diameter_estimate(grid_graph, num_sweeps=4)
        assert 0 < ecc <= diam

    def test_connected_components_clusters(self):
        g = graphs.two_level_graph(3, 8, 0, seed=1)
        labels = SIMDXEngine(g).run(WCC()).values
        assert np.unique(labels).size == 3

    def test_largest_component_fraction_connected(self, grid_graph):
        labels = SIMDXEngine(grid_graph).run(WCC()).values
        assert np.unique(labels).size == 1

    def test_summarize_keys(self, rmat_graph):
        summary = props.summarize(rmat_graph)
        for key in ("vertices", "edges", "avg_degree", "max_degree",
                    "degree_gini", "diameter_lb", "csr_mb"):
            assert key in summary
