"""Tests for the CSR graph structure and its memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph, GraphFormatError, transpose_csr
from tests import graphs


class TestConstruction:
    def test_from_edges_basic_counts(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1, 2, 3])
        assert g.num_vertices == 4
        assert g.num_edges == 6  # undirected: each edge stored both ways

    def test_directed_keeps_one_direction(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)], weights=[1, 1], directed=True)
        assert g.num_edges == 2
        assert g.out_degrees()[0] == 1
        assert g.in_degrees()[0] == 0
        assert g.in_degrees()[1] == 1

    def test_undirected_in_equals_out(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)], weights=[1, 1])
        assert g.in_csr is g.out_csr

    def test_directed_in_csr_is_lazy_and_cached(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)], weights=[1, 1], directed=True)
        assert not g.in_csr_built
        first = g.in_csr  # forces the transpose build
        assert g.in_csr_built
        assert g.in_csr is first  # cached, not rebuilt

    def test_lazy_transpose_matches_explicit_reverse_build(self, directed_graph):
        from repro.graph.csr import transpose_csr

        rev = transpose_csr(directed_graph.out_csr)
        lazy = directed_graph.in_csr
        assert np.array_equal(lazy.offsets, rev.offsets)
        assert np.array_equal(lazy.targets, rev.targets)
        assert np.array_equal(lazy.weights, rev.weights)
        # Transposing twice round-trips to the out-CSR exactly.
        back = transpose_csr(lazy)
        assert np.array_equal(back.offsets, directed_graph.out_csr.offsets)
        assert np.array_equal(back.targets, directed_graph.out_csr.targets)
        assert np.array_equal(back.weights, directed_graph.out_csr.weights)

    def test_csr_bytes_does_not_force_transpose(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)], weights=[1, 1], directed=True)
        expected = 2 * ((4 + 1) * 8 + 2 * 4 + 2 * 4)
        assert g.csr_bytes() == expected
        assert not g.in_csr_built

    def test_self_loops_removed_by_default(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)], weights=[1, 1])
        assert g.num_edges == 2
        assert 0 not in g.out_neighbors(0)

    def test_self_loops_kept_when_allowed(self):
        g = CSRGraph.from_edges(3, [(0, 0)], weights=[1], allow_self_loops=True,
                                directed=True)
        assert g.num_edges == 1

    def test_duplicate_edges_deduplicated_keeping_min_weight(self):
        g = CSRGraph.from_edges(
            3, [(0, 1), (0, 1)], weights=[5.0, 2.0], directed=True
        )
        assert g.num_edges == 1
        assert g.out_weights(0)[0] == pytest.approx(2.0)

    def test_duplicates_kept_when_dedup_disabled(self):
        g = CSRGraph.from_edges(
            3, [(0, 1), (0, 1)], weights=[5.0, 2.0], directed=True, dedup=False
        )
        assert g.num_edges == 2

    def test_random_weights_are_deterministic(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        g1 = CSRGraph.from_edges(3, edges, weight_seed=42)
        g2 = CSRGraph.from_edges(3, edges, weight_seed=42)
        assert np.array_equal(g1.out_csr.weights, g2.out_csr.weights)

    def test_random_weights_positive(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)], weight_seed=7)
        assert np.all(g.out_csr.weights >= 1)

    def test_empty_graph(self):
        g = graphs.empty_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.max_degree() == 0
        assert g.average_degree() == 0.0

    def test_vertex_id_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(0, 5)], weights=[1])

    def test_negative_vertex_id_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(-1, 0)], weights=[1])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(0, 1)], weights=[-1.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0])

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(0, [], weights=[])


class TestAccessors:
    def test_neighbors_sorted_within_vertex(self, tiny_graph):
        for v in range(tiny_graph.num_vertices):
            nbrs = tiny_graph.out_neighbors(v)
            assert np.all(np.diff(nbrs.astype(np.int64)) >= 0)

    def test_degrees_sum_to_edge_count(self, rmat_graph):
        assert int(rmat_graph.out_degrees().sum()) == rmat_graph.num_edges

    def test_figure1_degrees(self, tiny_graph):
        # Vertex e (index 4) has 6 neighbours in Figure 1.
        assert tiny_graph.out_degrees()[4] == 6
        assert tiny_graph.out_degrees()[8] == 1

    def test_max_and_average_degree(self, star_graph):
        assert star_graph.max_degree() == 200
        assert star_graph.average_degree() == pytest.approx(
            star_graph.num_edges / star_graph.num_vertices
        )

    def test_weights_align_with_neighbors(self, tiny_graph):
        nbrs = tiny_graph.out_neighbors(0)
        weights = tiny_graph.out_weights(0)
        assert nbrs.shape == weights.shape
        lookup = dict(zip(nbrs.tolist(), weights.tolist()))
        assert lookup[1] == pytest.approx(5.0)
        assert lookup[3] == pytest.approx(1.0)

    def test_to_edge_array_roundtrip(self, rmat_graph):
        arr = rmat_graph.to_edge_array()
        assert arr.shape == (rmat_graph.num_edges, 2)
        rebuilt = CSRGraph.from_edges(
            rmat_graph.num_vertices, arr, rmat_graph.out_csr.weights, directed=True
        )
        assert rebuilt.num_edges == rmat_graph.num_edges

    def test_edges_iterator_matches_counts(self, tiny_graph):
        triples = list(graphs.edge_triples(tiny_graph))
        assert len(triples) == tiny_graph.num_edges
        assert [[s, d] for s, d, _ in triples] == tiny_graph.to_edge_array().tolist()
        for s, d, w in triples:
            assert 0 <= s < 9 and 0 <= d < 9 and w > 0

    def test_reversed_directed_graph(self, directed_graph):
        rev = transpose_csr(directed_graph.out_csr)
        assert rev.num_edges == directed_graph.num_edges
        assert np.array_equal(rev.degrees(), directed_graph.in_degrees())
        # Every stored edge s->d appears as d->s in the transpose.
        forward = {tuple(e) for e in directed_graph.to_edge_array().tolist()}
        sources = np.repeat(np.arange(rev.num_vertices), rev.degrees())
        backward = {(int(d), int(s)) for s, d in zip(sources, rev.targets)}
        assert backward == forward

    def test_reversed_undirected_is_identity(self, tiny_graph):
        assert tiny_graph.in_csr is tiny_graph.out_csr
        rev = transpose_csr(tiny_graph.out_csr)
        assert np.array_equal(rev.offsets, tiny_graph.out_csr.offsets)
        assert np.array_equal(rev.targets, tiny_graph.out_csr.targets)
        assert np.array_equal(rev.weights, tiny_graph.out_csr.weights)

    def test_validate_passes_on_generated_graphs(self, rmat_graph, directed_graph):
        graphs.assert_valid_csr(rmat_graph)
        graphs.assert_valid_csr(directed_graph)


class TestMemoryAccounting:
    def test_csr_bytes_positive_and_scales(self, rmat_graph, tiny_graph):
        assert rmat_graph.csr_bytes() > tiny_graph.csr_bytes() > 0

    def test_directed_graph_stores_both_directions(self, directed_graph):
        one_direction = (
            (directed_graph.num_vertices + 1) * 8 + directed_graph.num_edges * 8
        )
        assert directed_graph.csr_bytes() == 2 * one_direction

    def test_edge_list_bytes_exceeds_csr_for_sparse_graphs(self, road_graph):
        # The paper's motivation for CSR: the edge list costs ~50% more.
        assert road_graph.edge_list_bytes() > 0.9 * road_graph.csr_bytes()

    def test_modeled_sizes_default_to_actual(self, tiny_graph):
        assert tiny_graph.modeled_num_vertices == tiny_graph.num_vertices
        assert tiny_graph.modeled_num_edges == tiny_graph.num_edges
        assert tiny_graph.modeled_edge_scale() == pytest.approx(1.0)

    def test_modeled_sizes_from_meta(self, tiny_graph):
        tiny_graph.meta["paper_vertices"] = 1_000_000
        tiny_graph.meta["paper_edges"] = 50_000_000
        assert tiny_graph.modeled_num_vertices == 1_000_000
        assert tiny_graph.modeled_num_edges == 50_000_000
        assert tiny_graph.modeled_edge_scale() > 1.0
