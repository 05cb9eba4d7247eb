"""Tests for the ACC programming model abstractions and combine operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank, KCore, WCC
from repro.core.acc import CombineKind, CombineOp, InitialState


class TestCombineOp:
    def test_identities(self):
        assert CombineOp.MIN.identity == np.inf
        assert CombineOp.MAX.identity == -np.inf
        assert CombineOp.SUM.identity == 0.0

    def test_reduce_scalar(self):
        values = np.array([3.0, 1.0, 2.0])
        assert CombineOp.MIN.reduce(values) == 1.0
        assert CombineOp.MAX.reduce(values) == 3.0
        assert CombineOp.SUM.reduce(values) == 6.0

    def test_reduce_empty_returns_identity(self):
        empty = np.array([])
        for op in CombineOp:
            assert op.reduce(empty) == op.identity

    @pytest.mark.parametrize("op", list(CombineOp))
    def test_segment_reduce_matches_loop(self, op):
        rng = np.random.default_rng(11)
        values = rng.random(500) * 10
        segments = rng.integers(0, 40, size=500)
        result = op.segment_reduce(values, segments, 40)
        for s in range(40):
            mask = segments == s
            if mask.any():
                assert result[s] == pytest.approx(op.reduce(values[mask]))
            else:
                assert result[s] == op.identity

    def test_segment_reduce_empty(self):
        out = CombineOp.MIN.segment_reduce(np.array([]), np.array([], dtype=int), 5)
        assert np.all(np.isinf(out))

    def test_segment_reduce_single_segment(self):
        out = CombineOp.SUM.segment_reduce(
            np.array([1.0, 2.0, 3.0]), np.array([2, 2, 2]), 4
        )
        assert out[2] == 6.0
        assert out[0] == 0.0

    @staticmethod
    def _loop_reference(op, values, ids):
        """Sequential per-destination Combine, in input order."""
        out = {}
        for v, seg in zip(values.tolist(), ids.tolist()):
            out[seg] = float(op.ufunc(out.get(seg, op.identity), v))
        touched = sorted(out)
        return np.array(touched, dtype=np.int64), np.array(
            [out[seg] for seg in touched], dtype=np.float64
        )

    @pytest.mark.parametrize("op", list(CombineOp))
    @pytest.mark.parametrize(
        "ids",
        [
            [5, 0, 9, 5, 0, 5, 3],      # unsorted, hits 0 and n - 1
            [0, 0, 3, 3, 3, 9],         # non-decreasing
            [4, 4, 4],                  # one segment
            [],                         # no update at all
        ],
        ids=["unsorted", "sorted", "one-segment", "empty"],
    )
    def test_compact_reduce_equals_dense_reference(self, op, ids):
        n = 10
        ids = np.array(ids, dtype=np.int64)
        values = np.random.default_rng(12).normal(size=ids.size)
        expected_touched, expected = self._loop_reference(op, values, ids)
        is_sorted = bool((ids[1:] >= ids[:-1]).all())
        for ids_sorted in {False, is_sorted}:
            touched, combined = op.compact_reduce(
                values, ids, n, ids_sorted=ids_sorted
            )
            assert touched.dtype == np.int64 and combined.dtype == np.float64
            assert np.array_equal(touched, expected_touched)
            assert np.array_equal(combined, expected)
        dense = op.segment_reduce(values, ids, n)
        assert np.array_equal(dense[touched], combined)
        untouched = np.setdiff1d(np.arange(n), touched)
        assert np.all(dense[untouched] == op.identity)

    def test_identity_valued_destination_is_still_touched(self):
        """``touched`` comes from the ids, never from ``combined != identity``."""
        touched, combined = CombineOp.SUM.compact_reduce(
            np.array([2.5, 1.0, -2.5]), np.array([3, 1, 3]), 5
        )
        assert np.array_equal(touched, [1, 3])
        assert np.array_equal(combined, [1.0, 0.0])
        for ids_sorted in (False, True):
            touched, combined = CombineOp.MIN.compact_reduce(
                np.array([np.inf, 4.0]), np.array([0, 2]), 3,
                ids_sorted=ids_sorted,
            )
            assert np.array_equal(touched, [0, 2])
            assert np.array_equal(combined, [np.inf, 4.0])

    def test_compact_sum_is_a_sequential_accumulation(self):
        """Bit-for-bit a ``+=`` loop, on a stream where order matters."""
        rng = np.random.default_rng(13)
        values = rng.normal(size=600) * 10.0 ** rng.integers(-8, 9, size=600)
        values[1::2] = -values[::2] * (1.0 + 1e-9)   # cancellation-prone
        ids = rng.integers(0, 4, size=600)
        expected = np.zeros(4)
        for v, seg in zip(values, ids):
            expected[seg] += v
        touched, combined = CombineOp.SUM.compact_reduce(values, ids, 4)
        assert np.array_equal(touched, [0, 1, 2, 3])
        assert np.array_equal(combined, expected)

    def test_ufunc_mapping(self):
        assert CombineOp.MIN.ufunc is np.minimum
        assert CombineOp.SUM.ufunc is np.add


class TestAlgorithmClassification:
    """The combine-class table from Section 3.2 / Section 6."""

    def test_voting_algorithms(self):
        assert BFS().combine_kind is CombineKind.VOTING
        assert WCC().combine_kind is CombineKind.VOTING

    def test_aggregation_algorithms(self):
        assert SSSP().combine_kind is CombineKind.AGGREGATION
        assert PageRank().combine_kind is CombineKind.AGGREGATION
        assert KCore().combine_kind is CombineKind.AGGREGATION

    def test_combine_operators(self):
        assert BFS().combine_op is CombineOp.MIN
        assert SSSP().combine_op is CombineOp.MIN
        assert PageRank().combine_op is CombineOp.SUM
        assert KCore().combine_op is CombineOp.SUM

    def test_pull_starters(self):
        assert PageRank().starts_in_pull
        assert KCore().starts_in_pull
        assert not BFS().starts_in_pull
        assert not SSSP().starts_in_pull

    def test_describe(self):
        d = SSSP().describe()
        assert d["name"] == "sssp"
        assert d["combine_kind"] == "aggregation"
        assert d["uses_weights"] is True


class TestScalarVectorAgreement:
    """The paper's per-edge ``active`` / ``compute`` / ``combine`` semantics
    hold for the vectorized forms the engine runs."""

    @staticmethod
    def _compute_one(algo, graph, metadata, src, dst, weight):
        return algo.compute_edges(
            metadata[[src]], np.array([weight]), metadata[[dst]],
            np.array([src]), np.array([dst]), graph,
        )[0]

    def test_sssp_compute_scalar_matches_vector(self, tiny_graph):
        algo = SSSP(source=0)
        metadata = algo.init(tiny_graph).metadata
        # Edge a->b with weight 5 offers distance 5 to b.
        assert self._compute_one(algo, tiny_graph, metadata, 0, 1, 5.0) == pytest.approx(5.0)
        # An edge into an already-closer vertex produces no update (NaN).
        metadata[1] = 1.0
        assert np.isnan(self._compute_one(algo, tiny_graph, metadata, 0, 1, 5.0))
        # One call over every edge equals the edge-at-a-time calls.
        edges = tiny_graph.to_edge_array()
        weights = tiny_graph.out_csr.weights
        whole = algo.compute_edges(
            metadata[edges[:, 0]], weights, metadata[edges[:, 1]],
            edges[:, 0], edges[:, 1], tiny_graph,
        )
        one_by_one = [
            self._compute_one(algo, tiny_graph, metadata, s, d, w)
            for (s, d), w in zip(edges.tolist(), weights.tolist())
        ]
        np.testing.assert_array_equal(whole, one_by_one)

    def test_bfs_compute_offers_level_plus_one(self, tiny_graph):
        algo = BFS(source=0)
        metadata = algo.init(tiny_graph).metadata
        assert self._compute_one(algo, tiny_graph, metadata, 0, 1, 1.0) == pytest.approx(1.0)
        # A visited destination gets no offer, whatever the edge weight.
        assert np.isnan(self._compute_one(algo, tiny_graph, metadata, 1, 0, 5.0))

    def test_active_scalar_matches_mask(self, tiny_graph):
        algo = SSSP(source=0)
        metadata = algo.init(tiny_graph).metadata
        prev = metadata.copy()
        metadata[3] = 1.0
        mask = algo.active_mask(metadata, prev)
        for v in range(tiny_graph.num_vertices):
            assert bool(mask[v]) == (metadata[v] != prev[v])
        assert np.flatnonzero(mask).tolist() == [3]

    def test_combine_scalar_uses_operator(self):
        # The engine drops the NaN "no update" offers, then combines.
        updates = np.array([4.0, 2.0, np.nan])
        valid = updates[~np.isnan(updates)]
        assert SSSP().combine_op.reduce(valid) == pytest.approx(2.0)
        assert PageRank().combine_op.reduce(np.array([1.0, 2.0])) == pytest.approx(3.0)


class TestInitialState:
    def test_bfs_init(self, tiny_graph):
        state = BFS(source=4).init(tiny_graph)
        assert isinstance(state, InitialState)
        assert state.metadata[4] == 0.0
        assert np.isinf(state.metadata[0])
        assert np.array_equal(state.frontier, [4])

    def test_bfs_source_override(self, tiny_graph):
        state = BFS(source=0).init(tiny_graph, source=2)
        assert state.metadata[2] == 0.0

    def test_bfs_invalid_source(self, tiny_graph):
        with pytest.raises(ValueError):
            BFS(source=99).init(tiny_graph)

    def test_sssp_invalid_source(self, tiny_graph):
        with pytest.raises(ValueError):
            SSSP(source=-1).init(tiny_graph)

    def test_kcore_initial_frontier_is_low_degree_vertices(self, tiny_graph):
        algo = KCore(k=2)
        state = algo.init(tiny_graph)
        degrees = tiny_graph.out_degrees()
        expected = np.nonzero(degrees < 2)[0]
        assert np.array_equal(np.sort(state.frontier), np.sort(expected))

    def test_kcore_invalid_k(self):
        with pytest.raises(ValueError):
            KCore(k=0)

    def test_pagerank_all_vertices_active_initially(self, tiny_graph):
        state = PageRank().init(tiny_graph)
        assert state.frontier.size == tiny_graph.num_vertices
        assert np.allclose(state.metadata, 0.15)

    def test_pagerank_parameter_validation(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)
        with pytest.raises(ValueError):
            PageRank(tolerance=0.0)

    def test_sssp_delta_validation(self):
        with pytest.raises(ValueError):
            SSSP(delta=0.0)

    def test_default_hooks(self, tiny_graph):
        algo = BFS(source=0)
        state = algo.init(tiny_graph)
        # Default hooks: converged is True, on_frontier_expanded is a no-op,
        # vertex_value is overridden by BFS to produce int levels.
        assert algo.converged(state.metadata, state.metadata, 1)
        algo.on_frontier_expanded(state.frontier, state.metadata)
        assert algo.vertex_value(state.metadata).dtype == np.int64
