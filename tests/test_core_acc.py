"""Tests for the ACC programming model abstractions and combine operators."""

from __future__ import annotations

import numpy as np
import pytest

import inspect

from repro.algorithms import ALGORITHMS, BFS, SSSP, PageRank, KCore, SpMV, WCC
from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn.incremental import WarmStartAlgorithm
from repro.graph import generators as gen
from tests.engine_seams import KERNEL_ENGINES


class TestCombineOp:
    def test_identities(self):
        assert CombineOp.MIN.identity == np.inf
        assert CombineOp.MAX.identity == -np.inf
        assert CombineOp.SUM.identity == 0.0

    @pytest.mark.parametrize("op", list(CombineOp))
    def test_segment_reduce_matches_loop(self, op):
        rng = np.random.default_rng(11)
        values = rng.random(500) * 10
        segments = rng.integers(0, 40, size=500)
        result = op.segment_reduce(values, segments, 40)
        for s in range(40):
            mask = segments == s
            if mask.any():
                assert result[s] == pytest.approx(op.ufunc.reduce(values[mask]))
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
        ids = np.zeros(valid.size, dtype=np.int64)
        assert SSSP().combine_op.segment_reduce(valid, ids, 1)[0] == pytest.approx(2.0)
        assert PageRank().combine_op.segment_reduce(
            np.array([1.0, 2.0]), np.zeros(2, dtype=np.int64), 1
        )[0] == pytest.approx(3.0)


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


class TestUpdateDropRule:
    """``compute_edges`` contract: the engine drops exactly the NaN
    updates before Combine and passes every other value, ``inf`` included,
    to the reduction - in both directions and on both kernels."""

    class _Probe(SpMV):
        """SpMV whose ``compute`` yields ``special`` on odd sources, over a
        ``-1`` sentinel that only an applied Combine overwrites."""

        def __init__(self, special):
            super().__init__(x_seed=5)
            self.special = special

        def init(self, graph, **params):
            state = super().init(graph, **params)
            state.metadata[:] = -1.0
            return state

        def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
            updates = super().compute_edges(
                src_meta, weights, dst_meta, src_ids, dst_ids, graph
            )
            return np.where(src_ids % 2 == 1, self.special, updates)

    @pytest.fixture(scope="class")
    def graph(self):
        return gen.rmat_graph(6, 4, seed=3, name="rmat6")

    def _run(self, graph, special, direction, kernel):
        engine = KERNEL_ENGINES[kernel](graph, direction_schedule=[direction])
        result = engine.run(self._Probe(special))
        assert not result.failed, result.failure_reason
        return result.values

    @staticmethod
    def _expected(graph, special):
        """Sequential loop over every edge, applying the rule by hand."""
        x = np.random.default_rng(5).random(graph.num_vertices)
        y = np.full(graph.num_vertices, -1.0)
        edges = graph.to_edge_array()
        for (s, d), w in zip(edges.tolist(), graph.out_csr.weights.tolist()):
            update = special if s % 2 == 1 else w * x[s]
            if np.isnan(update):
                continue
            y[d] = update if y[d] == -1.0 else y[d] + update
        return y

    @pytest.mark.parametrize("kernel", tuple(KERNEL_ENGINES))
    @pytest.mark.parametrize("direction", [Direction.PUSH, Direction.PULL])
    def test_nan_update_contributes_nothing(self, graph, direction, kernel):
        got = self._run(graph, np.nan, direction, kernel)
        expected = self._expected(graph, np.nan)
        # A destination only odd sources reach is never touched.
        assert np.array_equal(got == -1.0, expected == -1.0)
        assert (expected == -1.0).any() and (expected != -1.0).any()
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("kernel", tuple(KERNEL_ENGINES))
    @pytest.mark.parametrize("direction", [Direction.PUSH, Direction.PULL])
    def test_inf_update_reaches_combine(self, graph, direction, kernel):
        got = self._run(graph, np.inf, direction, kernel)
        expected = self._expected(graph, np.inf)
        # Under SUM one infinite offer makes the destination infinite.
        assert np.isinf(expected).any() and np.isfinite(expected).any()
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


#: ``compute_edges`` operand -> the class attribute declaring it is read.
DECLARATIONS = {
    "src_meta": "reads_src_meta",
    "weights": "uses_weights",
    "dst_meta": "reads_dst_meta",
}


@pytest.mark.usefixtures("armed_by_env")
class TestDeclaredOperands:
    """An algorithm declares which ``compute_edges`` operands it reads and
    the engine builds only those, passing ``None`` for the rest. A
    declaration is honest when an undeclared operand cannot change an
    update: the real operand, ``None`` and NaN-laced garbage in its place
    give bit-identical outputs. A dishonest one raises in the engine
    instead of computing silently (``REPRO_SANITIZE=1``: armed engines)."""

    GRAPHS = ("rmat_graph", "grid_graph", "star_graph")

    @staticmethod
    def _edges(graph):
        """Every edge in push orientation: int64 ``(src, dst)`` and the
        float64 weights, in out-CSR order."""
        csr = graph.out_csr
        degrees = np.diff(csr.offsets.astype(np.int64))
        src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
        return src, csr.targets.astype(np.int64), csr.weights.astype(np.float64)

    @pytest.mark.parametrize("fixture", GRAPHS)
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_undeclared_operands_change_nothing(self, name, fixture, request):
        graph = request.getfixturevalue(fixture)
        algorithm = ALGORITHMS[name]()
        algorithm.init(graph)
        rng = np.random.default_rng(31)
        src, dst, weights = self._edges(graph)
        # Spans k-Core's k = 16 and BFS / SSSP / WCC's offer comparisons.
        metadata = rng.uniform(0.0, 32.0, graph.num_vertices)
        real = {
            "src_meta": metadata[src], "weights": weights,
            "dst_meta": metadata[dst],
        }

        def compute(fill):
            operands = {
                key: value if getattr(algorithm, DECLARATIONS[key]) else fill(value)
                for key, value in real.items()
            }
            return np.asarray(algorithm.compute_edges(
                operands["src_meta"], operands["weights"], operands["dst_meta"],
                src, dst, graph,
            ), dtype=np.float64)

        def garbage(value):
            noise = rng.normal(0.0, 1e300, value.size)
            return np.where(rng.random(value.size) < 0.5, np.nan, noise)

        want = compute(lambda value: value)
        assert (want == want).any(), "no valid update to compare"
        for fill in (lambda value: None, garbage):
            assert compute(fill).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("direction", [Direction.PUSH, Direction.PULL])
    @pytest.mark.parametrize("cls,key", [
        # Every operand a shipped algorithm reads, declared unread.
        pytest.param(cls, key, id=f"{name}-{key}")
        for name, cls in sorted(ALGORITHMS.items())
        for key, flag in DECLARATIONS.items() if getattr(cls, flag)
    ])
    def test_misdeclared_operand_raises(self, cls, key, direction, rmat_graph):
        lying = type(f"Lying{cls.__name__}", (cls,), {DECLARATIONS[key]: False})
        engine = SIMDXEngine(
            rmat_graph, config=EngineConfig(forced_direction=direction)
        )
        with pytest.raises(TypeError):
            engine.run(lying())

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_warm_start_forwards_declarations(self, name):
        # A repair run gathers what the wrapped algorithm reads, no more.
        inner = ALGORITHMS[name]()
        warm = WarmStartAlgorithm(inner, plan=None)
        for flag in DECLARATIONS.values():
            assert getattr(warm, flag) == getattr(inner, flag), flag


#: The hooks of :class:`ACCAlgorithm` - every method the engine calls.
ACC_HOOKS = {
    name for name, member in vars(ACCAlgorithm).items()
    if callable(member) and not name.startswith("_")
}

#: Public methods an algorithm adds for its callers, not for the engine.
RESULT_HELPERS = {KCore: {"core_membership"}}


@pytest.mark.parametrize(
    "cls", [*ALGORITHMS.values(), WarmStartAlgorithm],
    ids=lambda cls: cls.__name__,
)
def test_algorithm_defines_only_engine_hooks(cls):
    """An algorithm's public methods are the ACC hooks the engine calls
    (plus a documented result helper), each with the base signature the
    engine calls it by - a hook nothing calls does not creep back."""
    own = {
        name for name, member in vars(cls).items()
        if callable(member) and not name.startswith("_")
    }
    assert own - ACC_HOOKS == RESULT_HELPERS.get(cls, set())
    for name in own & ACC_HOOKS:
        params = list(inspect.signature(getattr(cls, name)).parameters)
        base = list(inspect.signature(getattr(ACCAlgorithm, name)).parameters)
        if name == "init":  # per-algorithm keyword parameters follow graph
            assert params[:2] == base[:2], name
        else:
            assert params == base, name
