"""Property and edge-case tests for the kernel-backend axis.

The differential fuzz harness crosses ``EngineConfig.kernel_backend`` with
the direction/batching/sharding matrix on random graphs; this module covers
what a random matrix can miss:

* primitive-level parity - every :mod:`repro.core.kernels` primitive on
  crafted inputs (empty worklists, zero-degree rows, 65-lane multi-word
  bitmasks, all three Combine operators);
* engine edge cases per backend - empty frontier, self-loop vertices,
  an algorithm capped at ``max_iterations = 0``, forced per-iteration
  direction schedules;
* accounting parity - the *entire* ``RunResult.extra`` mapping must be
  equal across backends, with exact pins for the seed graphs of
  ``tests/test_extra_accounting.py`` (the new ``kernel_edges_walked``
  counter equals the pinned ``frontier_edges`` totals there).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP
from repro.core.acc import CombineOp
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.frontier import BatchedFrontier
from repro.core.kernels import (
    BACKEND_NAMES,
    get_kernel_backend,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.engine_seams import ScheduledEngine

NUMPY = get_kernel_backend("numpy")
PYTHON = get_kernel_backend("python")


@pytest.fixture(scope="module")
def rmat():
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


@pytest.fixture(scope="module")
def road():
    return gen.road_network_graph(24, 24, seed=11, name="road")


@pytest.fixture(scope="module")
def loop_graph():
    """Directed graph with a self-loop (2->2) and a zero-degree vertex (5)."""
    edges = [(0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 0)]
    return CSRGraph.from_edges(
        6, edges, directed=True, name="loops", weight_seed=3,
        allow_self_loops=True,
    )


def _assert_same_walk(a, b):
    slot_a, edge_a, total_a = a
    slot_b, edge_b, total_b = b
    assert total_a == total_b
    assert slot_a.dtype == slot_b.dtype == np.int64
    assert edge_a.dtype == edge_b.dtype == np.int64
    assert np.array_equal(slot_a, slot_b)
    assert np.array_equal(edge_a, edge_b)


# ----------------------------------------------------------------------
# Primitive-level parity
# ----------------------------------------------------------------------
class TestPrimitiveParity:
    def test_walk_edges_matches(self, rmat):
        rng = np.random.default_rng(11)
        csr = rmat.out_csr
        for size in (0, 1, 17, 200):
            worklist = np.sort(
                rng.choice(rmat.num_vertices, size=size, replace=False)
            ).astype(np.int64)
            _assert_same_walk(
                NUMPY.walk_edges(csr, worklist),
                PYTHON.walk_edges(csr, worklist),
            )

    def test_walk_edges_zero_degree_and_self_loop(self, loop_graph):
        csr = loop_graph.out_csr
        worklist = np.array([2, 5], dtype=np.int64)  # self-loop + isolated
        numpy_walk = NUMPY.walk_edges(csr, worklist)
        _assert_same_walk(numpy_walk, PYTHON.walk_edges(csr, worklist))
        slot, edge_idx, total = numpy_walk
        # Vertex 2 owns two out-edges (2->2, 2->3); vertex 5 owns none.
        assert total == 2
        assert np.array_equal(slot, [0, 0])
        assert np.array_equal(csr.targets[edge_idx], [2, 3])

    def test_walk_edges_empty_worklist(self, rmat):
        empty = np.zeros(0, dtype=np.int64)
        for backend in (NUMPY, PYTHON):
            slot, edge_idx, total = backend.walk_edges(rmat.out_csr, empty)
            assert total == 0
            assert slot.size == 0 and slot.dtype == np.int64
            assert edge_idx.size == 0 and edge_idx.dtype == np.int64

    def test_membership_and_rows(self):
        rng = np.random.default_rng(5)
        universe = np.unique(rng.integers(0, 500, size=120)).astype(np.int64)
        members = universe[:: 3]
        for vertices in (members, np.zeros(0, dtype=np.int64)):
            assert np.array_equal(
                NUMPY.membership_mask(vertices, 500),
                PYTHON.membership_mask(vertices, 500),
            )
        rows_np = NUMPY.rows_in_sorted(universe, members)
        rows_py = PYTHON.rows_in_sorted(universe, members)
        assert rows_np.dtype == rows_py.dtype == np.int64
        assert np.array_equal(rows_np, rows_py)
        assert np.array_equal(universe[rows_np], members)

    def test_sorted_unique_and_union(self):
        rng = np.random.default_rng(6)
        arrays = [
            rng.integers(0, 64, size=n).astype(np.int64)
            for n in (0, 1, 9, 40)
        ]
        for arr in arrays:
            assert np.array_equal(
                NUMPY.sorted_unique(arr), PYTHON.sorted_unique(arr)
            )
        union_np = NUMPY.union_sorted(arrays)
        union_py = PYTHON.union_sorted(arrays)
        assert union_np.dtype == union_py.dtype == np.int64
        assert np.array_equal(union_np, union_py)
        assert np.array_equal(
            NUMPY.union_sorted([np.zeros(0, dtype=np.int64)]),
            PYTHON.union_sorted([np.zeros(0, dtype=np.int64)]),
        )

    def test_lane_bits_65_lanes_multi_word(self):
        """K=65 forces two uint64 words; both backends build them equal."""
        rng = np.random.default_rng(7)
        lanes = [
            np.unique(rng.integers(0, 300, size=rng.integers(0, 12)))
            .astype(np.int64)
            for _ in range(65)
        ]
        vertices = NUMPY.union_sorted(lanes)
        bits_np = NUMPY.build_lane_bits(vertices, lanes, 65)
        bits_py = PYTHON.build_lane_bits(vertices, lanes, 65)
        assert bits_np.shape == bits_py.shape == (vertices.size, 2)
        assert np.array_equal(bits_np, bits_py)
        for lane in range(65):
            mask_np = NUMPY.lane_mask(bits_np, lane)
            mask_py = PYTHON.lane_mask(bits_np, lane)
            assert np.array_equal(mask_np, mask_py)
            assert np.array_equal(vertices[mask_np], lanes[lane])

    def test_batched_frontier_parity_and_sub_batch(self):
        rng = np.random.default_rng(8)
        lane_frontiers = [
            rng.integers(0, 100, size=rng.integers(0, 20)).astype(np.int64)
            for _ in range(65)
        ]
        via_np = BatchedFrontier.from_lanes(lane_frontiers, backend=NUMPY)
        via_py = BatchedFrontier.from_lanes(lane_frontiers, backend=PYTHON)
        assert np.array_equal(via_np.vertices, via_py.vertices)
        assert np.array_equal(via_np.lane_bits, via_py.lane_bits)
        for lane in (0, 31, 63, 64):
            assert np.array_equal(
                via_np.lane_mask(lane), via_py.lane_mask(lane)
            )
        sub_np = via_np.sub_batch([64, 3])
        sub_py = via_py.sub_batch([64, 3])
        assert np.array_equal(sub_np.vertices, sub_py.vertices)
        assert np.array_equal(sub_np.lane_bits, sub_py.lane_bits)
        assert sub_py.backend is PYTHON  # views keep their backend

    @pytest.mark.parametrize("op", list(CombineOp))
    def test_segment_reduce_parity(self, op):
        rng = np.random.default_rng(9)
        values = rng.normal(size=400)
        segment_ids = rng.integers(0, 37, size=400)
        plain = op.segment_reduce(values, segment_ids, 40)
        via_np = op.segment_reduce(values, segment_ids, 40, backend=NUMPY)
        via_py = op.segment_reduce(values, segment_ids, 40, backend=PYTHON)
        assert np.array_equal(plain, via_np)
        assert np.array_equal(plain, via_py)
        empty = op.segment_reduce(
            np.zeros(0), np.zeros(0, dtype=np.int64), 5, backend=PYTHON
        )
        assert np.array_equal(
            empty, np.full(5, op.identity, dtype=np.float64)
        )

    def test_sum_reduce_is_input_order_exact(self):
        """The SUM bit-identity argument: bincount == sequential += loop."""
        rng = np.random.default_rng(10)
        # Magnitudes spread over 12 orders so accumulation *order* matters.
        values = rng.normal(size=300) * 10.0 ** rng.integers(-6, 7, size=300)
        segment_ids = rng.integers(0, 3, size=300)
        assert np.array_equal(
            CombineOp.SUM.segment_reduce(values, segment_ids, 3),
            PYTHON.segment_reduce(CombineOp.SUM, values, segment_ids, 3),
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel_backend("fortran")
        with pytest.raises(ValueError, match="kernel_backend"):
            EngineConfig(kernel_backend="fortran")
        assert set(BACKEND_NAMES) == {"python", "numpy"}


# ----------------------------------------------------------------------
# Engine edge cases, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestEngineEdgeCases:
    def test_empty_frontier_terminates(self, backend):
        """A source with no out-edges converges without walking anything."""
        graph = CSRGraph.from_edges(
            5, [(1, 2), (2, 3)], directed=True, name="iso", weight_seed=1
        )
        config = EngineConfig(kernel_backend=backend, sanitize=True)
        result = SIMDXEngine(graph, config=config).run(BFS(source=0))
        assert not result.failed
        assert result.values[0] == 0
        assert np.all(result.values[1:] == -1)
        assert result.extra["kernel_edges_walked"] == 0

    def test_self_loop_and_zero_degree(self, backend, loop_graph):
        config = EngineConfig(kernel_backend=backend, sanitize=True)
        result = SIMDXEngine(loop_graph, config=config).run(SSSP(source=0))
        assert not result.failed
        reference = SIMDXEngine(loop_graph).run(SSSP(source=0))
        assert np.array_equal(result.values, reference.values)
        assert np.isinf(result.values[5])  # isolated vertex unreached

    def test_max_iterations_zero(self, backend, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        config = EngineConfig(kernel_backend=backend)
        algorithm = SSSP(source=source)
        algorithm.max_iterations = 0
        result = SIMDXEngine(rmat, config=config).run(algorithm)
        assert not result.failed
        assert result.iterations == 0
        assert result.extra["kernel_edges_walked"] == 0

    def test_forced_direction_schedule(self, backend, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        schedule = [
            Direction.PUSH, Direction.PULL, Direction.PULL, Direction.PUSH,
        ]
        config = EngineConfig(kernel_backend=backend, sanitize=True)
        result = ScheduledEngine(
            rmat, config=config, direction_schedule=schedule
        ).run(SSSP(source=source))
        assert not result.failed
        reference = SIMDXEngine(rmat).run(SSSP(source=source))
        assert np.array_equal(result.values, reference.values)
        assert result.direction_trace[:4] == ["push", "pull", "pull", "push"]

    def test_k65_multi_word_batch(self, backend, rmat):
        """K=65 lanes exercise the two-word bitmask path end to end."""
        degrees = rmat.out_degrees()
        order = np.argsort(-degrees, kind="stable")
        sources = [int(v) for v in order[:65]]
        assert degrees[sources[-1]] > 0
        config = EngineConfig(kernel_backend=backend)
        batch = SIMDXEngine(rmat, config=config).run_batch(BFS(), sources)
        assert not batch.failed
        reference = SIMDXEngine(rmat).run_batch(BFS(), sources)
        assert np.array_equal(batch.values, reference.values)
        assert batch.extra["kernel_edges_walked"] == (
            reference.extra["kernel_edges_walked"]
        )


# ----------------------------------------------------------------------
# Accounting parity + exact pins (alongside tests/test_extra_accounting.py)
# ----------------------------------------------------------------------
def _comparable_extra(extra):
    """The extra mapping minus the backend-identity key itself."""
    return {k: v for k, v in extra.items() if k != "kernel_backend"}


class TestExtraParityPins:
    def test_single_run_extra_parity_and_pin(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        results = {
            backend: SIMDXEngine(
                rmat, config=EngineConfig(kernel_backend=backend)
            ).run(SSSP(source=source))
            for backend in BACKEND_NAMES
        }
        for backend, result in results.items():
            assert result.extra["kernel_backend"] == backend
            # The pinned frontier_edges total of test_extra_accounting.
            assert result.extra["kernel_edges_walked"] == 15524
            assert result.extra["kernel_edges_walked"] == sum(
                r.frontier_edges for r in result.iteration_records
            )
        a, b = (results[backend] for backend in BACKEND_NAMES)
        assert _comparable_extra(a.extra) == _comparable_extra(b.extra)
        assert a.elapsed_us == b.elapsed_us  # simulated time is shared
        assert a.kernel_launches == b.kernel_launches
        assert a.direction_trace == b.direction_trace
        assert a.filter_trace == b.filter_trace

    def test_batch_extra_parity_and_pin(self, road):
        sources = [
            int(v) for v in np.argsort(-road.out_degrees(), kind="stable")[:8]
        ]
        results = {
            backend: SIMDXEngine(
                road, config=EngineConfig(kernel_backend=backend)
            ).run_batch(SSSP(), sources)
            for backend in BACKEND_NAMES
        }
        for backend, batch in results.items():
            assert batch.extra["kernel_backend"] == backend
            # kernel_edges_walked == union_edges_walked == the PR-4 pin.
            assert batch.extra["kernel_edges_walked"] == 49305
            assert batch.extra["kernel_edges_walked"] == (
                batch.extra["union_edges_walked"]
            )
        a, b = (results[backend] for backend in BACKEND_NAMES)
        assert _comparable_extra(a.extra) == _comparable_extra(b.extra)
        assert a.elapsed_us == b.elapsed_us
        assert a.lane_iterations == b.lane_iterations

    def test_sharded_extra_parity_and_pin(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        results = {
            backend: SIMDXEngine(
                rmat,
                config=EngineConfig(kernel_backend=backend, num_shards=2),
            ).run(SSSP(source=source))
            for backend in BACKEND_NAMES
        }
        for backend, result in results.items():
            assert result.extra["kernel_backend"] == backend
            assert result.extra["shard_scanned_edges"] == [7722, 10431]
            assert result.extra["kernel_edges_walked"] == 7722 + 10431
        a, b = (results[backend] for backend in BACKEND_NAMES)
        assert _comparable_extra(a.extra) == _comparable_extra(b.extra)
        assert np.array_equal(a.values, b.values)
