"""Property and edge-case tests for the kernel seam.

The engine runs the vectorized primitives of :mod:`repro.core.kernels`;
``tests/engine_seams.py:ReferenceKernelEngine`` substitutes the loop
reference of ``tests/oracles.py`` through ``SIMDXEngine.kernel`` and
``SIMDXEngine._walk_edges``. The differential fuzz harness crosses that
reference axis with the direction/batching/sharding matrix on random
graphs; this module covers what a random matrix can miss:

* primitive-level parity - every primitive on crafted inputs (empty
  worklists, zero-degree rows, 65-lane multi-word bitmasks, all three
  Combine operators);
* the seam's reach - on forced push, forced pull, a split batch and two
  shards, every primitive the engine calls is called on the substitute,
  and no vectorized primitive runs;
* engine edge cases per kernel - empty frontier, self-loop vertices,
  an algorithm capped at ``max_iterations = 0``, forced per-iteration
  direction schedules;
* accounting parity - the *entire* ``RunResult.extra`` mapping must be
  equal across kernels, with exact pins for the seed graphs of
  ``tests/test_extra_accounting.py`` (the ``kernel_edges_walked`` counter
  equals the pinned ``frontier_edges`` totals there).
"""

from __future__ import annotations

import traceback
from collections import Counter

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank
from repro.core.acc import CombineOp
from repro.core.direction import BatchDirectionPolicy, Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.frontier import BatchedFrontier
from repro.core.kernels import DEFAULT_KERNEL, NumpyKernelBackend
from repro.core.superstep import SuperstepDriver
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.engine_seams import KERNEL_ENGINES, ReferenceKernelEngine
from tests.oracles import PythonKernelBackend

NUMPY = DEFAULT_KERNEL
PYTHON = PythonKernelBackend()

#: The two kernels an engine runs on: the shipped one, and the loop
#: reference substituted through the seam.
KERNELS = tuple(KERNEL_ENGINES)


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

    @staticmethod
    def _walk_kept_cases(rmat, loop_graph):
        """``(name, csr, worklist, expected numpy branch)``: ``span`` scans
        a filled span, ``span+rows`` a span with holes (the row mask),
        ``rows`` walks the worklist rows, ``empty`` walks nothing."""
        degrees = np.diff(rmat.in_csr.offsets.astype(np.int64))
        filled = np.arange(10, 300, dtype=np.int64)
        holes = filled[(filled % 7 != 0) | (degrees[filled] == 0)]
        sparse = np.array([0, 101, rmat.num_vertices - 1], dtype=np.int64)
        # Vertex 2's in-row holds its self-loop; 5 has no in-edges.
        loops = np.array([2, 5], dtype=np.int64)
        return [
            ("filled", rmat.in_csr, filled, "span"),
            ("holes", rmat.in_csr, holes, "span+rows"),
            ("sparse", rmat.in_csr, sparse, "rows"),
            ("loops", loop_graph.in_csr, loops, "span+rows"),
            ("loops-all", loop_graph.in_csr, np.arange(6, dtype=np.int64), "span"),
            ("empty", rmat.in_csr, np.zeros(0, dtype=np.int64), "empty"),
        ]

    def test_walk_kept_matches(self, rmat, loop_graph, monkeypatch):
        # The sparse branch walks the rows with ``walk_edges``; the dense
        # branch scans the span and never calls it.
        row_walks = []
        real_walk_edges = NumpyKernelBackend.walk_edges

        def counted_walk_edges(csr, worklist):
            row_walks.append(1)
            return real_walk_edges(csr, worklist)

        monkeypatch.setattr(
            NumpyKernelBackend, "walk_edges", staticmethod(counted_walk_edges)
        )
        rng = np.random.default_rng(12)
        for name, csr, worklist, branch in self._walk_kept_cases(rmat, loop_graph):
            n = csr.num_vertices
            offsets = csr.offsets.astype(np.int64)
            walked = int((offsets[worklist + 1] - offsets[worklist]).sum())
            if worklist.size:
                span = int(offsets[worklist[-1] + 1] - offsets[worklist[0]])
                # The density rule and the row-mask rule, as the case claims.
                dense = 2 * walked >= span
                assert dense == branch.startswith("span"), name
                assert (dense and walked < span) == (branch == "span+rows"), name
            for source_mask in (
                np.zeros(n, dtype=bool), np.ones(n, dtype=bool), rng.random(n) < 0.4,
            ):
                row_walks.clear()
                got = NUMPY.walk_kept(csr, worklist, source_mask)
                assert len(row_walks) == (branch == "rows"), name
                want = PYTHON.walk_kept(csr, worklist, source_mask)
                assert got[3] == want[3] == walked, name
                for ours, theirs in zip(got[:3], want[:3]):
                    assert ours.dtype == theirs.dtype == np.int64, name
                    assert np.array_equal(ours, theirs), name
                src, dst, edge_idx, _ = got
                # Exactly the walk's edges whose source passes the mask.
                slot, every_edge, _ = PYTHON.walk_edges(csr, worklist)
                kept = source_mask[csr.targets[every_edge]]
                assert np.array_equal(edge_idx, every_edge[kept]), name
                assert np.array_equal(dst, worklist[slot[kept]]), name
                assert np.array_equal(src, csr.targets[edge_idx]), name

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
            # Unsorted input with duplicates -> the canonical set, from the
            # vertex-indexed pass of either backend.
            for backend in (NUMPY, PYTHON):
                unique = backend.sorted_unique(arr, 64)
                assert unique.dtype == np.int64
                assert np.array_equal(unique, np.unique(arr))
        union_np = NUMPY.union_sorted(arrays, 64)
        union_py = PYTHON.union_sorted(arrays, 64)
        assert union_np.dtype == union_py.dtype == np.int64
        assert np.array_equal(union_np, union_py)
        assert np.array_equal(union_np, np.unique(np.concatenate(arrays)))
        for backend in (NUMPY, PYTHON):
            for size in (0, 5):
                empty = backend.union_sorted([np.zeros(0, dtype=np.int64)], size)
                assert empty.size == 0 and empty.dtype == np.int64

    def test_lane_bits_65_lanes_multi_word(self):
        """K=65 forces two uint64 words; both backends build them equal."""
        rng = np.random.default_rng(7)
        # Raw lane input: unsorted, with duplicates, some lanes empty.
        lanes = [
            rng.integers(0, 300, size=rng.integers(0, 12)).astype(np.int64)
            for _ in range(65)
        ]
        lanes[0] = np.array([299, 0, 299, 7], dtype=np.int64)
        lanes[64] = np.array([7, 7], dtype=np.int64)
        lanes[13] = np.zeros(0, dtype=np.int64)
        vertices, bits_np = NUMPY.build_lane_bits(lanes, 300)
        vertices_py, bits_py = PYTHON.build_lane_bits(lanes, 300)
        assert vertices.dtype == vertices_py.dtype == np.int64
        assert np.array_equal(vertices, vertices_py)
        assert np.array_equal(vertices, np.unique(np.concatenate(lanes)))
        assert bits_np.shape == bits_py.shape == (vertices.size, 2)
        assert bits_np.dtype == bits_py.dtype == np.uint64
        assert np.array_equal(bits_np, bits_py)
        for lane in range(65):
            mask_np = NUMPY.lane_mask(bits_np, lane)
            mask_py = PYTHON.lane_mask(bits_np, lane)
            assert np.array_equal(mask_np, mask_py)
            assert np.array_equal(vertices[mask_np], np.unique(lanes[lane]))
        for backend in (NUMPY, PYTHON):
            none, no_bits = backend.build_lane_bits([lanes[13]] * 65, 0)
            assert none.size == 0 and none.dtype == np.int64
            assert no_bits.shape == (0, 2) and no_bits.dtype == np.uint64

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
        assert sub_py.backend is PYTHON  # views keep their kernel

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
        # The primitive itself is the compact pair, equal across backends
        # (and with or without the no-argsort path on sorted ids).
        touched_np, combined_np = NUMPY.segment_reduce(op, values, segment_ids, 40)
        touched_py, combined_py = PYTHON.segment_reduce(op, values, segment_ids, 40)
        assert touched_np.dtype == touched_py.dtype == np.int64
        assert np.array_equal(touched_np, touched_py)
        assert np.array_equal(touched_np, np.unique(segment_ids))
        assert np.array_equal(combined_np, combined_py)
        assert np.array_equal(combined_np, plain[touched_np])
        order = np.argsort(segment_ids, kind="stable")
        touched, combined = op.compact_reduce(
            values[order], segment_ids[order], 40, ids_sorted=True
        )
        assert np.array_equal(touched, touched_py)
        assert np.array_equal(combined, combined_py)
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
        touched, combined = PYTHON.segment_reduce(
            CombineOp.SUM, values, segment_ids, 3
        )
        assert np.array_equal(touched, [0, 1, 2])
        assert np.array_equal(
            CombineOp.SUM.segment_reduce(values, segment_ids, 3), combined
        )
        assert np.array_equal(
            CombineOp.SUM.compact_reduce(values, segment_ids, 3)[1], combined
        )



# ----------------------------------------------------------------------
# The seam reaches every primitive
# ----------------------------------------------------------------------
#: The primitives of the kernel interface.
PRIMITIVES = (
    "walk_edges", "walk_kept", "membership_mask", "rows_in_sorted",
    "sorted_unique", "union_sorted", "build_lane_bits", "lane_mask",
    "segment_reduce",
)


class CountingKernel:
    """Forwards every primitive to ``inner`` and counts the calls by name."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def vectorized_calls(monkeypatch):
    """Counts, by name, the primitives run on the vectorized kernel class
    and through the base ``SIMDXEngine._walk_edges`` - outermost calls
    only (a sparse ``walk_kept`` walks its rows with ``walk_edges``)."""
    calls, depth = Counter(), [0]

    def counting(name, fn):
        def counted(*args, **kwargs):
            if not depth[0]:
                calls[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    for name in PRIMITIVES:
        raw = vars(NumpyKernelBackend)[name]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(counting(name, raw.__func__))
        else:
            wrapped = counting(name, raw)
        monkeypatch.setattr(NumpyKernelBackend, name, wrapped)
    monkeypatch.setattr(
        SIMDXEngine, "_walk_edges",
        staticmethod(counting("walk_edges", SIMDXEngine._walk_edges)),
    )
    return calls


class TestReferenceSeam:
    """Every path the engine has runs the substitute's primitives - the
    same ones the vectorized engine runs there - and no vectorized one."""

    PATHS = {
        "push": (EngineConfig(forced_direction=Direction.PUSH), "run"),
        "pull": (EngineConfig(forced_direction=Direction.PULL), "run"),
        "split-batch": (EngineConfig(), "run_batch"),
        "shards=2": (EngineConfig(num_shards=2), "run"),
        "shards=2-batch": (EngineConfig(num_shards=2), "run_batch"),
    }

    @staticmethod
    def _run(engine, entry, rmat):
        order = np.argsort(-rmat.out_degrees(), kind="stable")
        if entry == "run":
            return engine.run(SSSP(source=int(order[0])))
        return engine.run_batch(SSSP(), [int(v) for v in order[:8]])

    def test_every_primitive_goes_through_the_seam(
        self, rmat, vectorized_calls, monkeypatch
    ):
        # A zero margin splits every diverging batched superstep.
        monkeypatch.setattr(BatchDirectionPolicy, "margin", 0.0)
        reached = set()
        for path, (config, entry) in self.PATHS.items():
            vectorized_calls.clear()
            expected = self._run(SIMDXEngine(rmat, config=config), entry, rmat)
            used = set(vectorized_calls)
            vectorized_calls.clear()
            kernel = CountingKernel(PythonKernelBackend())
            got = self._run(
                ReferenceKernelEngine(rmat, config=config, kernel=kernel),
                entry, rmat,
            )
            assert not vectorized_calls, (path, dict(vectorized_calls))
            assert set(kernel.calls) == used, path
            assert np.array_equal(got.values, expected.values), path
            if path == "split-batch":
                assert got.extra["lane_splits"] > 0
            reached |= used
        # Both walks, the lane bitmask and Combine all crossed the seam.
        assert reached >= {
            "walk_edges", "walk_kept", "membership_mask", "sorted_unique",
            "union_sorted", "build_lane_bits", "lane_mask", "segment_reduce",
        }, reached


# ----------------------------------------------------------------------
# Engine edge cases, per kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", KERNELS)
class TestEngineEdgeCases:
    def test_empty_frontier_terminates(self, backend):
        """A source with no out-edges converges without walking anything."""
        graph = CSRGraph.from_edges(
            5, [(1, 2), (2, 3)], directed=True, name="iso", weight_seed=1
        )
        config = EngineConfig(sanitize=True)
        result = KERNEL_ENGINES[backend](graph, config=config).run(BFS(source=0))
        assert not result.failed
        assert result.values[0] == 0
        assert np.all(result.values[1:] == -1)
        assert result.extra["kernel_edges_walked"] == 0

    def test_self_loop_and_zero_degree(self, backend, loop_graph):
        config = EngineConfig(sanitize=True)
        result = KERNEL_ENGINES[backend](loop_graph, config=config).run(SSSP(source=0))
        assert not result.failed
        reference = SIMDXEngine(loop_graph).run(SSSP(source=0))
        assert np.array_equal(result.values, reference.values)
        assert np.isinf(result.values[5])  # isolated vertex unreached

    def test_max_iterations_zero(self, backend, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        algorithm = SSSP(source=source)
        algorithm.max_iterations = 0
        result = KERNEL_ENGINES[backend](rmat).run(algorithm)
        assert not result.failed
        assert result.iterations == 0
        assert result.extra["kernel_edges_walked"] == 0

    def test_forced_direction_schedule(self, backend, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        schedule = [
            Direction.PUSH, Direction.PULL, Direction.PULL, Direction.PUSH,
        ]
        config = EngineConfig(sanitize=True)
        result = KERNEL_ENGINES[backend](
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
        batch = KERNEL_ENGINES[backend](rmat).run_batch(BFS(), sources)
        assert not batch.failed
        reference = SIMDXEngine(rmat).run_batch(BFS(), sources)
        assert np.array_equal(batch.values, reference.values)
        assert batch.extra["kernel_edges_walked"] == (
            reference.extra["kernel_edges_walked"]
        )


# ----------------------------------------------------------------------
# Structural guard: no sort/hash dedupe once the lane set exists
# ----------------------------------------------------------------------
class TestSortFreeSupersteps:
    """Id sets stay canonical by construction (``core/superstep.py``), so on
    the numpy backend ``np.unique`` runs only at ``LaneSet`` construction."""

    @pytest.fixture
    def unique_calls(self, monkeypatch):
        """Call sites of ``np.unique`` since the superstep loop started."""
        calls = []
        real_unique, real_loop = np.unique, SuperstepDriver._loop

        def counted_unique(*args, **kwargs):
            caller = traceback.extract_stack(limit=2)[0]
            calls.append(f"{caller.filename}:{caller.lineno}")
            return real_unique(*args, **kwargs)

        def loop(driver, lanes):
            assert calls, "LaneSet construction canonicalizes with np.unique"
            calls.clear()
            return real_loop(driver, lanes)

        monkeypatch.setattr(np, "unique", counted_unique)
        monkeypatch.setattr(SuperstepDriver, "_loop", loop)
        return calls

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_single_runs(self, unique_calls, rmat, road, num_shards):
        config = EngineConfig(num_shards=num_shards)
        for graph, algorithm in (
            (rmat, PageRank()),
            (rmat, BFS(source=int(np.argmax(rmat.out_degrees())))),
            (road, BFS(source=0)),
        ):
            result = SIMDXEngine(graph, config=config).run(algorithm)
            assert not result.failed
            # Both directions and (on rmat) both filters ran unguarded.
            assert {"push", "pull"} <= set("+".join(result.direction_trace).split("+"))
            assert unique_calls == []

    @pytest.mark.parametrize("lane_aware_split", [True, False])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_batched_runs(self, unique_calls, rmat, lane_aware_split, num_shards):
        sources = [int(v) for v in np.argsort(-rmat.out_degrees(), kind="stable")[:16]]
        config = EngineConfig(
            lane_aware_split=lane_aware_split, num_shards=num_shards
        )
        batch = SIMDXEngine(rmat, config=config).run_batch(SSSP(), sources)
        assert not batch.failed
        if lane_aware_split and num_shards == 1:
            assert batch.extra["lane_splits"] > 0  # sub_batch views were built
        assert unique_calls == []


# ----------------------------------------------------------------------
# Accounting parity + exact pins (alongside tests/test_extra_accounting.py)
# ----------------------------------------------------------------------
class TestExtraParityPins:
    def test_single_run_extra_parity_and_pin(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        results = {
            backend: KERNEL_ENGINES[backend](rmat).run(SSSP(source=source))
            for backend in KERNELS
        }
        for result in results.values():
            # The pinned frontier_edges total of test_extra_accounting.
            assert result.extra["kernel_edges_walked"] == 15524
            assert result.extra["kernel_edges_walked"] == sum(
                r.frontier_edges for r in result.iteration_records
            )
        a, b = (results[backend] for backend in KERNELS)
        assert a.extra == b.extra
        assert a.elapsed_us == b.elapsed_us  # simulated time is shared
        assert a.kernel_launches == b.kernel_launches
        assert a.direction_trace == b.direction_trace
        assert a.filter_trace == b.filter_trace

    def test_batch_extra_parity_and_pin(self, road):
        sources = [
            int(v) for v in np.argsort(-road.out_degrees(), kind="stable")[:8]
        ]
        results = {
            backend: KERNEL_ENGINES[backend](road).run_batch(SSSP(), sources)
            for backend in KERNELS
        }
        for batch in results.values():
            # kernel_edges_walked == union_edges_walked == the PR-4 pin.
            assert batch.extra["kernel_edges_walked"] == 49305
            assert batch.extra["kernel_edges_walked"] == (
                batch.extra["union_edges_walked"]
            )
        a, b = (results[backend] for backend in KERNELS)
        assert a.extra == b.extra
        assert a.elapsed_us == b.elapsed_us
        assert a.lane_iterations == b.lane_iterations

    def test_sharded_extra_parity_and_pin(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        results = {
            backend: KERNEL_ENGINES[backend](
                rmat, config=EngineConfig(num_shards=2)
            ).run(SSSP(source=source))
            for backend in KERNELS
        }
        for result in results.values():
            assert result.extra["shard_scanned_edges"] == [7722, 10431]
            assert result.extra["kernel_edges_walked"] == 7722 + 10431
        a, b = (results[backend] for backend in KERNELS)
        assert a.extra == b.extra
        assert np.array_equal(a.values, b.values)
