"""Batched multi-source execution equals K independent runs, bit for bit.

``SIMDXEngine.run_batch`` answers K queries through one union-frontier CSR
walk per iteration (docs/batching.md); these tests pin its contract:

* per-lane values and metadata are bit-identical to the K single-source
  runs, for BFS and SSSP, under auto, forced-push and forced-pull
  direction selection;
* lanes evolve in lockstep with their independent runs (per-lane iteration
  counts match), including a lane that finishes early and K=1 - for
  delta-stepping SSSP, whose single-run trajectory is itself
  filter-dependent, only value equality is guaranteed and asserted;
* each iteration walks the CSR exactly once, over the union worklist -
  the amortization the batching exists for;
* a one-lane batch is its single run record for record (elapsed time,
  traces, every shared ``extra`` key), plain, sanitized and sharded;
* K=65 lanes, past the modeled device's 64-lane bitmask word, match their
  single runs;
* the lane model: a lane's frontier is its canonical id array plus one
  n-sized membership mask, which answers per walked source what the packed
  lane words answered per union row; only the modeled device still carries
  the words (one uint64 per 64 lanes per vertex).
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank
from repro.core import superstep
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.filters import FilterMode
from repro.core.kernels import DEFAULT_KERNEL, NumpyKernelBackend
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.oracles import PythonKernelBackend

KERNELS = {"numpy": DEFAULT_KERNEL, "python": PythonKernelBackend()}

#: ``REPRO_SANITIZE=1`` runs every engine here armed (conftest.py).
pytestmark = pytest.mark.usefixtures("armed_by_env")

CONFIGS = {
    "auto": EngineConfig(),
    "forced_push": EngineConfig(
        forced_direction=Direction.PUSH
    ),
    "forced_pull": EngineConfig(
        forced_direction=Direction.PULL
    ),
}


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


@pytest.fixture(scope="module")
def sources(graph) -> list:
    degrees = graph.out_degrees()
    return [int(v) for v in np.argsort(degrees, kind="stable")[::-1][:16]]


def _single_runs(graph, algorithm_cls, sources, config):
    results = []
    for source in sources:
        engine = SIMDXEngine(graph, config=config)
        results.append(engine.run(algorithm_cls(source=source)))
    return results


class TestLaneMasks:
    """One representation per lane: canonical ids plus a membership mask."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_union_and_mask_roundtrip(self, kernel):
        backend = KERNELS[kernel]
        lanes = [
            np.unique(np.array(ids, dtype=np.int64))
            for ids in ([3, 1, 7], [], [7, 7, 2])
        ]
        union = backend.union_sorted(lanes, 10)
        assert union.dtype == np.int64
        assert np.array_equal(union, [1, 2, 3, 7])
        masks = [backend.membership_mask(lane, 10) for lane in lanes]
        # What a push unit keeps of a walked source array, per lane.
        assert np.array_equal(union[masks[0].take(union)], [1, 3, 7])
        assert not masks[1].any()
        assert np.array_equal(union[masks[2].take(union)], [2, 7])
        assert sum(int(mask.sum()) for mask in masks) == 5

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_masks_answer_what_packed_lane_words_answered(self, kernel):
        # 65 lanes cross the 64-lane word: every lane's mask, read at the
        # union rows or at a walked source array, agrees with its bit.
        backend = KERNELS[kernel]
        rng = np.random.default_rng(3)
        lanes = [
            np.unique(rng.integers(0, 200, size=rng.integers(0, 15)))
            for _ in range(65)
        ]
        union = backend.union_sorted(lanes, 200)
        vertices, bits = backend.build_lane_bits(lanes, 200)
        assert np.array_equal(union, vertices)
        src = rng.choice(union, size=300)  # a walk repeats its sources
        rows = np.searchsorted(union, src)
        for lane in range(65):
            mask = backend.membership_mask(lanes[lane], 200)
            packed = backend.lane_mask(bits, lane)
            assert np.array_equal(mask.take(union), packed)
            assert np.array_equal(
                mask.take(src).nonzero()[0], packed.take(rows).nonzero()[0]
            )

    def test_modeled_lane_words_cross_the_word_width(self, graph):
        # The device the cost model prices still packs 64 lanes per word:
        # K=65 is the first batch that needs a second word per vertex.
        def lane_words(num_lanes):
            (buffers,) = superstep.static_footprint(graph, num_lanes)
            single = 3 * graph.modeled_num_vertices * 4
            extra = dict(buffers)["worklists"] - single
            return extra // (graph.modeled_num_vertices * 8)

        assert [lane_words(k) for k in (1, 64, 65, 128, 129)] == [1, 1, 2, 2, 3]

    def test_empty_everywhere(self):
        # Every lane's source has no out-edge: the first superstep walks
        # nothing, and each lane ends as its single run does.
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2)], name="tail")
        sources = [3, 4, 5]
        batch = SIMDXEngine(graph).run_batch(BFS(), sources)
        assert not batch.failed, batch.failure_reason
        for lane, source in enumerate(sources):
            single = SIMDXEngine(graph).run(BFS(source=source))
            assert np.array_equal(batch.values[lane], single.values)
            assert batch.lane_iterations[lane] == single.iterations


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("algorithm_cls", [BFS, SSSP])
    def test_batch_matches_independent_runs(
        self, graph, sources, algorithm_cls, config_name
    ):
        config = CONFIGS[config_name]
        batch = SIMDXEngine(graph, config=config).run_batch(
            algorithm_cls(), sources
        )
        assert not batch.failed, batch.failure_reason
        assert batch.num_lanes == len(sources)
        singles = _single_runs(graph, algorithm_cls, sources, config)
        for lane, single in enumerate(singles):
            assert np.array_equal(batch.values[lane], single.values), (
                f"lane {lane} (source {sources[lane]}) diverged"
            )
            # Lanes evolve in lockstep with their independent runs.
            assert batch.lane_iterations[lane] == single.iterations
        assert batch.iterations == max(s.iterations for s in singles)

    def test_sssp_metadata_rows_are_bit_identical(self, graph, sources):
        # SSSP's vertex_value is the identity, so comparing the raw metadata
        # rows checks bit-level float equality of the accumulated sums.
        batch = SIMDXEngine(graph).run_batch(SSSP(), sources)
        for lane, source in enumerate(sources):
            single = SIMDXEngine(graph).run(SSSP(source=source))
            assert np.array_equal(batch.metadata[lane], single.values)

    def test_k_equals_one_matches_single_run(self, graph, sources):
        source = sources[0]
        batch = SIMDXEngine(graph).run_batch(BFS(), [source])
        single = SIMDXEngine(graph).run(BFS(source=source))
        assert np.array_equal(batch.values[0], single.values)
        assert batch.iterations == single.iterations
        # With one lane there is no lane-axis work beyond the union pass:
        # every (edge, lane) pair is one of the union's active edges (in
        # pull iterations the walk additionally scans non-frontier
        # in-edges, which produce no pairs).
        assert batch.extra["lane_edge_pairs"] == sum(
            r.active_edges for r in batch.iteration_records
        )

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_delta_stepping_sssp_values_identical(
        self, graph, sources, config_name
    ):
        # Exercises the stateful per-lane hooks (pending set, bucket
        # advance, convergence re-seed) through per-lane algorithm copies.
        # Delta-stepping guarantees bit-identical *values*, not iteration
        # counts: even a single run's trajectory depends on which filter
        # the JIT picks (the ballot worklist re-admits vertices pending
        # from earlier buckets, the online worklist does not), so a batch
        # making one union filter decision may converge in a different
        # number of iterations (see BatchRunResult's docstring).
        config = CONFIGS[config_name]
        few = sources[:4]
        batch = SIMDXEngine(graph, config=config).run_batch(
            SSSP(delta=10.0), few
        )
        assert not batch.failed
        for lane, source in enumerate(few):
            single = SIMDXEngine(graph, config=config).run(
                SSSP(source=source, delta=10.0)
            )
            assert np.array_equal(batch.values[lane], single.values)

    def test_k65_run_batch_matches_singles(self):
        # End-to-end K=65: the lane-aware policy's per-lane selectors and
        # the memory model's lane words all index past the first word.
        graph = gen.rmat_graph(8, 8, seed=3, name="rmat8")
        degrees = graph.out_degrees()
        sources = [
            int(v) for v in np.argsort(-degrees, kind="stable")[:65]
        ]
        batch = SIMDXEngine(graph).run_batch(BFS(), sources)
        assert not batch.failed, batch.failure_reason
        assert batch.num_lanes == 65
        for lane, source in enumerate(sources):
            single = SIMDXEngine(graph).run(BFS(source=source))
            assert np.array_equal(batch.values[lane], single.values), lane


class TestKEqualsOneIsRun:
    """``run_batch(alg, [s])`` is ``run(alg(source=s))``, record for record.

    Both go through the one superstep driver as a one-lane set, and the
    next-frontier rule is the same for both (a lane whose filter pass
    covered exactly that lane over the whole vertex range continues from
    the pass's worklist), so everything observable matches - including
    delta-stepping SSSP, whose trajectory depends on which worklist the
    lane continues from. What legitimately differs is the lane axis: the
    two lane-axis record fields, the batch-only ``extra`` keys, and the
    modeled allocation (a batch carries the per-vertex lane-bitmask words,
    which shows in the sharded per-device memory peaks).
    """

    ALGORITHMS = {
        "bfs": lambda **kw: BFS(**kw),
        "sssp": lambda **kw: SSSP(**kw),
        "sssp_delta": lambda **kw: SSSP(delta=2.0, **kw),
    }
    LANE_AXIS_FIELDS = {"lane_edge_pairs", "active_lanes"}
    ALLOCATION_KEYS = {"shard_peak_bytes"}

    @pytest.fixture(scope="class")
    def graphs(self, graph):
        return {
            "rmat": graph,
            "road": gen.road_network_graph(20, 20, seed=5, name="road20"),
        }

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("filter_mode", [FilterMode.JIT, FilterMode.BALLOT])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("graph_name", ["rmat", "road"])
    def test_one_lane_batch_equals_run(
        self, graphs, graph_name, algorithm, config_name, filter_mode,
        sanitize, num_shards,
    ):
        g = graphs[graph_name]
        source = int(np.argmax(g.out_degrees()))
        config = replace(
            CONFIGS[config_name], filter_mode=filter_mode, sanitize=sanitize,
            num_shards=num_shards,
        )
        make = self.ALGORITHMS[algorithm]
        batch = SIMDXEngine(g, config=config).run_batch(make(), [source])
        single = SIMDXEngine(g, config=config).run(make(source=source))
        assert not batch.failed and not single.failed
        assert np.array_equal(batch.values[0], single.values)
        assert batch.elapsed_us == single.elapsed_us
        assert batch.iterations == single.iterations
        assert batch.lane_iterations == [single.iterations]
        assert batch.direction_trace == single.direction_trace
        assert batch.filter_trace == single.filter_trace
        assert batch.kernel_launches == single.kernel_launches
        shared = (set(batch.extra) & set(single.extra)) - self.ALLOCATION_KEYS
        assert {"breakdown", "kernel_edges_walked"} <= shared
        for key in shared - {"sanitizer"}:
            assert batch.extra[key] == single.extra[key], key
        if sanitize:
            assert batch.extra["sanitizer"]["clean"]
            assert single.extra["sanitizer"]["clean"]
        assert len(batch.iteration_records) == len(single.iteration_records)
        for ours, theirs in zip(
            batch.iteration_records, single.iteration_records
        ):
            for field in fields(ours):
                if field.name not in self.LANE_AXIS_FIELDS:
                    assert getattr(ours, field.name) == getattr(
                        theirs, field.name
                    ), (ours.iteration, field.name)


class TestEarlyFinishingLane:
    def _two_component_graph(self) -> CSRGraph:
        # A 12-vertex chain (long query) and a separate 2-vertex component
        # (the lane that finishes after its first expansions).
        edges = [(i, i + 1) for i in range(11)]
        edges.append((20, 21))
        return CSRGraph.from_edges(
            22, np.asarray(edges, dtype=np.int64), directed=True, name="chain+pair"
        )

    def test_early_lane_freezes_and_stays_identical(self):
        graph = self._two_component_graph()
        sources = [0, 20]
        batch = SIMDXEngine(graph).run_batch(BFS(), sources)
        chain = SIMDXEngine(graph).run(BFS(source=0))
        pair = SIMDXEngine(graph).run(BFS(source=20))
        assert np.array_equal(batch.values[0], chain.values)
        assert np.array_equal(batch.values[1], pair.values)
        assert batch.lane_iterations[0] == chain.iterations
        assert batch.lane_iterations[1] == pair.iterations
        assert batch.lane_iterations[1] < batch.lane_iterations[0]
        assert batch.iterations == chain.iterations


class TestUnionWalkAmortization:
    def test_one_csr_walk_per_iteration_over_the_union(
        self, graph, sources, monkeypatch
    ):
        # A scatter walks through the ``_walk_edges`` alias; a gather never does.
        calls = []
        original = SIMDXEngine._walk_edges

        def counting_walk(csr, worklist):
            result = original(csr, worklist)
            calls.append(result[2])
            return result

        monkeypatch.setattr(
            SIMDXEngine, "_walk_edges", staticmethod(counting_walk)
        )
        config = CONFIGS["forced_push"]
        batch = SIMDXEngine(graph, config=config).run_batch(BFS(), sources)
        # Exactly one CSR walk per iteration, each over the union worklist.
        assert len(calls) == batch.iterations
        assert sum(calls) == batch.extra["union_edges_walked"]
        # The union walk is the amortization: K overlapping frontiers
        # produce far more (edge, lane) pairs than union edges.
        assert batch.extra["lane_edge_pairs"] > batch.extra["union_edges_walked"]
        calls.clear()
        SIMDXEngine(graph, config=CONFIGS["forced_pull"]).run_batch(BFS(), sources)
        assert calls == []

    def test_one_gather_walk_per_pull_unit(self, graph, sources, monkeypatch):
        calls = []
        original = NumpyKernelBackend.walk_kept

        def counting_walk_kept(backend, csr, worklist, source_mask, edge_ids):
            result = original(backend, csr, worklist, source_mask, edge_ids)
            calls.append(result[3])
            return result

        monkeypatch.setattr(NumpyKernelBackend, "walk_kept", counting_walk_kept)
        config = CONFIGS["forced_pull"]
        batch = SIMDXEngine(graph, config=config).run_batch(BFS(), sources)
        pull_units = [
            r for r in batch.iteration_records if r.direction == "pull"
        ]
        assert pull_units and len(pull_units) == len(batch.iteration_records)
        # One bitmap-first walk per pull unit, over the union worklist.
        assert len(calls) == len(pull_units)
        assert sum(calls) == batch.extra["union_edges_walked"]
        assert batch.extra["lane_edge_pairs"] > batch.extra["union_edges_walked"]

    def test_union_walk_cheaper_than_serial_walks(self, graph, sources):
        config = CONFIGS["forced_push"]
        batch = SIMDXEngine(graph, config=config).run_batch(BFS(), sources)
        serial_edges = 0
        for source in sources:
            single = SIMDXEngine(graph, config=config).run(BFS(source=source))
            serial_edges += sum(
                r.frontier_edges for r in single.iteration_records
            )
        # The pairs the batch evaluates are exactly the edges the serial
        # loop would walk; the batch walks only the union of them.
        assert batch.extra["lane_edge_pairs"] == serial_edges
        assert batch.extra["union_edges_walked"] < serial_edges


class TestBatchAPI:
    def test_rejects_algorithms_without_multi_source(self, graph):
        with pytest.raises(ValueError, match="multi-source"):
            SIMDXEngine(graph).run_batch(PageRank(), [0, 1])

    def test_rejects_empty_source_list(self, graph):
        with pytest.raises(ValueError, match="at least one source"):
            SIMDXEngine(graph).run_batch(BFS(), [])

    def test_atomic_combine_ablation_is_priced(
        self, graph, sources, monkeypatch
    ):
        # The Figure-5 ablation must affect batched runs too: identical
        # values, higher simulated cost under atomic pricing.
        acc = SIMDXEngine(graph).run_batch(BFS(), sources)
        atomic = SIMDXEngine(
            graph, config=EngineConfig(atomic_combine=True)
        ).run_batch(BFS(), sources)
        assert np.array_equal(acc.values, atomic.values)
        assert atomic.elapsed_us > acc.elapsed_us

        # Only the ablation builds a unit's atomic keys - one per valid
        # update of each lane, since lanes write separate metadata rows -
        # and what it prices is pinned: SSSP's forced-pull atomic charge,
        # where a gather that kept no edge charges no atomics.
        gathers = []
        finish_unit = superstep.SuperstepDriver._finish_unit

        def recording(self, unit, step):
            if unit.direction is Direction.PULL:
                gathers.append(unit)
            return finish_unit(self, unit, step)

        monkeypatch.setattr(superstep.SuperstepDriver, "_finish_unit", recording)
        for atomic_combine in (False, True):
            del gathers[:]
            pulled = SIMDXEngine(graph, config=EngineConfig(
                forced_direction=Direction.PULL, atomic_combine=atomic_combine,
            )).run_batch(SSSP(), sources)
            assert gathers
            for unit in gathers:
                if not atomic_combine:
                    assert unit.atomic_keys is None
                    continue
                keys = unit.atomic_keys or []
                assert sum(k.size for k in keys) == unit.updates_valid
        assert pulled.extra["breakdown"]["atomic_us"] == pytest.approx(
            54.24480730729077, rel=1e-12
        )

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("direction", [None, Direction.PUSH, Direction.PULL])
    def test_atomic_ops_are_the_valid_updates(
        self, graph, sources, direction, shards
    ):
        # Each lane writes its own metadata row, so every valid update of
        # every lane is one atomic: a record prices exactly its
        # ``updates_valid``, and a batch issues what its lanes' solo runs do.
        config = EngineConfig(
            atomic_combine=True, forced_direction=direction, num_shards=shards,
        )

        def atomic_ops(result):
            records = result.iteration_records
            assert records
            for record in records:
                assert record.atomic_profile.num_ops == record.updates_valid
            return sum(record.updates_valid for record in records)

        lanes = sources[:4]
        batch = SIMDXEngine(graph, config=config).run_batch(SSSP(), lanes)
        solo = _single_runs(graph, SSSP, lanes, config)
        assert atomic_ops(batch) == sum(atomic_ops(run) for run in solo) > 0

    def test_queries_per_second_reported(self, graph, sources):
        batch = SIMDXEngine(graph).run_batch(BFS(), sources)
        assert batch.queries_per_second > 0
        assert batch.elapsed_ms > 0
        assert len(batch.filter_trace) == batch.iterations
        assert len(batch.direction_trace) == batch.iterations
        for record in batch.iteration_records:
            assert record.active_lanes >= 1
            assert record.lane_edge_pairs >= record.active_edges
