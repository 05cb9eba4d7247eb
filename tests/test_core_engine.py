"""Tests for the SIMD-X execution engine: correctness invariance across
configurations, traces, failure modes and cost-model behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, KCore, PageRank
from repro.baselines import reference as ref
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.filters import FilterMode
from repro.core.fusion import FusionStrategy
from repro.gpu.device import GPUDevice, K40
from repro.graph.csr import CSRGraph
from tests.conftest import assert_distances_equal
from tests import graphs


class TestFunctionalCorrectness:
    def test_bfs_matches_reference(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert np.array_equal(result.values, ref.bfs_levels(rmat_graph, src))

    def test_sssp_matches_dijkstra(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(SSSP(source=src))
        assert_distances_equal(result.values, ref.sssp_distances(rmat_graph, src))

    @pytest.mark.parametrize("filter_mode", [FilterMode.JIT, FilterMode.BALLOT])
    def test_results_invariant_across_filters(self, rmat_graph, filter_mode):
        src = int(np.argmax(rmat_graph.out_degrees()))
        config = EngineConfig(filter_mode=filter_mode)
        result = SIMDXEngine(rmat_graph, config=config).run(BFS(source=src))
        assert not result.failed
        assert np.array_equal(result.values, ref.bfs_levels(rmat_graph, src))

    @pytest.mark.parametrize("fusion", list(FusionStrategy))
    def test_results_invariant_across_fusion(self, rmat_graph, fusion):
        src = int(np.argmax(rmat_graph.out_degrees()))
        config = EngineConfig(fusion=fusion)
        result = SIMDXEngine(rmat_graph, config=config).run(SSSP(source=src))
        assert_distances_equal(result.values, ref.sssp_distances(rmat_graph, src))

    def test_results_invariant_across_devices(self, rmat_graph):
        from repro.gpu.device import K20, P100

        src = int(np.argmax(rmat_graph.out_degrees()))
        values = []
        for spec in (K20, K40, P100):
            result = SIMDXEngine(rmat_graph, spec).run(BFS(source=src))
            values.append(result.values)
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(values[1], values[2])

    def test_atomic_combine_pricing_does_not_change_results(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        a = SIMDXEngine(rmat_graph, config=EngineConfig(atomic_combine=True)).run(BFS(src))
        b = SIMDXEngine(rmat_graph, config=EngineConfig(atomic_combine=False)).run(BFS(src))
        assert np.array_equal(a.values, b.values)
        assert a.elapsed_us > b.elapsed_us

    def test_atomic_combine_gather_that_keeps_no_edge_charges_no_atomics(
        self, monkeypatch
    ):
        # The chain 0-1-2 beside the pair 3-4: the third pull superstep's
        # frontier {2} has no edge into the gather worklist {3, 4}.
        graph = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)], weights=[1, 1, 1])
        atomic_ops = []
        estimate = GPUDevice.estimate

        def counting(device, launch):
            atomic_ops.append(launch.work.atomic_ops)
            return estimate(device, launch)

        monkeypatch.setattr(GPUDevice, "estimate", counting)
        result = SIMDXEngine(graph, config=EngineConfig(
            forced_direction=Direction.PULL, atomic_combine=True,
        )).run(BFS(source=0))
        assert [r.active_edges for r in result.iteration_records] == [1, 1, 0]
        # One atomic per kept edge (0->1, 1->2); the empty gather adds none.
        assert sum(atomic_ops) == pytest.approx(2.0)

    def test_unreachable_vertices_stay_unreached(self):
        g = graphs.two_level_graph(2, 10, 0, seed=3)  # two disconnected clusters
        result = SIMDXEngine(g).run(BFS(source=0))
        assert np.all(result.values[10:] == -1)
        assert np.all(result.values[:10] >= 0)

    def test_isolated_source_terminates_immediately(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(4, [(1, 2)], weights=[1])
        result = SIMDXEngine(g).run(BFS(source=0))
        assert result.iterations <= 1
        assert result.values[0] == 0
        assert np.all(result.values[1:] == -1)


class TestRunResultContents:
    def test_run_result_fields(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(BFS(source=0))
        assert result.system == "SIMD-X"
        assert result.algorithm == "bfs"
        assert result.device == "K40"
        assert result.iterations == len(result.iteration_records)
        assert len(result.filter_trace) == result.iterations
        assert len(result.direction_trace) == result.iterations
        assert result.elapsed_us > 0
        assert result.kernel_launches > 0

    def test_iteration_records_consistent(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(SSSP(source=src))
        component_sum = sum(
            r.compute_us + r.filter_us + r.barrier_us + r.launch_us
            for r in result.iteration_records
        )
        assert component_sum == pytest.approx(result.elapsed_us, rel=1e-6)
        for record in result.iteration_records:
            assert record.frontier_vertices > 0
            assert record.total_us > 0

    def test_first_iteration_frontier_is_source(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert result.iteration_records[0].frontier_vertices == 1

    def test_extra_metadata(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(BFS(source=0))
        assert result.extra["fusion"] == "push_pull"
        assert result.extra["filter_mode"] == "jit"
        assert "direction_switches" in result.extra


class TestFilterBehaviourInEngine:
    def test_jit_uses_online_then_ballot_on_skewed_graph(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert "ballot" in result.filter_trace
        # The last iterations (tiny frontier) fall back to the online filter.
        assert result.filter_trace[-1] == "online"
        # Direction-aware selection: pull iterations always run the online
        # filter (a gather worker records at most one destination).
        for record in result.iteration_records:
            if record.direction == "pull":
                assert record.filter_used == "online"

    def test_jit_stays_online_on_high_diameter_graph(self, road_graph):
        result = SIMDXEngine(road_graph).run(BFS(source=0))
        assert set(result.filter_trace) == {"online"}

    def test_online_only_fails_on_skewed_graph(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        config = EngineConfig(filter_mode=FilterMode.ONLINE, overflow_threshold=16)
        result = SIMDXEngine(rmat_graph, config=config).run(BFS(source=src))
        assert result.failed
        assert "overflow" in result.failure_reason

    def test_online_only_succeeds_on_road_graph(self, road_graph):
        config = EngineConfig(filter_mode=FilterMode.ONLINE)
        result = SIMDXEngine(road_graph, config=config).run(BFS(source=0))
        assert not result.failed

    def test_ballot_only_slower_than_jit_on_road_graph(self, road_graph):
        jit = SIMDXEngine(road_graph, config=EngineConfig(filter_mode=FilterMode.JIT))
        ballot = SIMDXEngine(road_graph, config=EngineConfig(filter_mode=FilterMode.BALLOT))
        t_jit = jit.run(BFS(source=0)).elapsed_us
        t_ballot = ballot.run(BFS(source=0)).elapsed_us
        assert t_ballot > t_jit

    def test_kcore_ballots_only_in_early_iterations(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(KCore(k=8))
        if "ballot" in result.filter_trace:
            last_ballot = max(i for i, f in enumerate(result.filter_trace) if f == "ballot")
            assert last_ballot <= len(result.filter_trace) // 2


class TestFusionBehaviourInEngine:
    def test_launch_counts_ordering(self, road_graph):
        """More fusion -> fewer launches; no fusion -> 4 per iteration."""
        counts = {}
        for strategy in FusionStrategy:
            config = EngineConfig(fusion=strategy)
            result = SIMDXEngine(road_graph, config=config).run(BFS(source=0))
            counts[strategy] = (result.kernel_launches, result.iterations)
        none_launches, iters = counts[FusionStrategy.NONE]
        assert none_launches == 4 * iters
        assert counts[FusionStrategy.ALL][0] == 1
        assert 1 <= counts[FusionStrategy.PUSH_PULL][0] <= 1 + 2 * 4

    def test_push_pull_fusion_fastest_on_high_iteration_graph(self, road_graph):
        times = {}
        for strategy in FusionStrategy:
            config = EngineConfig(fusion=strategy)
            times[strategy] = SIMDXEngine(road_graph, config=config).run(
                BFS(source=0)
            ).elapsed_us
        assert times[FusionStrategy.PUSH_PULL] < times[FusionStrategy.NONE]

    def test_direction_trace_clusters(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert result.direction_trace[0] == "push"
        # Directions form contiguous phases (no rapid flapping beyond the
        # number of threshold crossings).
        switches = sum(
            1 for a, b in zip(result.direction_trace, result.direction_trace[1:])
            if a != b
        )
        assert switches <= 3


def _capped_bfs(max_iterations: int) -> BFS:
    """BFS from vertex 0 capped through the algorithm's own attribute."""
    bfs = BFS(source=0)
    bfs.max_iterations = max_iterations
    return bfs


class TestConfigRegressions:
    def test_max_iterations_zero_is_respected(self, rmat_graph):
        """``max_iterations = 0`` means zero iterations, not "unset"."""
        result = SIMDXEngine(rmat_graph).run(_capped_bfs(0))
        assert not result.failed
        assert result.extra["stopped_at_cap"]
        assert result.iterations == 0
        assert result.iteration_records == []
        # Only the source was initialized; nothing was expanded.
        assert result.values[0] == 0
        assert np.all(result.values[1:] == -1)

    def test_max_iterations_cap_applies(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(_capped_bfs(2))
        assert result.iterations <= 2

    def test_stopping_at_the_cap_is_reported_not_failed(self, rmat_graph):
        """``stopped_at_cap`` is True only when the loop ends at
        ``max_iterations`` with work left, on runs and batches alike."""
        engine = SIMDXEngine(rmat_graph)
        capped = engine.run(_capped_bfs(1))
        assert capped.extra["stopped_at_cap"] and not capped.failed
        full = engine.run(BFS(source=0))
        assert not full.extra["stopped_at_cap"]
        roomy = engine.run(_capped_bfs(full.iterations))
        assert not roomy.extra["stopped_at_cap"]
        batch = engine.run_batch(_capped_bfs(1), [0, 1])
        assert batch.extra["stopped_at_cap"] and not batch.failed
        assert not engine.run_batch(BFS(source=0), [0, 1]).extra["stopped_at_cap"]

    def test_engine_is_reentrant(self, rmat_graph):
        """Two runs on one engine match a fresh engine's run exactly (no
        state - fusion residency, task-kernel slot - leaks across runs)."""
        src = int(np.argmax(rmat_graph.out_degrees()))
        engine = SIMDXEngine(rmat_graph)
        first = engine.run(BFS(source=src))
        second = engine.run(BFS(source=src))
        fresh = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert np.array_equal(first.values, second.values)
        assert second.elapsed_us == pytest.approx(fresh.elapsed_us)
        assert second.kernel_launches == fresh.kernel_launches
        assert second.filter_trace == fresh.filter_trace

    def test_manual_direction_keeps_selector_consistent(self, rmat_graph):
        """Pinning the direction goes through the selector's state machine,
        so switch counts and phase lengths stay truthful."""
        from repro.core.direction import Direction

        for direction in Direction:
            config = EngineConfig(forced_direction=direction)
            result = SIMDXEngine(rmat_graph, config=config).run(BFS(source=0))
            assert set(result.direction_trace) == {direction.value}
            assert result.extra["direction_switches"] == 0


class TestMemoryFailureModes:
    def test_oom_on_graph_larger_than_device(self, rmat_graph):
        rmat_graph.meta["paper_vertices"] = 10**9
        rmat_graph.meta["paper_edges"] = 10**11
        try:
            result = SIMDXEngine(rmat_graph).run(BFS(source=0))
            assert result.failed
            assert "OOM" in result.failure_reason
        finally:
            rmat_graph.meta.pop("paper_vertices")
            rmat_graph.meta.pop("paper_edges")


class TestConfigKnobs:
    def test_max_iterations_caps_run(self, road_graph):
        result = SIMDXEngine(road_graph).run(_capped_bfs(3))
        assert result.iterations == 3

    def test_overflow_threshold_changes_filter_choice(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        low = SIMDXEngine(rmat_graph, config=EngineConfig(overflow_threshold=1)).run(
            BFS(source=src)
        )
        high = SIMDXEngine(
            rmat_graph, config=EngineConfig(overflow_threshold=10_000)
        ).run(BFS(source=src))
        assert low.filter_trace.count("ballot") >= high.filter_trace.count("ballot")

    def test_pagerank_converges_and_matches_power_iteration(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(PageRank(tolerance=1e-7))
        expected = ref.pagerank_scores(rmat_graph)
        assert not result.failed
        assert np.abs(result.values - expected).max() < 1e-4

    def test_separators_do_not_change_results(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        a = SIMDXEngine(
            rmat_graph,
            config=EngineConfig(small_medium_separator=4, medium_large_separator=128),
        ).run(BFS(source=src))
        b = SIMDXEngine(
            rmat_graph,
            config=EngineConfig(small_medium_separator=128, medium_large_separator=2048),
        ).run(BFS(source=src))
        assert np.array_equal(a.values, b.values)
