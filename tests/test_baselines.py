"""Tests for the baseline systems: functional agreement with SIMD-X,
cost-model orderings, memory/OOM behaviour and the one execution they all
price (a forced-push, atomic-combine SIMD-X run) with the three record
fields the cost models read."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, BFS, SSSP, PageRank, KCore
from repro.baselines import CuShaLike, GaloisLike, GunrockLike, LigraLike
from repro.baselines import reference as ref
from repro.baselines.common import CPUSpec, execute
from repro.bench.harness import make_algorithm
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import RunResult
from repro.gpu.atomics import profile_atomic_updates
from repro.gpu.device import K40
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from tests.conftest import assert_distances_equal
from tests.engine_seams import KERNEL_ENGINES, UpdateRecordingEngine

# The run every baseline prices is shadowed by the sanitizer under
# REPRO_SANITIZE=1 (CI's static-analysis job).
pytestmark = pytest.mark.usefixtures("armed_by_env")

ALL_BASELINES = [GunrockLike, CuShaLike, LigraLike, GaloisLike]


class TestPricedExecution:
    def test_execution_values_match_engine(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        execution = execute(BFS(source=src), rmat_graph)
        engine_result = SIMDXEngine(rmat_graph).run(BFS(source=src))
        assert np.array_equal(execution.values, engine_result.values)
        assert execution.iterations == engine_result.iterations

    def test_execution_iteration_workloads(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        records = execute(BFS(source=src), rmat_graph).iteration_records
        first = records[0]
        assert first.direction == "push"
        assert first.frontier_vertices == 1
        assert first.frontier_edges == rmat_graph.out_degrees()[src]
        assert sum(r.updates_valid for r in records) > 0

    def test_execution_respects_max_iterations(self, road_graph):
        algorithm = BFS(source=0)
        algorithm.max_iterations = 3
        assert execute(algorithm, road_graph).iterations == 3

    def test_frontier_is_received_and_active(self):
        # Vertex 3 is isolated: belief propagation keeps it active, but it
        # never receives an update, so SIMD-X's next frontier (received ∩
        # active) - the one every baseline prices - drops it from
        # iteration 2 on.
        graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0)], [1.0] * 3, name="iso")
        records = execute(make_algorithm("bp", graph), graph).iteration_records
        assert [r.frontier_vertices for r in records[:3]] == [4, 3, 3]

    def test_atomic_profile_recorded_per_iteration(self, star_graph):
        # Pushing from all leaves contends on the hub.
        records = execute(PageRank(tolerance=1e-3), star_graph).iteration_records
        assert any(r.atomic_profile.max_contention > 10 for r in records)


def _recording_engine(kernel: str):
    return type(
        f"UpdateRecording{KERNEL_ENGINES[kernel].__name__}",
        (UpdateRecordingEngine, KERNEL_ENGINES[kernel]), {},
    )


class TestRecordUpdateFields:
    """``updates_valid``, ``updates_applied`` and ``atomic_profile`` of
    every record equal the counts an ACC-hook recorder takes on its own."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_ENGINES))
    @pytest.mark.parametrize("fixture", ["rmat_graph", "grid_graph", "star_graph"])
    @pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank", "kcore", "spmv"])
    def test_single_run_records(self, request, kernel, fixture, name):
        graph = request.getfixturevalue(fixture)
        engine = _recording_engine(kernel)(
            graph, config=EngineConfig(atomic_combine=True)
        )
        # k = 3 peels the fixtures (the default 16 removes every vertex
        # of the grid and the star up front, with no update to count);
        # an x that is zero on even vertices sends SpMV destinations valid
        # updates that leave them unchanged.
        params = {
            "kcore": {"k": 3},
            "spmv": {"x": (np.arange(graph.num_vertices) % 2).astype(float)},
        }.get(name, {})
        result = engine.run(make_algorithm(name, graph, **params))
        assert not result.failed
        records = result.iteration_records
        assert [r.iteration for r in records] == list(range(1, result.iterations + 1))
        assert sum(engine.valid.values()) > 0
        for r in records:
            i = r.iteration
            assert r.updates_valid == engine.valid[i], i
            assert r.updates_applied == engine.applied[i], i
            parts = engine.destinations[i]
            destinations = np.concatenate(parts) if parts else np.zeros(0)
            assert r.atomic_profile == profile_atomic_updates(destinations), i

    @pytest.mark.parametrize("fixture", ["rmat_graph", "grid_graph"])
    @pytest.mark.parametrize("path", ["batch", "sharded"])
    def test_unit_records_sum_per_superstep(self, request, fixture, path):
        graph = request.getfixturevalue(fixture)
        config = EngineConfig(
            atomic_combine=True, num_shards=2 if path == "sharded" else 1
        )
        engine = _recording_engine("numpy")(graph, config=config)
        if path == "batch":
            result = engine.run_batch(SSSP(), [0, 5, 17])
        else:
            result = engine.run(make_algorithm("sssp", graph))
        assert not result.failed
        for i in range(1, result.iterations + 1):
            unit = [r for r in result.iteration_records if r.iteration == i]
            assert sum(r.updates_valid for r in unit) == engine.valid[i], i
            assert sum(r.updates_applied for r in unit) == engine.applied[i], i
            if path == "sharded":
                ops = sum(r.atomic_profile.num_ops for r in unit)
                assert ops == engine.valid[i], i

    def test_profile_only_under_atomic_combine(self, rmat_graph):
        result = SIMDXEngine(rmat_graph).run(make_algorithm("bfs", rmat_graph))
        assert all(r.atomic_profile is None for r in result.iteration_records)
        assert sum(r.updates_applied for r in result.iteration_records) > 0


class TestFunctionalAgreement:
    @pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
    def test_bfs_values_match_reference(self, rmat_graph, baseline_cls):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = baseline_cls().run(BFS(source=src), rmat_graph)
        assert not result.failed
        assert np.array_equal(result.values, ref.bfs_levels(rmat_graph, src))

    @pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
    def test_sssp_values_match_reference(self, grid_graph, baseline_cls):
        result = baseline_cls().run(SSSP(source=0), grid_graph)
        assert_distances_equal(result.values, ref.sssp_distances(grid_graph, 0))

    def test_shared_execution_reuse(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        execution = execute(BFS(source=src), rmat_graph)
        a = GunrockLike().run(BFS(source=src), rmat_graph, execution=execution)
        b = LigraLike().run(BFS(source=src), rmat_graph, execution=execution)
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations == execution.iterations

    @pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
    @pytest.mark.parametrize("fixture", ["rmat_graph", "grid_graph", "star_graph", "road_graph"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_matches_simdx(self, request, baseline_cls, fixture, name):
        graph = request.getfixturevalue(fixture)
        simdx = SIMDXEngine(graph).run(make_algorithm(name, graph))
        result = baseline_cls().run(make_algorithm(name, graph), graph)
        assert not result.failed
        np.testing.assert_array_equal(result.values, simdx.values)
        assert result.iterations == simdx.iterations


class TestGunrockModel:
    def test_slower_than_simdx_on_skewed_graph(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        simdx = SIMDXEngine(rmat_graph).run(BFS(source=src))
        gunrock = GunrockLike().run(BFS(source=src), rmat_graph)
        assert gunrock.elapsed_us > simdx.elapsed_us

    def test_two_launches_per_iteration(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        result = GunrockLike().run(BFS(source=src), rmat_graph)
        assert result.kernel_launches == 2 * result.iterations

    def test_sssp_oom_on_modeled_large_graph(self):
        graph = load_dataset("TW", scale=0.25)
        algo = SSSP(source=int(np.argmax(graph.out_degrees())))
        result = GunrockLike().run(algo, graph)
        assert result.failed
        assert "OOM" in result.failure_reason

    def test_bfs_fits_where_sssp_does_not(self):
        graph = load_dataset("FB", scale=0.25)
        bfs = GunrockLike().run(BFS(source=int(np.argmax(graph.out_degrees()))), graph)
        sssp = GunrockLike().run(SSSP(source=int(np.argmax(graph.out_degrees()))), graph)
        assert not bfs.failed
        assert sssp.failed

    def test_footprint_fails_at_the_first_buffer_that_does_not_fit(
        self, rmat_graph
    ):
        # CSR, metadata and frontier queues fit; BFS's batch edge list
        # (4 B per edge) misses by one byte.
        v, e = rmat_graph.num_vertices, rmat_graph.num_edges
        directions = 2 if rmat_graph.directed else 1
        resident = directions * (v * 8 + e * 4) + 2 * v * 8 + 2 * v * 4
        capacity = resident + e * 4 - 1
        spec = replace(K40, global_memory_bytes=capacity)
        result = GunrockLike(spec).run(BFS(source=0), rmat_graph)
        assert result.failure_reason == (
            f"OOM: K40: cannot allocate {e * 4} bytes for batch_edge_list; "
            f"{e * 4 - 1} of {capacity} bytes free"
        )


class TestCuShaModel:
    def test_full_edge_sweep_every_iteration(self, road_graph):
        # CuSha cannot skip inactive vertices, so it loses on high-diameter
        # graphs (the paper's 480x ER SSSP case; the ratio is muted here
        # because the scaled-down analogue makes launch overhead, which both
        # systems pay, a large share of every iteration).
        simdx = SIMDXEngine(road_graph).run(BFS(source=0))
        cusha = CuShaLike().run(BFS(source=0), road_graph)
        assert cusha.elapsed_us > 1.2 * simdx.elapsed_us

    def test_oom_on_largest_modeled_graphs(self):
        for abbrev in ("FB", "TW"):
            graph = load_dataset(abbrev, scale=0.25)
            result = CuShaLike().run(BFS(source=0), graph)
            assert result.failed, abbrev
            assert "OOM" in result.failure_reason

    def test_fits_on_mid_sized_modeled_graphs(self):
        graph = load_dataset("KR", scale=0.25)
        result = CuShaLike().run(BFS(source=0), graph)
        assert not result.failed

    def test_competitive_on_pagerank(self):
        graph = load_dataset("LJ", scale=0.5)
        simdx = SIMDXEngine(graph).run(PageRank())
        cusha = CuShaLike().run(PageRank(), graph)
        # Full-edge-sweep algorithms are CuSha's best case (Table 4 shows it
        # within ~2x of SIMD-X and sometimes ahead on PageRank).
        assert cusha.elapsed_us < 2.5 * simdx.elapsed_us


class TestCPUBaselines:
    def test_cpu_slower_than_gpu_on_skewed_graphs(self):
        graph = load_dataset("OR", scale=0.5)
        src = int(np.argmax(graph.out_degrees()))
        simdx = SIMDXEngine(graph).run(BFS(source=src))
        for cls in (LigraLike, GaloisLike):
            cpu = cls().run(BFS(source=src), graph)
            assert cpu.elapsed_us > simdx.elapsed_us, cls.__name__

    def test_ligra_per_iteration_overhead_dominates_on_road(self, road_graph):
        ligra = LigraLike().run(BFS(source=0), road_graph)
        galois = GaloisLike().run(BFS(source=0), road_graph)
        # Galois has no per-iteration barrier, so it wins on high-diameter
        # low-parallelism traversals.
        assert galois.elapsed_us < ligra.elapsed_us

    def test_galois_reproduces_paper_sssp_failure_on_er(self):
        graph = load_dataset("ER", scale=0.25)
        result = GaloisLike().run(SSSP(source=0), graph)
        assert result.failed
        assert "converge" in result.failure_reason

    def test_custom_cpu_spec_scales_time(self, rmat_graph):
        fast = CPUSpec(cores=56, edge_ns=8.0)
        slow = CPUSpec(cores=14, edge_ns=32.0)
        src = int(np.argmax(rmat_graph.out_degrees()))
        t_fast = LigraLike(fast).run(BFS(source=src), rmat_graph).elapsed_us
        t_slow = LigraLike(slow).run(BFS(source=src), rmat_graph).elapsed_us
        assert t_fast < t_slow

    def test_kcore_speedup_over_ligra(self):
        graph = load_dataset("LJ", scale=0.5)
        simdx = SIMDXEngine(graph).run(KCore(k=16))
        ligra = LigraLike().run(KCore(k=16), graph)
        assert simdx.elapsed_us < ligra.elapsed_us


class TestRunResultHelpers:
    def test_speedup_over(self, rmat_graph):
        src = int(np.argmax(rmat_graph.out_degrees()))
        simdx = SIMDXEngine(rmat_graph).run(BFS(source=src))
        gunrock = GunrockLike().run(BFS(source=src), rmat_graph)
        # The experiments report a speedup as the ratio of elapsed times.
        assert gunrock.elapsed_us / simdx.elapsed_us > 1.0

    def test_summary_fields(self, rmat_graph):
        result = GaloisLike().run(BFS(source=0), rmat_graph)
        assert result.system == "Galois"
        assert result.failed is False
        assert result.failure_reason == ""
        assert np.isfinite(result.elapsed_us) and result.elapsed_us > 0

    def test_failure_record(self):
        bad = RunResult.failure("b", "bfs", "g", "OOM")
        assert bad.failed and bad.elapsed_us == float("inf")
