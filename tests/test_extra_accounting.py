"""Regression pins for ``RunResult.extra`` / ``BatchRunResult.extra``.

The cost-accounting surface - scanned-edge counts, the pre-armed-ballot
iteration list, the executed-direction trace - is what the benchmarks, the
EXPERIMENTS.md baseline and the docs tables are built from. The split/merge
refactor of the batched loop (lane-aware direction selection) must not
silently change it, so this module pins exact values for fixed seed graphs:
any intentional accounting change has to update these numbers explicitly.

The pinned values were produced by the engine at the commit that introduced
lane-aware splitting; they are deterministic (seeded generators, no
randomness in the engine).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SSSP
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def rmat():
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


@pytest.fixture(scope="module")
def road():
    return gen.road_network_graph(24, 24, seed=11, name="road")


class TestSingleRunAccounting:
    def test_sssp_rmat9_trace_and_edge_counts(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        result = SIMDXEngine(rmat).run(SSSP(source=source))
        assert result.iterations == 7
        assert result.direction_trace == [
            "push", "pull", "pull", "pull", "pull", "pull", "push",
        ]
        assert result.filter_trace == [
            "ballot", "online", "online", "online", "online", "online",
            "online",
        ]
        assert result.extra["direction_switches"] == 2
        assert result.extra["jit_pre_armed_iterations"] == []
        assert result.extra["kernel_edges_walked"] == 15524
        assert sum(r.frontier_edges for r in result.iteration_records) == 15524
        assert sum(r.active_edges for r in result.iteration_records) == 8037

    def test_sssp_rmat9_pre_arm_fires_at_low_threshold(self, rmat):
        # With a 4-entry overflow threshold the pull phase hands back a
        # frontier whose scaled hub bound exceeds the bins, so the final
        # push iteration starts directly in ballot mode.
        source = int(np.argmax(rmat.out_degrees()))
        config = EngineConfig(overflow_threshold=4)
        result = SIMDXEngine(rmat, config=config).run(SSSP(source=source))
        assert result.extra["jit_pre_armed_iterations"] == [7]
        assert result.filter_trace[-1] == "ballot"
        assert result.direction_trace[-1] == "push"


class TestBatchRunAccounting:
    SOURCES = [42, 80, 81, 82, 83, 104, 106, 118]  # top-degree road hubs

    @pytest.fixture(scope="class")
    def batch(self, road):
        sources = [
            int(v) for v in np.argsort(-road.out_degrees(), kind="stable")[:8]
        ]
        assert sources == self.SOURCES  # the seed graph itself is pinned
        return SIMDXEngine(road).run_batch(SSSP(), sources)

    def test_scanned_edge_accounting(self, batch):
        assert not batch.failed
        assert batch.iterations == 40
        assert batch.extra["union_edges_walked"] == 49305
        assert batch.extra["lane_edge_pairs"] == 51960
        assert batch.extra["pull_edges_scanned"] == 48263
        # The kernel counter counts the same union walks.
        assert batch.extra["kernel_edges_walked"] == 49305
        # The per-record sums are the extras' ground truth.
        assert batch.extra["union_edges_walked"] == sum(
            r.frontier_edges for r in batch.iteration_records
        )
        assert batch.extra["pull_edges_scanned"] == sum(
            r.frontier_edges for r in batch.iteration_records
            if r.direction == "pull"
        )

    def test_split_accounting_and_direction_trace(self, batch):
        assert batch.extra["split_iterations"] == [5]
        assert batch.extra["lane_splits"] == 1
        assert batch.extra["jit_pre_armed_iterations"] == []
        # The executed-direction trace: pushes, one split iteration
        # (push-leaning group first), a long gather phase, pushes out.
        assert batch.direction_trace[:5] == [
            "push", "push", "push", "push", "push+pull",
        ]
        assert batch.direction_trace[-3:] == ["push", "push", "push"]
        assert batch.direction_trace.count("push+pull") == 1
        # The split iteration owns two records; every other iteration one.
        assert len(batch.iteration_records) == batch.iterations + 1


class TestShardedRunAccounting:
    """Pins for the sharded executor (``EngineConfig.num_shards > 1``).

    The per-shard trace joins each superstep's emitted records with "+"
    in shard order (scatter before gather within a shard), so mixed
    supersteps read e.g. ``push+pull``. The scanned-edge list is the
    per-shard decomposition of the records' ``frontier_edges`` total.
    """

    def test_sssp_rmat9_two_shards(self, rmat):
        source = int(np.argmax(rmat.out_degrees()))
        config = EngineConfig(num_shards=2)
        result = SIMDXEngine(rmat, config=config).run(SSSP(source=source))
        assert not result.failed
        assert result.device == "K40x2"
        # Same BSP trajectory length as one device (bit-identity pins the
        # metadata evolution; the fuzz harness pins the values).
        assert result.iterations == 7
        assert result.direction_trace == [
            "push+pull", "pull+pull", "pull+pull", "pull+pull",
            "pull+pull", "pull+pull", "push",
        ]
        assert result.filter_trace == [
            "ballot+online", "online+online", "online+online",
            "online+online", "online+online", "online+online", "online",
        ]
        assert result.extra["shards"] == 2
        assert result.extra["direction_switches"] == 3
        assert result.extra["shard_boundary_updates"] == 902
        assert result.extra["shard_scanned_edges"] == [7722, 10431]
        assert result.extra["kernel_edges_walked"] == 7722 + 10431
        assert sum(result.extra["shard_scanned_edges"]) == sum(
            r.frontier_edges for r in result.iteration_records
        )
        # Shard-mode scans differ from the single-device trace (each
        # shard picks its own direction) but the *useful* work does not:
        # the active-edge total matches the single-device pin above.
        assert sum(r.active_edges for r in result.iteration_records) == 8037
        assert len(result.iteration_records) == 13

    def test_sssp_road_batch_two_shards(self, road):
        sources = list(TestBatchRunAccounting.SOURCES)
        config = EngineConfig(num_shards=2)
        batch = SIMDXEngine(road, config=config).run_batch(SSSP(), sources)
        assert not batch.failed
        assert batch.device == "K40x2"
        assert batch.iterations == 40
        assert batch.lane_iterations == [40, 36, 38, 37, 39, 35, 35, 36]
        assert batch.extra["shards"] == 2
        assert batch.extra["shard_boundary_updates"] == 469
        assert batch.extra["shard_scanned_edges"] == [25227, 28122]
        assert batch.extra["kernel_edges_walked"] == 25227 + 28122
        assert batch.extra["union_edges_walked"] == 53349
        assert batch.extra["lane_edge_pairs"] == 51754
        assert batch.extra["pull_edges_scanned"] == 44818
        # Lane-group splitting is replaced by per-shard direction
        # selection on the sharded path - its accounting reports inert.
        assert batch.extra["split_iterations"] == []
        assert batch.extra["lane_splits"] == 0
        assert batch.direction_trace[:4] == [
            "push", "push+pull", "push+pull", "push+pull",
        ]
        assert len(batch.iteration_records) == 83

    def test_sssp_road_batch_two_shards_forced_pull_records(self, road):
        # One record emitter for every path: a pull record's
        # ``frontier_vertices`` is the unit's (push) frontier - here the
        # union frontier's slice inside the shard's vertex range - never
        # the gather-candidate count, and ``active_lanes`` counts the
        # lanes with a non-empty frontier inside that range.
        sources = list(TestBatchRunAccounting.SOURCES)
        pull = dict(forced_direction=Direction.PULL)
        sharded = SIMDXEngine(
            road, config=EngineConfig(num_shards=2, **pull)
        ).run_batch(SSSP(), sources)
        single = SIMDXEngine(
            road, config=EngineConfig(**pull)
        ).run_batch(SSSP(), sources)
        assert sharded.iterations == single.iterations == 40
        records = sharded.iteration_records
        assert len(records) == 72
        assert [
            (r.iteration, r.frontier_vertices, r.active_lanes, r.frontier_edges)
            for r in records[:6]
        ] == [
            (1, 8, 8, 1074), (1, 0, 0, 1072), (2, 27, 8, 1074),
            (2, 0, 0, 1072), (3, 51, 8, 1074), (3, 0, 0, 1072),
        ]
        assert sum(r.frontier_vertices for r in records) == 6125
        assert sum(r.active_lanes for r in records) == 414
        # The shards tile the vertex range, so per superstep their frontier
        # slices add up to the single-device record's union frontier.
        for single_record in single.iteration_records:
            assert single_record.frontier_vertices == sum(
                r.frontier_vertices for r in records
                if r.iteration == single_record.iteration
            )
