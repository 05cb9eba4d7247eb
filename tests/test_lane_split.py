"""Lane-aware direction selection with batch splitting.

The batched engine scores every lane's own frontier with the traffic model
each iteration and, when lane interests diverge from the union decision
past the configured margin, splits the batch into a push-leaning and a
pull-leaning sub-batch (docs/batching.md, "Lane-aware direction
selection"). These tests pin the contract:

* per-lane results are bit-identical to K independent runs under the
  automatic policy AND under *every* forced split schedule
  (``tests/engine_seams.py:ScheduledEngine``), including schedules that
  split the batch into arbitrary direction-assigned lane groups every
  iteration;
* on a road graph the lane-aware batch scans fewer in-edges than
  decide-once batching (the PR-3 known limit this feature closes);
* the split policy itself: agreement never splits, divergence past the
  margin splits into push-first groups, an infinite margin never splits,
  and lanes re-merge when their decisions reconverge;
* a split group walks the union of its own lanes' frontiers and keeps the
  batch's lane ids (nothing is remapped);
* heterogeneous per-lane algorithm parameters (per-lane SSSP delta) ride
  in sub-batches and match the corresponding single runs;
* forced per-iteration direction schedules (``ScheduledEngine`` again)
  are honoured and preserve values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP
from repro.core.direction import (
    BatchDirectionPolicy,
    Direction,
    SubBatchPlan,
)
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.jit import JITTaskManager
from repro.core.superstep import SuperstepDriver
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.engine_seams import (
    ScheduledEngine, force_groups, random_split_schedule,
)

#: ``REPRO_SANITIZE=1`` runs every engine here armed (conftest.py).
pytestmark = pytest.mark.usefixtures("armed_by_env")


@pytest.fixture(scope="module")
def rmat():
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


@pytest.fixture(scope="module")
def road():
    return gen.road_network_graph(24, 24, seed=11, name="road")


def _top_sources(graph, k):
    degrees = graph.out_degrees()
    return [int(v) for v in np.argsort(-degrees, kind="stable")[:k]]


# ----------------------------------------------------------------------
# The split policy
# ----------------------------------------------------------------------
class TestBatchDirectionPolicy:
    def _policy(self, margin=0.5, num_lanes=4, total_edges=1000):
        policy = BatchDirectionPolicy(
            total_edges=total_edges, num_lanes=num_lanes
        )
        policy.margin = margin  # the class constant, overridden per case
        return policy

    def test_agreement_never_splits(self):
        policy = self._policy()
        # All lanes far below the pull threshold: everyone pushes.
        decision = policy.plan(
            [0, 1, 2],
            {0: 3, 1: 4, 2: 5},
            {0: 1, 1: 1, 2: 1},
            lambda lane: (1000, 100),
            Direction.PULL,  # the union crossed the threshold; lanes did not
        )
        assert not decision.split
        assert decision.reason == "agree"
        assert decision.groups == (
            SubBatchPlan(Direction.PUSH, (0, 1, 2)),
        )

    def test_divergence_past_margin_splits_push_group_first(self):
        policy = self._policy(margin=0.01)
        # Lane 0 stays tiny (push); lanes 1, 2 cross the 5% threshold.
        decision = policy.plan(
            [0, 1, 2],
            {0: 2, 1: 200, 2: 300},
            {0: 1, 1: 40, 2: 50},
            # A cheap pull: scanning 100 in-edges at 10 candidates.
            lambda lane: (100, 10),
            Direction.PULL,
        )
        assert decision.split
        assert decision.reason == "split"
        assert decision.benefit_ops > 0
        assert decision.groups[0] == SubBatchPlan(Direction.PUSH, (0,))
        assert decision.groups[1] == SubBatchPlan(Direction.PULL, (1, 2))

    def test_infinite_margin_never_splits(self):
        policy = self._policy(margin=1e12)
        decision = policy.plan(
            [0, 1],
            {0: 2, 1: 500},
            {0: 1, 1: 60},
            lambda lane: (100, 10),
            Direction.PULL,
        )
        assert not decision.split
        assert decision.reason == "margin"
        # Below the margin the whole batch follows the union decision.
        assert decision.groups == (SubBatchPlan(Direction.PULL, (0, 1)),)

    def test_lanes_remerge_when_decisions_reconverge(self):
        policy = self._policy(margin=0.01, total_edges=1000)
        diverged = policy.plan(
            [0, 1],
            {0: 2, 1: 500},
            {0: 1, 1: 60},
            lambda lane: (50, 10),
            Direction.PULL,
        )
        assert diverged.split
        # Lane 1's frontier collapses below the push threshold: with the
        # per-lane hysteresis it swings back to push and the batch merges.
        merged = policy.plan(
            [0, 1],
            {0: 2, 1: 3},
            {0: 1, 1: 1},
            lambda lane: (50, 10),
            Direction.PULL,
        )
        assert not merged.split
        assert merged.groups == (SubBatchPlan(Direction.PUSH, (0, 1)),)
        assert [diverged.split, merged.split] == [True, False]

    def test_forced_groups_advance_lane_selectors(self):
        # A forced schedule (ScheduledEngine.split_schedule) must keep the
        # per-lane hysteresis in step with what executed, exactly like
        # DirectionSelector.force does for a single run.
        policy = self._policy(margin=0.0, num_lanes=2)
        force_groups(policy, [
            SubBatchPlan(Direction.PUSH, (0,)),
            SubBatchPlan(Direction.PULL, (1,)),
        ])
        assert policy.lane_selectors[0]._current is Direction.PUSH
        assert policy.lane_selectors[1]._current is Direction.PULL
        # Lane 1 now plans from pull-side hysteresis: a mid-threshold
        # share (between to_push and to_pull) keeps it pulling, so with a
        # zero margin the next automatic plan splits along the forced
        # grouping instead of starting from scratch.
        decision = policy.plan(
            [0, 1],
            {0: 2, 1: 30},     # shares 0.002 and 0.03 of 1000 edges
            {0: 1, 1: 5},
            lambda lane: (10, 3),  # a cheap pruned gather worklist
            Direction.PUSH,
        )
        assert policy.lane_selectors[1]._current is Direction.PULL
        assert decision.split
        assert decision.groups[1] == SubBatchPlan(Direction.PULL, (1,))


# ----------------------------------------------------------------------
# Split group frontiers
# ----------------------------------------------------------------------
def _record_units(monkeypatch):
    """Patch both expansions to log ``(direction, lanes, frontier, the
    lanes' own frontiers, the other live lanes' frontiers)`` per unit."""
    units = []
    for name in ("_expand_push", "_expand_pull"):
        def recording(driver, unit, step, _expand=getattr(SuperstepDriver, name)):
            frontiers = driver.lanes.frontiers
            units.append((
                unit.direction, unit.lanes, unit.frontier.copy(),
                [frontiers[lane].copy() for lane in unit.lanes],
                [frontiers[lane].copy() for lane in step.live
                 if lane not in unit.lanes],
            ))
            return _expand(driver, unit, step)
        monkeypatch.setattr(SuperstepDriver, name, recording)
    return units


class TestSplitGroupFrontier:
    @pytest.mark.parametrize("graph_name", ["rmat", "road"])
    def test_group_frontier_is_its_lanes_union(
        self, graph_name, rmat, road, monkeypatch
    ):
        graph = {"rmat": rmat, "road": road}[graph_name]
        units = _record_units(monkeypatch)
        batch = ScheduledEngine(
            graph, split_schedule=lambda it, live: [
                (Direction.PUSH, live[::2]), (Direction.PULL, live[1::2]),
            ] if len(live) > 1 else None,
        ).run_batch(BFS(), _top_sources(graph, 4))
        assert not batch.failed, batch.failure_reason
        split = [unit for unit in units if unit[4]]
        assert {direction for direction, *_ in split} == {
            Direction.PUSH, Direction.PULL,
        }
        for _, lanes, frontier, own, _others in split:
            expected = np.unique(np.concatenate(own))
            assert np.array_equal(frontier, expected), lanes

    def test_group_frontier_drops_other_lanes_vertices(self, monkeypatch):
        # Two disjoint paths: lane 0 walks 0-1-2, lane 1 walks 3-4-5.
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        units = _record_units(monkeypatch)
        ScheduledEngine(
            graph, split_schedule=lambda it, live: [
                (Direction.PUSH, [lane]) for lane in live
            ],
        ).run_batch(BFS(), [0, 3])
        pushed = [
            (lanes, frontier) for direction, lanes, frontier, *_ in units
            if direction is Direction.PUSH
        ]
        assert pushed
        for lanes, frontier in pushed:
            assert len(lanes) == 1
            side = {0: {0, 1, 2}, 1: {3, 4, 5}}[lanes[0]]
            assert set(frontier.tolist()) <= side

    def test_group_lanes_keep_their_batch_ids(self, rmat, monkeypatch):
        # Groups list their lanes out of order; each lane still reads and
        # writes its own row.
        units = _record_units(monkeypatch)
        sources = _top_sources(rmat, 3)
        batch = ScheduledEngine(
            rmat, split_schedule=lambda it, live: (
                [(Direction.PUSH, [2, 0]), (Direction.PULL, [1])]
                if sorted(live) == [0, 1, 2] else None
            ),
        ).run_batch(SSSP(), sources)
        assert not batch.failed, batch.failure_reason
        assert (Direction.PUSH, (2, 0)) in {
            (direction, lanes) for direction, lanes, *_ in units
        }
        for lane, source in enumerate(sources):
            single = SIMDXEngine(rmat).run(SSSP(source=source))
            assert np.array_equal(batch.values[lane], single.values), lane


# ----------------------------------------------------------------------
# Bit-identical results under every split schedule
# ----------------------------------------------------------------------
class TestSplitScheduleEquivalence:
    @pytest.mark.parametrize("graph_name", ["rmat", "road"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_schedules_match_single_runs(
        self, graph_name, seed, rmat, road
    ):
        graph = {"rmat": rmat, "road": road}[graph_name]
        sources = _top_sources(graph, 6)
        batch = ScheduledEngine(
            graph, split_schedule=random_split_schedule(seed)
        ).run_batch(BFS(), sources)
        assert not batch.failed, batch.failure_reason
        assert batch.extra["lane_splits"] > 0  # schedules actually split
        for lane, source in enumerate(sources):
            single = SIMDXEngine(graph).run(BFS(source=source))
            assert np.array_equal(batch.values[lane], single.values), (
                f"lane {lane} diverged under schedule seed {seed}"
            )
            assert batch.lane_iterations[lane] == single.iterations

    def test_sssp_metadata_bit_identical_under_schedules(self, road):
        sources = _top_sources(road, 6)
        batch = ScheduledEngine(
            road, split_schedule=random_split_schedule(7)
        ).run_batch(SSSP(), sources)
        assert not batch.failed
        for lane, source in enumerate(sources):
            single = SIMDXEngine(road).run(SSSP(source=source))
            assert np.array_equal(batch.metadata[lane], single.values)

    def test_all_pull_and_all_push_schedules(self, rmat):
        # Degenerate single-group schedules exercising the forced-direction
        # path through split_schedule itself.
        sources = _top_sources(rmat, 4)
        for direction in (Direction.PUSH, Direction.PULL):
            batch = ScheduledEngine(
                rmat, split_schedule=lambda it, live: [(direction, list(live))]
            ).run_batch(BFS(), sources)
            for lane, source in enumerate(sources):
                single = SIMDXEngine(rmat).run(BFS(source=source))
                assert np.array_equal(batch.values[lane], single.values)

    def test_forced_split_counts_like_any_other(self, rmat):
        # The driver's split_iterations (extra) counts a forced split.
        sources = _top_sources(rmat, 4)
        batch = ScheduledEngine(
            rmat, split_schedule=lambda it, live: (
                [(Direction.PUSH, live[:1]), (Direction.PULL, live[1:])]
                if it == 1 else [(Direction.PUSH, list(live))]
            ),
        ).run_batch(BFS(), sources)
        assert batch.extra["split_iterations"] == [1]
        assert batch.extra["lane_splits"] == 1

    def test_invalid_schedule_partition_rejected(self, rmat):
        sources = _top_sources(rmat, 4)
        engine = ScheduledEngine(
            rmat, split_schedule=lambda it, live: [(Direction.PUSH, live[:1])]
        )
        with pytest.raises(ValueError, match="partition"):
            engine.run_batch(BFS(), sources)


# ----------------------------------------------------------------------
# The automatic policy inside the engine
# ----------------------------------------------------------------------
class TestAutoLaneAwareSplit:
    def test_values_identical_with_and_without_lane_awareness(self, road):
        sources = _top_sources(road, 16)
        on = SIMDXEngine(road).run_batch(SSSP(), sources)
        off = SIMDXEngine(
            road, config=EngineConfig(lane_aware_split=False)
        ).run_batch(SSSP(), sources)
        assert not on.failed and not off.failed
        assert np.array_equal(on.values, off.values)

    def test_road_sssp_scans_fewer_in_edges_than_decide_once(self, road):
        # The PR-3 known limit: the union crosses the pull threshold before
        # any single lane would, so decide-once batching over-scans
        # in-edges on road shapes. Lane-aware selection closes the gap.
        sources = _top_sources(road, 16)
        on = SIMDXEngine(road).run_batch(SSSP(), sources)
        off = SIMDXEngine(
            road, config=EngineConfig(lane_aware_split=False)
        ).run_batch(SSSP(), sources)
        assert on.extra["pull_edges_scanned"] < off.extra["pull_edges_scanned"]
        assert on.extra["union_edges_walked"] < off.extra["union_edges_walked"]

    def test_split_iterations_recorded_and_traced(self, road, monkeypatch):
        sources = _top_sources(road, 16)
        monkeypatch.setattr(BatchDirectionPolicy, "margin", 0.1)
        batch = SIMDXEngine(road).run_batch(SSSP(), sources)
        splits = batch.extra["split_iterations"]
        assert batch.extra["lane_splits"] == len(splits)
        assert splits, "expected at least one split iteration on road SSSP"
        # A split iteration contributes one record per sub-batch and a
        # joined direction-trace entry (push-leaning group first).
        for iteration in splits:
            group_records = [
                r for r in batch.iteration_records if r.iteration == iteration
            ]
            assert len(group_records) == 2
            assert [r.direction for r in group_records] == ["push", "pull"]
            assert batch.direction_trace[iteration - 1] == "push+pull"
        # Non-split iterations keep the single-direction trace entries.
        assert all(
            "+" not in batch.direction_trace[i - 1]
            for i in range(1, batch.iterations + 1)
            if i not in splits
        )

    def test_forced_direction_disables_the_policy(self, road):
        sources = _top_sources(road, 8)
        cfg = EngineConfig(forced_direction=Direction.PUSH)
        batch = SIMDXEngine(road, config=cfg).run_batch(BFS(), sources)
        assert batch.extra["lane_splits"] == 0
        assert set(batch.direction_trace) == {"push"}


class TestSplitMarginConstant:
    """``BatchDirectionPolicy.margin`` is a class constant, not an engine
    option; tests reach other values by patching it. Any margin changes
    how often a batch splits, never what a lane computes."""

    MARGINS = (0.0, 0.1, 1e12)

    @staticmethod
    def _run(road, monkeypatch, margin):
        monkeypatch.setattr(BatchDirectionPolicy, "margin", margin)
        batch = SIMDXEngine(road).run_batch(SSSP(), _top_sources(road, 16))
        assert not batch.failed
        return batch

    @pytest.mark.parametrize("margin", MARGINS)
    def test_values_identical_under_patched_margin(self, road, monkeypatch, margin):
        default = SIMDXEngine(road).run_batch(SSSP(), _top_sources(road, 16))
        batch = self._run(road, monkeypatch, margin)
        assert np.array_equal(batch.values, default.values)
        if margin == 1e12:
            assert batch.extra["lane_splits"] == 0
        else:
            assert batch.extra["lane_splits"] > 0

    def test_smaller_margin_never_splits_less(self, road, monkeypatch):
        splits = [
            self._run(road, monkeypatch, margin).extra["lane_splits"]
            for margin in self.MARGINS
        ]
        assert splits == sorted(splits, reverse=True), splits


# ----------------------------------------------------------------------
# Heterogeneous per-lane algorithm parameters
# ----------------------------------------------------------------------
class TestLaneParams:
    def test_per_lane_sssp_delta_matches_single_runs(self, rmat):
        sources = _top_sources(rmat, 4)
        deltas = [None, 5.0, 10.0, 20.0]
        batch = SIMDXEngine(rmat).run_batch(
            SSSP(), sources, lane_params=[{"delta": d} for d in deltas]
        )
        assert not batch.failed
        for lane, (source, delta) in enumerate(zip(sources, deltas)):
            single = SIMDXEngine(rmat).run(SSSP(source=source, delta=delta))
            assert np.array_equal(batch.values[lane], single.values), (
                f"lane {lane} (delta={delta}) diverged"
            )

    def test_per_lane_params_under_forced_split_schedule(self, road):
        sources = _top_sources(road, 4)
        deltas = [None, 8.0, 16.0, None]
        batch = ScheduledEngine(
            road, split_schedule=random_split_schedule(3)
        ).run_batch(
            SSSP(), sources, lane_params=[{"delta": d} for d in deltas]
        )
        for lane, (source, delta) in enumerate(zip(sources, deltas)):
            single = SIMDXEngine(road).run(SSSP(source=source, delta=delta))
            assert np.array_equal(batch.values[lane], single.values)

    def test_unknown_parameter_rejected(self, rmat):
        with pytest.raises(ValueError, match="unknown algorithm parameter"):
            SIMDXEngine(rmat).run_batch(
                BFS(), [0, 1], lane_params=[{"nope": 1}, {}]
            )

    def test_length_mismatch_rejected(self, rmat):
        with pytest.raises(ValueError, match="lane_params"):
            SIMDXEngine(rmat).run_batch(BFS(), [0, 1], lane_params=[{}])


# ----------------------------------------------------------------------
# Forced per-iteration direction schedules
# ----------------------------------------------------------------------
class TestForcedDirectionSchedule:
    def test_schedule_is_honoured_and_last_entry_repeats(self, rmat):
        schedule = [Direction.PUSH, Direction.PULL, Direction.PUSH]
        result = ScheduledEngine(rmat, direction_schedule=schedule).run(
            BFS(source=0)
        )
        expected = [d.value for d in schedule]
        got = result.direction_trace
        assert got[: len(expected)] == expected[: len(got)]
        assert all(d == "push" for d in got[len(expected):])
        auto = SIMDXEngine(rmat).run(BFS(source=0))
        assert np.array_equal(result.values, auto.values)


# ----------------------------------------------------------------------
# Per-sub-batch JIT streams
# ----------------------------------------------------------------------
class TestJITFork:
    def test_fork_clones_controller_state(self):
        jit = JITTaskManager(overflow_threshold=8)
        jit._use_ballot = True
        jit._last_direction = Direction.PULL
        fork = jit.fork()
        assert fork._use_ballot
        assert fork.last_direction is Direction.PULL
        assert fork.overflow_threshold == jit.overflow_threshold
        assert fork.decisions == [] and fork.decisions is not jit.decisions

    def test_split_run_reports_pre_armed_iterations_sorted_unique(self, road):
        sources = _top_sources(road, 16)
        batch = SIMDXEngine(road).run_batch(SSSP(), sources)
        pre_armed = batch.extra["jit_pre_armed_iterations"]
        assert pre_armed == sorted(set(pre_armed))
