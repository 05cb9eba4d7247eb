"""Direction-aware JIT task management: the pull->push switch boundary.

The controller must never select the ballot filter during a pull phase (a
gather worker records at most one destination, so its bin cannot overflow),
must drop out of ballot mode on the first pull iteration, and must pre-arm
the ballot filter on the first push iteration after a pull->push switch
whenever a single scatter worker could overflow its bin
(``FilterContext.max_producer_records`` exceeds the overflow threshold).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, WCC
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.filters import FilterContext
from repro.core.jit import JITTaskManager
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph


def make_ctx(
    num_vertices: int = 100,
    updated=(5, 7, 7, 3),
    active=(3, 5, 7),
    num_threads: int = 4,
    max_producer_records: int = 0,
    success_rate: float = 1.0,
) -> FilterContext:
    updated = np.asarray(updated, dtype=np.int64)
    active_mask = np.zeros(num_vertices, dtype=bool)
    active_mask[list(active)] = True
    producers = np.arange(updated.size, dtype=np.int64) % num_threads
    return FilterContext(
        num_vertices=num_vertices,
        updated_destinations=updated,
        producer_thread=producers,
        active_mask=active_mask,
        num_worker_threads=num_threads,
        max_producer_records=max_producer_records,
        success_rate=success_rate,
    )


def pull_ctx(num_vertices: int = 100, receivers=(3, 5, 7)) -> FilterContext:
    """A gather-style context: one worker per receiver, one record each."""
    receivers = np.asarray(receivers, dtype=np.int64)
    active_mask = np.zeros(num_vertices, dtype=bool)
    active_mask[receivers] = True
    return FilterContext(
        num_vertices=num_vertices,
        updated_destinations=receivers,
        producer_thread=np.arange(receivers.size, dtype=np.int64),
        active_mask=active_mask,
        num_worker_threads=max(1, receivers.size),
        max_producer_records=1,
    )


class TestControllerUnit:
    def test_pull_forces_online(self):
        jit = JITTaskManager(overflow_threshold=4)
        result = jit.build(pull_ctx(), 1, direction=Direction.PULL)
        assert jit.decisions[-1].filter_used == "online"
        assert jit.decisions[-1].direction == "pull"
        assert not result.overflowed

    def test_pull_leaves_ballot_mode_immediately(self):
        jit = JITTaskManager(overflow_threshold=4)
        # Overflow in a push iteration switches to ballot mode...
        jit.build(
            make_ctx(updated=tuple(range(50)), num_threads=1), 1,
            direction=Direction.PUSH,
        )
        assert jit._use_ballot
        # ...but the first pull iteration forces online regardless.
        jit.build(pull_ctx(), 2, direction=Direction.PULL)
        assert jit.decisions[-1].filter_used == "online"
        assert not jit._use_ballot

    def test_never_ballot_during_pull_phase(self):
        jit = JITTaskManager(overflow_threshold=4)
        for iteration in range(1, 6):
            jit.build(
                pull_ctx(receivers=tuple(range(iteration, iteration + 10))),
                iteration, direction=Direction.PULL,
            )
        assert all(
            d.filter_used == "online" for d in jit.decisions
            if d.direction == "pull"
        )
        assert not any(d.overflowed for d in jit.decisions)

    def test_pull_to_push_switch_pre_arms_ballot(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        # The handed-over frontier contains a worker that could record more
        # than a bin holds -> the ballot is pre-armed without any overflow.
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10), 2,
            direction=Direction.PUSH,
        )
        decision = jit.decisions[-1]
        assert decision.filter_used == "ballot"
        assert decision.pre_armed
        assert not decision.overflowed
        assert jit.pre_armed_iterations() == [2]

    def test_no_pre_arm_when_bins_cannot_overflow(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        # Max out-degree below the threshold: stay on the online filter.
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=3), 2,
            direction=Direction.PUSH,
        )
        assert jit.decisions[-1].filter_used == "online"
        assert not jit.decisions[-1].pre_armed

    def test_low_success_rate_sharpens_the_pre_arm_bound(self):
        # A hub with out-degree 10 would overflow 4-entry bins if every
        # offer landed, but at a 20% success rate it records ~2 entries:
        # the sharpened bound keeps the online filter.
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10, success_rate=0.2),
            2, direction=Direction.PUSH,
        )
        assert jit.decisions[-1].filter_used == "online"
        assert not jit.decisions[-1].pre_armed

    def test_high_success_rate_still_pre_arms(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10, success_rate=0.9),
            2, direction=Direction.PUSH,
        )
        decision = jit.decisions[-1]
        assert decision.filter_used == "ballot"
        assert decision.pre_armed

    def test_underestimated_success_rate_defers_to_overflow_signal(self):
        # The sharpened bound can only cost one incomplete online pass,
        # never correctness: if the offers succeed anyway, the generic
        # overflow signal still switches to ballot in the same iteration.
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        result = jit.build(
            make_ctx(
                updated=tuple(range(50)), num_threads=1,
                max_producer_records=50, success_rate=0.01,
            ),
            2, direction=Direction.PUSH,
        )
        decision = jit.decisions[-1]
        assert decision.filter_used == "ballot"
        assert not decision.pre_armed
        assert decision.overflowed
        assert result.is_sorted

    def test_pre_armed_ballot_releases_once_frontier_shrinks(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(pull_ctx(), 1, direction=Direction.PULL)
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10), 2,
            direction=Direction.PUSH,
        )
        # The shadow online run did not overflow, so the next push iteration
        # is back on the online filter.
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10), 3,
            direction=Direction.PUSH,
        )
        assert jit.decisions[-1].filter_used == "online"

    def test_fresh_controller_has_no_direction_memory(self):
        # Every run builds its own controllers: no pull precedes the first
        # push, so a hub in its frontier does not pre-arm the ballot.
        jit = JITTaskManager(overflow_threshold=4)
        assert jit.last_direction is None
        jit.build(
            make_ctx(updated=(1, 2), max_producer_records=10), 1,
            direction=Direction.PUSH,
        )
        assert jit.decisions[-1].filter_used == "online"


class TestEngineIntegration:
    def _pull_handover_hub(self) -> CSRGraph:
        """A graph whose pull phase hands a super-threshold hub to push.

        ``source -> 600 spreaders -> hub -> 70 leaves`` plus a 10000-edge
        unreachable ballast cycle inflating the denominator of the
        direction test. The source's 600 out-edges (~5.3% of edges) start a
        pull phase; when the frontier shrinks to the lone hub its 70
        out-edges (~0.6%) drop below the to-push threshold, so the switch
        iteration scatters a frontier whose max out-degree (70) exceeds the
        overflow threshold (64) - the pre-arm condition.
        """
        num_spreaders, num_leaves, ballast = 600, 70, 10_000
        source = 0
        spreaders = range(1, 1 + num_spreaders)
        hub = 1 + num_spreaders
        leaves = range(hub + 1, hub + 1 + num_leaves)
        ballast_base = hub + 1 + num_leaves
        edges = [(source, s) for s in spreaders]
        edges += [(s, hub) for s in spreaders]
        edges += [(hub, leaf) for leaf in leaves]
        edges += [
            (ballast_base + i, ballast_base + (i + 1) % ballast)
            for i in range(ballast)
        ]
        n = ballast_base + ballast
        return CSRGraph.from_edges(
            n, np.asarray(edges, dtype=np.int64), directed=True, name="hub_handover"
        )

    def test_forced_pull_trace_is_all_online_with_zero_overflows(self):
        graph = gen.rmat_graph(9, 8, seed=7, name="rmat9")
        src = int(np.argmax(graph.out_degrees()))
        for algorithm in (BFS(source=src), SSSP(source=src), WCC()):
            result = SIMDXEngine(
                graph,
                config=EngineConfig(
                    forced_direction=Direction.PULL
                ),
            ).run(algorithm)
            assert not result.failed
            assert set(result.filter_trace) == {"online"}, algorithm.name
            assert not any(
                record.filter_overflowed for record in result.iteration_records
            ), algorithm.name

    def test_auto_run_never_ballots_during_pull(self):
        graph = gen.rmat_graph(9, 8, seed=7, name="rmat9")
        src = int(np.argmax(graph.out_degrees()))
        result = SIMDXEngine(graph).run(BFS(source=src))
        assert "pull" in result.direction_trace
        for record in result.iteration_records:
            if record.direction == "pull":
                assert record.filter_used == "online"

    def test_pre_armed_ballot_fires_on_first_push_after_switch(self):
        graph = self._pull_handover_hub()
        result = SIMDXEngine(graph).run(BFS(source=0))
        assert not result.failed
        trace = list(zip(result.direction_trace, result.filter_trace))
        switches = [
            i for i in range(1, len(trace))
            if trace[i - 1][0] == "pull" and trace[i][0] == "push"
        ]
        assert switches, trace
        boundary = trace[switches[0]]
        assert boundary[1] == "ballot"
        # The ballot was pre-armed at the switch, not reached through the
        # incomplete-online overflow fallback (iterations are 1-based).
        # (The unreachable ballast keeps the unvisited share ~94%, so the
        # success-rate-scaled bound 70 * 0.94 still exceeds 64.)
        assert switches[0] + 1 in result.extra["jit_pre_armed_iterations"]

    def _settled_handover_hub(self) -> CSRGraph:
        """A pull->push handover hub on a mostly-*visited* graph.

        ``source`` reaches 10000 ballast leaves and 600 spreaders at level
        1; the spreaders reach both the hub and all 70 of the hub's leaves
        at level 2. When the frontier shrinks to the hub (+ leaves, which
        have no out-edges) and hands back to push, the hub's out-degree
        (70) still exceeds the overflow threshold - but everything is
        already visited, so the success-rate-scaled bound is ~0 and the
        degree-only bound's pre-arm would have been a wasted O(|V|) scan
        (the hub records nothing).
        """
        num_spreaders, num_leaves, ballast = 600, 70, 10_000
        source = 0
        spreaders = range(1, 1 + num_spreaders)
        hub = 1 + num_spreaders
        leaves = range(hub + 1, hub + 1 + num_leaves)
        ballast_base = hub + 1 + num_leaves
        edges = [(source, s) for s in spreaders]
        edges += [(source, ballast_base + i) for i in range(ballast)]
        edges += [(s, hub) for s in spreaders]
        edges += [
            (s, hub + 1 + (i % num_leaves)) for i, s in enumerate(spreaders)
        ]
        edges += [(hub, leaf) for leaf in leaves]
        n = ballast_base + ballast
        return CSRGraph.from_edges(
            n, np.asarray(edges, dtype=np.int64), directed=True,
            name="settled_handover",
        )

    def test_settled_frontier_does_not_pre_arm(self):
        graph = self._settled_handover_hub()
        result = SIMDXEngine(graph).run(BFS(source=0))
        assert not result.failed
        trace = list(zip(result.direction_trace, result.filter_trace))
        switches = [
            i for i in range(1, len(trace))
            if trace[i - 1][0] == "pull" and trace[i][0] == "push"
        ]
        assert switches, trace
        # The handed-over frontier still contains a super-threshold hub...
        hub = 601
        assert graph.out_degrees()[hub] > 64
        # ...but the mostly-settled graph keeps the sharpened bound below
        # the threshold: no pre-arm, and the online bins cope fine (the
        # hub's offers all fail, so nothing is recorded).
        assert result.extra["jit_pre_armed_iterations"] == []
        boundary = trace[switches[0]]
        assert boundary[1] == "online"
        assert not any(
            record.filter_overflowed for record in result.iteration_records
        )


class TestGatherRefinement:
    """Frontier-dependent settled-vertex pruning for SSSP and WCC."""

    class _UnprunedSSSP(SSSP):
        def gather_mask(self, metadata, graph, frontier=None):
            return super().gather_mask(metadata, graph, None)

    class _UnprunedWCC(WCC):
        def gather_mask(self, metadata, graph, frontier=None):
            return super().gather_mask(metadata, graph, None)

    @pytest.fixture(scope="class")
    def graph(self) -> CSRGraph:
        return gen.rmat_graph(9, 8, seed=7, name="rmat9")

    def _forced_pull(self, graph, algorithm):
        result = SIMDXEngine(
            graph,
            config=EngineConfig(
                forced_direction=Direction.PULL
            ),
        ).run(algorithm)
        assert not result.failed, result.failure_reason
        return result

    @pytest.mark.parametrize("name", ["sssp", "wcc"])
    def test_pruned_gather_shrinks_worklist_and_preserves_values(
        self, graph, name
    ):
        src = int(np.argmax(graph.out_degrees()))
        if name == "sssp":
            pruned_algo, unpruned_algo = (
                SSSP(source=src), self._UnprunedSSSP(source=src)
            )
        else:
            pruned_algo, unpruned_algo = WCC(), self._UnprunedWCC()
        pruned = self._forced_pull(graph, pruned_algo)
        unpruned = self._forced_pull(graph, unpruned_algo)
        assert np.array_equal(pruned.values, unpruned.values)
        scanned_pruned = sum(r.frontier_edges for r in pruned.iteration_records)
        scanned_unpruned = sum(
            r.frontier_edges for r in unpruned.iteration_records
        )
        assert scanned_pruned < scanned_unpruned

    def test_sssp_mask_respects_min_weight_bound(self, graph):
        src = int(np.argmax(graph.out_degrees()))
        algo = SSSP(source=src)
        algo.init(graph)
        metadata = np.full(graph.num_vertices, np.inf)
        metadata[src] = 0.0
        metadata[0] = 5.0
        frontier = np.array([src], dtype=np.int64)
        mask = algo.gather_mask(metadata, graph, frontier)
        # The source itself is settled relative to its own offers...
        assert not mask[src]
        # ...unvisited vertices always remain candidates.
        unvisited = np.isinf(metadata)
        assert mask[unvisited].all()

    def test_masks_degrade_to_full_when_frontier_missing(self, graph):
        algo = WCC()
        metadata = np.arange(graph.num_vertices, dtype=np.float64)
        assert algo.gather_mask(metadata, graph, None).all()
        assert algo.gather_mask(
            metadata, graph, np.zeros(0, dtype=np.int64)
        ).all()
