"""Tests for the task-management filters and the JIT controller (Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filters import (
    BallotFilter,
    BatchFilter,
    FilterContext,
    FilterMode,
    OnlineFilter,
    make_filter,
)
from repro.core.jit import JITTaskManager, run_length_pattern
from repro.gpu.kernel import WorkEstimate


def make_ctx(
    num_vertices: int = 100,
    updated=(5, 7, 7, 3),
    active=(3, 5, 7),
    frontier_edges: int = 50,
    num_threads: int = 4,
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
        frontier_edges=frontier_edges,
        num_worker_threads=num_threads,
    )


class TestOnlineFilter:
    def test_records_updated_destinations(self):
        result = OnlineFilter(capacity=8).build(make_ctx())
        assert np.array_equal(np.sort(result.worklist), [3, 5, 7, 7])
        assert not result.overflowed
        assert not result.is_sorted
        assert not result.is_unique

    def test_redundancy_preserved(self):
        result = OnlineFilter(capacity=8).build(make_ctx(updated=(7, 7, 7, 3)))
        # Four entries for two distinct vertices: the duplicates stay.
        assert sorted(result.worklist.tolist()) == [3, 7, 7, 7]

    def test_overflow_detection(self):
        ctx = make_ctx(updated=tuple(range(40)), num_threads=1)
        result = OnlineFilter(capacity=8).build(ctx)
        assert result.overflowed

    def test_work_is_pinned_to_the_per_thread_list_implementation(self):
        # Literals recorded from the commit before the bins went flat
        # (one ndarray per simulated thread): the cost model must not move.
        rng = np.random.default_rng(7)
        updated = rng.integers(0, 100, size=300)
        producers = rng.integers(0, 40, size=300)
        ctx = FilterContext(
            num_vertices=100,
            updated_destinations=updated,
            producer_thread=producers,
            active_mask=np.zeros(100, dtype=bool),
            frontier_edges=300,
            num_worker_threads=40,
        )
        result = OnlineFilter(capacity=8).build(ctx)
        assert result.work == WorkEstimate(
            coalesced_bytes=3928.0,
            scattered_transactions=0.0,
            compute_ops=641.0,
            atomic_ops=0.0,
            atomic_contention=1.0,
            warp_primitive_ops=6.0,
            divergence_fraction=0.0,
        )
        assert result.overflowed
        assert result.worklist.size == 261
        assert result.worklist[:10].tolist() == [97, 0, 9, 39, 48, 20, 36, 50, 15, 64]

        pull = FilterContext(
            num_vertices=100,
            updated_destinations=np.arange(50) * 2 % 100,
            producer_thread=np.arange(50),
            active_mask=np.zeros(100, dtype=bool),
            frontier_edges=50,
            num_worker_threads=50,
        )
        result = OnlineFilter(capacity=64).build(pull)
        assert not result.overflowed and result.worklist.size == 50
        assert (
            result.work.coalesced_bytes,
            result.work.compute_ops,
            result.work.warp_primitive_ops,
        ) == (1400.0, 200.0, 6.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            OnlineFilter(capacity=0)

    def test_cheap_for_small_updates(self):
        small = OnlineFilter().build(make_ctx(num_vertices=100_000, updated=(1, 2)))
        # Cost does not scale with |V|: far below a metadata scan.
        assert small.work.coalesced_bytes < 1000


class TestBallotFilter:
    def test_sorted_unique_worklist_from_active_mask(self):
        result = BallotFilter().build(make_ctx())
        assert np.array_equal(result.worklist, [3, 5, 7])
        assert result.is_sorted and result.is_unique
        assert result.sortedness == 1.0

    def test_cost_scales_with_vertex_count_not_frontier(self):
        small = BallotFilter().build(make_ctx(num_vertices=1_000))
        large = BallotFilter().build(make_ctx(num_vertices=100_000))
        assert large.work.coalesced_bytes > 50 * small.work.coalesced_bytes

    def test_never_overflows(self):
        ctx = make_ctx(updated=tuple(range(90)), num_threads=1)
        assert not BallotFilter().build(ctx).overflowed


class TestBatchFilter:
    def test_worklist_is_raw_updates(self):
        result = BatchFilter().build(make_ctx())
        assert np.array_equal(result.worklist, [5, 7, 7, 3])
        assert not result.is_sorted

    def test_requires_edge_list_memory(self):
        result = BatchFilter().build(make_ctx(frontier_edges=1000))
        assert result.extra_memory_bytes == 1000 * BatchFilter.EDGE_ENTRY_BYTES

    def test_memory_scales_with_frontier(self):
        small = BatchFilter().build(make_ctx(frontier_edges=10))
        large = BatchFilter().build(make_ctx(frontier_edges=10_000))
        assert large.extra_memory_bytes > 100 * small.extra_memory_bytes


class TestMakeFilter:
    @pytest.mark.parametrize(
        "mode,cls",
        [
            (FilterMode.ONLINE, OnlineFilter),
            (FilterMode.BALLOT, BallotFilter),
            (FilterMode.BATCH, BatchFilter),
        ],
    )
    def test_factory(self, mode, cls):
        assert isinstance(make_filter(mode), cls)

    def test_jit_is_not_a_standalone_filter(self):
        with pytest.raises(ValueError):
            make_filter(FilterMode.JIT)


class TestJITTaskManager:
    def test_starts_with_online_filter(self):
        jit = JITTaskManager(overflow_threshold=8)
        result = jit.build(make_ctx(), iteration=1)
        assert not jit._use_ballot
        assert jit.filter_trace() == ["online"]
        assert not result.is_sorted

    def test_switches_to_ballot_on_overflow(self):
        jit = JITTaskManager(overflow_threshold=4)
        overflow_ctx = make_ctx(updated=tuple(range(50)), num_threads=1,
                                active=tuple(range(50)))
        result = jit.build(overflow_ctx, iteration=1)
        assert jit._use_ballot
        assert result.is_sorted and result.is_unique
        assert result.overflowed
        # The ballot output covers every active vertex despite the overflow.
        assert result.worklist.size == 50

    def test_switches_back_when_frontier_shrinks(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(make_ctx(updated=tuple(range(50)), num_threads=1), iteration=1)
        assert jit._use_ballot
        jit.build(make_ctx(updated=(1, 2)), iteration=2)
        # The shadow online filter did not overflow, so iteration 3 is online.
        assert not jit._use_ballot
        assert jit.filter_trace() == ["ballot", "ballot"]

    def test_no_switch_back_without_shadow(self):
        jit = JITTaskManager(overflow_threshold=4, shadow_online=False)
        jit.build(make_ctx(updated=tuple(range(50)), num_threads=1), iteration=1)
        jit.build(make_ctx(updated=(1, 2)), iteration=2)
        assert jit._use_ballot

    def test_shadow_online_adds_bounded_overhead(self):
        overflow_ctx = make_ctx(updated=tuple(range(50)), num_threads=1)
        with_shadow = JITTaskManager(overflow_threshold=4, shadow_online=True)
        without = JITTaskManager(overflow_threshold=4, shadow_online=False)
        with_shadow.build(overflow_ctx, 1)
        without.build(overflow_ctx, 1)
        r1 = with_shadow.build(overflow_ctx, 2)
        r2 = without.build(overflow_ctx, 2)
        assert r1.work.coalesced_bytes >= r2.work.coalesced_bytes

    def test_decisions_and_pattern(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(make_ctx(updated=(1,)), 1)
        jit.build(make_ctx(updated=tuple(range(50)), num_threads=1), 2)
        jit.build(make_ctx(updated=(1,)), 3)
        assert len(jit.decisions) == 3
        # Iteration 3 still runs the ballot filter (the switch back to the
        # online filter takes effect the following iteration).
        assert jit.ballot_iterations() == [2, 3]
        assert jit.online_iterations() == [1]
        assert run_length_pattern(jit.filter_trace()) == "online*1, ballot*2"

    def test_reset(self):
        jit = JITTaskManager(overflow_threshold=4)
        jit.build(make_ctx(updated=tuple(range(50)), num_threads=1), 1)
        jit.reset()
        assert not jit._use_ballot
        assert jit.decisions == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            JITTaskManager(overflow_threshold=0)
