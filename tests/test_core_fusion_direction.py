"""Tests for kernel fusion plans, the register model and direction selection."""

from __future__ import annotations

import pytest

from repro.core.direction import Direction, DirectionSelector
from repro.core.fusion import FusionPlan, FusionStrategy, REGISTERS_TABLE
from repro.gpu.barrier import SoftwareGlobalBarrier
from repro.gpu.device import K20, K40, P100


class TestRegisterTable:
    def test_table2_unfused_registers(self):
        # Values from Table 2 of the paper.
        assert REGISTERS_TABLE["push_thread"] == 26
        assert REGISTERS_TABLE["push_warp"] == 27
        assert REGISTERS_TABLE["push_cta"] == 28
        assert REGISTERS_TABLE["push_task_mgt"] == 24
        assert REGISTERS_TABLE["pull_task_mgt"] == 30

    def test_table2_fused_registers(self):
        assert REGISTERS_TABLE["fused_push"] == 48
        assert REGISTERS_TABLE["fused_pull"] == 50
        assert REGISTERS_TABLE["fused_all"] == 110

    def test_all_fusion_roughly_4x_unfused(self):
        unfused_avg = sum(
            v for k, v in REGISTERS_TABLE.items() if not k.startswith("fused")
        ) / 8
        assert REGISTERS_TABLE["fused_all"] / unfused_avg > 4.0

    def test_selective_fusion_halves_all_fusion(self):
        assert REGISTERS_TABLE["fused_push"] <= REGISTERS_TABLE["fused_all"] / 2
        assert REGISTERS_TABLE["fused_pull"] <= REGISTERS_TABLE["fused_all"] / 2


class TestFusionPlan:
    def test_no_fusion_launches_four_kernels_per_iteration(self):
        plan = FusionPlan(FusionStrategy.NONE)
        phase = plan.phase_kernels(Direction.PUSH)
        assert len(phase.launch_kernels) == 4
        assert len(phase.continuation_kernels) == 0
        assert phase.barrier_kernel is None

    def test_push_pull_fusion_launches_once_per_phase(self):
        plan = FusionPlan(FusionStrategy.PUSH_PULL)
        first = plan.phase_kernels(Direction.PUSH)
        assert len(first.launch_kernels) == 1
        assert first.launch_kernels[0].name == "fused_push"
        # Staying in push: no relaunch.
        second = plan.phase_kernels(Direction.PUSH)
        assert len(second.launch_kernels) == 0
        assert len(second.continuation_kernels) == 4
        # Switching to pull relaunches the pull kernel.
        third = plan.phase_kernels(Direction.PULL)
        assert len(third.launch_kernels) == 1
        assert third.launch_kernels[0].name == "fused_pull"

    def test_all_fusion_launches_exactly_once(self):
        plan = FusionPlan(FusionStrategy.ALL)
        first = plan.phase_kernels(Direction.PUSH)
        assert len(first.launch_kernels) == 1
        for direction in (Direction.PULL, Direction.PUSH, Direction.PULL):
            phase = plan.phase_kernels(direction)
            assert len(phase.launch_kernels) == 0

    def test_max_registers_per_strategy(self):
        assert FusionPlan(FusionStrategy.NONE).max_registers_per_thread() == 30
        assert FusionPlan(FusionStrategy.PUSH_PULL).max_registers_per_thread() == 50
        assert FusionPlan(FusionStrategy.ALL).max_registers_per_thread() == 110

    def test_configurable_threads_ordering(self):
        # Push-pull fusion roughly doubles the resident threads of all-fusion
        # (the paper reports a ~50% increase; the floor function makes the
        # exact ratio device dependent).
        none = FusionPlan(FusionStrategy.NONE).configurable_threads(K40)
        push_pull = FusionPlan(FusionStrategy.PUSH_PULL).configurable_threads(K40)
        all_fused = FusionPlan(FusionStrategy.ALL).configurable_threads(K40)
        assert none >= push_pull > all_fused

    def test_configurable_threads_scale_with_device(self):
        plan = FusionPlan(FusionStrategy.PUSH_PULL)
        k20 = plan.configurable_threads(K20)
        k40 = plan.configurable_threads(K40)
        p100 = plan.configurable_threads(P100)
        assert k20 < k40 < p100

    def test_unknown_kernel_key_rejected(self):
        with pytest.raises(KeyError):
            FusionPlan(FusionStrategy.NONE).kernel("nonexistent")

    def test_register_override(self):
        plan = FusionPlan(FusionStrategy.PUSH_PULL, registers={"fused_push": 64})
        assert plan.kernel("fused_push").registers_per_thread == 64

    def test_persistent_cta_count_positive(self):
        # The persistent kernel a fused strategy's software barrier spans
        # hosts at least one CTA on every device.
        for strategy, key in ((FusionStrategy.PUSH_PULL, "fused_push"),
                              (FusionStrategy.ALL, "fused_all")):
            kernel = FusionPlan(strategy).kernel(key)
            for spec in (K20, K40, P100):
                assert SoftwareGlobalBarrier(spec, kernel).max_resident_ctas > 0


class TestDirectionSelector:
    def test_starts_in_requested_direction(self):
        sel = DirectionSelector(total_edges=1000, start_direction=Direction.PULL)
        # A pull-started algorithm with a full frontier stays in pull mode.
        assert sel.decide(900) is Direction.PULL

    def test_switches_to_pull_on_large_frontier(self):
        sel = DirectionSelector(total_edges=1000)
        assert sel.decide(10) is Direction.PUSH
        assert sel.decide(100) is Direction.PULL

    def test_switches_back_to_push_on_small_frontier(self):
        sel = DirectionSelector(total_edges=1000)
        sel.decide(500)
        assert sel._current is Direction.PULL
        assert sel.decide(5) is Direction.PUSH

    def test_hysteresis_between_thresholds(self):
        sel = DirectionSelector(
            total_edges=1000, to_pull_threshold=0.5, to_push_threshold=0.1
        )
        sel.decide(600)          # -> pull
        assert sel.decide(300) is Direction.PULL   # 30% stays pull
        assert sel.decide(50) is Direction.PUSH    # below 10% -> push

    def test_bfs_like_sequence_yields_push_pull_push(self):
        sel = DirectionSelector(total_edges=10_000)
        frontier_edges = [5, 50, 3000, 4000, 800, 40, 5]
        directions = [sel.decide(e) for e in frontier_edges]
        assert directions[0] is Direction.PUSH
        assert Direction.PULL in directions
        assert directions[-1] is Direction.PUSH
        assert sel.switches() == 2
        assert len(sel.history) == len(frontier_edges)

    def test_phase_lengths_empty_history(self):
        sel = DirectionSelector(total_edges=10)
        assert sel.history == []
        assert sel.switches() == 0

    def test_empty_graph_never_switches(self):
        sel = DirectionSelector(total_edges=0)
        assert sel.decide(0) is Direction.PUSH
        assert sel.switches() == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DirectionSelector(total_edges=10, to_pull_threshold=0.01,
                              to_push_threshold=0.5)
        with pytest.raises(ValueError):
            DirectionSelector(total_edges=10, to_pull_threshold=2.0)

    def test_force_records_history_and_current(self):
        sel = DirectionSelector(total_edges=1000)
        assert sel.force(Direction.PULL) is Direction.PULL
        assert sel._current is Direction.PULL
        assert sel.force(Direction.PULL) is Direction.PULL
        assert sel.force(Direction.PUSH) is Direction.PUSH
        assert sel.history == [Direction.PULL, Direction.PULL, Direction.PUSH]
        assert sel.switches() == 1

    def test_force_then_decide_uses_forced_state(self):
        sel = DirectionSelector(total_edges=1000)
        sel.force(Direction.PULL)
        # Hysteresis continues from the forced direction: a mid-band share
        # keeps pull, a tiny share switches back to push.
        assert sel.decide(30) is Direction.PULL
        assert sel.decide(5) is Direction.PUSH
        assert sel.switches() == 1
