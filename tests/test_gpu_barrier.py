"""Tests for the deadlock-free software global barrier (Section 5)."""

from __future__ import annotations

import pytest

from repro.gpu.barrier import BarrierDeadlockError, SoftwareGlobalBarrier
from repro.gpu.device import K20, K40
from repro.gpu.kernel import Kernel
from repro.gpu.registers import compute_cta_count


class TestDeadlockFreedom:
    def test_default_launch_is_deadlock_free(self):
        barrier = SoftwareGlobalBarrier(K40, Kernel("fused_push", 48))
        assert barrier.is_deadlock_free
        assert barrier.num_ctas == barrier.max_resident_ctas

    def test_default_cta_count_matches_equation_one(self):
        kernel = Kernel("fused_all", 110)
        barrier = SoftwareGlobalBarrier(K40, kernel)
        assert barrier.num_ctas == compute_cta_count(
            K40, registers_per_thread=110, threads_per_cta=kernel.threads_per_cta
        )

    def test_oversubscription_rejected_at_construction(self):
        kernel = Kernel("fused_all", 110)
        safe = compute_cta_count(K40, registers_per_thread=110,
                                 threads_per_cta=kernel.threads_per_cta)
        with pytest.raises(BarrierDeadlockError):
            SoftwareGlobalBarrier(K40, kernel, num_ctas=safe + 1)

    def test_oversubscription_detected_at_sync_when_unchecked(self):
        # Prior-work barriers only discover the hang at runtime.
        kernel = Kernel("fused_all", 110)
        safe = compute_cta_count(K40, registers_per_thread=110,
                                 threads_per_cta=kernel.threads_per_cta)
        barrier = SoftwareGlobalBarrier(
            K40, kernel, num_ctas=safe * 2, check_deadlock=False
        )
        assert not barrier.is_deadlock_free
        with pytest.raises(BarrierDeadlockError):
            barrier.synchronize()

    def test_undersubscribed_launch_allowed(self):
        barrier = SoftwareGlobalBarrier(K40, Kernel("fused_push", 48), num_ctas=4)
        assert barrier.is_deadlock_free
        barrier.synchronize()

    def test_zero_ctas_rejected(self):
        with pytest.raises(ValueError):
            SoftwareGlobalBarrier(K40, Kernel("k", 48), num_ctas=0)

    def test_k20_hosts_fewer_ctas_than_k40(self):
        kernel = Kernel("fused_push", 48)
        b20 = SoftwareGlobalBarrier(K20, kernel)
        b40 = SoftwareGlobalBarrier(K40, kernel)
        assert b20.max_resident_ctas < b40.max_resident_ctas


class TestSynchronization:
    def test_sync_cost_positive_and_scales_with_ctas(self):
        small = SoftwareGlobalBarrier(K40, Kernel("k", 48), num_ctas=8)
        large = SoftwareGlobalBarrier(K40, Kernel("k", 48))
        assert 0 < small.synchronize() < large.synchronize()

    def test_sync_cost_well_below_kernel_launch(self):
        # The whole point of fusing across the barrier: a sync is much
        # cheaper than relaunching a kernel.
        barrier = SoftwareGlobalBarrier(K40, Kernel("fused_push", 48))
        assert barrier.synchronize() < K40.kernel_launch_overhead_us

    def test_every_round_costs_the_same(self):
        # A round leaves no state behind: the barrier is reusable forever.
        barrier = SoftwareGlobalBarrier(K40, Kernel("k", 48), num_ctas=16)
        costs = {barrier.synchronize() for _ in range(5)}
        assert costs == {
            barrier.SYNC_BASE_COST_US + barrier.SYNC_COST_PER_CTA_US * 16
        }
