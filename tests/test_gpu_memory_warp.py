"""Tests for the memory-traffic helpers, warp primitives, atomics profiling
and device-wide primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import memory as gmem
from repro.gpu import warp
from repro.gpu.atomics import profile_atomic_updates
from repro.gpu.primitives import compact_flags, concatenate_bins


class TestMemoryHelpers:
    def test_sequential_bytes(self):
        assert gmem.sequential_bytes(100, 4) == 400.0
        with pytest.raises(ValueError):
            gmem.sequential_bytes(-1, 4)

    def test_scattered_accesses(self):
        assert gmem.scattered_accesses(17) == 17.0

    def test_adjacency_read_bytes_weighted_vs_not(self):
        assert gmem.adjacency_read_bytes(100, weighted=True) == 800.0
        assert gmem.adjacency_read_bytes(100, weighted=False) == 400.0

    def test_offset_read_sorted_vs_random(self):
        sorted_txn = gmem.offset_read_transactions(1000, sortedness=1.0)
        random_txn = gmem.offset_read_transactions(1000, sortedness=0.0)
        assert random_txn == 1000.0
        assert sorted_txn == pytest.approx(250.0)
        mid = gmem.offset_read_transactions(1000, sortedness=0.5)
        assert sorted_txn < mid < random_txn

    def test_metadata_scatter_locality_discount(self):
        assert gmem.metadata_scatter_transactions(100) == 100.0
        assert gmem.metadata_scatter_transactions(100, locality=0.5) == 50.0

    def test_metadata_scan_reads_both_arrays(self):
        assert gmem.metadata_scan_bytes(1000) == 8000.0

    def test_worklist_sortedness(self):
        assert gmem.worklist_sortedness(np.array([1, 2, 3, 4])) == 1.0
        assert gmem.worklist_sortedness(np.array([4, 3, 2, 1])) == 0.0
        assert gmem.worklist_sortedness(np.array([], dtype=np.int64)) == 1.0
        assert 0.0 < gmem.worklist_sortedness(np.array([1, 3, 2, 4])) < 1.0

    def test_frontier_expansion_traffic_components(self):
        t = gmem.frontier_expansion_traffic(10, 100, sortedness=1.0, weighted=True)
        assert t.coalesced_bytes == pytest.approx(10 * 4 + 100 * 8)
        assert t.scattered_transactions > 0
        unsorted = gmem.frontier_expansion_traffic(10, 100, sortedness=0.0)
        assert unsorted.scattered_transactions > t.scattered_transactions

    def test_pull_expansion_traffic(self):
        t = gmem.pull_expansion_traffic(10, 100)
        assert t.coalesced_bytes > 0
        assert t.scattered_transactions == 100.0

    def test_traffic_addition(self):
        a = gmem.FrontierTraffic(10.0, 5.0)
        b = gmem.FrontierTraffic(1.0, 2.0)
        c = a + b
        assert c.coalesced_bytes == 11.0 and c.scattered_transactions == 7.0


class TestWarpPrimitives:
    def test_num_warps(self):
        assert warp.num_warps(0) == 0
        assert warp.num_warps(1) == 1
        assert warp.num_warps(32) == 1
        assert warp.num_warps(33) == 2

    def test_reduction_primitive_ops_scaling(self):
        assert warp.reduction_primitive_ops(0) == 0.0
        assert warp.reduction_primitive_ops(32) == 5.0
        assert warp.reduction_primitive_ops(64) > warp.reduction_primitive_ops(32)

    def test_divergence_uniform_work_is_zero(self):
        assert warp.divergence_fraction(np.full(64, 7.0)) == 0.0

    def test_divergence_single_busy_lane_high(self):
        work = np.zeros(32)
        work[0] = 100
        assert warp.divergence_fraction(work) > 0.9

    def test_divergence_empty_input(self):
        assert warp.divergence_fraction(np.array([])) == 0.0

    def test_divergence_skewed_greater_than_uniform(self):
        rng = np.random.default_rng(5)
        uniform = rng.integers(10, 12, size=256)
        skewed = rng.pareto(1.2, size=256) * 10
        assert warp.divergence_fraction(skewed) > warp.divergence_fraction(uniform)

    @staticmethod
    def _padded_divergence(per_lane_work, warp_size=32):
        """The pad-and-reshape formulation ``divergence_fraction`` replaced."""
        work = np.asarray(per_lane_work, dtype=np.float64)
        pad = -work.size % warp_size
        chunks = np.concatenate([work, np.zeros(pad)]).reshape(-1, warp_size)
        maxes, means = chunks.max(axis=1), chunks.mean(axis=1)
        busy = maxes > 0
        if not busy.any():
            return 0.0
        return float(np.clip((1.0 - means[busy] / maxes[busy]).mean(), 0.0, 1.0))

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 64, 1000])
    @pytest.mark.parametrize("shape", ["uniform", "degrees", "skewed", "zeros", "idle_warps"])
    def test_divergence_equals_the_padded_formulation(self, size, shape):
        # Work counts are integers (edges per thread), so the two
        # formulations' sums are exact and must agree to the last bit.
        rng = np.random.default_rng(size)
        work = {
            "uniform": np.full(size, 7),
            "degrees": rng.integers(0, 8, size=size),
            "skewed": (rng.pareto(1.2, size=size) * 10).astype(np.int64),
            "zeros": np.zeros(size, dtype=np.int64),
            "idle_warps": rng.integers(1, 30, size=size) * (np.arange(size) // 32 % 2),
        }[shape]
        expected = self._padded_divergence(work)
        assert warp.divergence_fraction(work) == expected
        assert warp.divergence_fraction(work.astype(np.float64)) == expected
        assert warp.divergence_fraction(work, warp_size=8) == self._padded_divergence(work, 8)

    def test_reduction_primitive_ops_equal_the_log2_formulation(self):
        for warp_size in (1, 2, 8, 32):
            for count in [*range(1, 70), 255, 256, 257, 1024, 10**6]:
                warps = warp.num_warps(count, warp_size)
                expected = float(
                    warps * int(np.ceil(np.log2(warp_size)))
                    + (int(np.ceil(np.log2(warps))) if warps > 1 else 0)
                )
                assert warp.reduction_primitive_ops(count, warp_size) == expected


class TestAtomicsProfiling:
    def test_empty_profile(self):
        p = profile_atomic_updates(np.array([], dtype=np.int64))
        assert p.num_ops == 0 and p.contention == 1.0 and p.max_contention == 0

    def test_uniform_destinations_low_contention(self):
        p = profile_atomic_updates(np.arange(1000))
        assert p.num_ops == 1000
        assert p.contention == pytest.approx(1.0)
        assert p.max_contention == 1

    def test_hub_destination_high_contention(self):
        p = profile_atomic_updates(np.zeros(1000, dtype=np.int64))
        assert p.contention == pytest.approx(1000.0)
        assert p.max_contention == 1000

    def test_mixed_contention_between_extremes(self):
        dests = np.concatenate([np.zeros(100, dtype=np.int64), np.arange(1, 901)])
        p = profile_atomic_updates(dests)
        assert 1.0 < p.contention < 100.0

    @pytest.mark.parametrize("seed", range(6))
    def test_profile_matches_per_address_counts(self, seed):
        rng = np.random.default_rng(seed)
        # A Zipf-like spread: a few hot addresses and a long cold tail.
        dests = rng.zipf(1.5 + seed / 4, size=int(rng.integers(1, 2000))) % 500
        p = profile_atomic_updates(dests)
        counts = np.bincount(dests)
        counts = counts[counts > 0]
        assert p.num_ops == dests.size
        assert p.max_contention == counts.max()
        assert p.contention == pytest.approx(max(1.0, (counts ** 2).sum() / dests.size))
        assert 1.0 <= p.contention <= p.max_contention
        # Contention depends on the multiset of addresses, not their order.
        assert profile_atomic_updates(rng.permutation(dests)) == p


class TestDevicePrimitives:
    def test_scan_primitive_steps_are_ceil_log2(self):
        for n in [*range(0, 70), 255, 256, 257, 4096, 4097]:
            sizes = np.zeros(n, dtype=np.int64)
            steps = concatenate_bins(sizes[:0], sizes).work.warp_primitive_ops
            assert steps == (int(np.ceil(np.log2(max(n, 2)))) if n else 0.0)

    def test_concatenate_bins_preserves_order_and_content(self):
        # Three bins, flat: [5, 1], [] and [7].
        result = concatenate_bins(np.array([5, 1, 7]), np.array([2, 0, 1]))
        assert np.array_equal(result.values, [5, 1, 7])
        assert result.work.compute_ops > 0

    def test_compact_flags_sorted_indices(self):
        flags = np.array([False, True, True, False, True])
        result = compact_flags(flags)
        assert np.array_equal(result.values, [1, 2, 4])
        assert np.all(np.diff(result.values) > 0)

    def test_compact_flags_empty(self):
        result = compact_flags(np.zeros(10, dtype=bool))
        assert result.values.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_compact_flags_matches_flatnonzero(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(0, 3000))
        flags = rng.random(n) < rng.random()
        result = compact_flags(flags)
        assert np.array_equal(result.values, np.flatnonzero(flags))
        assert result.values.dtype == np.int64
        # One ballot per warp, one 4-byte id written per set flag.
        assert result.work.warp_primitive_ops == -(-n // 32)
        assert result.work.coalesced_bytes == 4.0 * np.count_nonzero(flags)

    @pytest.mark.parametrize("seed", range(6))
    def test_concatenate_bins_prices_scan_and_copy(self, seed):
        rng = np.random.default_rng(200 + seed)
        sizes = rng.integers(0, 6, size=int(rng.integers(1, 400)))
        entries = rng.integers(0, 10_000, size=int(sizes.sum()))
        result = concatenate_bins(entries, sizes)
        assert np.array_equal(result.values, entries)
        # Scan: two ops per bin; scatter: one per entry.
        assert result.work.compute_ops == 2 * sizes.size + entries.size
        assert result.work.warp_primitive_ops == (max(sizes.size, 2) - 1).bit_length()
