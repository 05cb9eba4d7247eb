"""Warp-level cost figures: shuffle reductions and divergence.

The ACC engine's key claim (Section 3.3) is that a warp can cooperatively
compute and combine the updates of one vertex's neighbour list entirely in
registers / shared memory, with lane 0 writing the final value - no atomics.
The engine computes those combines functionally (``core/acc.py``); these
helpers give the device cost model what a warp would have spent on them:
the number of warp-shuffle operations a reduction takes and the fraction of
lane time a skewed work split wastes.
"""

from __future__ import annotations

import numpy as np

WARP_SIZE = 32


def num_warps(num_threads: int, warp_size: int = WARP_SIZE) -> int:
    """Number of warps needed to host ``num_threads`` threads."""
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative")
    return -(-num_threads // warp_size)


def reduction_primitive_ops(num_values: int, warp_size: int = WARP_SIZE) -> float:
    """Warp-shuffle operations needed to reduce ``num_values`` values."""
    if num_values <= 0:
        return 0.0
    warps = num_warps(num_values, warp_size)
    # log2(warp_size) shuffle steps per warp plus a final cross-warp pass;
    # ceil(log2(k)) of a positive integer is (k - 1).bit_length().
    per_warp = (warp_size - 1).bit_length()
    cross = (warps - 1).bit_length()
    return float(warps * per_warp + cross)


def divergence_fraction(per_lane_work: np.ndarray, warp_size: int = WARP_SIZE) -> float:
    """Estimate intra-warp divergence from per-thread work counts.

    A warp executes for as long as its busiest lane; the wasted fraction is
    ``1 - mean/max`` averaged over warps. Uniform work gives 0; one busy lane
    among 32 idle ones approaches 31/32. Thread-per-vertex scheduling of a
    skewed frontier produces exactly this pathology, which is why SIMD-X
    routes high-degree vertices to warp/CTA kernels instead.
    The per-warp ratios are plain floats (the same IEEE operations as
    arrays), averaged in ``np.add.reduce`` order.
    """
    work = np.asarray(per_lane_work)
    if work.size == 0:
        return 0.0
    # One segment per warp; the last warp's missing lanes are idle, so its
    # mean still divides by the full warp size.
    starts = np.arange(0, work.size, warp_size)
    maxes = np.maximum.reduceat(work, starts).tolist()
    sums = np.add.reduceat(work, starts).tolist()
    waste = [
        1.0 - total / warp_size / peak
        for total, peak in zip(sums, maxes) if peak > 0
    ]
    if not waste:
        return 0.0
    return min(1.0, max(0.0, float(np.add.reduce(waste)) / len(waste)))
