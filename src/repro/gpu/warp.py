"""Warp-level execution model: ballot votes, lane reductions, divergence.

The ACC engine's key claim (Section 3.3) is that a warp can cooperatively
compute and combine the updates of one vertex's neighbour list entirely in
registers / shared memory, with lane 0 writing the final value - no atomics.
The ballot filter (Section 4) relies on the CUDA ``__ballot()`` vote to turn
32 per-lane activity flags into one bitmask handled by a single lane.

These helpers give the systems functional equivalents of those primitives
(operating on NumPy arrays) together with cost figures (number of warp
primitive operations, divergence fractions) to feed the device cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

WARP_SIZE = 32


def num_warps(num_threads: int, warp_size: int = WARP_SIZE) -> int:
    """Number of warps needed to host ``num_threads`` threads."""
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative")
    return -(-num_threads // warp_size)


def ballot(flags: Sequence[bool] | np.ndarray) -> int:
    """Functional equivalent of ``__ballot_sync`` for one warp.

    Returns an integer bitmask whose bit ``i`` is the flag of lane ``i``.
    At most :data:`WARP_SIZE` flags are accepted.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.size > WARP_SIZE:
        raise ValueError(f"a warp has at most {WARP_SIZE} lanes")
    mask = 0
    for lane, flag in enumerate(flags):
        if flag:
            mask |= 1 << lane
    return mask


def ballot_array(flags: np.ndarray, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Vectorized ballot over an arbitrary-length flag array.

    Returns one bitmask per warp-sized chunk, matching how the ballot filter
    scans the metadata array: consecutive lanes inspect consecutive vertices
    and lane 0 of each warp receives the combined vote.
    """
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    padded = np.zeros(num_warps(n, warp_size) * warp_size, dtype=np.uint64)
    padded[:n] = flags.astype(np.uint64)
    chunks = padded.reshape(-1, warp_size)
    weights = (np.uint64(1) << np.arange(warp_size, dtype=np.uint64))
    return (chunks * weights).sum(axis=1, dtype=np.uint64)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Per-mask population count (number of set lanes)."""
    masks = np.asarray(masks, dtype=np.uint64)
    counts = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    for _ in range(64):
        counts += (work & np.uint64(1)).astype(np.int64)
        work >>= np.uint64(1)
        if not work.any():
            break
    return counts


def warp_reduce(values: np.ndarray, op: Callable[[np.ndarray], float]) -> float:
    """Reduce up to a warp's worth of per-lane values with ``op``.

    ``op`` receives the array and returns a scalar (``np.min``, ``np.sum``,
    ...). In hardware this is a log2(32) = 5 step shuffle reduction; the cost
    is accounted separately via :func:`reduction_primitive_ops`.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot reduce an empty lane set")
    if values.size > WARP_SIZE:
        raise ValueError(f"a warp has at most {WARP_SIZE} lanes")
    return float(op(values))


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
    """
    work = np.asarray(per_lane_work, dtype=np.float64)
    if work.size == 0:
        return 0.0
    # One segment per warp; the last warp's missing lanes are idle, so its
    # mean still divides by the full warp size.
    starts = np.arange(0, work.size, warp_size)
    maxes = np.maximum.reduceat(work, starts)
    means = np.add.reduceat(work, starts) / warp_size
    busy = maxes > 0
    if not busy.all():
        maxes, means = maxes[busy], means[busy]
        if maxes.size == 0:
            return 0.0
    waste = 1.0 - means / maxes
    return min(1.0, max(0.0, float(np.add.reduce(waste)) / waste.size))


@dataclass(frozen=True)
class WarpCombineResult:
    """Result of a warp-cooperative compute+combine over one vertex."""

    value: float
    primitive_ops: float


def warp_combine(
    updates: np.ndarray,
    combine: Callable[[np.ndarray], float],
    warp_size: int = WARP_SIZE,
) -> WarpCombineResult:
    """Combine a vertex's edge updates the way a warp kernel would.

    The neighbour list is processed in warp-sized strips; each strip is
    reduced with shuffles, then the per-strip partials are reduced again.
    This mirrors lines 1-8 of Figure 4(b) and is used by the Warp and CTA
    kernels of the engine.
    """
    updates = np.asarray(updates, dtype=np.float64)
    if updates.size == 0:
        raise ValueError("warp_combine requires at least one update")
    partials: List[float] = []
    ops = 0.0
    for start in range(0, updates.size, warp_size):
        strip = updates[start:start + warp_size]
        partials.append(warp_reduce(strip, combine))
        ops += reduction_primitive_ops(strip.size, warp_size)
    value = combine(np.asarray(partials))
    ops += reduction_primitive_ops(len(partials), warp_size)
    return WarpCombineResult(value=float(value), primitive_ops=ops)
