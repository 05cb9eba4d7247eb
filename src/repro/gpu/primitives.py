"""Device-wide primitives: prefix scan and stream compaction.

The JIT task management pipeline concatenates per-thread bins into the next
active list with a prefix scan (line 20 of Figure 4(b)), and the ballot
filter compacts the metadata-scan bitmasks into a sorted worklist. Both are
standard GPU primitives; here they are executed functionally with NumPy and
their cost is described with a :class:`~repro.gpu.kernel.WorkEstimate` so the
device can charge for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import WorkEstimate
from repro.gpu.memory import VERTEX_ID_BYTES, sequential_bytes


@dataclass(frozen=True)
class PrimitiveResult:
    """A functional result paired with the work a GPU would have done."""

    values: np.ndarray
    work: WorkEstimate


def _scan_work(n: int) -> WorkEstimate:
    """Cost of a work-efficient scan over ``n`` elements: each is read and
    written once, ~2 ops per element across the up-sweep and down-sweep
    phases, ``ceil(log2(n))`` warp-primitive steps."""
    return WorkEstimate(
        coalesced_bytes=sequential_bytes(2 * n, 8),
        compute_ops=float(2 * n),
        warp_primitive_ops=float(n and (max(n, 2) - 1).bit_length()),
    )


def concatenate_bins(entries: np.ndarray, sizes: np.ndarray) -> PrimitiveResult:
    """Concatenate per-thread bins into one worklist via scan + scatter.

    This is how the online filter assembles its next active list without
    atomics: scan the bin sizes to get each thread's
    output offset, then copy each bin to its slice. The bins arrive flat -
    ``entries`` already in bin order, ``sizes`` entries per bin - so the
    worklist is ``entries`` itself, the scan's last offset is its length,
    and only the device's scan and copy are priced here, as one estimate
    the caller owns.
    """
    total = int(entries.size)
    work = _scan_work(int(sizes.size))
    work.coalesced_bytes += sequential_bytes(total, VERTEX_ID_BYTES) * 2  # read + write
    work.compute_ops += float(total)
    return PrimitiveResult(values=entries, work=work)


def compact_flags(flags: np.ndarray) -> PrimitiveResult:
    """Stream compaction: indices of set flags, in order.

    Used by the ballot filter after the metadata scan: each warp's ballot
    mask is popcounted, a scan over warp counts gives output offsets and the
    set lanes write their vertex ids, producing a *sorted* worklist.
    """
    flags = np.asarray(flags, dtype=bool)
    indices = np.nonzero(flags)[0].astype(np.int64)
    n = flags.size
    num_warps = -(-n // 32) if n else 0
    work = WorkEstimate(
        # Read the flag array (packed as one byte per flag here; on device it
        # is derived from metadata already read by the caller, so we only
        # charge the bitmask handling and the output writes).
        coalesced_bytes=sequential_bytes(indices.size, VERTEX_ID_BYTES),
        compute_ops=float(n),
        warp_primitive_ops=float(num_warps),
    )
    return PrimitiveResult(values=indices, work=work)
