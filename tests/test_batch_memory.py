"""Host working set of a batched run: Compute's temporaries are one lane's.

``run_batch`` streams each unit's ``(edge, lane)`` pairs through Compute
lane-major, one lane per call (``docs/batching.md``, "Host working set"),
so the Compute temporaries a superstep holds are one lane's pairs whatever
K is - never an array over the all-lane pair space. Before streaming,
every lane added ~60 bytes per graph edge to the peak (ten pair-sized
int64/float64 temporaries). What still grows with K is outside Compute:
each lane's valid updates wait in ``_Step.pending`` for phase 2, next to
its per-vertex rows - so the pin here is the per-lane increment, and the
``peak(64) <= 1.5 * peak(16)`` ratio is left to the change that drains
that queue per lane (ROADMAP, "Bounded working set").

``tracemalloc`` is the instrument because numpy reports its buffers to it
and the reading is deterministic, unlike RSS (allocator- and
history-dependent).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.algorithms import SSSP
from repro.core.engine import SIMDXEngine
from repro.graph.datasets import load_dataset


def _peak_beyond_metadata(graph, num_lanes: int) -> int:
    """Peak traced bytes of one ``run_batch(SSSP, K hubs)``, minus the
    current + iteration-start copies of the ``(K, n)`` metadata block."""
    hubs = np.argsort(-graph.out_degrees(), kind="stable")[:num_lanes]
    engine = SIMDXEngine(graph)
    tracemalloc.start()
    try:
        result = engine.run_batch(SSSP(), [int(v) for v in hubs])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.failed, result.failure_reason
    return peak - 2 * num_lanes * graph.num_vertices * 8


def test_a_lane_adds_its_queue_not_its_share_of_the_pair_space():
    graph = load_dataset("LJ", 0.25)
    per_lane = (
        _peak_beyond_metadata(graph, 64) - _peak_beyond_metadata(graph, 16)
    ) / 48
    # Measured: 0.23 MB per lane, ~4 bytes per graph edge - the lane's
    # queued (update, destination) pairs on the busiest superstep plus its
    # per-vertex rows. The allowance is twice that; the all-lane pair space
    # cost 3.64 MB per lane (~60 bytes per edge).
    allowance = 8 * graph.num_edges
    assert per_lane <= allowance, (per_lane, allowance)
