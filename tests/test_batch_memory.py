"""Host working set of a batched run: a lane adds its rows, not its edges.

``run_batch`` streams each unit's ``(edge, lane)`` pairs through Compute
lane-major, one lane per call, and on one device drains each lane -
frontier hook, Combine, active mask - right after its Compute
(``docs/batching.md``, "Host working set"). So neither Compute's
temporaries nor the Combine queue ever hold more than one lane's pairs,
whatever K is: what a lane still adds to the peak is its per-vertex rows
(metadata, active mask, receiver sets), not anything edge-sized. Before
streaming a lane cost ~60 bytes per graph edge (the all-lane pair space);
while every lane's updates waited in ``_Step.pending`` for all lanes to
compute, ~97 bytes per vertex.

``tracemalloc`` is the instrument because numpy reports its buffers to it
and the reading is deterministic, unlike RSS (allocator- and
history-dependent); ``benchmarks/test_batching_throughput.py`` holds the
RSS ratio bar.
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


def test_a_lane_adds_its_rows_not_its_queue():
    graph = load_dataset("LJ", 0.25)
    per_lane = (
        _peak_beyond_metadata(graph, 64) - _peak_beyond_metadata(graph, 16)
    ) / 48
    # Measured: ~19 bytes per vertex per lane. Queuing every lane's updates
    # until all lanes computed measured ~97.
    budget = 48 * graph.num_vertices
    assert per_lane <= budget, (per_lane / graph.num_vertices, budget)
