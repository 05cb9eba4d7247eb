"""Ligra-like CPU baseline: shared-memory push/pull frontier framework.

Ligra (Shun & Blelloch, PPoPP'13) runs frontier-based graph algorithms on a
multicore CPU with the dense/sparse (pull/push) representation switch that
SIMD-X's direction selector also uses. Its per-iteration structure is a
parallel ``edgeMap`` over the frontier's edges plus a ``vertexMap``; each
iteration ends with a fork/join barrier whose fixed cost dominates on
high-iteration, small-frontier workloads (road networks), while the edge
processing rate - bounded by CPU memory bandwidth, roughly an order of
magnitude below a K40's - dominates on large frontiers.

The cost model charges:

* a per-iteration synchronization overhead (``sync_overhead_us``),
* per-edge and per-frontier-vertex costs scaled by the core count,
* a dense-iteration surcharge when the frontier is large enough that Ligra
  would switch to the dense (pull) representation, reflecting the |V|-sized
  bitmap sweep that mode performs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import CPUSpec, DEFAULT_CPU, PricedSystem
from repro.core.acc import ACCAlgorithm
from repro.core.metrics import IterationRecord
from repro.graph.csr import CSRGraph


class LigraLike(PricedSystem):
    """Ligra-style push/pull frontier processing on a multicore CPU."""

    SYSTEM_NAME = "Ligra"
    MODEL = "CPU push/pull frontier (edgeMap/vertexMap)"

    #: Frontier-edge share beyond which Ligra switches to its dense mode.
    DENSE_THRESHOLD = 0.05

    #: Cost (ns) of scanning one vertex's flag during a dense iteration.
    DENSE_VERTEX_NS = 1.2

    def __init__(self, cpu: Optional[CPUSpec] = None):
        self.cpu = cpu if cpu is not None else DEFAULT_CPU

    def _price(
        self, records: List[IterationRecord], algorithm: ACCAlgorithm,
        graph: CSRGraph,
    ) -> float:
        cpu = self.cpu
        cores = cpu.cores
        total_us = 0.0
        total_edges = max(1, graph.num_edges)
        for it in records:
            parallel_ns = (
                it.frontier_edges * cpu.edge_ns
                + it.frontier_vertices * cpu.vertex_ns
            )
            if it.frontier_edges / total_edges >= self.DENSE_THRESHOLD:
                # Dense iteration: scan every vertex's visited/active flag.
                parallel_ns += graph.num_vertices * self.DENSE_VERTEX_NS
            total_us += parallel_ns / cores / 1000.0 + cpu.sync_overhead_us
        return total_us
