"""Gunrock-like GPU baseline: the AFC model with batch filter and atomics.

Gunrock (Wang et al., PPoPP'16) structures each iteration as
Advance / Filter / Compute (Table 1 of the SIMD-X paper):

* **Advance** expands the frontier's neighbour lists and applies per-edge
  updates to vertex state *with atomic operations* (``atomicMin`` /
  ``atomicAdd``), which is the cost ACC's combine avoids (Figure 5);
* **Filter** is a *batch filter*: it materializes the active edge list
  (up to 2|E| entries of device memory - the reason Gunrock OOMs on
  large-graph SSSP in Table 4) and compacts the updated destinations into an
  unsorted, possibly redundant worklist (Figure 6a);
* there is no degree classification of tasks, so thread-per-vertex mapping
  suffers intra-warp divergence on skewed frontiers, mitigated only
  reactively;
* kernels are not fused across the iteration barrier, so every iteration
  pays two kernel launches.

This class executes nothing itself: it prices the shared forced-push
SIMD-X run (:func:`repro.baselines.common.execute`) under Gunrock's design
decisions, its atomics from the atomic profile each iteration record
carries.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import PricedSystem
from repro.core.acc import ACCAlgorithm
from repro.core.metrics import IterationRecord
from repro.gpu import memory as gmem
from repro.gpu.device import GPUDevice, K40
from repro.gpu.kernel import Kernel, KernelLaunch, WorkEstimate
from repro.graph.csr import CSRGraph


class GunrockLike(PricedSystem):
    """Gunrock-style advance/filter execution on the simulated GPU."""

    SYSTEM_NAME = "Gunrock"
    MODEL = "AFC + batch filter + atomic updates"

    #: Register footprints of the advance and filter kernels (comparable to
    #: the unfused SIMD-X kernels of Table 2).
    ADVANCE_REGISTERS = 32
    FILTER_REGISTERS = 28

    #: Bytes per entry of the batch filter's active edge list.
    EDGE_ENTRY_BYTES = 12

    #: Divergence of the un-classified thread-per-vertex advance on skewed
    #: frontiers (reactive load balancing recovers part of it).
    ADVANCE_DIVERGENCE = 0.30

    def __init__(self, device: Optional[GPUDevice] = None):
        self.device = device if device is not None else GPUDevice(K40)

    # ------------------------------------------------------------------
    def _footprint(self, algorithm: ACCAlgorithm, graph: CSRGraph) -> list:
        """CSR, metadata and the batch filter's edge-list buffer.

        Frontier-driven traversal algorithms (BFS, SSSP, WCC) must be able to
        hold the worst-case active edge list; the paper attributes Gunrock's
        SSSP OOM failures on large graphs to exactly this buffer. PageRank-
        style full-graph algorithms stream edges from CSR and skip it.
        """
        v = graph.modeled_num_vertices
        e = graph.modeled_num_edges
        per_edge_csr = 8 if algorithm.uses_weights else 4
        directions = 2 if graph.directed else 1
        buffers = [
            ("csr", directions * (v * 8 + e * per_edge_csr)),
            ("metadata", 2 * v * 8),
            ("frontier_queues", 2 * v * 4),
        ]
        if algorithm.name in ("bfs", "sssp", "wcc"):
            per_entry = self.EDGE_ENTRY_BYTES if algorithm.uses_weights else 4
            buffers.append(("batch_edge_list", e * per_entry))
        return buffers

    # ------------------------------------------------------------------
    def _price(
        self, records: List[IterationRecord], algorithm: ACCAlgorithm,
        graph: CSRGraph,
    ) -> float:
        device = self.device
        advance_kernel = Kernel("gunrock_advance", self.ADVANCE_REGISTERS)
        filter_kernel = Kernel("gunrock_filter", self.FILTER_REGISTERS)

        total_us = 0.0
        for it in records:
            # Advance: expand frontier (unsorted worklist -> poor offset
            # coalescing), apply updates with atomics.
            traffic = gmem.frontier_expansion_traffic(
                it.frontier_vertices,
                it.frontier_edges,
                sortedness=0.5,
                weighted=algorithm.uses_weights,
            )
            advance_work = WorkEstimate(
                coalesced_bytes=traffic.coalesced_bytes,
                scattered_transactions=traffic.scattered_transactions,
                compute_ops=it.frontier_edges * 4.0 + it.frontier_vertices * 2.0,
                atomic_ops=float(it.updates_valid),
                atomic_contention=it.atomic_profile.contention,
                divergence_fraction=self.ADVANCE_DIVERGENCE,
            )
            threads = max(1, it.frontier_vertices)
            result = device.launch(
                KernelLaunch(
                    kernel=advance_kernel,
                    work=advance_work,
                    num_ctas=-(-threads // advance_kernel.threads_per_cta),
                )
            )
            total_us += result.total_us

            # Filter: materialize + scan the active edge list, compact the
            # (unsorted, redundant) next frontier.
            edge_list_bytes = it.frontier_edges * self.EDGE_ENTRY_BYTES
            filter_work = WorkEstimate(
                coalesced_bytes=2.0 * edge_list_bytes
                + gmem.sequential_bytes(it.updates_valid, gmem.VERTEX_ID_BYTES),
                compute_ops=float(it.frontier_edges),
                warp_primitive_ops=float(-(-max(it.frontier_edges, 1) // 32)),
            )
            result = device.launch(
                KernelLaunch(kernel=filter_kernel, work=filter_work)
            )
            total_us += result.total_us
        return total_us
