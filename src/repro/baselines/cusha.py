"""CuSha-like GPU baseline: edge-list (G-Shards) processing, no task filter.

CuSha (Khorasani et al., HPDC'14) is the ICU-model representative of
Table 1: the graph is stored as *shards* of edges sorted by destination
window, every iteration streams **all** edges through the device, applies
updates in shared memory per shard, and writes the full vertex-state window
back. The SIMD-X paper highlights two consequences which this model
reproduces:

* memory - shards store roughly (source value, source index, destination
  index, weight) per edge (~16 bytes), about twice the CSR footprint, which
  makes CuSha the first system to OOM as graphs grow (the blank FB/TW cells
  of Table 4);
* work - with no task filtering, an iteration costs a full |E| sweep even
  when only a handful of vertices are active, which is catastrophic on
  high-diameter graphs (519,674 ms for SSSP on Europe-osm in the paper,
  ~480x slower than SIMD-X).

On the plus side, shard-local accumulation in shared memory avoids most
global atomics and all accesses are streaming, so for algorithms that really
do touch every edge every iteration (PageRank) CuSha is competitive - the
paper even reports it beating SIMD-X on LJ and OR for PageRank. The cost
model below preserves that trade-off.
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


class CuShaLike(PricedSystem):
    """CuSha-style full-edge-sweep execution on the simulated GPU."""

    SYSTEM_NAME = "CuSha"
    MODEL = "G-Shards edge list, full sweep per iteration"

    #: Bytes per shard edge entry: src value, src index, dst index, weight.
    SHARD_ENTRY_BYTES = 16

    #: Registers of the shard-processing kernel (vertex-centric CW kernel).
    KERNEL_REGISTERS = 30

    def __init__(self, device: Optional[GPUDevice] = None):
        self.device = device if device is not None else GPUDevice(K40)

    # ------------------------------------------------------------------
    def _footprint(self, algorithm: ACCAlgorithm, graph: CSRGraph) -> list:
        v = graph.modeled_num_vertices
        e = graph.modeled_num_edges
        return [
            ("g_shards", e * self.SHARD_ENTRY_BYTES),
            # Shard construction keeps a per-edge destination index
            # resident in addition to the shards themselves.
            ("shard_index", e * 4),
            ("vertex_windows", 2 * v * 8),
        ]

    def _price(
        self, records: List[IterationRecord], algorithm: ACCAlgorithm,
        graph: CSRGraph,
    ) -> float:
        device = self.device
        kernel = Kernel("cusha_shard_sweep", self.KERNEL_REGISTERS)
        total_edges = graph.num_edges
        num_vertices = graph.num_vertices

        total_us = 0.0
        for _ in records:
            # Every iteration streams every shard: all edges in, the whole
            # vertex window out, regardless of how many vertices are active.
            work = WorkEstimate(
                coalesced_bytes=(
                    total_edges * float(self.SHARD_ENTRY_BYTES)
                    + gmem.sequential_bytes(num_vertices, 2 * gmem.METADATA_BYTES)
                ),
                compute_ops=total_edges * 4.0,
                # Shard-local shared-memory accumulation: cheap intra-block
                # reductions instead of global atomics.
                warp_primitive_ops=float(total_edges) / 16.0,
                divergence_fraction=0.05,
            )
            result = device.launch(KernelLaunch(kernel=kernel, work=work))
            total_us += result.total_us
            # A small second kernel decides convergence (flag reduction).
            flag_work = WorkEstimate(
                coalesced_bytes=gmem.sequential_bytes(num_vertices, 1),
                compute_ops=float(num_vertices),
            )
            result = device.launch(
                KernelLaunch(kernel=Kernel("cusha_convergence", 16), work=flag_work)
            )
            total_us += result.total_us
        return total_us
