"""Sparse matrix-vector multiplication in the ACC model.

SpMV appears in the paper's architecture figure (Figure 3) as one of the
supported workloads. Treating the CSR graph as the sparse matrix A (edge
weight = matrix entry), ``y = A^T x`` falls out of ACC directly: every vertex
is active once, ``compute`` multiplies the source's ``x`` value by the edge
weight, ``combine`` sums the products arriving at each destination, and
``apply`` overwrites the destination's metadata with the sum. The run
terminates after the single sweep because no vertex remains active.

SpMV is the degenerate single-iteration workload: it gains nothing from task
management (there is only one frontier, containing every vertex) and very
little from kernel fusion (there is only one launch to begin with), which
makes it a useful control case in the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph


class SpMV(ACCAlgorithm):
    """One-shot y = A^T x over the graph's weighted adjacency structure."""

    name = "spmv"
    combine_kind = CombineKind.AGGREGATION
    combine_op = CombineOp.SUM
    uses_weights = True
    starts_in_pull = True
    max_iterations = 1

    def __init__(self, x: np.ndarray | None = None, x_seed: int = 23):
        self.x = None if x is None else np.asarray(x, dtype=np.float64)
        self.x_seed = x_seed
        self._x_active: np.ndarray | None = None
        self._done = False

    def init(self, graph: CSRGraph, *, x: np.ndarray | None = None) -> InitialState:
        n = graph.num_vertices
        vec = x if x is not None else self.x
        if vec is None:
            rng = np.random.default_rng(self.x_seed)
            vec = rng.random(n)
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (n,):
            raise ValueError("x must have one entry per vertex")
        self._x_active = vec.copy()
        self._done = False
        # Metadata holds the output vector y, initially zero.
        metadata = np.zeros(n, dtype=np.float64)
        frontier = np.arange(n, dtype=np.int64)
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        if self._done:
            return np.zeros(curr.shape[0], dtype=bool)
        return np.ones(curr.shape[0], dtype=bool)

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        return weights * self._x_active[src_ids]

    def on_frontier_expanded(self, frontier: np.ndarray, metadata: np.ndarray) -> None:
        self._done = True

    def apply(self, old, combined, touched):
        return combined

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """The product vector y (zero for vertices with no in-edges)."""
        return metadata
