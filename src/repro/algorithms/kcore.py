"""k-Core decomposition in the ACC model (Section 6).

k-Core iteratively deletes vertices whose degree is below ``k`` until every
remaining vertex has at least ``k`` remaining neighbours. In ACC terms:

* metadata is the vertex's *remaining degree*;
* a vertex becomes active in the iteration its remaining degree first drops
  below ``k`` (it has just been "deleted");
* ``compute`` for an edge from a deleted vertex sends a decrement of 1 to the
  destination - unless the destination has already fallen below ``k``, in
  which case no update is sent. This guard is the algorithmic innovation the
  paper credits ACC's flexibility for ("we will stop further subtracting the
  degree of destination vertex once the destination vertex's degree goes
  below k"), and it removes a large number of useless updates;
* ``combine`` sums the decrements and ``apply`` subtracts them.

The workload profile is the opposite of BFS: enormous frontiers in the first
iteration or two (every low-degree vertex deletes at once - the ballot filter
activates immediately, Figure 8) followed by a long tail of small frontiers.
The paper uses k = 16 by default and k = 32 for the Table 4 comparison
against Ligra; both are exposed via the constructor.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph

DEFAULT_K = 16


class KCore(ACCAlgorithm):
    """Iterative peeling k-core decomposition."""

    name = "kcore"
    combine_kind = CombineKind.AGGREGATION
    combine_op = CombineOp.SUM
    uses_weights = False
    starts_in_pull = True

    def __init__(self, k: int = DEFAULT_K):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def init(self, graph: CSRGraph, *, k: int | None = None) -> InitialState:
        if k is not None:
            if k <= 0:
                raise ValueError("k must be positive")
            self.k = k
        degrees = graph.out_degrees().astype(np.float64)
        metadata = degrees.copy()
        frontier = np.nonzero(degrees < self.k)[0].astype(np.int64)
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        # Active exactly in the iteration a vertex crosses below k: it then
        # broadcasts its deletion once and never again.
        return (curr < self.k) & (prev >= self.k)

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        # Deleted source decrements destinations that are still in the core.
        return np.where(dst_meta >= self.k, 1.0, np.nan)

    def apply(self, old, combined, touched):
        return np.maximum(old - combined, 0.0)

    def gather_mask(self, metadata, graph, frontier=None):
        # Pull iterations gather only at vertices still in the core: compute
        # sends no decrement to a vertex already below k (the paper's
        # stop-subtracting guard), so deleted vertices have nothing to
        # gather.
        return metadata >= self.k

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Remaining degrees after peeling (>= k means the vertex survives)."""
        return metadata

    def core_membership(self, metadata: np.ndarray) -> np.ndarray:
        """Boolean mask of vertices in the k-core."""
        return metadata >= self.k
