"""Weakly connected components in the ACC model.

The paper lists connected components as the canonical *voting* combine
besides BFS (Section 3.2): label propagation where every vertex starts with
its own id as the label, each edge offers the source's label to the
destination, the combine keeps the minimum, and a vertex is active whenever
its label shrank. At convergence all vertices of a weakly connected component
share the smallest vertex id in the component.

On directed graphs the propagation must ignore edge direction to compute
*weak* connectivity; a single iteration only moves labels along the stored
direction (out-edges in push mode, the same edges walked from the in-CSR in
pull mode), so ``init`` seeds the frontier with every vertex and the
symmetric closure emerges over iterations as labels flow both ways along
each stored direction (for directed inputs, both the out- and in-CSR views
contain each edge once, and running on the undirected datasets the question
does not arise). Because push and pull walk the identical edge set, the
labels converge identically in either direction. In pull mode,
``gather_mask`` prunes destinations whose label already sits at or below
the frontier's minimum label - they cannot shrink this iteration - which
skips the converged body of each component late in the propagation.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph


class WCC(ACCAlgorithm):
    """Minimum-label propagation for weakly connected components."""

    name = "wcc"
    combine_kind = CombineKind.VOTING
    combine_op = CombineOp.MIN
    uses_weights = False
    starts_in_pull = False

    def init(self, graph: CSRGraph, **params) -> InitialState:
        n = graph.num_vertices
        metadata = np.arange(n, dtype=np.float64)
        frontier = np.arange(n, dtype=np.int64)
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        return curr != prev

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        return np.where(src_meta < dst_meta, src_meta, np.nan)

    def apply(self, old, combined, touched):
        return np.minimum(old, combined)

    def gather_mask(self, metadata, graph, frontier=None):
        if frontier is None or frontier.size == 0:
            return np.ones(metadata.shape[0], dtype=bool)
        # Frontier-dependent settled-vertex pruning: an edge only offers its
        # source's label when that label is smaller, and only frontier
        # sources offer anything this iteration - so a destination whose
        # label is already at or below the frontier's minimum label cannot
        # shrink. Late in the propagation this skips the (large) converged
        # body of each component.
        return metadata > float(np.min(metadata[frontier]))

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Component labels as int64 (the smallest vertex id reached)."""
        return metadata.astype(np.int64)
