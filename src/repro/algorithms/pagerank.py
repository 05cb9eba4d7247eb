"""PageRank in the ACC model (Section 6).

The paper runs PageRank in pull mode with ``agg_sum`` as the combine and
switches to push mode near convergence, "because the majority of the vertices
are stable", citing Maiter's delta-based accumulative formulation [72]. We
implement exactly that delta-accumulative scheme, which fits the ACC
scatter/combine structure naturally and lets the frontier shrink as ranks
converge:

* metadata is the accumulated rank of each vertex (starts at ``1 - d``);
* every vertex also carries a *pending delta*: rank mass received since it
  last propagated. Initially the pending delta equals the initial rank.
* ``compute`` for edge (v, u) sends ``d * pending(v) / out_degree(v)``;
* ``combine`` sums incoming mass; ``apply`` adds it to the rank (and to the
  destination's pending delta);
* a vertex is active while its pending delta exceeds ``tolerance``.

The fixed point of this process is the standard damped PageRank. In the
early iterations every vertex is active (the JIT controller flips to the
ballot filter immediately, as Figure 8 notes for PR); late iterations have a
small frontier, which is when the engine's direction selector switches the
computation to push mode, mirroring the paper's decision-tree switch. The
pull iterations are genuine gathers over the in-CSR: every vertex collects
the pending deltas of its in-neighbours that are in the frontier, which
produces bit-identical ranks to the scatter formulation.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph


class PageRank(ACCAlgorithm):
    """Delta-accumulative PageRank (Maiter-style)."""

    name = "pagerank"
    combine_kind = CombineKind.AGGREGATION
    combine_op = CombineOp.SUM
    uses_weights = False
    starts_in_pull = True
    max_iterations = 200

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-4):
        if not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.damping = damping
        self.tolerance = tolerance
        self._pending: np.ndarray | None = None
        self._out_degrees: np.ndarray | None = None

    def init(self, graph: CSRGraph, **params) -> InitialState:
        n = graph.num_vertices
        base = 1.0 - self.damping
        metadata = np.full(n, base, dtype=np.float64)
        self._pending = np.full(n, base, dtype=np.float64)
        self._out_degrees = np.maximum(graph.out_degrees().astype(np.float64), 1.0)
        frontier = np.arange(n, dtype=np.int64)
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        pending = self._pending if self._pending is not None else np.abs(curr - prev)
        return pending > self.tolerance

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        # Priced once per vertex, then gathered per edge: the same IEEE
        # operations on the same operands as a per-edge evaluation.
        share = self.damping * self._pending / self._out_degrees
        share[~(share > 0.0)] = np.nan
        return share[src_ids]

    def on_frontier_expanded(self, frontier: np.ndarray, metadata: np.ndarray) -> None:
        # The frontier has propagated its accumulated delta; reset it.
        self._pending[frontier] = 0.0

    def apply(self, old, combined, touched):
        self._pending[touched] += combined
        return old + combined

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Ranks normalized to sum to 1 (the conventional presentation)."""
        total = metadata.sum()
        if total <= 0:
            return metadata
        return metadata / total
