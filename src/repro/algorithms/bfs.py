"""Breadth-first search in the ACC model (Section 6).

Metadata is the BFS level of each vertex (infinity while unvisited). An edge
from a visited vertex offers ``level + 1`` to an unvisited neighbour; all
offers arriving at a vertex in one iteration carry the same value, so the
combine is a *vote* (any single update suffices), which is what enables the
collaborative early termination the paper credits for part of the Figure 5
speedup. A vertex is active exactly when its level changed this iteration.

In pull (gather) iterations - the middle of the traversal, when the frontier
covers most of the graph - only *unvisited* vertices gather over their
in-edges (``gather_mask``), the classic bottom-up optimization of Beamer et
al. that SIMD-X's direction selector exists to exploit.

BFS is the canonical *batched* traversal (``SIMDXEngine.run_batch``): K
sources become K lanes, each computed on its own copy of the algorithm,
and because ``compute_edges`` is a pure per-edge map no hook needs a lane
argument - ``supports_multi_source`` is all it takes to opt in.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph

UNVISITED = np.inf


class BFS(ACCAlgorithm):
    """Level-synchronous breadth-first search."""

    name = "bfs"
    combine_kind = CombineKind.VOTING
    combine_op = CombineOp.MIN
    uses_weights = False
    reads_src_meta = reads_dst_meta = True  # offer src + 1 if below dst
    starts_in_pull = False
    supports_multi_source = True

    def __init__(self, source: int = 0):
        self.source = source

    def init(self, graph: CSRGraph, *, source: int | None = None) -> InitialState:
        src = self.source if source is None else source
        if not (0 <= src < graph.num_vertices):
            raise ValueError(f"source {src} out of range")
        metadata = np.full(graph.num_vertices, UNVISITED, dtype=np.float64)
        metadata[src] = 0.0
        return InitialState(metadata=metadata, frontier=np.array([src], dtype=np.int64))

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        return curr != prev

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        candidate = src_meta + 1.0
        # Only unvisited (or farther) destinations receive an offer.
        return np.where(candidate < dst_meta, candidate, np.nan)

    def apply(self, old, combined, touched):
        return np.minimum(old, combined)

    def gather_mask(self, metadata, graph, frontier=None):
        # Bottom-up (Beamer-style) BFS: only unvisited vertices gather. A
        # visited vertex's level is final - every later offer is larger - so
        # skipping it drops only edges whose update would be NaN anyway.
        return np.isinf(metadata)

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """BFS levels as int64, with -1 for unreachable vertices."""
        out = np.where(np.isfinite(metadata), metadata, -1.0)
        return out.astype(np.int64)
