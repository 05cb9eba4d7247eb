"""Single-source shortest path in the ACC model (Section 3.3, Figure 4a).

Metadata is the tentative distance. ``compute`` offers ``dist(src) + w`` to
the destination when that improves on its current distance, ``combine`` takes
the minimum of all offers, and ``apply`` keeps the smaller of the old and
combined distance. A vertex is active when its distance changed, so - unlike
BFS - the same vertex can re-enter the frontier across iterations (Figure 1
updates vertex b at iterations 1 and 3), which is why SSSP runs many more
iterations and stresses the task-management machinery harder.

The paper adopts delta-stepping to admit more parallelism than Dijkstra's
single-vertex-at-a-time order. The default configuration here is the
``delta = infinity`` end of that spectrum (every improved vertex relaxes
immediately, Bellman-Ford style); passing ``delta`` enables bucketed
scheduling, where only vertices whose tentative distance falls inside the
current bucket are eligible and the bucket advances once it drains. Both
schedules converge to the same distances; the bucketed one trades extra
iterations for fewer wasted relaxations on weighted graphs.

Direction is orthogonal to the schedule: a pull iteration gathers the same
``dist(src) + w`` offers over in-edges whose source lies in the frontier, so
the pending-set bookkeeping (``on_frontier_expanded`` clears the frontier's
outstanding improvements, ``apply`` re-marks improved destinations) behaves
identically whether the frontier scattered or the destinations gathered.
``gather_mask`` additionally prunes settled vertices from the gather
worklist with a frontier-dependent bound: no destination at or below
``min(dist over frontier) + min(edge weight)`` can receive an improving
offer this iteration.
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph

UNREACHED = np.inf


class SSSP(ACCAlgorithm):
    """Frontier-based shortest-path relaxation (delta-step style)."""

    name = "sssp"
    combine_kind = CombineKind.AGGREGATION
    combine_op = CombineOp.MIN
    uses_weights = True
    reads_src_meta = reads_dst_meta = True  # relax src + w against dst
    starts_in_pull = False
    #: K sources batch into K lanes (``SIMDXEngine.run_batch``): the
    #: per-edge relaxation is a pure map, and the per-lane pending-set
    #: bookkeeping stays correct because the engine gives each lane its own
    #: algorithm copy (``init`` allocates fresh per-run state).
    supports_multi_source = True

    def __init__(self, source: int = 0, delta: float | None = None):
        if delta is not None and delta <= 0:
            raise ValueError("delta must be positive")
        self.source = source
        self.delta = delta
        self._bucket_limit = np.inf
        self._pending: np.ndarray | None = None
        self._min_weight = 0.0

    def init(self, graph: CSRGraph, *, source: int | None = None) -> InitialState:
        src = self.source if source is None else source
        if not (0 <= src < graph.num_vertices):
            raise ValueError(f"source {src} out of range")
        metadata = np.full(graph.num_vertices, UNREACHED, dtype=np.float64)
        metadata[src] = 0.0
        self._bucket_limit = self.delta if self.delta is not None else np.inf
        self._pending = np.zeros(graph.num_vertices, dtype=bool)
        self._pending[src] = True
        weights = graph.out_csr.weights
        self._min_weight = float(weights.min()) if weights.size else 0.0
        return InitialState(metadata=metadata, frontier=np.array([src], dtype=np.int64))

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        if self.delta is None:
            return curr != prev
        # Delta-stepping: a vertex is eligible when it holds an un-relaxed
        # improvement *and* its distance lies inside the current bucket; the
        # bucket advances when it drains but improvements remain outstanding.
        pending = self._pending if self._pending is not None else (curr != prev)
        mask = pending & (curr <= self._bucket_limit)
        while not mask.any() and pending.any():
            self._bucket_limit += self.delta
            mask = pending & (curr <= self._bucket_limit)
        return mask

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        candidate = src_meta + weights
        return np.where(candidate < dst_meta, candidate, np.nan)

    def on_frontier_expanded(self, frontier: np.ndarray, metadata: np.ndarray) -> None:
        if self._pending is not None:
            # The frontier's outstanding improvements have now been relaxed.
            self._pending[frontier] = False

    def apply(self, old, combined, touched):
        new = np.minimum(old, combined)
        if self._pending is not None:
            improved = touched.take((new < old).nonzero()[0])
            self._pending[improved] = True
        return new

    def gather_mask(self, metadata, graph, frontier=None):
        if frontier is None or frontier.size == 0:
            return np.ones(metadata.shape[0], dtype=bool)
        # Frontier-dependent settled-vertex pruning: every offer this
        # iteration is dist(v) + w with v in the frontier, so no destination
        # at or below min(dist over frontier) + min(edge weight) can improve
        # - it is settled relative to this frontier. (With the repository's
        # positive weights this skips the whole shortest-path tree built so
        # far; using the graph's true minimum weight keeps the bound safe
        # for zero or negative weights too.)
        bound = float(np.min(metadata[frontier])) + self._min_weight
        return metadata > bound

    def converged(self, curr, prev, iteration) -> bool:
        # With delta-stepping the in-bucket worklist can drain while
        # improvements remain in later buckets; report non-convergence so the
        # engine re-seeds the frontier from the (bucket-advanced) active mask.
        if self.delta is None or self._pending is None:
            return True
        return not bool(self._pending.any())

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Tentative distances; infinity marks unreachable vertices."""
        return metadata
