"""Belief propagation in the ACC model (Section 6).

The paper describes BP as sum-product message passing over a Bayesian
network / Markov random field where "vertex possibility is the metadata",
all vertices are treated as active, and the combine sums contributions from
all related events. The exact sum-product update over discrete potentials
requires per-edge message state; the paper's evaluation only exercises the
single-metadata-per-vertex form, so - like the paper - we run the damped
linearised update used for Gaussian/linearised BP:

    belief[u] <- prior[u] + damping * sum_{v in Nbr(u)} w(v, u) * belief[v]

where the edge weights are row-normalized likelihoods. This keeps the
algorithm a pure ACC aggregation (compute multiplies the source belief by
the edge likelihood; combine sums; apply adds the damped sum to the prior),
converges geometrically for damping < 1, and - critically for the
reproduction - has the same workload profile the paper relies on: every
vertex is active in every iteration, so the ballot filter activates on the
first iteration and the computation is dominated by full-graph edge sweeps,
making BP (like PageRank) the algorithm where task management helps least
and kernel fusion helps only modestly (Figure 13b).
"""

from __future__ import annotations

import numpy as np

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp, InitialState
from repro.graph.csr import CSRGraph


class BeliefPropagation(ACCAlgorithm):
    """Damped linearised belief propagation (sum combine)."""

    name = "bp"
    combine_kind = CombineKind.AGGREGATION
    combine_op = CombineOp.SUM
    uses_weights = True
    starts_in_pull = True
    max_iterations = 30

    def __init__(
        self,
        damping: float = 0.5,
        num_iterations: int = 20,
        prior_seed: int = 17,
    ):
        if not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        if num_iterations <= 0:
            raise ValueError("num_iterations must be positive")
        self.damping = damping
        self.num_iterations = num_iterations
        self.prior_seed = prior_seed
        self._prior: np.ndarray | None = None
        self._weight_norm: np.ndarray | None = None
        self._iterations_done = 0

    def init(self, graph: CSRGraph, *, priors: np.ndarray | None = None) -> InitialState:
        n = graph.num_vertices
        if priors is not None:
            priors = np.asarray(priors, dtype=np.float64)
            if priors.shape != (n,):
                raise ValueError("priors must have one entry per vertex")
            if np.any(priors < 0):
                raise ValueError("priors must be non-negative")
            self._prior = priors.copy()
        else:
            rng = np.random.default_rng(self.prior_seed)
            self._prior = rng.random(n)
        # Row-normalize outgoing likelihoods so the damped update is a
        # contraction and beliefs stay bounded.
        out_weight_sums = np.zeros(n, dtype=np.float64)
        np.add.at(
            out_weight_sums,
            np.repeat(np.arange(n), graph.out_degrees()),
            graph.out_csr.weights.astype(np.float64),
        )
        self._weight_norm = np.maximum(out_weight_sums, 1e-12)
        self._iterations_done = 0
        self.max_iterations = self.num_iterations
        metadata = self._prior.copy()
        frontier = np.arange(n, dtype=np.int64)
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        # BP treats every vertex as active for a fixed number of sweeps.
        if self._iterations_done >= self.num_iterations:
            return np.zeros(curr.shape[0], dtype=bool)
        return np.ones(curr.shape[0], dtype=bool)

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        likelihood = weights / self._weight_norm[src_ids]
        return likelihood * src_meta

    def on_frontier_expanded(self, frontier: np.ndarray, metadata: np.ndarray) -> None:
        self._iterations_done += 1

    def apply(self, old, combined, touched):
        return self._prior[touched] + self.damping * combined

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Posterior beliefs normalized to sum to 1."""
        total = metadata.sum()
        if total <= 0:
            return metadata
        return metadata / total
