"""Single-threaded oracles for the algorithms only the tests check.

Textbook implementations with no cost modelling, like the ones in
``repro.baselines.reference`` (BFS, SSSP, PageRank), which the examples
read too.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph


def kcore_membership(graph: CSRGraph, k: int) -> np.ndarray:
    """Boolean mask of vertices in the k-core (classic peeling)."""
    n = graph.num_vertices
    degree = graph.out_degrees().astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    queue = deque(int(v) for v in np.nonzero(degree < k)[0])
    in_queue = np.zeros(n, dtype=bool)
    for v in queue:
        in_queue[v] = True
    while queue:
        v = queue.popleft()
        if removed[v]:
            continue
        removed[v] = True
        for u in graph.out_neighbors(v):
            u = int(u)
            if removed[u]:
                continue
            degree[u] -= 1
            if degree[u] < k and not in_queue[u]:
                in_queue[u] = True
                queue.append(u)
    return ~removed


def wcc_labels(graph: CSRGraph) -> np.ndarray:
    """Smallest-reachable-id label per vertex, ignoring edge direction."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if labels[start] >= 0:
            continue
        members = []
        queue = deque([start])
        labels[start] = start
        while queue:
            v = queue.popleft()
            members.append(v)
            neighbors = [graph.out_neighbors(v)]
            if graph.directed:
                neighbors.append(graph.in_csr.neighbors(v))
            for block in neighbors:
                for u in block:
                    u = int(u)
                    if labels[u] < 0:
                        labels[u] = start
                        queue.append(u)
        smallest = min(members)
        for v in members:
            labels[v] = smallest
    return labels


def bp_beliefs(
    graph: CSRGraph,
    priors: np.ndarray,
    damping: float = 0.5,
    num_iterations: int = 20,
    *,
    normalize: bool = True,
) -> np.ndarray:
    """Damped linearised BP sweeps matching the ACC implementation."""
    n = graph.num_vertices
    priors = np.asarray(priors, dtype=np.float64)
    srcs = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
    dsts = graph.out_csr.targets.astype(np.int64)
    weights = graph.out_csr.weights.astype(np.float64)
    out_weight_sum = np.zeros(n, dtype=np.float64)
    np.add.at(out_weight_sum, srcs, weights)
    norm = np.maximum(out_weight_sum, 1e-12)
    belief = priors.copy()
    for _ in range(num_iterations):
        messages = weights / norm[srcs] * belief[srcs]
        incoming = np.zeros(n, dtype=np.float64)
        np.add.at(incoming, dsts, messages)
        belief = priors + damping * incoming
    if normalize:
        total = belief.sum()
        if total > 0:
            belief = belief / total
    return belief


def spmv_product(graph: CSRGraph, x: np.ndarray) -> np.ndarray:
    """y[u] = sum over edges (v, u) of w(v, u) * x[v]."""
    n = graph.num_vertices
    x = np.asarray(x, dtype=np.float64)
    srcs = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
    dsts = graph.out_csr.targets.astype(np.int64)
    weights = graph.out_csr.weights.astype(np.float64)
    y = np.zeros(n, dtype=np.float64)
    np.add.at(y, dsts, weights * x[srcs])
    return y
