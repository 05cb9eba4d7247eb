"""Single-threaded reference implementations used as correctness oracles.

These are deliberately simple, textbook implementations with no cost
modelling; the examples and the test suite compare a system's
functional output against them. They are the ground truth for:

* BFS levels (:func:`bfs_levels`)
* shortest-path distances (:func:`sssp_distances`, Dijkstra)
* PageRank fixed point (:func:`pagerank_scores`, power iteration on the
  same un-normalized recurrence the ACC implementation converges to)

The oracles only the tests read (k-Core, WCC, BP, SpMV) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS level of each vertex from ``source``; -1 for unreachable."""
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.out_neighbors(v):
            u = int(u)
            if levels[u] < 0:
                levels[u] = levels[v] + 1
                queue.append(u)
    return levels


def sssp_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra shortest-path distances; infinity for unreachable vertices."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        neighbors = graph.out_neighbors(v)
        weights = graph.out_weights(v)
        for u, w in zip(neighbors, weights):
            u = int(u)
            nd = d + float(w)
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def pagerank_scores(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
    *,
    normalize: bool = True,
) -> np.ndarray:
    """Power iteration on ``r = (1 - d) + d * A_norm^T r``.

    This is the same (dangling-mass-free) recurrence the delta-accumulative
    ACC PageRank converges to, so the two agree to within their tolerances.
    """
    n = graph.num_vertices
    out_deg = np.maximum(graph.out_degrees().astype(np.float64), 1.0)
    rank = np.full(n, 1.0 - damping, dtype=np.float64)
    srcs = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
    dsts = graph.out_csr.targets.astype(np.int64)
    for _ in range(max_iterations):
        contrib = damping * rank[srcs] / out_deg[srcs]
        new_rank = np.full(n, 1.0 - damping, dtype=np.float64)
        np.add.at(new_rank, dsts, contrib)
        if np.abs(new_rank - rank).max() < tolerance:
            rank = new_rank
            break
        rank = new_rank
    if normalize:
        total = rank.sum()
        if total > 0:
            rank = rank / total
    return rank
