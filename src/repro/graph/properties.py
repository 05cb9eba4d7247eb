"""Graph property measurements.

These helpers measure the structural class a dataset analogue shares with
its paper counterpart (degree skew for the social graphs, high diameter for
the road graphs) for the Table-3 reproduction bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class DegreeStats:
    """Summary of the out-degree distribution."""

    min: int
    max: int
    mean: float
    median: float
    p99: float
    gini: float


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute degree-distribution summary statistics."""
    degs = graph.out_degrees()
    if degs.size == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0.0, 0.0)
    sorted_degs = np.sort(degs)
    n = sorted_degs.shape[0]
    cum = np.cumsum(sorted_degs, dtype=np.float64)
    total = cum[-1]
    if total == 0:
        gini = 0.0
    else:
        # Standard Gini coefficient of the degree distribution.
        gini = float((n + 1 - 2 * (cum / total).sum()) / n)
    return DegreeStats(
        min=int(sorted_degs[0]),
        max=int(sorted_degs[-1]),
        mean=float(sorted_degs.mean()),
        median=float(np.median(sorted_degs)),
        p99=float(np.percentile(sorted_degs, 99)),
        gini=gini,
    )


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Vectorized level-synchronous BFS; -1 marks unreachable vertices."""
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    if not (0 <= source < n):
        raise ValueError("source out of range")
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    offsets = graph.out_csr.offsets.astype(np.int64)
    targets = graph.out_csr.targets.astype(np.int64)
    while frontier.size:
        level += 1
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        counts = ends - starts
        if counts.sum() == 0:
            break
        idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends) if e > s]) \
            if counts.size else np.zeros(0, dtype=np.int64)
        neighbors = targets[idx]
        new = np.unique(neighbors[levels[neighbors] < 0])
        if new.size == 0:
            break
        levels[new] = level
        frontier = new
    return levels


def diameter_estimate(graph: CSRGraph, num_sweeps: int = 4, seed: int = 0) -> int:
    """Double-sweep diameter lower bound.

    Starts from a random vertex, repeatedly jumps to the farthest vertex
    found, and returns the largest eccentricity seen. Exact diameters are
    unnecessary - the paper only distinguishes low / medium / high classes.
    """
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, graph.num_vertices))
    best = 0
    current = start
    for _ in range(max(1, num_sweeps)):
        levels = bfs_levels(graph, current)
        reachable = np.nonzero(levels >= 0)[0]
        if reachable.size == 0:
            break
        ecc = int(levels[reachable].max())
        best = max(best, ecc)
        current = int(reachable[np.argmax(levels[reachable])])
    return best


def summarize(graph: CSRGraph) -> Dict[str, object]:
    """One-line-per-field summary used by the Table-3 bench and examples."""
    stats = degree_stats(graph)
    return {
        "name": graph.name,
        "directed": graph.directed,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "avg_degree": round(graph.average_degree(), 2),
        "max_degree": stats.max,
        "degree_gini": round(stats.gini, 3),
        "diameter_lb": diameter_estimate(graph, num_sweeps=2),
        "csr_mb": round(graph.csr_bytes() / 2**20, 3),
        "edge_list_mb": round(graph.edge_list_bytes() / 2**20, 3),
    }
