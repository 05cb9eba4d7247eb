"""Small graphs whose answers are known by construction, for the tests.

Built with ``CSRGraph.from_edges`` exactly as the generators in
``repro.graph.generators`` build theirs (random weights seeded by
``seed``), so a test graph here is as reproducible as a dataset analogue.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, GraphFormatError


def _undirected(num_vertices: int, edges: np.ndarray, name: str, seed: int) -> CSRGraph:
    return CSRGraph.from_edges(
        num_vertices, edges, directed=False, name=name, weight_seed=seed
    )


def chain_graph(num_vertices: int, *, name: str = "chain", seed: int = 0) -> CSRGraph:
    """A path graph ``0 - 1 - ... - (n-1)``: the highest possible diameter."""
    src = np.arange(num_vertices - 1, dtype=np.int64)
    return _undirected(num_vertices, np.stack([src, src + 1], axis=1), name, seed)


def star_graph(num_leaves: int, *, name: str = "star", seed: int = 0) -> CSRGraph:
    """A hub with ``num_leaves`` spokes: the most skewed degree distribution."""
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
    return _undirected(num_leaves + 1, edges, name, seed)


def _clique(size: int) -> np.ndarray:
    idx = np.arange(size, dtype=np.int64)
    src, dst = np.meshgrid(idx, idx, indexing="ij")
    mask = src < dst
    return np.stack([src[mask], dst[mask]], axis=1)


def complete_graph(num_vertices: int, *, name: str = "complete", seed: int = 0) -> CSRGraph:
    """Every pair connected: uniform maximal degree, diameter one."""
    return _undirected(num_vertices, _clique(num_vertices), name, seed)


def two_level_graph(
    num_clusters: int,
    cluster_size: int,
    inter_cluster_edges: int,
    *,
    seed: int = 8,
    name: str = "clustered",
) -> CSRGraph:
    """Cliques joined by sparse random bridges.

    The k-Core and WCC answers are known by construction: each cluster
    survives k-core pruning, the bridges do not.
    """
    n = num_clusters * cluster_size
    local = _clique(cluster_size)
    edges = np.concatenate([local + c * cluster_size for c in range(num_clusters)])
    if num_clusters > 1 and inter_cluster_edges > 0:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, size=inter_cluster_edges, dtype=np.int64)
        b = rng.integers(0, n, size=inter_cluster_edges, dtype=np.int64)
        edges = np.concatenate([edges, np.stack([a, b], axis=1)], axis=0)
    return _undirected(n, edges, name, seed)


def assert_valid_csr(graph: CSRGraph) -> None:
    """Raise :class:`GraphFormatError` if a CSR invariant is broken."""
    for label, view in (("out", graph.out_csr), ("in", graph.in_csr)):
        if view.offsets[0] != 0:
            raise GraphFormatError(f"{label} offsets must start at 0")
        if int(view.offsets[-1]) != view.targets.shape[0]:
            raise GraphFormatError(f"{label} offsets end must equal edge count")
        if np.any(np.diff(view.offsets.astype(np.int64)) < 0):
            raise GraphFormatError(f"{label} offsets must be non-decreasing")
        if view.targets.size and view.targets.max() >= graph.num_vertices:
            raise GraphFormatError(f"{label} neighbour id out of range")
        if view.targets.shape[0] != view.weights.shape[0]:
            raise GraphFormatError(f"{label} weights length mismatch")
    if graph.out_csr.num_edges != graph.in_csr.num_edges:
        raise GraphFormatError("out and in edge counts differ")


def empty_graph(num_vertices: int, *, name: str = "") -> CSRGraph:
    """An undirected graph with vertices but no edges."""
    return CSRGraph.from_edges(
        num_vertices, np.zeros((0, 2), dtype=np.int64), directed=False, name=name
    )


def edge_triples(graph: CSRGraph):
    """Iterate the stored ``(src, dst, weight)`` triples in CSR order (slow)."""
    view = graph.out_csr
    for v in range(graph.num_vertices):
        for i in range(int(view.offsets[v]), int(view.offsets[v + 1])):
            yield v, int(view.targets[i]), float(view.weights[i])
