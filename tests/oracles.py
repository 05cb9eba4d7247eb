"""Single-threaded oracles for what only the tests check.

Textbook implementations with no cost modelling, like the ones in
``repro.baselines.reference`` (BFS, SSSP, PageRank), which the examples
read too; :class:`PythonKernelBackend`, the loop reference of the
engine's kernel primitives; and :func:`classify_reference`, the
three-mask worklist split the classifier is checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

import numpy as np

from repro.core.frontier import ClassifiedFrontier, WorklistSizes
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


def classify_reference(
    degrees: np.ndarray,
    frontier: np.ndarray,
    small_medium_separator: int,
    medium_large_separator: int,
) -> ClassifiedFrontier:
    """The three-mask split of ``frontier`` by ``degrees`` (Section 4,
    step I) that :meth:`WorklistClassifier.classify` must reproduce field
    for field: one boolean mask per worklist, each list and its degree
    total read through its own mask."""
    frontier = np.asarray(frontier, dtype=np.int64)
    if frontier.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ClassifiedFrontier(
            empty, empty, empty, WorklistSizes(0, 0, 0, 0, 0, 0), empty, 0
        )
    degs = degrees[frontier]
    small_mask = degs < small_medium_separator
    large_mask = degs >= medium_large_separator
    medium_mask = ~(small_mask | large_mask)
    sizes = WorklistSizes(
        small_vertices=int(small_mask.sum()),
        medium_vertices=int(medium_mask.sum()),
        large_vertices=int(large_mask.sum()),
        small_edges=int(degs[small_mask].sum()),
        medium_edges=int(degs[medium_mask].sum()),
        large_edges=int(degs[large_mask].sum()),
    )
    return ClassifiedFrontier(
        frontier[small_mask], frontier[medium_mask], frontier[large_mask],
        sizes, degs[small_mask], int(degs.max()),
    )


class PythonKernelBackend:
    """The primitives of :class:`repro.core.kernels.NumpyKernelBackend` as
    explicit Python loops - the executable specification the vectorized
    bodies are checked against, bit for bit (``docs/kernels.md``).
    ``tests/engine_seams.py:ReferenceKernelEngine`` runs an engine on it."""

    def walk_edges(self, csr, worklist):
        slots, edges = [], []
        for i, v in enumerate(worklist.tolist()):
            for e in range(int(csr.offsets[v]), int(csr.offsets[v + 1])):
                slots.append(i)
                edges.append(e)
        return (
            np.asarray(slots, dtype=np.int64),
            np.asarray(edges, dtype=np.int64),
            len(edges),
        )

    def walk_kept(self, csr, worklist, source_mask, edge_ids=True):
        kept = []  # (src, dst, edge index)
        walked = 0
        for v in worklist.tolist():
            start, stop = int(csr.offsets[v]), int(csr.offsets[v + 1])
            walked += stop - start
            for e in range(start, stop):
                u = int(csr.targets[e])
                if source_mask[u]:
                    kept.append((u, v, e))
        src, dst, edge_idx = np.array(kept, dtype=np.int64).reshape(-1, 3).T
        return src, dst, edge_idx if edge_ids else None, walked

    def membership_mask(self, vertices, size):
        mask = np.zeros(size, dtype=bool)
        for v in vertices:
            mask[int(v)] = True
        return mask

    def rows_in_sorted(self, universe, members):
        rows = [bisect_left(universe, int(m)) for m in members]
        return np.asarray(rows, dtype=np.int64)

    def sorted_unique(self, values, size):
        return self.union_sorted([values], size)

    def union_sorted(self, arrays, size):
        seen = [False] * size
        for array in arrays:
            for v in array:
                seen[int(v)] = True
        return np.asarray([v for v in range(size) if seen[v]], dtype=np.int64)

    def build_lane_bits(self, lanes, size):
        num_words = -(-len(lanes) // 64)
        words = [[0] * num_words for _ in range(size)]
        for lane, frontier in enumerate(lanes):
            word, bit = divmod(lane, 64)
            for v in frontier:
                words[int(v)][word] |= 1 << bit
        vertices = [v for v in range(size) if any(words[v])]
        lane_bits = np.array([words[v] for v in vertices], dtype=np.uint64)
        lane_bits = lane_bits.reshape(len(vertices), num_words)
        return np.asarray(vertices, dtype=np.int64), lane_bits

    def lane_mask(self, lane_bits, lane):
        word, bit = divmod(lane, 64)
        return np.array(
            [bool((int(row) >> bit) & 1) for row in lane_bits[:, word]],
            dtype=bool,
        )

    def segment_reduce(self, op, values, segment_ids, num_segments, ids_sorted=False):
        kind, identity = op.value, op.identity  # "min" / "max" / "sum"
        out = {}
        for seg, v in zip(segment_ids.tolist(), np.asarray(values, dtype=np.float64).tolist()):
            acc = out.get(seg, identity)
            if kind == "sum":
                out[seg] = acc + v
            elif kind == "min":
                out[seg] = v if v < acc else acc
            else:  # max
                out[seg] = v if v > acc else acc
        touched = sorted(out)
        combined = np.asarray([out[seg] for seg in touched], dtype=np.float64)
        return np.asarray(touched, dtype=np.int64), combined
