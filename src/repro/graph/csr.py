"""Compressed Sparse Row (CSR) graph representation.

SIMD-X stores graphs in CSR format (Section 6, "Storage Format"): for
undirected graphs only the out-neighbour lists are stored, for directed
graphs both out- and in-neighbour CSR structures are kept so that push and
pull based processing are both possible. The in-neighbour structure of a
directed graph is the transpose of the out-neighbour structure; building it
costs a full sort of the edge set, so :class:`CSRGraph` constructs it
*lazily* on first access (and caches it) - a run that never executes a pull
iteration never pays for the transpose.

The representation here follows the paper's conventions:

* vertex identifiers are ``uint32``
* row offsets ("index") are ``uint64``
* edge weights are ``float32`` (randomly generated when a dataset has no
  native weights, as the paper does for SSSP)

A :class:`CSRGraph` is immutable after construction: every algorithm and
system in this repository treats it as read-only shared state, exactly like
graph data resident in GPU global memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

VERTEX_DTYPE = np.uint32
INDEX_DTYPE = np.uint64
WEIGHT_DTYPE = np.float32


class GraphFormatError(ValueError):
    """Raised when edge input cannot be converted into a valid CSR graph."""


@dataclass(frozen=True)
class CSRView:
    """A single-direction CSR adjacency structure.

    ``offsets`` has ``num_vertices + 1`` entries; the neighbours of vertex
    ``v`` are ``targets[offsets[v]:offsets[v + 1]]`` and their weights are
    ``weights[offsets[v]:offsets[v + 1]]``.
    """

    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @property
    def num_vertices(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        return int(self.targets.shape[0])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        return np.diff(self.offsets).astype(np.int64)

    def row_slots(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Edge slots of ``rows``, row after row (int64), and their degrees."""
        starts = self.offsets[rows].astype(np.int64)
        degrees = self.offsets[rows + 1].astype(np.int64) - starts
        shift = np.repeat(np.cumsum(degrees) - degrees - starts, degrees)
        return np.arange(shift.shape[0], dtype=np.int64) - shift, degrees

    def neighbors(self, v: int) -> np.ndarray:
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.offsets[v]:self.offsets[v + 1]]


def _build_csr(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> CSRView:
    """Build a sorted CSR view from COO arrays."""
    order = np.lexsort((targets, sources))
    sources = sources[order]
    targets = targets[order]
    weights = weights[order]
    counts = np.bincount(sources, minlength=num_vertices).astype(INDEX_DTYPE)
    offsets = np.zeros(num_vertices + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return CSRView(
        offsets=offsets,
        targets=targets.astype(VERTEX_DTYPE),
        weights=weights.astype(WEIGHT_DTYPE),
    )


def transpose_csr(view: CSRView) -> CSRView:
    """Reverse (in-neighbour) CSR of ``view``.

    Row ``v`` of the result lists the vertices with an edge *into* ``v``,
    with the original edge weights. The construction sorts the edge set by
    (old target, old source), so transposing twice round-trips exactly and
    the per-row neighbour order is ascending - the property the engine's
    pull path relies on for bit-identical combines.
    """
    sources = np.repeat(
        np.arange(view.num_vertices, dtype=np.int64), view.degrees()
    )
    return _build_csr(
        view.num_vertices,
        view.targets.astype(np.int64),
        sources,
        view.weights,
    )


class CSRGraph:
    """A CSR graph with a lazily-built reverse (in-neighbour) structure.

    Parameters
    ----------
    out_csr:
        Out-neighbour CSR view (push direction).
    in_csr:
        In-neighbour CSR view (pull direction). For undirected graphs this is
        the same object as ``out_csr``; for directed graphs it may be omitted
        (``None``), in which case the transpose of ``out_csr`` is built on
        first access to :attr:`in_csr` and cached.
    directed:
        Whether the graph was constructed from directed edges.
    name:
        Optional human-readable name (dataset abbreviation).
    """

    def __init__(
        self,
        out_csr: CSRView,
        in_csr: Optional[CSRView] = None,
        directed: bool = False,
        name: str = "",
        meta: Optional[dict] = None,
    ):
        self.out_csr = out_csr
        self.directed = directed
        self.name = name
        self.meta = {} if meta is None else meta
        self._in_csr = in_csr

    @property
    def in_csr(self) -> CSRView:
        """In-neighbour CSR view (transpose), built lazily and cached."""
        if self._in_csr is None:
            if self.directed:
                self._in_csr = transpose_csr(self.out_csr)
            else:
                self._in_csr = self.out_csr
        return self._in_csr

    @property
    def in_csr_built(self) -> bool:
        """Whether the in-neighbour view exists without forcing its build."""
        return self._in_csr is not None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        weights: Optional[Sequence[float] | np.ndarray] = None,
        *,
        directed: bool = False,
        name: str = "",
        weight_seed: Optional[int] = None,
        dedup: bool = True,
        allow_self_loops: bool = False,
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Undirected graphs are symmetrized (each input edge is stored in both
        directions). Duplicate edges are removed by default (keeping the
        smallest weight), matching the preprocessing the paper applies.
        When ``weights`` is None, weights are drawn uniformly from [1, 64)
        with ``weight_seed`` so results are reproducible, mirroring the
        paper's random weight generation for unweighted graphs.
        """
        if num_vertices <= 0:
            raise GraphFormatError("graph must contain at least one vertex")

        edges_arr = np.asarray(edges, dtype=np.int64)
        if edges_arr.size == 0:
            edges_arr = edges_arr.reshape(0, 2)
        if edges_arr.ndim != 2 or edges_arr.shape[1] != 2:
            raise GraphFormatError("edges must be an (E, 2) array of (src, dst)")

        src = edges_arr[:, 0]
        dst = edges_arr[:, 1]
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphFormatError("vertex ids must be non-negative")
        if src.size and (src.max() >= num_vertices or dst.max() >= num_vertices):
            raise GraphFormatError("vertex id exceeds num_vertices")

        if weights is None:
            rng = np.random.default_rng(weight_seed if weight_seed is not None else 0)
            w = rng.integers(1, 64, size=src.shape[0]).astype(WEIGHT_DTYPE)
        else:
            w = np.asarray(weights, dtype=WEIGHT_DTYPE)
            if w.shape[0] != src.shape[0]:
                raise GraphFormatError("weights length must equal edge count")
            if w.size and np.any(w < 0):
                raise GraphFormatError("edge weights must be non-negative")

        if not allow_self_loops and src.size:
            keep = src != dst
            src, dst, w = src[keep], dst[keep], w[keep]

        if not directed and src.size:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            w = np.concatenate([w, w])

        if dedup and src.size:
            src, dst, w = _dedup_edges(num_vertices, src, dst, w)

        out_csr = _build_csr(num_vertices, src, dst, w)
        # Directed graphs leave the in-CSR unset: the transpose is built
        # lazily on first pull-direction access (see the in_csr property).
        in_csr = None if directed else out_csr
        return cls(out_csr=out_csr, in_csr=in_csr, directed=directed, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.out_csr.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges, i.e. 2x the undirected count."""
        return self.out_csr.num_edges

    def out_degrees(self) -> np.ndarray:
        return self.out_csr.degrees()

    def in_degrees(self) -> np.ndarray:
        return self.in_csr.degrees()

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_csr.neighbors(v)

    def out_weights(self, v: int) -> np.ndarray:
        return self.out_csr.neighbor_weights(v)

    def max_degree(self) -> int:
        degs = self.out_degrees()
        return int(degs.max()) if degs.size else 0

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Memory accounting (used by the OOM model of the baselines)
    # ------------------------------------------------------------------
    def csr_bytes(self) -> int:
        """Bytes needed to hold the CSR structures as the paper lays them out.

        ``uint64`` offsets, ``uint32`` neighbour ids and ``float32`` weights;
        directed graphs hold both directions. The transpose has exactly the
        shape of the out-view, so the footprint is computed without forcing
        the lazy in-CSR build.
        """
        directions = 2 if self.directed else 1
        view = self.out_csr
        per_direction = (
            view.offsets.shape[0] * 8
            + view.targets.shape[0] * 4
            + view.weights.shape[0] * 4
        )
        return directions * per_direction

    def edge_list_bytes(self) -> int:
        """Bytes for an edge-list (COO) copy: (src, dst, weight) per edge.

        This is what CuSha-style systems require and is roughly 2x the CSR
        footprint, which drives the simulated OOM failures in Table 4.
        """
        return self.num_edges * (4 + 4 + 4)

    # ------------------------------------------------------------------
    # Modeled (paper-scale) sizes
    # ------------------------------------------------------------------
    @property
    def modeled_num_vertices(self) -> int:
        """Vertex count used for memory-feasibility modelling.

        Dataset analogues carry the original paper graph's size in ``meta``
        (see :mod:`repro.graph.datasets`); memory-capacity decisions (which
        system OOMs on which graph, Table 4) are made against those original
        sizes while the functional execution and timing use the scaled-down
        analogue. Graphs without the annotation use their actual size.
        """
        return int(self.meta.get("paper_vertices", self.num_vertices))

    @property
    def modeled_num_edges(self) -> int:
        """Edge count used for memory-feasibility modelling (see above)."""
        return int(self.meta.get("paper_edges", self.num_edges))

    def modeled_edge_scale(self) -> float:
        """Ratio of modeled to actual edge count (>= 1 for analogues)."""
        if self.num_edges == 0:
            return 1.0
        return self.modeled_num_edges / self.num_edges

    # ------------------------------------------------------------------
    # Conversions / misc
    # ------------------------------------------------------------------
    def to_edge_array(self) -> np.ndarray:
        """Return an (E, 2) int64 array of stored directed edges."""
        srcs = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
        )
        return np.stack([srcs, self.out_csr.targets.astype(np.int64)], axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        label = self.name or "graph"
        return (
            f"CSRGraph({label!r}, {kind}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )


def _dedup_edges(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove duplicate (src, dst) pairs keeping the minimum weight."""
    keys = src.astype(np.int64) * num_vertices + dst.astype(np.int64)
    order = np.lexsort((w, keys))
    keys_sorted = keys[order]
    first = np.ones(keys_sorted.shape[0], dtype=bool)
    first[1:] = keys_sorted[1:] != keys_sorted[:-1]
    keep = order[first]
    keep.sort()
    return src[keep], dst[keep], w[keep]

