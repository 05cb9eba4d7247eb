"""The Active-Compute-Combine (ACC) programming model (Section 3).

A graph algorithm is expressed by subclassing :class:`ACCAlgorithm` and
providing three data-parallel functions plus an initializer:

* ``init``     -- set up the metadata array and the initial frontier;
* ``active``   -- decide whether a vertex is active, given its current and
  previous metadata (Section 3.2: "∃v ← active(Mv, v)");
* ``compute``  -- produce the update an edge (v, u) sends to u from the
  metadata of v, the edge weight and the metadata of u
  ("update_{v→u} ← compute(Mv, M(v,u), Mu)");
* ``combine``  -- merge all updates arriving at a vertex with a commutative,
  associative operator ("update_u ← ⊕ update_{v→u}").

The engine calls the vectorized variants (`active_mask`, `compute_edges`),
which operate on NumPy arrays covering many edges at once: that is the
functional analogue of thousands of CUDA threads each evaluating the scalar
function on one edge.

Two combine classes exist (Section 3.2):

* **aggregation** -- every update matters (SSSP's min, PageRank's sum,
  k-Core's decrement count); overwrites are not tolerated.
* **voting** -- all updates are identical, so receiving any one of them is
  enough (BFS, WCC); this enables collaborative early termination.

The same three functions serve both execution directions: a push iteration
scatters ``compute_edges`` over the frontier's out-edges, a pull iteration
gathers the identical per-edge updates over destinations' in-edges through
the same hook (the optional ``gather_mask`` hook lets an algorithm shrink
the gather without changing its results).

They also serve the *batched* multi-source path
(``SIMDXEngine.run_batch``): because ``compute`` is a pure per-edge map, a
K-lane batch evaluates its ``(edge, lane)`` pairs one lane per call, on
that lane's own algorithm copy and metadata row, through the same
``compute_edges`` hook - which keeps a batched run bit-identical to K
independent runs.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import DEFAULT_KERNEL
from repro.graph.csr import CSRGraph


class CombineKind(enum.Enum):
    """The two classes of combine operators SIMD-X optimizes (Section 3.2)."""

    AGGREGATION = "aggregation"
    VOTING = "voting"


class CombineOp(enum.Enum):
    """Supported commutative/associative reduction operators."""

    MIN = "min"
    MAX = "max"
    SUM = "sum"

    @property
    def ufunc(self) -> np.ufunc:
        if self is CombineOp.MIN:
            return np.minimum
        return np.maximum if self is CombineOp.MAX else np.add

    @property
    def identity(self) -> float:
        return {
            CombineOp.MIN: np.inf,
            CombineOp.MAX: -np.inf,
            CombineOp.SUM: 0.0,
        }[self]

    def compact_reduce(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
        *, ids_sorted: bool = False, backend=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-destination Combine in compact form: ``(touched, combined)``.

        ``touched`` is the canonical (``int64``, strictly increasing) set of
        destinations that received any update, ``combined[i]`` the operator
        over all updates that target ``touched[i]`` - no atomic
        read-modify-write. Membership comes from the ids, never the values:
        a destination whose combined value equals the identity (a SUM of
        ``+x, -x``) is still touched. ``ids_sorted`` promises non-decreasing
        ``segment_ids`` (every pull unit's stream), so MIN/MAX skip the sort.

        ``backend`` is the kernel whose ``segment_reduce`` does the work
        (``None``: :data:`repro.core.kernels.DEFAULT_KERNEL`); the engine
        passes its own ``SIMDXEngine.kernel``.
        """
        backend = backend or DEFAULT_KERNEL
        return backend.segment_reduce(
            self, values, segment_ids, num_segments, ids_sorted
        )

    def segment_reduce(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
        *, backend=None,
    ) -> np.ndarray:
        """Dense form of :meth:`compact_reduce`: one slot per destination,
        the operator's identity where no update arrived."""
        out = np.full(num_segments, self.identity, dtype=np.float64)
        touched, combined = self.compact_reduce(
            values, segment_ids, num_segments, backend=backend
        )
        out[touched] = combined
        return out


@dataclass
class InitialState:
    """What ``init`` returns: the metadata array and the source frontier."""

    metadata: np.ndarray
    frontier: np.ndarray


class ACCAlgorithm(abc.ABC):
    """Base class a graph algorithm implements to run on SIMD-X.

    Subclasses set the class attributes and implement the four abstract
    methods. Everything else (worklists, filters, direction, fusion,
    synchronization) is the engine's responsibility - the decoupling of
    programming from processing that the paper advocates.
    """

    #: Human-readable algorithm name ("bfs", "sssp", ...).
    name: str = "acc"

    #: Whether the combine is an aggregation or a vote (Section 3.2).
    combine_kind: CombineKind = CombineKind.AGGREGATION

    #: The reduction operator used by Combine.
    combine_op: CombineOp = CombineOp.MIN

    #: Hard iteration cap (safety net; algorithms normally converge earlier).
    max_iterations: int = 100_000

    #: True when edge weights participate in ``compute`` (SSSP, BP, SpMV).
    uses_weights: bool = True

    #: Whether ``compute_edges`` reads ``src_meta`` / ``dst_meta``; the
    #: engine passes ``None`` for an operand not declared read.
    reads_src_meta: bool = True
    reads_dst_meta: bool = True

    #: Algorithms that start in pull mode (PageRank, BP, k-Core) override
    #: this; BFS/SSSP start in push mode from a single source.
    starts_in_pull: bool = False

    #: Whether ``init(graph, source=...)`` accepts a per-query source so the
    #: engine can batch K queries into one ``run_batch`` execution (BFS,
    #: SSSP, landmark-distance style traversals). Algorithms without a
    #: per-query source (PageRank, SpMV, ...) leave this False - one run
    #: already answers the "query" for every vertex.
    supports_multi_source: bool = False

    # ------------------------------------------------------------------
    # The ACC API (vectorized forms used by the engine)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def init(self, graph: CSRGraph, **params) -> InitialState:
        """Create the metadata array and the initial active frontier."""

    @abc.abstractmethod
    def active_mask(self, curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Boolean mask of active vertices given current/previous metadata."""

    @abc.abstractmethod
    def compute_edges(
        self,
        src_meta: np.ndarray,
        weights: np.ndarray,
        dst_meta: np.ndarray,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        graph: CSRGraph,
    ) -> np.ndarray:
        """Per-edge updates (vectorized ``compute``), one per edge (v, u).

        Both directions call this hook with the same operands: a push
        iteration over the frontier's out-edges, a pull iteration over the
        gathered in-edges, arguments in push orientation (``src`` is the
        producing endpoint ``v``) - so the two directions evaluate
        bit-identical per-edge arithmetic. An edge contributes nothing when
        its update is NaN: the engine drops NaN updates before Combine and
        passes every other value (``inf`` included) to the reduction.

        An edge pays only for the operands its algorithm reads: ``src_meta``
        and ``dst_meta`` are ``None`` unless ``reads_src_meta`` /
        ``reads_dst_meta`` is set, and ``weights`` (float64) is ``None``
        unless ``uses_weights`` is - so a wrong declaration fails loudly.

        The extra ``src_ids`` / ``dst_ids`` / ``graph`` arguments let
        degree-normalized algorithms (PageRank, BP) look up degrees without
        storing them in the metadata; scalar ``compute`` in the paper closes
        over the same information through the edge object.
        """

    @abc.abstractmethod
    def apply(
        self, old: np.ndarray, combined: np.ndarray, touched: np.ndarray
    ) -> np.ndarray:
        """Merge combined updates into the metadata of ``touched`` vertices.

        Returns the new metadata values for exactly the ``touched`` vertices
        (e.g. ``min(old, combined)`` for SSSP, the damped rank formula for
        PageRank). The engine writes them back and derives the next frontier
        from what changed.
        """

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def converged(self, curr: np.ndarray, prev: np.ndarray, iteration: int) -> bool:
        """Extra convergence condition checked after the frontier empties."""
        return True

    def on_frontier_expanded(self, frontier: np.ndarray, metadata: np.ndarray) -> None:
        """Called once per iteration after ``compute`` ran over the frontier.

        Delta-accumulative algorithms (PageRank, BP) use this to mark the
        frontier's pending contributions as pushed; the default is a no-op.
        On the GPU this bookkeeping happens inside the compute kernel itself.
        The engine fires the hook in pull iterations too (the frontier's
        contributions are consumed whether they are scattered or gathered).
        """

    def gather_mask(
        self,
        metadata: np.ndarray,
        graph: CSRGraph,
        frontier: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask of vertices worth gathering at in a pull iteration.

        The engine gathers at every masked vertex that has at least one
        in-edge. The default - every vertex - is always correct; algorithms
        whose ``compute`` provably yields no update for some destinations
        (BFS's already-visited vertices, k-Core's deleted ones) override it
        to shrink the gather worklist, the way Beamer's bottom-up BFS skips
        visited vertices.

        ``frontier`` is the iteration's active frontier: only its vertices
        source updates this iteration, so an override may use
        frontier-dependent bounds as well (SSSP prunes destinations whose
        distance is already at or below the best possible frontier offer,
        WCC prunes labels at or below the frontier's minimum). The engine
        always passes the frontier; ``None`` (direct calls) must degrade to
        a frontier-independent mask.

        An override must never exclude a destination that could still
        receive a valid (non-NaN) offer from a frontier source. Overriding
        this together with :meth:`on_frontier_expanded` is safe: the engine
        fires that hook after every superstep's Compute, in both directions
        and however far the mask shrank the gather worklist.
        """
        return np.ones(metadata.shape[0], dtype=bool)

    def vertex_value(self, metadata: np.ndarray) -> np.ndarray:
        """Translate metadata into the user-facing result (default identity)."""
        return metadata

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, combine={self.combine_op.value})"
