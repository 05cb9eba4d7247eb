"""Worklists, degree classification and per-thread bins (Section 4, step I/II).

SIMD-X splits the active vertices of an iteration into three worklists by
degree so that each is processed at a matching thread granularity:

* ``small_list``  -- low-degree vertices, one *thread* each;
* ``med_list``    -- medium-degree vertices, one *warp* (32 threads) each;
* ``large_list``  -- high-degree vertices, one *CTA* (256 threads) each.

The degree that matters depends on the execution direction: a push (scatter)
iteration expands the *out*-edges of its worklist, a pull (gather) iteration
walks the *in*-edges of its worklist, so the classifier is built per
direction (:class:`~repro.core.direction.Direction`) and the engine keeps
one instance for each.

The separators default to the warp size (32) and the CTA compute size (256);
the paper reports performance is flat for the small/medium separator in
[4, 128] and for the medium/large separator in [128, 2048], which the
worklist-separator bench reproduces.

The bounded per-thread bins used by the online filter also live here: each
simulated thread owns a bin of ``capacity`` slots (the overflow threshold,
64 by default per Figure 9a) and records the destinations it updated; when
any bin would exceed its capacity the iteration reports overflow, which is
the JIT controller's signal to switch to the ballot filter.

For batched multi-source execution (``SIMDXEngine.run_batch``), the
:class:`BatchedFrontier` carries K concurrent query *lanes* over one graph
as an ``(active_vertices, lane_bitmask)`` pair: the sorted union of every
lane's frontier plus, per union vertex, a packed bitmask of the lanes it is
active in. One CSR walk over the union then serves all K queries; the lane
bitmask recovers each lane's exact edge subset. See ``docs/batching.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.direction import Direction
from repro.core.kernels import DEFAULT_KERNEL, NumpyKernelBackend
from repro.graph.csr import CSRGraph

#: Default worklist separators (paper Section 4, "Classification of small,
#: medium and large worklists").
DEFAULT_SMALL_MEDIUM_SEPARATOR = 32
DEFAULT_MEDIUM_LARGE_SEPARATOR = 256

_EMPTY = np.zeros(0, dtype=np.int64)

#: Threads used per task at each granularity (Figure 7).
THREADS_PER_SMALL_TASK = 1
THREADS_PER_MEDIUM_TASK = 32
THREADS_PER_LARGE_TASK = 256


@dataclass(frozen=True)
class WorklistSizes:
    """Vertex and edge totals per worklist, used for cost estimation."""

    small_vertices: int
    medium_vertices: int
    large_vertices: int
    small_edges: int
    medium_edges: int
    large_edges: int

    @property
    def total_edges(self) -> int:
        return self.small_edges + self.medium_edges + self.large_edges


@dataclass(frozen=True)
class ClassifiedFrontier:
    """The three degree-classified worklists for one iteration."""

    small: np.ndarray
    medium: np.ndarray
    large: np.ndarray
    sizes: WorklistSizes
    #: What the cost model reads of the degrees ``classify`` gathered: the
    #: per-thread work of the Thread kernel (degree of each ``small``
    #: vertex) and the largest degree in the whole worklist.
    small_degrees: np.ndarray
    max_degree: int

    @property
    def total_edges(self) -> int:
        return self.sizes.total_edges


class WorklistClassifier:
    """Splits a worklist into small/medium/large lists by degree.

    ``direction`` selects which degree the classification (and the per-list
    edge totals) use: :attr:`Direction.PUSH` classifies by out-degree (the
    worklist is a scatter frontier), :attr:`Direction.PULL` by in-degree
    (the worklist is a gather list of destinations).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        small_medium_separator: int = DEFAULT_SMALL_MEDIUM_SEPARATOR,
        medium_large_separator: int = DEFAULT_MEDIUM_LARGE_SEPARATOR,
        direction: Direction = Direction.PUSH,
    ):
        if small_medium_separator <= 0:
            raise ValueError("small/medium separator must be positive")
        if medium_large_separator < small_medium_separator:
            raise ValueError("medium/large separator must be >= small/medium separator")
        self.graph = graph
        self.direction = direction
        self.small_medium_separator = small_medium_separator
        self.medium_large_separator = medium_large_separator
        degrees = (
            graph.out_degrees() if direction is Direction.PUSH
            else graph.in_degrees()
        )
        self._degrees = degrees

    def classify(self, frontier: np.ndarray) -> ClassifiedFrontier:
        """Split ``frontier`` (vertex ids) into the three worklists."""
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return ClassifiedFrontier(
                _EMPTY, _EMPTY, _EMPTY, WorklistSizes(0, 0, 0, 0, 0, 0), _EMPTY, 0
            )
        degs = self._degrees[frontier]
        small_mask = degs < self.small_medium_separator
        large_mask = degs >= self.medium_large_separator
        small_at = small_mask.nonzero()[0]
        medium_at = (~(small_mask | large_mask)).nonzero()[0]
        large_at = large_mask.nonzero()[0]
        small = frontier.take(small_at)
        medium = frontier.take(medium_at)
        large = frontier.take(large_at)
        small_degrees = degs.take(small_at)
        sizes = WorklistSizes(
            small_vertices=int(small.size),
            medium_vertices=int(medium.size),
            large_vertices=int(large.size),
            small_edges=int(small_degrees.sum()),
            medium_edges=int(degs.take(medium_at).sum()),
            large_edges=int(degs.take(large_at).sum()),
        )
        return ClassifiedFrontier(
            small, medium, large, sizes, small_degrees, int(degs.max())
        )

    def edge_count(self, frontier: np.ndarray) -> int:
        """Total directional degree of ``frontier`` without classifying it.

        The engine uses the push classifier's count as the Beamer-style
        frontier-share estimate that drives direction selection, before any
        worklist is materialized.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return 0
        return int(self._degrees[frontier].sum())


@dataclass
class ThreadBins:
    """Bounded per-thread bins used by the online filter.

    ``num_threads`` simulated threads each own a private bin of ``capacity``
    slots. :meth:`scatter` assigns recorded vertices to the bin of the thread
    that produced them (the thread processing the corresponding frontier
    vertex). If any bin would exceed its capacity, the overflow flag is set
    and the surplus entries are dropped - exactly the situation in which the
    online filter's worklist would be incomplete and the JIT controller must
    fall back to the ballot filter to generate a *correct* list.

    All bins share one flat layout: ``entries`` holds every kept entry
    grouped by owning thread (thread order, arrival order within a thread)
    and ``owners`` the owning thread of each, so no per-thread object exists
    and the bins' concatenation *is* ``entries``.
    """

    num_threads: int
    capacity: int
    overflowed: bool = False
    entries: np.ndarray = field(init=False)
    owners: np.ndarray = field(init=False)
    #: Entries per bin, as of the last :meth:`scatter` (``None`` before one).
    _counts: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self.entries = self.owners = _EMPTY

    def scatter(self, recorded: np.ndarray, producer_thread: np.ndarray) -> None:
        """Append recorded vertex ids to the producing threads' bins.

        Arrays that need no regrouping are kept as they are, not copied.
        """
        recorded = np.asarray(recorded, dtype=np.int64)
        producer_thread = np.asarray(producer_thread, dtype=np.int64)
        if recorded.shape != producer_thread.shape:
            raise ValueError("recorded and producer_thread must align")
        if recorded.size == 0:
            return
        if producer_thread.min() < 0 or producer_thread.max() >= self.num_threads:
            raise ValueError("producer thread id out of range")
        entries, owners = recorded, producer_thread
        if self.entries.size:
            # Kept entries go first and the sort is stable, so within a
            # thread they keep their slots ahead of the new arrivals.
            entries = np.concatenate([self.entries, entries])
            owners = np.concatenate([self.owners, owners])
        # Group by owning thread - unless the producers already arrive
        # grouped (a scatter walks its frontier slots in order, a gather
        # records one entry per worker), which one comparison pass shows.
        if not (owners[1:] >= owners[:-1]).all():
            order = np.argsort(owners, kind="stable")
            entries = entries[order]
            owners = owners[order]
        counts = np.bincount(owners, minlength=self.num_threads)
        if counts.max() > self.capacity:
            # An entry's rank is its slot in its own bin: position minus
            # the start of its thread's group. Slots >= capacity do not
            # exist.
            rank = np.arange(owners.size) - (np.cumsum(counts) - counts)[owners]
            kept = rank < self.capacity
            self.overflowed = True
            entries = entries[kept]
            owners = owners[kept]
            counts = np.minimum(counts, self.capacity)
        self.entries = entries
        self.owners = owners
        self._counts = counts

    def occupancy(self) -> np.ndarray:
        """Entries per bin."""
        if self._counts is None:
            return np.zeros(self.num_threads, dtype=np.int64)
        return self._counts

    def concatenated(self) -> np.ndarray:
        """All bin contents in thread order (the online filter's worklist)."""
        return self.entries


#: Lanes packed per bitmask word (uint64).
LANES_PER_WORD = 64


@dataclass(frozen=True)
class BatchedFrontier:
    """K query lanes over one graph: union frontier + per-vertex lane bits.

    ``vertices`` is the sorted, duplicate-free union of all lanes'
    frontiers; ``lane_bits`` has one row per union vertex holding a packed
    uint64 bitmask (``ceil(num_lanes / 64)`` words) of the lanes the vertex
    is active in. The engine walks the union's CSR rows once per iteration
    and uses the bitmask to expand each edge only into the lanes whose
    frontier contains its source - the K-wide amortization behind
    ``SIMDXEngine.run_batch``.

    Memory cost is ``8 * ceil(K / 64)`` bytes per union vertex on top of the
    union worklist itself - negligible next to the K metadata rows the
    batched run keeps (see ``docs/batching.md``).
    """

    vertices: np.ndarray   # sorted unique union of the lane frontiers, int64
    lane_bits: np.ndarray  # (vertices.size, num_words) uint64
    num_lanes: int
    #: For a sub-batch view (:meth:`sub_batch`): the *global* lane id of
    #: each local lane, so the engine can map a sub-batch's rows back onto
    #: the full batch's per-lane state. ``None`` for a full batch, where
    #: local and global ids coincide.
    lane_ids: Optional[Tuple[int, ...]] = None
    #: Kernel the bitmask primitives run on (``docs/kernels.md``);
    #: ``None`` is :data:`~repro.core.kernels.DEFAULT_KERNEL`. Excluded
    #: from equality.
    backend: Optional[NumpyKernelBackend] = field(
        default=None, compare=False, repr=False
    )

    def _kernel(self) -> NumpyKernelBackend:
        return self.backend or DEFAULT_KERNEL

    @classmethod
    def from_lanes(
        cls,
        lane_frontiers: List[np.ndarray],
        backend: Optional[NumpyKernelBackend] = None,
    ) -> "BatchedFrontier":
        """Build the union + bitmask pair from per-lane frontiers.

        Each per-lane frontier is a 1-D array of vertex ids (duplicates
        and any order tolerated - the build is one vertex-indexed pass, so
        neither costs anything); an empty array is a lane that has finished
        or is momentarily inactive. ``backend`` is the kernel the
        union/bitmask primitive (and later :meth:`lane_mask` calls) runs
        on - the engine passes its own ``SIMDXEngine.kernel``.
        """
        num_lanes = len(lane_frontiers)
        if num_lanes == 0:
            raise ValueError("at least one lane is required")
        kernel = backend or DEFAULT_KERNEL
        lanes = [np.asarray(f, dtype=np.int64) for f in lane_frontiers]
        size = 1 + max((int(f.max()) for f in lanes if f.size), default=-1)
        vertices, lane_bits = kernel.build_lane_bits(lanes, size)
        return cls(
            vertices=vertices,
            lane_bits=lane_bits,
            num_lanes=num_lanes,
            backend=backend,
        )

    def lane_mask(self, lane: int) -> np.ndarray:
        """Boolean mask over ``vertices``: which union slots lane holds."""
        if not (0 <= lane < self.num_lanes):
            raise IndexError(f"lane {lane} out of range")
        return self._kernel().lane_mask(self.lane_bits, lane)

    def lane_vertices(self, lane: int) -> np.ndarray:
        """The lane's frontier (sorted, unique) recovered from the bitmask."""
        return self.vertices[self.lane_mask(lane)]

    def sub_batch(self, lanes: Sequence[int]) -> "BatchedFrontier":
        """View of this batch restricted to ``lanes`` (global lane ids).

        The selected lanes are remapped to local ids ``0..len(lanes)-1``
        (recorded in :attr:`lane_ids`), the union shrinks to the vertices
        active in at least one selected lane, and the packed bitmask is
        rebuilt at the sub-batch's own word width - each group of a K=65
        batch split into 64 + 1 lanes needs one mask word, not two.
        Lane-aware direction splitting (``docs/batching.md``) walks each
        sub-batch's CSR rows with exactly this view.
        """
        lanes = [int(l) for l in lanes]
        for lane in lanes:
            if not (0 <= lane < self.num_lanes):
                raise IndexError(f"lane {lane} out of range")
        if self.lane_ids is not None:
            raise ValueError("sub_batch of a sub_batch is not supported")
        sub = BatchedFrontier.from_lanes(
            [self.lane_vertices(lane) for lane in lanes], backend=self.backend
        )
        return BatchedFrontier(
            vertices=sub.vertices,
            lane_bits=sub.lane_bits,
            num_lanes=sub.num_lanes,
            lane_ids=tuple(lanes),
            backend=self.backend,
        )

    def total_memberships(self) -> int:
        """Sum of per-lane frontier sizes (the would-be serial worklist)."""
        counts = np.zeros(self.vertices.shape[0], dtype=np.int64)
        bits = self.lane_bits.copy()
        while bits.any():
            counts += (bits & np.uint64(1)).sum(axis=1).astype(np.int64)
            bits >>= np.uint64(1)
        return int(counts.sum())
