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

Batched multi-source execution (``SIMDXEngine.run_batch``) classifies the
union of its K lanes' frontiers like any other worklist; the superstep
driver tells the lanes apart with one n-sized membership mask per lane
(``core/superstep.py``). :data:`LANES_PER_WORD` sizes the lane bitmask
words the *modeled* device keeps per vertex. See ``docs/batching.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.direction import Direction
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
        """Split ``frontier`` (vertex ids) into the three worklists; one
        below the small/medium separator throughout (every road-graph
        superstep) is its own small list, with one sum and no masks."""
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return ClassifiedFrontier(
                _EMPTY, _EMPTY, _EMPTY, WorklistSizes(0, 0, 0, 0, 0, 0), _EMPTY, 0
            )
        degs = self._degrees.take(frontier)
        max_degree = int(degs.max())
        if max_degree < self.small_medium_separator:
            sizes = WorklistSizes(int(frontier.size), 0, 0, int(degs.sum()), 0, 0)
            return ClassifiedFrontier(frontier, _EMPTY, _EMPTY, sizes, degs, max_degree)
        small_mask = degs < self.small_medium_separator
        large_mask = degs >= self.medium_large_separator
        small_at = small_mask.nonzero()[0]
        medium_at = (~(small_mask | large_mask)).nonzero()[0]
        large_at = large_mask.nonzero()[0]
        small_degrees = degs.take(small_at)
        sizes = WorklistSizes(
            small_vertices=int(small_at.size),
            medium_vertices=int(medium_at.size),
            large_vertices=int(large_at.size),
            small_edges=int(small_degrees.sum()),
            medium_edges=int(degs.take(medium_at).sum()),
            large_edges=int(degs.take(large_at).sum()),
        )
        return ClassifiedFrontier(
            frontier.take(small_at), frontier.take(medium_at),
            frontier.take(large_at), sizes, small_degrees, max_degree,
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
        entries, owners = recorded, producer_thread
        if self.entries.size:
            # Kept entries go first and the sort is stable, so within a
            # thread they keep their slots ahead of the new arrivals.
            entries = np.concatenate([self.entries, entries])
            owners = np.concatenate([self.owners, owners])
        # Group by owning thread - unless the producers already arrive
        # grouped (a scatter walks its frontier slots in order, a gather
        # records one entry per worker), which one comparison pass shows.
        if np.count_nonzero(owners[1:] < owners[:-1]):
            order = np.argsort(owners, kind="stable")
            entries = entries.take(order)
            owners = owners.take(order)
        # Grouped owners are bounded by their first and last entries.
        if owners[0] < 0 or owners[-1] >= self.num_threads:
            raise ValueError("producer thread id out of range")
        counts = np.bincount(owners, minlength=self.num_threads)
        if np.count_nonzero(counts > self.capacity):
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


#: Lanes packed per modeled bitmask word (uint64).
LANES_PER_WORD = 64
