"""Task-management filters (Section 4).

A *filter* turns the updates of one iteration into the next iteration's
active worklist. The paper contributes two filters and compares them to
Gunrock's batch filter, all of which are implemented here so the ablation
experiments (Figure 12) can be reproduced:

* :class:`OnlineFilter`  -- record updated destinations into bounded
  per-thread bins *while computing*; extremely cheap when the frontier is
  small, but the bins can overflow (SIMD-X's contribution).
* :class:`BallotFilter`  -- update the metadata first, then perform a
  coalesced scan of the whole metadata array using warp ballots, producing a
  sorted, duplicate-free worklist (SIMD-X's contribution).
* :class:`BatchFilter`   -- Gunrock/B40C style: materialize the full active
  *edge* list (up to 2|E| memory), then compact the updated destinations;
  unsorted, redundant, memory hungry.

The paper's Section 4 pipeline has two more pieces that live elsewhere but
are parameterized here-ish for reference:

* **Worklist separators** (step I): the produced worklist is split into
  small / medium / large sub-lists by degree so the Thread / Warp / CTA
  kernels get similarly-sized tasks. The separators default to 32 (the warp
  size) and 256 (the CTA reduction width) - see
  :class:`repro.core.frontier.WorklistClassifier` and the sweep in
  ``benchmarks/test_sec4_worklist_separators.py``.
* **Decision thresholds** (step II): the JIT controller
  (:class:`repro.core.jit.JITTaskManager`) starts on the online filter and
  switches to ballot when a thread bin exceeds the overflow threshold
  (64 entries by default, the Figure 9a knob); a non-overflowing shadow run
  switches back. The controller is also direction-aware: pull phases force
  the online filter (a gather worker records at most one destination) and a
  pull->push switch pre-arms the ballot filter. The other
  :class:`FilterMode` values pin the same controller to one filter.

Each filter performs the *functional* worklist construction with NumPy and
reports the work a GPU implementation would have done, so the engine can
charge the device cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import WorkEstimate
from repro.gpu import memory as gmem
from repro.gpu.primitives import compact_flags, concatenate_bins
from repro.core.frontier import ThreadBins


class FilterMode(enum.Enum):
    """User-selectable task-management strategies."""

    JIT = "jit"
    ONLINE = "online"
    BALLOT = "ballot"
    BATCH = "batch"


class FilterOverflowError(RuntimeError):
    """Raised when a pinned online filter overflows its thread bins.

    Under JIT control overflow is handled by switching filters; when the user
    pins ``FilterMode.ONLINE`` the worklist would be silently incomplete, so
    the controller surfaces the failure instead (these are the blank "cannot
    complete" cells of Figure 12 for the online-only configuration).
    """


@dataclass
class FilterContext:
    """Everything a filter may need for one iteration.

    Attributes
    ----------
    num_vertices:
        Total vertex count (the ballot filter scans all of them).
    updated_destinations:
        Destination vertex of every update that *changed* metadata this
        iteration, duplicates included (online/batch filters record these
        as they happen).
    producer_thread:
        For each entry of ``updated_destinations``, the index of the
        simulated thread (frontier slot) that produced it; used to assign
        bin ownership for the online filter.
    active_mask:
        Boolean mask over all vertices, true where the algorithm's ``Active``
        function holds after this iteration's updates (the ballot filter
        recomputes the worklist from this).
    frontier_edges:
        Edges expanded this iteration (batch filter materializes them).
    num_worker_threads:
        Number of simulated worker threads owning online-filter bins.
    max_producer_records:
        Static upper bound on the entries a single worker can record this
        iteration: the maximum out-degree of the frontier in push mode, 1 in
        pull mode (a gather worker records only its own destination). The
        JIT controller compares it against the overflow threshold to decide
        whether bounded bins can be trusted without waiting for the dynamic
        overflow signal.
    success_rate:
        Estimated share of this iteration's offers that can still land (a
        worker records an entry only when its update *changes* a
        destination). The engine estimates it as the updatable-vertex share
        before the iteration ran - the unvisited share for BFS, the
        surviving-core share for k-Core - and the JIT controller scales
        ``max_producer_records`` by it, so a hub whose neighbourhood is
        mostly settled no longer pre-arms the ballot filter at a pull->push
        switch. 1.0 (every offer may succeed) keeps the unscaled bound.
    """

    num_vertices: int
    updated_destinations: np.ndarray
    producer_thread: np.ndarray
    active_mask: np.ndarray
    frontier_edges: int
    num_worker_threads: int
    max_producer_records: int = 0
    success_rate: float = 1.0


@dataclass(slots=True)
class FilterResult:
    """Worklist plus the cost and quality attributes of producing it."""

    worklist: np.ndarray
    work: WorkEstimate
    overflowed: bool = False
    #: A ballot scan's worklist: sorted and duplicate-free, the only one
    #: the driver continues from as is (thread bins are neither).
    is_sorted: bool = False
    extra_memory_bytes: int = 0

    @property
    def sortedness(self) -> float:
        if self.is_sorted:
            return 1.0  # by construction (a metadata scan emits ids in order)
        return gmem.worklist_sortedness(self.worklist)


class Filter:
    """Base class: one :meth:`build` call per iteration."""

    name = "filter"

    def build(self, ctx: FilterContext) -> FilterResult:  # pragma: no cover - abstract
        raise NotImplementedError


class OnlineFilter(Filter):
    """Record updated destinations in bounded per-thread bins while computing.

    The recording itself is almost free (a register write and a store into a
    thread-private bin), so the only charged work is writing the recorded
    entries and concatenating the bins with a prefix scan. The produced
    worklist may contain duplicates and is not sorted (Figure 6(c)).
    """

    name = "online"

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity

    def build(self, ctx: FilterContext) -> FilterResult:
        bins = ThreadBins(
            num_threads=max(1, ctx.num_worker_threads), capacity=self.capacity
        )
        bins.scatter(ctx.updated_destinations, ctx.producer_thread)
        concat = concatenate_bins(bins.concatenated(), bins.occupancy())
        # Recording rides in the concatenation's estimate: one write per
        # recorded entry on top of the scan and the copy.
        recorded = int(ctx.updated_destinations.size)
        work = concat.work
        work.coalesced_bytes += gmem.sequential_bytes(recorded, gmem.VERTEX_ID_BYTES)
        work.compute_ops += float(recorded)
        return FilterResult(concat.values, work, overflowed=bins.overflowed)


class BallotFilter(Filter):
    """Scan the metadata array with warp ballots to build a sorted worklist.

    Consecutive threads inspect consecutive vertices (coalesced reads of the
    current and previous metadata), each warp votes with ``__ballot`` and
    lane 0 writes the warp's active vertices to its output range, which keeps
    the global worklist sorted and duplicate-free (Figure 6(b)). The cost is
    dominated by the full metadata scan - O(|V|) regardless of how few
    vertices are active, which is exactly its weakness on high-diameter
    graphs.
    """

    name = "ballot"

    def build(self, ctx: FilterContext) -> FilterResult:
        compacted = compact_flags(ctx.active_mask)
        scan_work = WorkEstimate(
            coalesced_bytes=gmem.metadata_scan_bytes(ctx.num_vertices),
            compute_ops=float(ctx.num_vertices),
            warp_primitive_ops=float(-(-ctx.num_vertices // 32)),
        )
        return FilterResult(
            compacted.values, scan_work.merged_with(compacted.work), is_sorted=True
        )


class BatchFilter(Filter):
    """Gunrock/B40C-style batch filter (Figure 6(a)).

    Materializes the active edge list in device memory (reported via
    ``extra_memory_bytes``: the unit's record carries it and pricing places
    it on the device, an OOM on large frontiers), then records updated
    destinations in thread bins of unbounded size and concatenates them.
    The output is unsorted and redundant.
    """

    name = "batch"

    #: Bytes per active-edge-list entry: source, destination, weight.
    EDGE_ENTRY_BYTES = 12

    def build(self, ctx: FilterContext) -> FilterResult:
        edge_list_bytes = ctx.frontier_edges * self.EDGE_ENTRY_BYTES
        materialize_work = WorkEstimate(
            coalesced_bytes=2.0 * edge_list_bytes,  # write then re-read
            compute_ops=float(ctx.frontier_edges),
        )
        # Unbounded per-thread bins, then concatenation (no atomics).
        dests = ctx.updated_destinations
        record_work = WorkEstimate(
            coalesced_bytes=gmem.sequential_bytes(int(dests.size), gmem.VERTEX_ID_BYTES) * 2,
            compute_ops=float(dests.size),
        )
        worklist = np.asarray(dests, dtype=np.int64).copy()
        return FilterResult(
            worklist,
            materialize_work.merged_with(record_work),
            extra_memory_bytes=edge_list_bytes,
        )

