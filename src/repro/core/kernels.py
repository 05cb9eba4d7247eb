"""The CSR-walk kernel primitives every superstep runs.

The engine's hot loops - edge expansion over CSR rows, frontier-membership
masks, canonical id-set unions, lane-bitmask construction/extraction for
batched runs, and the per-destination Combine reduction - are the methods
of :class:`NumpyKernelBackend`: ``np.repeat``/``np.cumsum`` edge expansion,
boolean scatter membership and unions (vertex-indexed flag passes; nothing
sorts or hashes), packed ``uint64`` lane-bit rows built with bulk OR, and
``np.bincount`` / sort + ``ufunc.reduceat`` segment reductions. The engine
reaches them through one instance, ``SIMDXEngine.kernel`` (and its scatter
walk through ``SIMDXEngine._walk_edges``), which is the seam the tests
substitute a loop reference through (``docs/kernels.md``).

The contract a substitute must keep, so results stay bit-identical:

* ``walk_edges`` emits (slot, edge index) pairs in worklist order with
  edge indices ascending within each slot - the order ``np.repeat`` +
  ``np.arange`` produces and a Python double loop reproduces.
* ``walk_kept`` emits the walk's edges whose source passes a vertex mask,
  in the same order, whether the numpy body scans the span or the rows.
* ``segment_reduce`` returns the compact pair ``(touched, combined)`` of
  :meth:`repro.core.acc.CombineOp.compact_reduce`. SUM accumulates in
  *input order* (``np.bincount`` adds weights sequentially, exactly like
  an ``out[s] += v`` loop); MIN/MAX are order-independent for non-NaN
  floats. The engine filters NaN updates before Combine, so NaN never
  reaches a reduction.
* Every id set a primitive returns is *canonical* (``int64``, strictly
  increasing, empty ones included) whatever order or multiplicity its
  input had, so downstream concatenation and indexing behave identically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["DEFAULT_KERNEL", "NumpyKernelBackend"]

#: Lanes packed per bitmask word (uint64); mirrors ``frontier.LANES_PER_WORD``
#: (defined here too so this module stays import-cycle free).
_LANES_PER_WORD = 64


def _flag_pass(arrays: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Canonical union of id arrays over ``[0, size)``: scatter a flag per
    id, read the set back in vertex order. Nothing sorts or hashes."""
    seen = np.zeros(size, dtype=bool)
    for array in arrays:
        seen[np.asarray(array, dtype=np.int64)] = True
    return np.flatnonzero(seen)


class NumpyKernelBackend:
    """The vectorized primitives (stateless; one shared instance)."""

    @staticmethod
    def walk_edges(csr, worklist):
        """The scatter walk over the CSR rows of ``worklist``: ``(slot,
        edge_idx, total)``, each edge's worklist position and flat CSR
        index, in worklist order with edge indices ascending per slot."""
        # Static so ``SIMDXEngine._walk_edges`` can alias this one body.
        # Row bounds of the worklist only - never an O(|V|) pass.
        starts = csr.offsets[worklist].astype(np.int64)
        counts = csr.offsets[worklist + 1].astype(np.int64) - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, 0
        cum = np.zeros(worklist.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        edge_idx = np.repeat(starts - cum, counts) + np.arange(
            total, dtype=np.int64
        )
        slot = np.repeat(np.arange(worklist.size, dtype=np.int64), counts)
        return slot, edge_idx, total

    def walk_kept(self, csr, worklist, source_mask):
        """The gather walk: int64 ``(src, dst, edge_idx)`` of the in-edges of
        the canonical ``worklist``'s rows whose source has ``source_mask``
        set, in CSR order, and ``walked``, the number of edges scanned."""
        offsets = csr.offsets
        walked = int((offsets[worklist + 1] - offsets[worklist]).sum())
        if walked == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, 0
        first, last = int(worklist[0]), int(worklist[-1]) + 1
        lo, hi = int(offsets[first]), int(offsets[last])
        if 2 * walked < hi - lo:
            # Sparse rows: walk them, then test each walked source.
            slot, edge_idx, _ = self.walk_edges(csr, worklist)
            src = csr.targets[edge_idx].astype(np.int64)
            e = np.flatnonzero(source_mask[src])
            return src[e], worklist[slot[e]], edge_idx[e], walked
        # Dense rows: scan the span, masking out skipped rows that own edges.
        sources = csr.targets[lo:hi].astype(np.int64)  # int64 indexes faster
        keep = source_mask[sources]
        degrees = np.diff(offsets[first:last + 1].astype(np.int64))
        if walked != hi - lo:
            rows = np.zeros(last - first, dtype=bool)
            rows[worklist - first] = True
            keep &= np.repeat(rows, degrees)
        dst = np.repeat(np.arange(first, last, dtype=np.int64), degrees)
        if keep.all():  # the whole span is kept: nothing to narrow
            return sources, dst, np.arange(lo, hi, dtype=np.int64), walked
        e = np.flatnonzero(keep)
        return sources[e], dst[e], e + lo, walked

    def membership_mask(self, vertices, size):
        """Boolean array of ``size`` with ``True`` at each of ``vertices``."""
        mask = np.zeros(size, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        return mask

    def rows_in_sorted(self, universe, members):
        """Positions of ``members`` (all present) in the sorted ``universe``."""
        return np.searchsorted(universe, members).astype(np.int64, copy=False)

    def sorted_unique(self, values, size):
        """Canonical set of the ids in ``values``, all in ``[0, size)``."""
        return _flag_pass([values], size)

    def union_sorted(self, arrays, size):
        """Canonical union of id arrays over ``[0, size)``, in any order,
        duplicates tolerated."""
        return _flag_pass(arrays, size)

    def build_lane_bits(self, lanes, size):
        """``(vertices, lane_bits)``: the canonical union of the lane
        frontiers and a ``(vertices.size, ceil(len(lanes) / 64))`` uint64
        array whose bit ``k`` of a row is set iff ``lanes[k]`` holds the
        row's vertex."""
        num_words = -(-len(lanes) // _LANES_PER_WORD)
        words = np.zeros((size, num_words), dtype=np.uint64)
        for lane, frontier in enumerate(lanes):
            if frontier.size:
                word, bit = divmod(lane, _LANES_PER_WORD)
                words[frontier, word] |= np.uint64(1 << bit)
        vertices = np.flatnonzero(words.any(axis=1))
        return vertices, words[vertices]

    def lane_mask(self, lane_bits, lane):
        """Boolean mask over the bit rows: which rows have bit ``lane``."""
        word, bit = divmod(lane, _LANES_PER_WORD)
        return (lane_bits[:, word] >> np.uint64(bit)) & np.uint64(1) == 1

    def segment_reduce(self, op, values, segment_ids, num_segments, ids_sorted=False):
        """Per-destination Combine: ``(touched, combined)``, the canonical
        ids present and ``op`` over each one's ``values``. ``ids_sorted``
        promises non-decreasing ``segment_ids`` (nothing left to sort)."""
        values = np.asarray(values, dtype=np.float64)
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if not values.size:
            return segment_ids, values
        if op.value == "sum":
            # ``bincount`` adds in input order (``ufunc.at`` would too, far
            # too slowly; a ``reduceat`` over re-sorted segments need not).
            counted = np.bincount(segment_ids, weights=values, minlength=num_segments)
            touched = _flag_pass([segment_ids], num_segments)
            return touched, counted[touched]
        if not ids_sorted:
            order = np.argsort(segment_ids, kind="stable")
            segment_ids, values = segment_ids[order], values[order]
        boundaries = np.ones(segment_ids.size, dtype=bool)
        np.not_equal(segment_ids[1:], segment_ids[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        return segment_ids[starts], op.ufunc.reduceat(values, starts)


#: The instance the engine, ``CombineOp`` and ``BatchedFrontier`` use unless
#: handed another.
DEFAULT_KERNEL = NumpyKernelBackend()
