"""Pluggable execution backends for the shared CSR-walk kernel primitives.

The engine's hot loops — edge expansion over CSR rows, frontier-membership
masks, canonical id-set unions, lane-bitmask construction/extraction for
batched runs, and the per-destination Combine reduction — are expressed
against a small backend interface so the same superstep logic can run two
ways:

* :class:`NumpyKernelBackend` (``kernel_backend="numpy"``, the default) -
  fully vectorized: ``np.repeat``/``np.cumsum`` edge expansion, boolean
  scatter membership and unions (vertex-indexed flag passes; nothing sorts
  or hashes), packed ``uint64`` lane-bit rows built with bulk OR, and
  ``np.bincount`` / sort + ``ufunc.reduceat`` segment reductions.
* :class:`PythonKernelBackend` (``kernel_backend="python"``) - the same
  primitives as explicit Python loops.  It exists as the *reference
  semantics* the vectorized backend is checked against: every primitive is
  bit-identical by construction (see ``docs/kernels.md`` for the argument),
  so the differential fuzz matrix can cross the backend axis with every
  direction/batching/sharding mode and demand exact equality.

Bit-identity notes (the contract both backends implement):

* ``walk_edges`` emits (slot, edge index) pairs in worklist order with
  edge indices ascending within each slot - the order ``np.repeat`` +
  ``np.arange`` produces and the Python double loop reproduces.
* ``walk_kept`` emits the walk's edges whose source passes a vertex mask,
  in the same order, whether the numpy body scans the span or the rows.
* ``segment_reduce`` returns the compact pair ``(touched, combined)`` of
  :meth:`repro.core.acc.CombineOp.compact_reduce`. SUM accumulates in
  *input order* (``np.bincount`` adds weights sequentially, exactly like
  the Python ``out[s] += v`` loop); MIN/MAX are order-independent for
  non-NaN floats.  The engine filters NaN updates before Combine, so NaN
  never reaches a reduction.
* Every id set a primitive returns is *canonical* (``int64``, strictly
  increasing, empty ones included) whatever order or multiplicity its
  input had, so downstream concatenation and indexing behave identically.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "NumpyKernelBackend",
    "PythonKernelBackend",
    "get_kernel_backend",
]

#: Lanes packed per bitmask word (uint64); mirrors ``frontier.LANES_PER_WORD``
#: (defined here too so this module stays import-cycle free).
_LANES_PER_WORD = 64

#: Valid ``EngineConfig.kernel_backend`` values, reference backend first.
BACKEND_NAMES = ("python", "numpy")


class KernelBackend:
    """Interface of the CSR-walk kernel primitives.

    Both implementations are stateless; the engine caches one instance per
    run configuration (``SIMDXEngine.kernel``).
    """

    #: Backend name as spelled in ``EngineConfig.kernel_backend``.
    name: str = "abstract"

    # ------------------------------------------------------------------
    def walk_edges(
        self, csr, worklist: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Expand the CSR rows of ``worklist``.

        Returns ``(slot, edge_idx, total)``: for every edge of every
        worklist vertex, the worklist *slot* (position in ``worklist``)
        that produced it and the flat CSR edge index, in worklist order
        with edge indices ascending per slot.
        """
        raise NotImplementedError

    def walk_kept(self, csr, worklist: np.ndarray, source_mask: np.ndarray):
        """The gather walk: int64 ``(src, dst, edge_idx)`` of the in-edges of
        the canonical ``worklist``'s rows whose source has ``source_mask``
        set, in CSR order, and ``walked``, the number of edges scanned."""
        raise NotImplementedError

    def membership_mask(self, vertices: np.ndarray, size: int) -> np.ndarray:
        """Boolean array of ``size`` with ``True`` at each of ``vertices``."""
        raise NotImplementedError

    def rows_in_sorted(
        self, universe: np.ndarray, members: np.ndarray
    ) -> np.ndarray:
        """Positions of ``members`` in the sorted array ``universe``.

        Every member must be present in ``universe`` (the batched-frontier
        invariant); both backends then return identical int64 rows.
        """
        raise NotImplementedError

    def sorted_unique(self, values: np.ndarray, size: int) -> np.ndarray:
        """Canonical set of the ids in ``values``, all in ``[0, size)``."""
        raise NotImplementedError

    def union_sorted(self, arrays: Sequence[np.ndarray], size: int) -> np.ndarray:
        """Canonical union of id arrays over ``[0, size)``; the inputs may
        be unsorted and carry duplicates."""
        raise NotImplementedError

    def build_lane_bits(
        self, lanes: Sequence[np.ndarray], size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Union of the lane frontiers plus its packed lane bits.

        ``lanes[k]`` holds lane ``k``'s frontier ids in ``[0, size)``, in
        any order, duplicates tolerated. One vertex-indexed pass returns
        ``(vertices, lane_bits)``: the canonical union and a
        ``(vertices.size, ceil(len(lanes)/64))`` uint64 array whose bit
        ``k`` of a row is set iff lane ``k``'s frontier holds the row's vertex.
        """
        raise NotImplementedError

    def lane_mask(self, lane_bits: np.ndarray, lane: int) -> np.ndarray:
        """Boolean mask over the bit rows: which rows have bit ``lane``."""
        raise NotImplementedError

    def segment_reduce(
        self, op, values: np.ndarray, segment_ids: np.ndarray,
        num_segments: int, ids_sorted: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-destination Combine: ``(touched, combined)`` - the canonical
        ids present and ``op`` over each one's ``values``. ``ids_sorted``
        promises non-decreasing ``segment_ids`` (nothing left to sort)."""
        raise NotImplementedError


def _flag_pass(arrays: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Canonical union of id arrays over ``[0, size)``: scatter a flag per
    id, read the set back in vertex order. Nothing sorts or hashes."""
    seen = np.zeros(size, dtype=bool)
    for array in arrays:
        seen[np.asarray(array, dtype=np.int64)] = True
    return np.flatnonzero(seen)


class NumpyKernelBackend(KernelBackend):
    """Vectorized primitives (the shipped default)."""

    name = "numpy"

    @staticmethod
    def walk_edges(csr, worklist):
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
        mask = np.zeros(size, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        return mask

    def rows_in_sorted(self, universe, members):
        return np.searchsorted(universe, members).astype(np.int64, copy=False)

    def sorted_unique(self, values, size):
        return _flag_pass([values], size)

    def union_sorted(self, arrays, size):
        return _flag_pass(arrays, size)

    def build_lane_bits(self, lanes, size):
        num_words = -(-len(lanes) // _LANES_PER_WORD)
        words = np.zeros((size, num_words), dtype=np.uint64)
        for lane, frontier in enumerate(lanes):
            if frontier.size:
                word, bit = divmod(lane, _LANES_PER_WORD)
                words[frontier, word] |= np.uint64(1 << bit)
        vertices = np.flatnonzero(words.any(axis=1))
        return vertices, words[vertices]

    def lane_mask(self, lane_bits, lane):
        word, bit = divmod(lane, _LANES_PER_WORD)
        return (lane_bits[:, word] >> np.uint64(bit)) & np.uint64(1) == 1

    def segment_reduce(self, op, values, segment_ids, num_segments, ids_sorted=False):
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


class PythonKernelBackend(KernelBackend):
    """Loop-based reference primitives (bit-identical, unvectorized)."""

    name = "python"

    def walk_edges(self, csr, worklist):
        offsets = csr.offsets
        slots: List[int] = []
        edges: List[int] = []
        for i in range(len(worklist)):
            v = int(worklist[i])
            start = int(offsets[v])
            stop = int(offsets[v + 1])
            for e in range(start, stop):
                slots.append(i)
                edges.append(e)
        total = len(edges)
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, 0
        return (
            np.asarray(slots, dtype=np.int64),
            np.asarray(edges, dtype=np.int64),
            total,
        )

    def walk_kept(self, csr, worklist, source_mask):
        kept: List[Tuple[int, int, int]] = []  # (src, dst, edge index)
        walked = 0
        for v in worklist.tolist():
            start, stop = int(csr.offsets[v]), int(csr.offsets[v + 1])
            walked += stop - start
            for e in range(start, stop):
                u = int(csr.targets[e])
                if source_mask[u]:
                    kept.append((u, v, e))
        src, dst, edge_idx = np.array(kept, dtype=np.int64).reshape(-1, 3).T
        return src, dst, edge_idx, walked

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
        num_words = -(-len(lanes) // _LANES_PER_WORD)
        words = [[0] * num_words for _ in range(size)]
        for lane, frontier in enumerate(lanes):
            word, bit = divmod(lane, _LANES_PER_WORD)
            for v in frontier:
                words[int(v)][word] |= 1 << bit
        vertices = [v for v in range(size) if any(words[v])]
        lane_bits = np.array([words[v] for v in vertices], dtype=np.uint64)
        lane_bits = lane_bits.reshape(len(vertices), num_words)
        return np.asarray(vertices, dtype=np.int64), lane_bits

    def lane_mask(self, lane_bits, lane):
        word, bit = divmod(lane, _LANES_PER_WORD)
        mask = np.zeros(lane_bits.shape[0], dtype=bool)
        for row in range(lane_bits.shape[0]):
            mask[row] = bool((int(lane_bits[row, word]) >> bit) & 1)
        return mask

    def segment_reduce(self, op, values, segment_ids, num_segments, ids_sorted=False):
        kind, identity = op.value, op.identity  # "min" / "max" / "sum"
        out: Dict[int, float] = {}
        for i in range(len(values)):
            seg = int(segment_ids[i])
            v = float(values[i])
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


_BACKENDS: Dict[str, KernelBackend] = {
    "numpy": NumpyKernelBackend(),
    "python": PythonKernelBackend(),
}


def get_kernel_backend(name: str) -> KernelBackend:
    """The shared backend instance for ``name`` (stateless singletons)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {BACKEND_NAMES}"
        ) from None
