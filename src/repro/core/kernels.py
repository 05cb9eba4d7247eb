"""Pluggable execution backends for the shared CSR-walk kernel primitives.

The engine's hot loops — edge expansion over CSR rows, frontier-membership
masks, lane-bitmask construction/extraction for batched runs, and the
per-destination Combine reduction — are expressed against a small backend
interface so the same superstep logic can run two ways:

* :class:`NumpyKernelBackend` (``kernel_backend="numpy"``, the default) -
  fully vectorized: ``np.repeat``/``np.cumsum`` edge expansion, boolean
  scatter membership, packed ``uint64`` lane-bit rows built with bulk OR,
  and ``np.bincount`` / sort + ``ufunc.reduceat`` segment reductions.
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
* ``segment_reduce`` for SUM accumulates in *input order* (``np.bincount``
  adds weights sequentially, exactly like the Python ``out[s] += v``
  loop); MIN/MAX are order-independent for non-NaN floats.  The engine
  filters NaN updates before Combine, so NaN never reaches a reduction.
* Every empty result uses ``dtype=np.int64`` so downstream concatenation
  and indexing behave identically.
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

    def sorted_unique(self, values: np.ndarray) -> np.ndarray:
        """Sorted duplicate-free copy of ``values`` (int64)."""
        raise NotImplementedError

    def union_sorted(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Sorted duplicate-free union of int64 arrays (int64)."""
        raise NotImplementedError

    def build_lane_bits(
        self,
        vertices: np.ndarray,
        lanes: Sequence[np.ndarray],
        num_lanes: int,
    ) -> np.ndarray:
        """Packed ``(vertices.size, ceil(num_lanes/64))`` uint64 lane bits.

        ``lanes[k]`` is lane ``k``'s sorted unique frontier, a subset of
        ``vertices``; bit ``k`` of a row is set iff the row's vertex is in
        lane ``k``'s frontier.
        """
        raise NotImplementedError

    def lane_mask(self, lane_bits: np.ndarray, lane: int) -> np.ndarray:
        """Boolean mask over the bit rows: which rows have bit ``lane``."""
        raise NotImplementedError

    def segment_reduce(
        self,
        op,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Per-destination Combine: ``op`` over ``values`` grouped by id."""
        raise NotImplementedError


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

    def membership_mask(self, vertices, size):
        mask = np.zeros(size, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        return mask

    def rows_in_sorted(self, universe, members):
        return np.searchsorted(universe, members).astype(np.int64, copy=False)

    def sorted_unique(self, values):
        return np.unique(np.asarray(values, dtype=np.int64))

    def union_sorted(self, arrays):
        non_empty = [a for a in arrays if a.size]
        if not non_empty:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(non_empty))

    def build_lane_bits(self, vertices, lanes, num_lanes):
        num_words = -(-num_lanes // _LANES_PER_WORD)
        lane_bits = np.zeros((vertices.size, num_words), dtype=np.uint64)
        for lane, frontier in enumerate(lanes):
            if frontier.size == 0:
                continue
            rows = self.rows_in_sorted(vertices, frontier)
            word, bit = divmod(lane, _LANES_PER_WORD)
            lane_bits[rows, word] |= np.uint64(1 << bit)
        return lane_bits

    def lane_mask(self, lane_bits, lane):
        word, bit = divmod(lane, _LANES_PER_WORD)
        return (lane_bits[:, word] >> np.uint64(bit)) & np.uint64(1) == 1

    def segment_reduce(self, op, values, segment_ids, num_segments):
        # The numpy path lives on CombineOp itself (it predates the backend
        # split); delegating keeps one copy of the vectorized reduction.
        return op.segment_reduce(values, segment_ids, num_segments)


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

    def membership_mask(self, vertices, size):
        mask = np.zeros(size, dtype=bool)
        for v in vertices:
            mask[int(v)] = True
        return mask

    def rows_in_sorted(self, universe, members):
        rows = [bisect_left(universe, int(m)) for m in members]
        return np.asarray(rows, dtype=np.int64)

    def sorted_unique(self, values):
        unique = sorted({int(v) for v in np.asarray(values).ravel()})
        return np.asarray(unique, dtype=np.int64)

    def union_sorted(self, arrays):
        seen = set()
        for arr in arrays:
            for v in arr:
                seen.add(int(v))
        return np.asarray(sorted(seen), dtype=np.int64)

    def build_lane_bits(self, vertices, lanes, num_lanes):
        num_words = -(-num_lanes // _LANES_PER_WORD)
        lane_bits = np.zeros((len(vertices), num_words), dtype=np.uint64)
        position: Dict[int, int] = {
            int(v): row for row, v in enumerate(vertices)
        }
        for lane, frontier in enumerate(lanes):
            word, bit = divmod(lane, _LANES_PER_WORD)
            flag = np.uint64(1 << bit)
            for v in frontier:
                row = position[int(v)]
                lane_bits[row, word] |= flag
        return lane_bits

    def lane_mask(self, lane_bits, lane):
        word, bit = divmod(lane, _LANES_PER_WORD)
        mask = np.zeros(lane_bits.shape[0], dtype=bool)
        for row in range(lane_bits.shape[0]):
            mask[row] = bool((int(lane_bits[row, word]) >> bit) & 1)
        return mask

    def segment_reduce(self, op, values, segment_ids, num_segments):
        kind = op.value  # "min" / "max" / "sum" - avoids importing acc
        out = np.full(num_segments, op.identity, dtype=np.float64)
        for i in range(len(values)):
            seg = int(segment_ids[i])
            v = float(values[i])
            if kind == "sum":
                out[seg] = out[seg] + v
            elif kind == "min":
                if v < out[seg]:
                    out[seg] = v
            else:  # max
                if v > out[seg]:
                    out[seg] = v
        return out


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
