"""Delta overlay over the immutable CSR graph.

:class:`repro.graph.csr.CSRGraph` is read-only shared state by contract -
every engine, shard and cache in the repository relies on that. Dynamic
workloads are therefore layered *on top*: a :class:`DynamicGraph` holds an
immutable base CSR plus the set of stored edges updated since (the
overlay), and every batch that changes the edge set produces a fresh
``CSRGraph`` snapshot. Queries always run against a snapshot, so
everything downstream - push/pull direction selection, kernel backends,
``num_shards > 1`` sharding - composes unchanged: a snapshot is just
another immutable CSR graph.

A snapshot is *spliced* from the previous one, so an update costs what it
changes: rows the batch does not touch are slices of the previous arrays,
joined by one concatenation; each touched row is rebuilt from its old row
plus the batch's changes, sorted by target; the offsets are the old
degrees plus the per-row delta, summed. Nothing sorts the whole edge set.

Two consequences the rest of the subsystem depends on:

* **Snapshot equivalence.** A snapshot is bit-identical (offsets, targets,
  weights, dtypes) to ``CSRGraph.from_edges`` on the merged logical edge
  list: every row stays sorted by target with one entry per stored edge,
  which is the order ``from_edges`` produces, so "dynamic" and "rebuilt
  from scratch" graphs are indistinguishable to the engine.
* **Transpose invalidation.** The in-CSR transpose of a directed graph is
  built lazily and cached *per CSRGraph object*. Because every change
  produces a new snapshot object (and the periodic rebuild promotes a
  freshly-constructed base), a stale transpose can never be observed: the
  cache is invalidated by construction, which
  ``tests/test_dyn_overlay.py`` pins.

The vertex set is fixed at construction; updates add and remove edges
only. Undirected graphs store each logical edge in both directions
(matching ``from_edges`` symmetrization), and the overlay applies every
update to both stored directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.csr import (
    CSRGraph, CSRView, GraphFormatError, INDEX_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE,
)

#: A batch's net stored-edge changes: (src, dst) -> new weight, or None.
Changes = Dict[Tuple[int, int], Optional[float]]


@dataclass(frozen=True)
class EdgeUpdateBatch:
    """One batch of logical edge updates.

    ``inserts`` is an (I, 2) array of ``(src, dst)`` pairs with optional
    ``insert_weights`` (default weight 1.0 - deterministic, like the rest
    of the repository); ``deletes`` is a (D, 2) array of pairs. Within a
    batch, deletes are applied before inserts, so a pair appearing in both
    ends up present. Inserting an existing edge overwrites its weight
    (recorded as delete+insert in the receipt when the weight changed, so
    incremental repair sees weight increases as what they are: a removal
    of the old edge).
    """

    inserts: np.ndarray
    insert_weights: Optional[np.ndarray] = None
    deletes: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))

    @staticmethod
    def of(inserts=None, insert_weights=None, deletes=None) -> "EdgeUpdateBatch":
        """Normalizing constructor accepting lists or arrays."""
        ins = np.asarray(
            inserts if inserts is not None else np.zeros((0, 2)), dtype=np.int64
        ).reshape(-1, 2)
        dels = np.asarray(
            deletes if deletes is not None else np.zeros((0, 2)), dtype=np.int64
        ).reshape(-1, 2)
        w = None
        if insert_weights is not None:
            w = np.asarray(insert_weights, dtype=WEIGHT_DTYPE).reshape(-1)
        return EdgeUpdateBatch(inserts=ins, insert_weights=w, deletes=dels)


@dataclass(frozen=True)
class UpdateReceipt:
    """What one applied batch changed, in stored-direction terms.

    ``old_graph`` / ``new_graph`` are the materialized snapshots before and
    after the batch; the edge arrays list *stored* directed edges (an
    undirected logical edge contributes both directions), which is exactly
    the granularity incremental repair reasons about. ``delete_edges``
    carries the weights the removed edges had; a weight change of an
    existing edge appears as that edge in both lists.
    """

    version: int
    old_graph: CSRGraph
    new_graph: CSRGraph
    insert_edges: np.ndarray
    insert_weights: np.ndarray
    delete_edges: np.ndarray
    delete_weights: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.new_graph.num_vertices


class DynamicGraph:
    """An immutable base CSR plus pending edge updates.

    ``apply`` splices a batch into the current snapshot (see the module
    docstring), records the stored edges it changed in the overlay and
    bumps ``version``; ``snapshot`` returns the current edge set as an
    immutable :class:`CSRGraph`. When the overlay grows past
    ``rebuild_threshold`` distinct stored edges, ``apply`` rebuilds: the
    current snapshot's arrays become the new base, wrapped in a fresh
    ``CSRGraph`` - no sort - so a directed base has no cached in-CSR
    transpose (it is re-derived lazily on the next pull access).

    Receipts of the last ``keep_receipts`` batches are retained so the
    result cache can repair stale entries forward through the exact
    sequence of updates (:meth:`receipts_since`).
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        rebuild_threshold: int = 4096,
        keep_receipts: int = 64,
    ):
        if rebuild_threshold < 1:
            raise ValueError("rebuild_threshold must be >= 1")
        self._base = base
        self.rebuild_threshold = rebuild_threshold
        self.keep_receipts = keep_receipts
        #: Stored (src, dst) edges inserted, re-weighted or deleted since
        #: the base.
        self._overlay: Set[Tuple[int, int]] = set()
        self._snapshot = base
        self._receipts: List[UpdateReceipt] = []
        self._version = 0
        self.rebuilds = 0
        self.applied_inserts = 0
        self.applied_deletes = 0
        self.noop_deletes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone update-batch counter (0 for the pristine base)."""
        return self._version

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def directed(self) -> bool:
        return self._base.directed

    @property
    def pending_edges(self) -> int:
        """Distinct stored edges currently overridden by the overlay."""
        return len(self._overlay)

    def stats(self) -> dict:
        return {
            "version": self._version,
            "pending_edges": self.pending_edges,
            "rebuilds": self.rebuilds,
            "applied_inserts": self.applied_inserts,
            "applied_deletes": self.applied_deletes,
            "noop_deletes": self.noop_deletes,
        }

    def receipts_since(self, version: int) -> Optional[List[UpdateReceipt]]:
        """Receipts taking ``version`` to the current version, oldest first.

        Returns ``None`` when the chain is no longer fully retained (the
        caller must fall back to a from-scratch run - the cache's exact
        fallback path).
        """
        if version > self._version:
            return None
        needed = [r for r in self._receipts if r.version > version]
        if len(needed) != self._version - version:
            return None
        return needed

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, batch: EdgeUpdateBatch) -> UpdateReceipt:
        """Apply one update batch; returns the receipt of what changed."""
        n = self.num_vertices
        ins = np.asarray(batch.inserts, dtype=np.int64).reshape(-1, 2)
        dels = np.asarray(batch.deletes, dtype=np.int64).reshape(-1, 2)
        if batch.insert_weights is None:
            ins_w = np.ones(ins.shape[0], dtype=WEIGHT_DTYPE)
        else:
            ins_w = np.asarray(batch.insert_weights, dtype=WEIGHT_DTYPE).reshape(-1)
        if ins_w.shape[0] != ins.shape[0]:
            raise GraphFormatError("insert_weights length must equal insert count")
        for pairs in (ins, dels):
            if pairs.size:
                if pairs.min() < 0 or pairs.max() >= n:
                    raise GraphFormatError("update vertex id out of range")
                if np.any(pairs[:, 0] == pairs[:, 1]):
                    raise GraphFormatError("self-loop updates are not supported")
        if ins_w.size and np.any(ins_w < 0):
            raise GraphFormatError("edge weights must be non-negative")

        old_graph = self.snapshot()
        changes: Changes = {}

        # Deletes first (see EdgeUpdateBatch): record only edges that were
        # actually present, with the weights they had.
        del_records: List[Tuple[int, int, float]] = []
        seen_del = set()
        for u, v in self._stored_pairs(dels):
            if (u, v) in seen_del:
                continue
            seen_del.add((u, v))
            current = self._edge_weight(changes, u, v)
            if current is None:
                self.noop_deletes += 1
                continue
            del_records.append((u, v, current))
            changes[(u, v)] = None
            self.applied_deletes += 1

        ins_records: List[Tuple[int, int, float]] = []
        for (u, v), w in self._stored_pairs_weighted(ins, ins_w):
            current = self._edge_weight(changes, u, v)
            if current is not None and current != w:
                # Weight change = delete old + insert new, so repair sees
                # a possible value *increase* on this edge.
                del_records.append((u, v, current))
                self.applied_deletes += 1
            ins_records.append((u, v, w))
            changes[(u, v)] = w
            self.applied_inserts += 1

        self._version += 1
        if changes:
            self._snapshot = _splice(old_graph, changes)
            self._overlay.update(changes)
        if len(self._overlay) >= self.rebuild_threshold:
            self.rebuild()
        new_graph = self.snapshot()

        receipt = UpdateReceipt(
            version=self._version,
            old_graph=old_graph,
            new_graph=new_graph,
            insert_edges=_pairs_array([(u, v) for u, v, _ in ins_records]),
            insert_weights=np.asarray(
                [w for _, _, w in ins_records], dtype=WEIGHT_DTYPE
            ),
            delete_edges=_pairs_array([(u, v) for u, v, _ in del_records]),
            delete_weights=np.asarray(
                [w for _, _, w in del_records], dtype=WEIGHT_DTYPE
            ),
        )
        self._receipts.append(receipt)
        if len(self._receipts) > self.keep_receipts:
            del self._receipts[: len(self._receipts) - self.keep_receipts]
        return receipt

    def snapshot(self) -> CSRGraph:
        """The current edge set as an immutable CSR graph."""
        return self._snapshot

    def rebuild(self) -> CSRGraph:
        """Fold the overlay into a new base CSR.

        The promoted base holds the current snapshot's arrays (nothing is
        re-sorted) in a new ``CSRGraph`` object whose in-CSR transpose
        (directed graphs) is unset and will be re-derived lazily - the
        cached transpose of any earlier snapshot is left behind with that
        snapshot.
        """
        if not self._overlay:
            return self._base
        self._base = self._snapshot = _with_view(self._snapshot, self._snapshot.out_csr)
        self._overlay.clear()
        self.rebuilds += 1
        return self._base

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stored_pairs(self, pairs: np.ndarray):
        """Logical pairs expanded to stored directions, in batch order."""
        for u, v in pairs:
            u, v = int(u), int(v)
            yield u, v
            if not self.directed:
                yield v, u

    def _stored_pairs_weighted(self, pairs: np.ndarray, weights: np.ndarray):
        for (u, v), w in zip(pairs, weights):
            u, v, w = int(u), int(v), float(w)
            yield (u, v), w
            if not self.directed:
                yield (v, u), w

    def _edge_weight(self, changes: Changes, u: int, v: int) -> Optional[float]:
        """Weight of stored edge (u, v) once ``changes`` apply, or None."""
        if (u, v) in changes:
            return changes[(u, v)]
        out = self._snapshot.out_csr
        lo = int(out.offsets[u])
        hi = int(out.offsets[u + 1])
        row = out.targets[lo:hi]
        i = int(np.searchsorted(row, v))
        if i < row.shape[0] and int(row[i]) == v:
            return float(out.weights[lo + i])
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(v{self._version}, base={self._base!r}, "
            f"pending={self.pending_edges})"
        )


def _with_view(graph: CSRGraph, view: CSRView) -> CSRGraph:
    """A new ``CSRGraph`` like ``graph`` over ``view``, transpose unbuilt."""
    return CSRGraph(out_csr=view, in_csr=None if graph.directed else view,
                    directed=graph.directed, name=graph.name, meta=dict(graph.meta))


def _splice(graph: CSRGraph, changes: Changes) -> CSRGraph:
    """``graph`` with ``changes`` applied, at the cost of the rows they touch.

    Untouched rows are slices of ``graph``'s arrays. A touched row keeps
    the old entries no change names, gains every change with a weight and
    is sorted by target (stably, so a row's duplicate edges keep their
    order, as ``_build_csr``'s lexsort keeps it).
    """
    out, n = graph.out_csr, graph.num_vertices
    pairs = np.array(list(changes), dtype=np.int64)
    present = np.array([w is not None for w in changes.values()])
    keys = pairs[:, 0] * n + pairs[:, 1]
    rows = np.unique(pairs[:, 0])
    slots, degrees = out.row_slots(rows)
    old_keys = np.repeat(rows * n, degrees) + out.targets[slots]
    keep = ~np.isin(old_keys, keys)
    new_weights = np.array([w for w in changes.values() if w is not None], WEIGHT_DTYPE)
    row_keys = np.concatenate([old_keys[keep], keys[present]])
    row_weights = np.concatenate([out.weights[slots][keep], new_weights])
    order = np.argsort(row_keys, kind="stable")
    row_keys = row_keys[order]
    counts = np.bincount(np.searchsorted(rows, row_keys // n), minlength=rows.size)
    starts = out.offsets[rows].astype(np.int64)
    cuts = np.stack([starts, starts + degrees], axis=1).reshape(-1)
    bounds = np.cumsum(counts)[:-1]

    def join(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        parts = np.split(old, cuts)  # untouched, touched, untouched, ...
        parts[1::2] = np.split(new, bounds)
        return np.concatenate(parts)

    row_degrees = np.diff(out.offsets)
    row_degrees[rows] = counts
    offsets = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_degrees, out=offsets[1:])
    return _with_view(graph, CSRView(
        offsets=offsets,
        targets=join(out.targets, (row_keys % n).astype(VERTEX_DTYPE)),
        weights=join(out.weights, row_weights[order]),
    ))


def _pairs_array(pairs: List[Tuple[int, int]]) -> np.ndarray:
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)
