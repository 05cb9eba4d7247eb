"""Contiguous vertex-range partitioning of a CSR graph.

A :class:`ShardPlan` cuts the vertex id space ``[0, N)`` into
``num_shards`` contiguous ranges, balanced by *out-edge* count: shard
boundaries are placed on the cumulative out-degree curve, so a skewed
graph gets narrow ranges around its hubs and wide ranges over its
low-degree tail. Contiguity is what makes sharded execution cheap to
keep bit-identical to a single device:

* a sorted global worklist splits into per-shard slices with two binary
  searches per shard (no scatter, no reordering);
* concatenating per-shard update streams in shard order preserves the
  global source-ascending order the ACC Combine contract relies on;
* ownership lookups are a single ``searchsorted`` against the range
  stops.

Every edge is classified exactly once: *local* when its source and
destination fall in the same range, *boundary* otherwise. Boundary
edges are the ones whose updates cross devices at the per-superstep
merge step; their count is the plan's static estimate of exchange
traffic.

The plan also pre-computes per-shard *modeled* (paper-scale) vertex and
edge counts by rounding the modeled totals onto the same cut points, so
per-shard device allocations reproduce the Table-4 memory-feasibility
behaviour at 1/num_shards scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShardPlan:
    """Vertex-range shards of one graph, built by :meth:`build`."""

    num_shards: int
    num_vertices: int
    #: ``starts[t]:stops[t]`` is shard t's owned vertex range; the ranges
    #: tile ``[0, num_vertices)`` exactly (``stops[t] == starts[t + 1]``).
    starts: np.ndarray
    stops: np.ndarray
    #: Out-edges owned by each shard (edges whose *source* lies in the
    #: range) - the denominator of the shard's local direction selector.
    out_edge_counts: np.ndarray
    #: Edges fully inside one range vs. edges crossing ranges, attributed
    #: to the source's shard. ``local + boundary == out_edge_counts``.
    local_edge_counts: np.ndarray
    boundary_edge_counts: np.ndarray
    #: Paper-scale vertex/edge counts per shard (prefix-rounded so they
    #: sum exactly to the graph's modeled totals).
    modeled_vertices: np.ndarray
    modeled_edges: np.ndarray

    @classmethod
    def build(cls, graph, num_shards: int) -> "ShardPlan":
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        n = int(graph.num_vertices)
        degrees = np.asarray(graph.out_degrees(), dtype=np.int64)
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=cum[1:])
        total_edges = int(cum[-1])

        if total_edges > 0:
            # Cut the cumulative out-degree curve at the even edge
            # quantiles. A vertex's edges are never split across shards,
            # so each shard overshoots its quota by at most one vertex's
            # degree (the balance bound the property tests pin).
            targets = (
                np.arange(1, num_shards, dtype=np.float64)
                * total_edges / num_shards
            )
            cuts = np.searchsorted(cum, targets, side="left")
        else:
            # Degenerate edge-free graph: fall back to even vertex ranges.
            cuts = np.floor(
                np.arange(1, num_shards, dtype=np.float64) * n / num_shards
            ).astype(np.int64)
        cuts = np.clip(cuts, 0, n)
        # Monotone cut sequence even when quantiles collapse (num_shards
        # larger than the vertex count leaves trailing empty ranges).
        cuts = np.maximum.accumulate(cuts)
        starts = np.concatenate(([0], cuts)).astype(np.int64)
        stops = np.concatenate((cuts, [n])).astype(np.int64)

        out_edge_counts = cum[stops] - cum[starts]

        # Classify every edge exactly once, attributed to its source shard.
        local = np.zeros(num_shards, dtype=np.int64)
        if total_edges > 0:
            src_owner = np.repeat(
                np.arange(num_shards, dtype=np.int64),
                np.asarray(stops - starts, dtype=np.int64),
            )
            edge_src_owner = np.repeat(src_owner, degrees)
            edge_dst_owner = np.searchsorted(
                stops, graph.out_csr.targets, side="right"
            )
            np.add.at(
                local,
                edge_src_owner[edge_src_owner == edge_dst_owner],
                1,
            )
        boundary = out_edge_counts - local

        modeled_n = int(graph.modeled_num_vertices)
        modeled_e = int(graph.modeled_num_edges)
        mv = cls._prefix_round(starts, stops, n, modeled_n)
        if total_edges > 0:
            me = cls._prefix_round(cum[starts], cum[stops], total_edges, modeled_e)
        else:
            me = cls._prefix_round(starts, stops, n, modeled_e)

        return cls(
            num_shards=num_shards,
            num_vertices=n,
            starts=starts,
            stops=stops,
            out_edge_counts=np.asarray(out_edge_counts, dtype=np.int64),
            local_edge_counts=local,
            boundary_edge_counts=np.asarray(boundary, dtype=np.int64),
            modeled_vertices=mv,
            modeled_edges=me,
        )

    @staticmethod
    def _prefix_round(
        lo: np.ndarray, hi: np.ndarray, actual_total: int, modeled_total: int
    ) -> np.ndarray:
        """Scale per-shard ``[lo, hi)`` spans to the modeled total.

        Rounding the *prefix* (not each span) keeps the per-shard counts
        non-negative and summing exactly to ``modeled_total``.
        """
        if actual_total <= 0:
            out = np.zeros(len(lo), dtype=np.int64)
            if len(out):
                out[-1] = modeled_total
            return out
        scale = modeled_total / actual_total
        pre_lo = np.floor(np.asarray(lo, dtype=np.float64) * scale)
        pre_hi = np.floor(np.asarray(hi, dtype=np.float64) * scale)
        return (pre_hi - pre_lo).astype(np.int64)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Shard index owning each vertex id."""
        return np.searchsorted(self.stops, vertices, side="right")
