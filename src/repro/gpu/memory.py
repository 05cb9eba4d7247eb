"""Memory-access modelling helpers.

The systems in this repository execute functionally with NumPy, then describe
what a CUDA kernel would have read and written so the device cost model can
charge for it. These helpers centralize the translation from "algorithmic
events" (expand these frontier vertices' neighbour lists, scatter updates to
these destinations, scan this metadata array) into the two quantities the
cost model cares about: coalesced bytes and scattered 32-byte transactions.

Why this matters for reproduction: the ballot filter's advantage is that its
worklist is *sorted*, so the next iteration's metadata reads coalesce; the
batch filter's worklist is unsorted and redundant, so its reads scatter.
:func:`worklist_sortedness` quantifies that difference from the actual
worklist contents produced by the functional execution.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

#: Bytes per memory transaction on the simulated devices (L2 sector size).
TRANSACTION_BYTES = 32

#: Sizes of the data types the systems move around.
VERTEX_ID_BYTES = 4
OFFSET_BYTES = 8
WEIGHT_BYTES = 4
METADATA_BYTES = 4


def sequential_bytes(num_elements: int, element_bytes: int) -> float:
    """Traffic for a fully coalesced sequential read/write."""
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    return float(num_elements * element_bytes)


def scattered_accesses(num_elements: int) -> float:
    """Transaction count for fully random single-element accesses."""
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    return float(num_elements)


def adjacency_read_bytes(total_edges: int, *, weighted: bool = True) -> float:
    """Coalesced bytes to read neighbour id (+ weight) lists from CSR.

    Neighbour lists of a vertex are contiguous, so expanding a frontier reads
    them coalesced regardless of worklist order; only the *per-vertex offsets*
    and destination metadata scatter.
    """
    per_edge = VERTEX_ID_BYTES + (WEIGHT_BYTES if weighted else 0)
    return sequential_bytes(total_edges, per_edge)


def offset_read_transactions(num_vertices: int, sortedness: float) -> float:
    """Transactions to read CSR offsets for a worklist.

    A perfectly sorted worklist reads offsets almost sequentially (one
    transaction per 8 offsets of 8 bytes each); a random worklist needs one
    transaction per vertex.
    """
    sortedness = min(1.0, max(0.0, float(sortedness)))
    sequential_txn = num_vertices * OFFSET_BYTES / TRANSACTION_BYTES
    random_txn = float(num_vertices)
    return sortedness * sequential_txn + (1.0 - sortedness) * random_txn


def metadata_scatter_transactions(num_accesses: int, locality: float = 0.0) -> float:
    """Transactions for reading/writing per-destination metadata.

    Destinations of expanded edges are essentially random in a skewed graph,
    so the default is one transaction each; ``locality`` in [0, 1] discounts
    for destination reuse within a warp (e.g. pull-mode accumulation where
    one warp owns one destination).
    """
    locality = min(1.0, max(0.0, float(locality)))
    return scattered_accesses(num_accesses) * (1.0 - locality)


def metadata_scan_bytes(num_vertices: int) -> float:
    """Coalesced bytes for a full metadata-array scan (the ballot filter)."""
    # The ballot filter reads both current and previous metadata values.
    return sequential_bytes(num_vertices, 2 * METADATA_BYTES)


def worklist_sortedness(worklist: np.ndarray) -> float:
    """Fraction of adjacent worklist pairs that are non-decreasing.

    1.0 for a sorted worklist (ballot filter output), ~0.5 for a random one
    (batch/online filter output). Used to scale offset-read coalescing for
    the *next* iteration.
    """
    if worklist.size <= 1:
        return 1.0
    arr = np.asarray(worklist)
    nondecreasing = np.count_nonzero(arr[1:] >= arr[:-1])
    return float(nondecreasing / (arr.size - 1))


class FrontierTraffic(NamedTuple):
    """Memory traffic of expanding one frontier, split by coalescing."""

    coalesced_bytes: float
    scattered_transactions: float

    def __add__(self, other: "FrontierTraffic") -> "FrontierTraffic":
        return FrontierTraffic(
            self.coalesced_bytes + other.coalesced_bytes,
            self.scattered_transactions + other.scattered_transactions,
        )


def frontier_expansion_traffic(
    num_active_vertices: int,
    total_edges_expanded: int,
    *,
    sortedness: float = 1.0,
    weighted: bool = True,
    destination_locality: float = 0.0,
) -> FrontierTraffic:
    """Traffic of a push-style expansion of ``num_active_vertices``.

    Reads the worklist (coalesced), the CSR offsets (coalescing depends on
    worklist sortedness), the neighbour/weight arrays (coalesced), and the
    destination metadata (scattered).
    """
    coalesced = (
        sequential_bytes(num_active_vertices, VERTEX_ID_BYTES)
        + adjacency_read_bytes(total_edges_expanded, weighted=weighted)
    )
    scattered = (
        offset_read_transactions(num_active_vertices, sortedness)
        + metadata_scatter_transactions(total_edges_expanded, destination_locality)
    )
    return FrontierTraffic(coalesced, scattered)


def pull_expansion_traffic(
    num_destination_vertices: int,
    total_edges_expanded: int,
    *,
    weighted: bool = True,
    active_edges: Optional[int] = None,
) -> FrontierTraffic:
    """Traffic of a pull-style pass over destination vertices.

    Pull mode walks destinations sequentially (their in-neighbour lists are
    contiguous) but reads the *source* metadata of each in-edge, which
    scatters. The gather consults the frontier bitmap per in-edge first and
    skips the expensive scattered source read when the source is inactive,
    so only ``active_edges`` (in-edges whose source is in the frontier;
    defaults to all of them) pay the scattered transaction.
    """
    if active_edges is None:
        active_edges = total_edges_expanded
    coalesced = (
        sequential_bytes(num_destination_vertices, OFFSET_BYTES + METADATA_BYTES)
        + adjacency_read_bytes(total_edges_expanded, weighted=weighted)
    )
    scattered = metadata_scatter_transactions(active_edges)
    return FrontierTraffic(coalesced, scattered)
