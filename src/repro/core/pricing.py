"""Pricing: the simulated device time of an executed run (Sections 4-5).

The paper separates programming from processing: ACC fixes what a run
computes, JIT task management and kernel fusion what it costs. The
superstep driver (:mod:`repro.core.superstep`) executes a run and leaves
one :class:`~repro.core.metrics.IterationRecord` per work unit holding
every scalar the cost model reads; :func:`price` turns the records into
simulated time for one device model and one fusion strategy. What a run
executes depends on neither - the device decides memory feasibility, and
that is priced too: every transient buffer a record carries must fit
beside the streams' static footprint - so one execution prices under any
(device, fusion) pair, an OOM included, exactly as a fresh run under that
pair does (``tests/test_price_equivalence.py``).
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import registry as extra_keys
from repro.core.direction import DEFAULT_TRAFFIC_MODEL, Direction
from repro.core.frontier import (
    THREADS_PER_LARGE_TASK,
    THREADS_PER_MEDIUM_TASK,
    THREADS_PER_SMALL_TASK,
)
from repro.core.fusion import FusionPlan, FusionStrategy
from repro.core.metrics import BatchRunResult, IterationRecord
from repro.gpu import memory as gmem
from repro.gpu.barrier import SoftwareGlobalBarrier
from repro.gpu.device import DeviceOutOfMemory, GPUDevice, GPUSpec, reserve
from repro.gpu.kernel import Kernel, KernelLaunch, WorkEstimate
from repro.gpu.warp import reduction_primitive_ops

#: The three compute stages in kernel order, with the threads one task of
#: each takes (Figure 7).
_COMPUTE_STAGES = (
    ("thread", THREADS_PER_SMALL_TASK),
    ("warp", THREADS_PER_MEDIUM_TASK),
    ("cta", THREADS_PER_LARGE_TASK),
)

_DIRECTIONS = {direction.value: direction for direction in Direction}

#: The per-superstep exchange kernel of a sharded run: each shard scatters
#: the boundary updates it received into its local combine buffers.
BOUNDARY_MERGE_KERNEL = Kernel("shard_boundary_merge", 24)


def price(
    records: Sequence[IterationRecord],
    spec: GPUSpec,
    fusion: FusionStrategy,
    static: Sequence[int],
    devices: Optional[List[GPUDevice]] = None,
) -> Tuple[float, List[IterationRecord], int, Dict[str, float]]:
    """Price an executed run's ``records`` on ``spec`` under ``fusion``.

    Returns ``(elapsed_us, priced, kernel_launches, breakdown)``: the run's
    simulated time, a copy of every record with its four ``*_us`` fields
    priced, and the launch count and per-component time breakdown of the
    devices charged - one per stream, ``devices`` (an engine's own) or a
    fresh ``GPUDevice(spec)`` each. Units are charged in the order they
    ran. One device runs its units back to back; sharded devices run
    concurrently, so a superstep costs its slowest shard, boundary merge
    included.

    ``static`` holds each stream's resident bytes on ``spec``. A unit's
    transient buffers (its active edge list, then at a sharded superstep's
    end each shard's receive buffer) must fit beside them, in run order;
    the first that does not raises ``DeviceOutOfMemory``.
    """
    sharded = len(static) > 1
    if devices is None:
        devices = [GPUDevice(spec) for _ in static]
    plans = [FusionPlan(fusion) for _ in devices]
    # The fused kernel whose residency bounds the software global barrier.
    fused = {FusionStrategy.ALL: "fused_all", FusionStrategy.PUSH_PULL: "fused_push"}
    barriers = [
        SoftwareGlobalBarrier(device.spec, plan.kernel(fused[fusion]))
        if fusion in fused else None
        for device, plan in zip(devices, plans)
    ]
    elapsed_us = 0.0
    shard_us = [0.0] * len(devices)
    priced: List[IterationRecord] = []
    for record in records:
        t = record.stream
        if record.edge_list_bytes:
            reserve(spec, (("active_edge_list", record.edge_list_bytes),), static[t])
        out = copy.copy(record)
        out.compute_us, out.launch_us, out.filter_us, out.barrier_us = _price_unit(
            record, devices[t], plans[t], barriers[t]
        )
        priced.append(out)
        unit_us = out.total_us
        if not sharded:
            elapsed_us += unit_us
            continue
        shard_us[t] += unit_us
        if record.received:  # the superstep's last unit
            for s, received in enumerate(record.received):
                if received > 0:
                    reserve(
                        spec, (("boundary_updates", record.boundary_bytes[s]),),
                        static[s],
                    )
                    # Each shard scatters its boundary updates into its
                    # local combine buffers.
                    shard_us[s] += devices[s].launch(KernelLaunch(
                        BOUNDARY_MERGE_KERNEL,
                        WorkEstimate(
                            scattered_transactions=gmem.metadata_scatter_transactions(received),
                            compute_ops=float(received),
                        ),
                        max(1, -(-received // BOUNDARY_MERGE_KERNEL.threads_per_cta)),
                    )).total_us
            elapsed_us += max(shard_us)
            shard_us = [0.0] * len(devices)
    breakdown: Dict[str, float] = {}
    for device in devices:
        for key, value in device.profiler.breakdown().items():
            breakdown[key] = breakdown.get(key, 0.0) + value
    return elapsed_us, priced, sum(d.profiler.launch_count() for d in devices), breakdown


def priced_result(
    execution, spec: GPUSpec, fusion: FusionStrategy, static: Sequence[int]
):
    """A finished ``run`` / ``run_batch`` result priced again on ``spec``
    under ``fusion``, ``static`` its streams' resident bytes there: the
    fields pricing decides replaced, the rest (values, traces, counters)
    the execution's own - or, where a transient buffer does not fit, the
    OOM failure a fresh run there returns. A failed execution stays one."""
    device = spec.name if len(static) == 1 else f"{spec.name}x{len(static)}"
    if execution.failed:
        return replace(execution, device=device)
    try:
        elapsed_us, records, launches, breakdown = price(
            execution.iteration_records, spec, fusion, static
        )
    except DeviceOutOfMemory as exc:
        lanes = {"sources": execution.sources} if isinstance(
            execution, BatchRunResult
        ) else {}
        return type(execution).failure(
            execution.system, execution.algorithm, execution.graph,
            f"OOM: {exc}", device=device, **lanes,
        )
    return replace(
        execution,
        device=device,
        elapsed_us=elapsed_us,
        iteration_records=records,
        kernel_launches=launches,
        extra={
            **execution.extra,
            extra_keys.FUSION: fusion.value,
            extra_keys.BREAKDOWN: breakdown,
        },
    )


def stage_work(
    num_vertices: int, num_edges: int, stage: str, record: IterationRecord,
    active_fraction: float,
) -> WorkEstimate:
    """Work estimate for one compute stage (thread / warp / cta kernel).

    ``active_fraction`` is the share of the unit's edges whose source lies
    in the frontier: a gather scans every candidate in-edge (coalesced
    adjacency reads) but checks the frontier bitmap before paying the
    scattered source-metadata read and the Compute evaluation, so only the
    active share costs the full per-edge work.
    """
    model = DEFAULT_TRAFFIC_MODEL
    effective_edges = float(num_edges)
    push = _DIRECTIONS[record.direction] is Direction.PUSH
    if not push and record.voting:
        # Voting combines terminate a vertex's gather as soon as any
        # update arrives (collaborative early termination), so a pull
        # iteration touches only part of the candidate edges.
        effective_edges *= model.voting_pull_scan_fraction

    if push:
        coalesced, scattered = gmem.frontier_expansion_traffic(
            num_vertices,
            int(effective_edges),
            sortedness=record.sortedness,
            weighted=record.weighted,
        )
        compute_ops = model.push_cost_ops(effective_edges, num_vertices)
    else:
        active_edges = effective_edges * min(1.0, max(0.0, active_fraction))
        coalesced, scattered = gmem.pull_expansion_traffic(
            num_vertices,
            int(effective_edges),
            weighted=record.weighted,
            active_edges=int(active_edges),
        )
        # One bitmap test per scanned in-edge; the full Compute only for
        # contributing (frontier-sourced) edges.
        compute_ops = model.pull_cost_ops(effective_edges, active_edges, num_vertices)

    if stage == "thread":
        divergence = record.small_divergence
        primitives = 0.0
    elif stage == "warp":
        divergence = 0.05
        primitives = num_vertices * reduction_primitive_ops(32) + effective_edges / 32.0
    else:  # cta
        divergence = 0.02
        primitives = num_vertices * reduction_primitive_ops(256) + effective_edges / 32.0

    return WorkEstimate(
        coalesced_bytes=coalesced,
        scattered_transactions=scattered,
        compute_ops=compute_ops,
        warp_primitive_ops=primitives,
        divergence_fraction=min(1.0, divergence),
    )


def _price_unit(
    record: IterationRecord, device: GPUDevice, plan: FusionPlan,
    barrier: Optional[SoftwareGlobalBarrier],
) -> Tuple[float, float, float, float]:
    """Charge one unit's kernels; returns its ``(compute_us, launch_us,
    filter_us, barrier_us)``."""
    direction = _DIRECTIONS[record.direction]
    push = direction is Direction.PUSH
    stages = plan.phase_kernels(direction).stages
    sizes = record.sizes
    total_edges = max(1, record.frontier_edges)
    active_fraction = (
        record.active_edges / record.frontier_edges if record.frontier_edges else 1.0
    )
    atomic_profile = record.atomic_profile

    busy_us = 0.0
    launch_us = 0.0
    for (kernel, fused), (stage, threads), vertices, edges in zip(
        stages, _COMPUTE_STAGES,
        (sizes.small_vertices, sizes.medium_vertices, sizes.large_vertices),
        (sizes.small_edges, sizes.medium_edges, sizes.large_edges),
    ):
        if not vertices:
            # An empty stage launches with no work on one CTA, which the
            # device charges straight from its idle table.
            result = device.launch_idle(kernel, fused)
        else:
            work = stage_work(vertices, edges, stage, record, active_fraction)
            if atomic_profile is not None and atomic_profile.num_ops:
                # Gunrock-style pricing: updates are applied with atomics
                # on the destination (attributed proportionally to this
                # stage's edge share) and the shared-memory staging
                # reductions of the ACC combine are dropped.
                work = replace(
                    work,
                    atomic_ops=atomic_profile.num_ops * (edges / total_edges),
                    atomic_contention=atomic_profile.contention,
                    warp_primitive_ops=0.0,
                )
            num_ctas = -(-vertices * threads // kernel.threads_per_cta)
            result = device.launch(KernelLaunch(kernel, work, num_ctas, fused))
        busy_us += result.busy_us
        launch_us += result.launch_overhead_us

    # A batched unit's lane axis: the (edge, lane) Compute evaluations beyond
    # the union pass. Each pays what an edge pays beyond its CSR walk - the
    # per-edge compute constant and one scattered metadata read; the walk's
    # traffic is what run_batch amortizes across lanes.
    pairs = record.lane_edge_pairs - record.active_edges
    if pairs > 0:
        model = DEFAULT_TRAFFIC_MODEL
        lane_kernel = stages[2][0]
        result = device.launch(KernelLaunch(
            lane_kernel,
            WorkEstimate(
                scattered_transactions=gmem.metadata_scatter_transactions(pairs),
                compute_ops=float(pairs) * (
                    model.push_edge_ops if push else model.pull_active_edge_ops
                ),
            ),
            max(1, -(-pairs // lane_kernel.threads_per_cta)),
            # The lane axis rides the same kernel invocation as the union
            # pass (each thread loops over its edge's lane bits), so it
            # never pays an extra launch.
            True,
        ))
        busy_us += result.busy_us
        launch_us += result.launch_overhead_us

    kernel, fused = stages[3]
    filter_us = device.launch(
        KernelLaunch(kernel, record.filter_work, None, fused)
    ).total_us
    # Two device-wide synchronizations per iteration: after compute and
    # after task management (Figure 4(b), lines 15 and 21).
    barrier_us = 0.0 if barrier is None else barrier.synchronize() + barrier.synchronize()
    return busy_us, launch_us, filter_us, barrier_us
