"""The SIMD-X execution engine (Figure 4(b), Sections 3-5 combined).

The engine runs an :class:`~repro.core.acc.ACCAlgorithm` as a BSP loop. The
loop itself lives in :mod:`repro.core.superstep` - one driver shared by
``run``, ``run_batch`` and sharded execution; this module holds the engine's
configuration, its entry points, the lane-group planner and the shared
Combine/apply and task-management tails the driver calls.
Each iteration:

1. picks the execution direction with the Beamer-style selector (Section 5):
   the frontier's out-edge share decides between *push* (scatter the
   frontier's out-edges) and *pull* (every candidate destination gathers
   over its in-edges); manual configurations pin the direction through
   :meth:`DirectionSelector.force` so the selector's history still matches
   what ran;
2. classifies the direction's worklist into small/medium/large lists by the
   matching degree - out-degree of the frontier in push mode, in-degree of
   the gather candidates in pull mode (Section 4 step I) - so the Thread /
   Warp / CTA kernels each receive similarly-sized tasks (step II);
3. functionally evaluates ``Compute`` over the expanded edges (out-CSR
   scatter or in-CSR gather, both with the same vectorized ``np.repeat`` /
   ``cumsum`` CSR walk) and ``Combine`` per destination with NumPy - the
   atomic-free combine of the ACC model. Push and pull feed every edge the
   identical operands in the identical per-destination order, so the two
   directions produce bit-identical vertex values;
4. applies the combined updates, derives the new active mask, and asks the
   configured filter (JIT / online / ballot / batch) for
   the next worklist. In push mode the recording workers are the frontier
   slots (one per scatter source); in pull mode each gather worker records
   its own destination once, post-combine;
5. records the unit as an :class:`~repro.core.metrics.IterationRecord`
   holding every scalar the cost model reads, its transient buffers
   included. A run whose static footprint does not fit the device fails
   before it executes; everything else is priced once it ends:
   :func:`repro.core.pricing.price` checks each unit's transient buffers,
   then charges the compute kernels, the task-management kernel, the
   software global barrier (fused strategies) and the launches the fusion
   strategy requires, record by record.

The functional result (distances, ranks, core flags) is identical across
filter modes, fusion strategies, directions and devices; only the simulated
time and the recorded traces change. That separation mirrors the paper's own
claim that programming (ACC) is decoupled from processing (JIT + fusion),
and it is why one execution prices under every fusion strategy and device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.acc import ACCAlgorithm
from repro.core.direction import BatchDirectionPolicy, Direction, SubBatchPlan
from repro.core.filters import FilterContext, FilterMode, FilterResult
from repro.core.frontier import ClassifiedFrontier, WorklistClassifier
from repro.core.kernels import DEFAULT_KERNEL, NumpyKernelBackend
from repro.core.fusion import FusionStrategy
from repro.core.metrics import BatchRunResult, RunResult
from repro.core.superstep import Stream, SuperstepDriver, _ExpansionResult, _take
from repro.gpu.device import GPUDevice, K40


@dataclass
class EngineConfig:
    """The engine's options: the knobs the paper's evaluation sweeps plus
    the deployment axes (shards, sanitizer).

    The defaults are the configuration the paper evaluates: JIT task
    management with a 64-entry overflow threshold, push-pull based kernel
    fusion, worklist separators at the warp and CTA sizes, automatic
    direction selection. ``docs/architecture.md`` ("Engine options") lists
    every field with its paper anchor and the experiment that varies it;
    ``tests/test_config_surface.py`` pins the field set. Constants no
    caller varies live with the class that owns them (CTA size on
    :class:`~repro.core.fusion.FusionPlan`, the Beamer thresholds on
    :class:`~repro.core.direction.DirectionSelector`, the split margin on
    :class:`~repro.core.direction.BatchDirectionPolicy`, the compute-op
    constants in :data:`~repro.core.direction.DEFAULT_TRAFFIC_MODEL`), and
    the iteration cap is an attribute of the algorithm
    (:class:`~repro.core.acc.ACCAlgorithm`).
    """

    filter_mode: FilterMode = FilterMode.JIT
    fusion: FusionStrategy = FusionStrategy.PUSH_PULL
    overflow_threshold: int = 64
    small_medium_separator: int = 32
    medium_large_separator: int = 256
    #: ``None`` (the default) selects the direction automatically every
    #: iteration (Section 5); a direction runs every iteration as a pure
    #: scatter or a pure gather, and turns lane-aware splitting off.
    forced_direction: Optional[Direction] = None
    #: Batched runs (``run_batch``) only: score every lane's own frontier
    #: with the traffic model each iteration and, when lane interests
    #: diverge from the union decision past ``BatchDirectionPolicy.margin``,
    #: split the batch into a push-leaning and a pull-leaning sub-batch
    #: that each walk the CSR (or in-CSR) with their own frontier view, JIT
    #: filter state and pre-arm bound (docs/batching.md, "Lane-aware
    #: direction selection"). Off = PR-3 behaviour: one union decision per
    #: iteration.
    lane_aware_split: bool = True
    shadow_online: bool = True
    #: When True, the Combine step is priced as Gunrock prices it - direct
    #: atomic updates to vertex state instead of the ACC model's shared-memory
    #: staging - which is the ablation behind Figure 5. Functional results are
    #: unchanged; only the cost differs. Each iteration record then carries
    #: the atomic profile it was priced with, which the Gunrock model prices
    #: in turn (:mod:`repro.baselines`).
    atomic_combine: bool = False
    #: Shadow every superstep with the runtime sanitizer
    #: (:mod:`repro.analysis.sanitizer`): ACC hooks run on read-only views,
    #: the CSR arrays are frozen, and the Compute->Combine->apply stream is
    #: recorded and compared against the metadata each iteration. Functional
    #: results are bit-identical; a clean run lands its report in
    #: ``RunResult.extra["sanitizer"]``.
    sanitize: bool = False
    #: Partition the graph into this many contiguous vertex-range shards,
    #: each with its own simulated device, memory budget, frontier slice
    #: and direction/JIT state; supersteps run as local push/pull
    #: expansion plus a boundary-update merge (docs/sharding.md). Results
    #: are bit-identical to ``num_shards=1``; only the memory ceiling and
    #: the cost accounting change. With ``num_shards > 1``
    #: ``lane_aware_split`` is inert - per-shard direction selection
    #: replaces lane grouping.
    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )


class SIMDXEngine:
    """Run ACC algorithms on a simulated GPU with SIMD-X's optimizations."""

    SYSTEM_NAME = "SIMD-X"

    def __init__(
        self,
        graph,
        device: Optional[GPUDevice] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.graph = graph
        self.device = device if device is not None else GPUDevice(K40)
        self.config = config if config is not None else EngineConfig()
        self.classifier = WorklistClassifier(
            graph,
            small_medium_separator=self.config.small_medium_separator,
            medium_large_separator=self.config.medium_large_separator,
            direction=Direction.PUSH,
        )
        # Built on the first pull iteration: classifying a gather worklist
        # needs in-degrees, which force the lazy in-CSR transpose.
        self._pull_classifier: Optional[WorklistClassifier] = None
        self._in_degrees: Optional[np.ndarray] = None
        #: The kernel primitives every path runs on; the scatter walk goes
        #: through :meth:`_walk_edges` (docs/kernels.md).
        self.kernel = DEFAULT_KERNEL
        #: Edges expanded by this run's CSR walks (reset per run; equals
        #: the iteration records' frontier_edges total).
        self._kernel_edges_walked = 0

    def _begin_run(self) -> None:
        """Reset all cross-run mutable state before a ``run``/``run_batch``.

        One engine instance may serve any number of consecutive
        ``run``/``run_batch`` calls (the serving layer reuses one engine
        per device), so every piece of per-run mutable state must be
        reset here: the profiler's records and the kernel-edge counter.
        Everything else that persists on the instance is a deterministic
        graph-derived cache (the worklist classifiers, in-degrees, the
        lazily-built in-CSR transpose) - the *intended* reuse. Per-run
        controllers (JIT task managers, direction selector, batch direction
        policy) are constructed inside each run, and pricing builds its
        fusion plans and barriers afresh. ``tests/test_engine_reuse.py``
        pins the contract: call N on a reused engine is bit-identical,
        values and ``extra`` counters alike, to the same call on a fresh
        engine.
        """
        self._kernel_edges_walked = 0
        self.device.profiler.reset()

    @property
    def pull_classifier(self) -> WorklistClassifier:
        """In-degree classifier for gather (pull) worklists, built lazily."""
        if self._pull_classifier is None:
            self._pull_classifier = WorklistClassifier(
                self.graph,
                small_medium_separator=self.config.small_medium_separator,
                medium_large_separator=self.config.medium_large_separator,
                direction=Direction.PULL,
            )
        return self._pull_classifier

    def _forced_direction(self, iteration: int) -> Optional[Direction]:
        """Manual direction of superstep ``iteration``; ``None`` = automatic."""
        return self.config.forced_direction

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (forces the lazy in-CSR transpose)."""
        if self._in_degrees is None:
            self._in_degrees = self.graph.in_degrees()
        return self._in_degrees

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, algorithm: ACCAlgorithm, **params) -> RunResult:
        """Execute ``algorithm`` to convergence and return its result."""
        # Before the shard delegation: the sharded executor walks edges
        # through this same engine instance, so the counter covers it too.
        self._kernel_edges_walked = 0
        if self.config.num_shards > 1:
            from repro.shard.executor import ShardedExecutor

            return ShardedExecutor(self).run(algorithm, **params)
        return self._device_driver(algorithm).run(algorithm, params)

    def run_batch(
        self,
        algorithm: ACCAlgorithm,
        sources: Sequence[int],
        lane_params: Optional[Sequence[Mapping[str, object]]] = None,
        **params,
    ) -> BatchRunResult:
        """Answer K queries of ``algorithm`` (one per source) in one run.

        Each source owns a query *lane*: lane k's metadata evolves exactly
        as ``run(algorithm_from(sources[k]))`` would evolve it - lanes
        advance in lockstep with their independent runs, so the final
        metadata is bit-identical per lane (for delta-stepping SSSP the
        lockstep is per-value, not per-iteration - see
        :class:`~repro.core.metrics.BatchRunResult`) - but every iteration
        walks the CSR over the *union* of the lane frontiers
        (:class:`~repro.core.frontier.BatchedFrontier`) and expands each
        union edge only into the lanes whose frontier contains its source.

        Direction selection is *lane-aware* by default
        (``EngineConfig.lane_aware_split``): each iteration every lane's
        own frontier is scored with the traffic model and the batch splits
        into a push-leaning and a pull-leaning sub-batch when lane
        interests diverge past ``BatchDirectionPolicy.margin`` - each
        sub-batch walks the CSR (or in-CSR) with its own frontier view, JIT
        filter state and pre-arm bound, and lanes re-merge when their
        decisions reconverge.
        With ``lane_aware_split=False`` direction and the task-management
        filter are decided once on the union (the PR-3 cost-only
        approximation); ``docs/batching.md`` documents both regimes.

        ``algorithm`` must set ``supports_multi_source`` (its ``init`` takes
        a per-query ``source``); the instance itself is used only for the
        stateless per-edge Compute - per-lane state lives in per-lane
        copies, so stateful hooks (SSSP's pending set) stay isolated.

        ``lane_params`` optionally overrides per-lane algorithm parameters:
        entry k is a mapping of attribute overrides applied to lane k's
        private copy before ``init`` (e.g. a per-lane SSSP ``delta``). The
        per-edge Compute of a lane is evaluated through that copy, so
        parameter-dependent computes stay correct per lane.
        """
        sources = [int(s) for s in sources]
        if not sources:
            raise ValueError("run_batch needs at least one source")
        if not algorithm.supports_multi_source:
            raise ValueError(
                f"algorithm {algorithm.name!r} does not support multi-source "
                "batching (no per-query source to batch over)"
            )
        if lane_params is not None:
            lane_params = [dict(p) for p in lane_params]
            if len(lane_params) != len(sources):
                raise ValueError(
                    f"lane_params has {len(lane_params)} entries for "
                    f"{len(sources)} sources"
                )
            for overrides in lane_params:
                for key in overrides:
                    if not hasattr(algorithm, key):
                        raise ValueError(
                            f"unknown algorithm parameter {key!r} in lane_params"
                        )
        self._kernel_edges_walked = 0
        if self.config.num_shards > 1:
            from repro.shard.executor import ShardedExecutor

            return ShardedExecutor(self).run_batch(
                algorithm, sources, lane_params=lane_params, **params
            )
        return self._device_driver(algorithm).run_batch(
            algorithm, sources, lane_params, params
        )

    def _device_driver(self, algorithm: ACCAlgorithm) -> SuperstepDriver:
        """The superstep driver over this engine's own device.

        One device is the one-stream plan: a single stream covering every
        vertex, priced on ``self.device`` (the
        :class:`~repro.shard.executor.ShardedExecutor` builds one stream
        per shard around the same driver).
        """
        self._begin_run()
        graph = self.graph
        stream = Stream(
            self, 0, 0, graph.num_vertices,
            total_edges=graph.num_edges,
            start_direction=(
                Direction.PULL if algorithm.starts_in_pull else Direction.PUSH
            ),
        )
        return SuperstepDriver(self, [stream])

    # ------------------------------------------------------------------
    # Lane-group planning (batched runs on one device)
    # ------------------------------------------------------------------
    def _plan_groups(
        self,
        iteration: int,
        live: List[int],
        lane_out_edges: Dict[int, int],
        lane_frontiers: List[np.ndarray],
        pull_estimate,
        union_direction: Direction,
        policy: Optional[BatchDirectionPolicy],
        pull_scan_fraction: float,
    ) -> List[SubBatchPlan]:
        """Sub-batches for one batched iteration, in execution order.

        The lane-aware policy plans when there is one (lane-aware
        splitting enabled and the direction automatic); otherwise the whole
        batch runs as one sub-batch in ``union_direction``.
        """
        if policy is not None:
            decision = policy.plan(
                live,
                lane_out_edges,
                {lane: int(lane_frontiers[lane].size) for lane in live},
                pull_estimate,
                union_direction,
                pull_scan_fraction=pull_scan_fraction,
            )
            return list(decision.groups)
        return [SubBatchPlan(union_direction, tuple(live))]

    # ------------------------------------------------------------------
    # Shared iteration tail (task management)
    # ------------------------------------------------------------------
    def _finish_iteration(
        self,
        *,
        classified: ClassifiedFrontier,
        direction: Direction,
        expansion: _ExpansionResult,
        active_mask: np.ndarray,
        stream: Stream,
        iteration: int,
        success_rate: float = 1.0,
    ) -> FilterResult:
        """Task management of one work unit.

        ``classified`` is the executed worklist (in push mode the active
        frontier in a single run, the lane union in a batch, a shard's slice
        of either - its largest out-degree bounds a scatter worker's
        recordings); ``active_mask``/``expansion`` describe what the unit
        updated and ``stream`` carries the controller - adaptive under
        ``FilterMode.JIT``, pinned to one filter otherwise; its last
        decision names the filter that ran. One tail keeps batched and
        sharded units' task management exactly like a single-source
        iteration's.
        """
        # The online/batch filters record destinations that just
        # became active, as observed by the worker that updated them.
        destinations = expansion.recorded_destinations
        recorded = active_mask.take(destinations).nonzero()[0]
        # The static overflow bound (only the JIT controller reads it): a
        # gather worker records only its own destination, a scatter worker
        # at most one entry per out-edge.
        if direction is Direction.PULL:
            max_producer_records = 1 if expansion.num_workers else 0
        else:
            max_producer_records = classified.max_degree
        ctx = FilterContext(
            num_vertices=self.graph.num_vertices,
            updated_destinations=_take(destinations, recorded),
            producer_thread=_take(expansion.recorded_producers, recorded),
            active_mask=active_mask,
            frontier_edges=classified.total_edges,
            num_worker_threads=max(1, expansion.num_workers),
            max_producer_records=max_producer_records,
            success_rate=success_rate,
        )
        return stream.jit.build(ctx, iteration, direction=direction)

    # ------------------------------------------------------------------
    # Functional primitives shared by every expansion
    # ------------------------------------------------------------------
    #: The scatter walk over the out-CSR rows of a push frontier. A
    #: class-level alias of the one body in :mod:`repro.core.kernels` - the
    #: seam tests patch or override to count or substitute walks.
    _walk_edges = staticmethod(NumpyKernelBackend.walk_edges)

    def _walk_kept(self, csr, worklist, source_mask, edge_ids: bool):
        """The gather walk on :attr:`kernel` (edge ids only with ``edge_ids``:
        they gather weights); counts every edge it scanned."""
        walk = self.kernel.walk_kept(csr, worklist, source_mask, edge_ids)
        self._kernel_edges_walked += int(walk[3])  # (src, dst, edge_idx, walked)
        return walk

    def _walk(self, csr, worklist: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """The scatter walk every push expansion runs, through
        :meth:`_walk_edges`; advances the per-run ``kernel_edges_walked``
        counter by the edges expanded."""
        slot, edge_idx, total = self._walk_edges(csr, worklist)
        self._kernel_edges_walked += int(total)
        return slot, edge_idx, total

    def _combine_and_apply(
        self,
        algorithm: ACCAlgorithm,
        metadata: np.ndarray,
        updates: np.ndarray,
        dst: np.ndarray,
        ids_sorted: bool = False,
    ) -> Tuple[np.ndarray, int]:
        """Shared Combine + apply tail; returns the canonical receiver set
        and how many of its metadata entries the apply changed."""
        touched, combined = algorithm.combine_op.compact_reduce(
            updates, dst, self.graph.num_vertices,
            ids_sorted=ids_sorted, backend=self.kernel,
        )
        old_values = metadata.take(touched)
        new_values = algorithm.apply(old_values, combined, touched)
        changed = (new_values != old_values).nonzero()[0]
        metadata[_take(touched, changed)] = _take(new_values, changed)
        return touched, int(changed.size)
