"""The one BSP superstep driver behind ``run``, ``run_batch`` and sharding.

Every execution path of the engine is the same Active -> Compute ->
Combine loop (Figure 4(b)) over two axes:

* a **lane set** (:class:`LaneSet`): K algorithm instances, a ``(K, n)``
  metadata block and K sorted frontiers. ``SIMDXEngine.run`` is the
  one-lane set whose lane is the caller's own instance; ``run_batch``
  clones the algorithm once per source.
* a list of **streams** (:class:`Stream`): one per device, each owning a
  contiguous vertex range and its task-management state (pricing gives
  each stream a simulated device). A single device is the one-stream plan covering ``[0, n)``;
  ``EngineConfig(num_shards=N)`` supplies one stream per
  :class:`~repro.shard.partition.ShardPlan` range.

Per superstep a planner yields work units ``(direction, lanes, stream)``
- on one stream the lane groups ``SIMDXEngine._plan_groups`` returns, on N
streams one scatter and/or gather unit per shard with the shard's own
selector decision - and the schedule runs them:

1. **Compute** - every unit expands against *iteration-start* metadata
   through :meth:`SuperstepDriver._expand_push` or
   :meth:`~SuperstepDriver._expand_pull`; valid updates are queued at
   their destination's owner stream, per lane, in unit order. Once the
   last unit carrying a lane has computed it, :meth:`~SuperstepDriver._drain`
   fires its frontier hook and combines its queues through
   ``SIMDXEngine._combine_and_apply`` - on one device right after its one
   Compute call, sharded in the superstep's last unit.
2. **Tail** - every unit goes through the shared task-management tail
   (``SIMDXEngine._finish_iteration``, one controller for every filter
   mode) and emits one :class:`~repro.core.metrics.IterationRecord`, the
   run's one log: the traces are views of it, and every count ``extra``
   reports about the run's work is a fold over it
   (:meth:`SuperstepDriver._extra`).

A run whose :func:`static_footprint` does not fit its device fails before
anything executes. Once the loop ends, :func:`~repro.core.pricing.price`
charges the records to the streams' devices: execution decides what ran,
pricing what it cost and whether each unit's transient buffers fit.

**Why every path is bit-identical.** A lane's Combine stream at any
destination is in global source-ascending order on every path: a push unit
walks its sorted frontier slice in order, scatter units run in ascending
stream (= ascending vertex range) order and an owner drains them in that
order, and an in-CSR row is sorted by source - so push, pull, lane groups
and shards all hand Combine the operands of the lane's independent
single-device run in the same order (``docs/sharding.md`` spells the
argument out). Lanes never share a metadata row or an algorithm copy, so
unit order across lanes - even a lane combining before another computes -
only fixes the order of cost charges and records. For the same reason a
unit's Compute streams lane-major, one lane per call - each lane computed
and queued before the next lane's edge positions exist - instead of over
a flattened all-lane pair space.

**Canonical id sets.** Every vertex-id *set* the driver passes around - lane
frontier, gather candidates, union worklist, Combine's receiver set - is
``int64`` and strictly increasing. :class:`LaneSet` construction establishes
that once; afterwards it holds by construction, never by re-sorting:
``np.flatnonzero`` of a mask, an ascending index selection or a contiguous
slice of a canonical array, and per-owner receiver sets concatenated in
ascending range order are all canonical, and a union of several sets is
one vertex-indexed flag pass of the kernel backend - the host-side twin of
the ballot scan. Combine computes a lane's receiver set once per owner; the
unit's filter context and the next-frontier rule both read that array, so
a thread-bin worklist (unsorted, with duplicates) is never turned back into
a set: its set is the lane's ``received ∩ active``, an ascending selection
of the receiver set. Update *streams* (one entry per valid update, in walk
order) are not sets and stay as walked.

**One lane-membership representation.** A multi-lane unit asks of every
walked edge whether its source is in lane k's frontier. Push and pull units
both answer from the same n-sized membership mask of the lane's canonical
frontier (:meth:`SuperstepDriver._bitmap`, built at most once per superstep),
and a split group's or a shard's frontier is the :meth:`~SuperstepDriver._union`
of its lanes' frontiers - no packed lane words and no lane-id remap exist on
the host. (The modeled device still carries the lane words: see
:func:`static_footprint`.)
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import registry as extra_keys
from repro.analysis.sanitizer import RuntimeSanitizer
from repro.core.acc import ACCAlgorithm, CombineKind
from repro.core.direction import (
    DEFAULT_TRAFFIC_MODEL,
    BatchDirectionPolicy,
    Direction,
    DirectionSelector,
    SubBatchPlan,
)
from repro.core.filters import FilterMode, FilterOverflowError
from repro.core.frontier import LANES_PER_WORD, ClassifiedFrontier
from repro.core.jit import JITTaskManager
from repro.core.metrics import BatchRunResult, IterationRecord, RunResult
from repro.core.pricing import price
from repro.gpu.atomics import profile_atomic_updates
from repro.gpu.device import DeviceOutOfMemory, reserve
from repro.gpu.warp import divergence_fraction

_EMPTY = np.zeros(0, dtype=np.int64)


def _take(array: np.ndarray, index) -> np.ndarray:
    """``array[index]`` for ascending positions (``mask.nonzero()[0]``);
    ``None`` or every position is the array itself (no copy), the common
    case on a road graph, where every update lands and turns active."""
    return array if index is None or index.size == array.size else array.take(index)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _range_rows(vertices: np.ndarray, start: int, stop: int) -> Tuple[int, int]:
    """Row span ``[lo, hi)`` of the ids in ``[start, stop)`` of a sorted array."""
    return (
        int(np.searchsorted(vertices, start, side="left")),
        int(np.searchsorted(vertices, stop, side="left")),
    )


def _reaches(vertices: np.ndarray, start: int, stop: int) -> bool:
    """Does the sorted array hold any id in ``[start, stop)``?"""
    lo, hi = _range_rows(vertices, start, stop)
    return hi > lo


@dataclass
class _ExpansionResult:
    """What one unit's expansion hands the task-management tail."""

    #: What the task-management filter observes: in push mode one entry per
    #: valid update (the scatter thread saw each one happen); in pull mode
    #: one entry per destination that received any update (the gather thread
    #: learns about its own vertex once, post-combine - ``_finish_unit``
    #: fills a gather's three fields from Combine's receiver sets).
    recorded_destinations: np.ndarray
    recorded_producers: np.ndarray    # worker slot owning each recorded entry
    num_workers: int                  # worker threads (frontier / receivers)
    #: Edges that paid the Compute evaluation: every walked edge in push
    #: mode (minus edges whose destination a pull-mode shard gathers
    #: itself); in pull mode the scanned in-edges whose source was in the
    #: frontier - the rest only paid the bitmap test.
    active_edges: int = 0


class Stream:
    """One device's share of a run.

    Owns the vertex range ``[start, stop)``, the direction selector
    deciding for that range's frontier slice, and the task-management
    state (the controller, adaptive or pinned to the configured filter,
    plus the sortedness of the worklist it last produced). Stream identity
    affects cost and traces only, never values.
    """

    __slots__ = ("index", "start", "stop", "jit", "selector", "sortedness")

    def __init__(
        self, engine, index: int, start: int, stop: int, *,
        total_edges: int, start_direction: Direction,
    ):
        cfg = engine.config
        self.index, self.start, self.stop = index, start, stop
        self.jit: Optional[JITTaskManager] = JITTaskManager(
            cfg.filter_mode,
            overflow_threshold=cfg.overflow_threshold,
            shadow_online=cfg.shadow_online,
        )
        self.selector = DirectionSelector(
            total_edges=total_edges, start_direction=start_direction
        )
        self.sortedness = 1.0


def static_footprint(
    graph, num_lanes: Optional[int], plan=None
) -> List[List[Tuple[str, int]]]:
    """Each stream's resident buffers, ``(label, bytes)`` in allocation
    order, sized by its share of the modeled (paper-scale) graph - all of
    it on one device, a ``plan`` range's when sharded - so the Table 4
    memory behaviour holds on the scaled-down analogue. ``num_lanes`` is
    ``None`` for ``run``."""
    directions = 2 if graph.directed else 1
    if plan is None:
        shares = [(graph.modeled_num_vertices, graph.modeled_num_edges)]
    else:
        shares = zip(plan.modeled_vertices, plan.modeled_edges)
    footprint = []
    for mv, me in shares:
        mv, me = int(mv), int(me)
        buffers = [("csr_graph", directions * (mv * 8 + me * 8))]
        if num_lanes is None:
            buffers += [("metadata", 2 * mv * 8), ("worklists", 3 * mv * 4)]
        else:
            # The dominant batching cost: one metadata array (current +
            # previous) per lane; the worklists carry the per-vertex lane
            # bitmask words on top of the union worklists.
            words = -(-num_lanes // LANES_PER_WORD)
            buffers += [("metadata_lanes", 2 * num_lanes * mv * 8),
                        ("worklists", 3 * mv * 4 + mv * words * 8)]
        footprint.append(buffers)
    return footprint


def place_static(spec, graph, num_lanes: Optional[int], plan=None) -> List[int]:
    """Each stream's resident bytes once its :func:`static_footprint` is
    placed on ``spec`` (raises ``DeviceOutOfMemory`` where it does not fit)."""
    return [reserve(spec, b) for b in static_footprint(graph, num_lanes, plan)]


@dataclass
class LaneSet:
    """K algorithm instances over a ``(K, n)`` metadata block.

    ``clones[k]`` owns lane k's stateful hooks (SSSP's pending set, k-Core's
    bookkeeping) and ``frontiers[k]`` its canonical frontier (sorted here).
    Compute calls ``compute_edges`` (push and pull) on lane k's own
    instance, so heterogeneous ``lane_params`` need no second route; the
    ``run`` lane set's one instance is the caller's own.
    ``batched`` marks a ``run_batch`` lane set for planning and for the
    record fields. ``prototype`` answers what every lane shares (iteration
    cap, combine kind, cost traits).
    """

    prototype: ACCAlgorithm
    clones: List[ACCAlgorithm]
    metadata: np.ndarray
    frontiers: List[np.ndarray]
    batched: bool

    @classmethod
    def single(cls, algorithm, graph, params, sanitizer) -> "LaneSet":
        state = algorithm.init(graph, **params)
        metadata = np.array(state.metadata, dtype=np.float64, ndmin=2)
        frontier = np.unique(np.asarray(state.frontier, dtype=np.int64))
        if sanitizer is not None:
            # Wrapping after init: init owns its arrays, every later hook
            # call is intercepted and checked.
            algorithm = sanitizer.wrap(algorithm, lane=0)
            sanitizer.freeze_graph()
        return cls(algorithm, [algorithm], metadata, [frontier], batched=False)

    @classmethod
    def batch(
        cls, algorithm, graph, sources, lane_params, params, sanitizer
    ) -> "LaneSet":
        clones: List[ACCAlgorithm] = []
        metadata = np.zeros((len(sources), graph.num_vertices), dtype=np.float64)
        frontiers: List[np.ndarray] = []
        for lane, source in enumerate(sources):
            clone = copy.copy(algorithm)
            if lane_params is not None:
                for key, value in lane_params[lane].items():
                    setattr(clone, key, value)
            state = clone.init(graph, source=source, **params)
            clones.append(clone)
            metadata[lane] = np.asarray(state.metadata, dtype=np.float64)
            frontiers.append(
                np.unique(np.asarray(state.frontier, dtype=np.int64))
            )
        if sanitizer is not None:
            # Each clone's hooks are checked on its own lane row; the
            # prototype computes nothing, but stays wrapped so that no hook
            # call can bypass the checks.
            clones = [sanitizer.wrap(c, lane=k) for k, c in enumerate(clones)]
            algorithm = sanitizer.wrap(algorithm, lane=None)
            sanitizer.freeze_graph()
        return cls(algorithm, clones, metadata, frontiers, batched=True)


@dataclass(eq=False)
class _Unit:
    """One planned work unit of a superstep."""

    direction: Direction
    #: Lanes the unit serves (its Active mask is their union).
    lanes: Tuple[int, ...]
    stream: Stream
    #: Union of the lanes' frontiers inside the stream's vertex range.
    frontier: np.ndarray
    #: Lanes with a non-empty frontier inside the range (default: all).
    range_lanes: Optional[Sequence[int]] = None
    classified: Optional[ClassifiedFrontier] = None
    #: What the unit walks: ``frontier`` (push) or the union of the lanes'
    #: gather candidates inside the range (pull, with the per-lane parts).
    worklist: Optional[np.ndarray] = None
    lane_candidates: Optional[List[np.ndarray]] = None
    expansion: Optional[_ExpansionResult] = None
    lane_pairs: int = 0
    updates_valid: int = 0  # non-NaN Compute outputs over the unit's lanes
    #: ``lane * n + destination`` of every valid update, per Compute call -
    #: what the atomic-combine ablation prices (built only under it). Lanes
    #: write separate metadata rows, so an address is a (lane, vertex) pair.
    atomic_keys: Optional[List[np.ndarray]] = None

    def __post_init__(self) -> None:
        self.worklist = self.frontier
        if self.range_lanes is None:
            self.range_lanes = self.lanes


class _Step:
    """Scratch state of one superstep."""

    def __init__(self, driver: "SuperstepDriver", iteration: int, live):
        lanes = driver.lanes
        self.iteration = iteration
        self.live: Tuple[int, ...] = live
        self.prev = lanes.metadata.copy()
        self.dst_is_push: Optional[np.ndarray] = None
        self.candidates: Dict[int, np.ndarray] = {}
        #: ``candidates[lane]`` as an n-sized membership mask (built with it).
        self.candidate_masks: Dict[int, np.ndarray] = {}
        #: ``frontiers[lane]`` as an n-sized membership mask (``_bitmap``).
        self.bitmaps: Dict[int, np.ndarray] = {}
        self.lane_out_edges: Dict[int, int] = {}
        self.last_unit: Dict[int, _Unit] = {}  # lane -> where it drains
        #: ``(owner stream, lane) -> [(updates, dst, dst non-decreasing), ...]``
        #: until the lane drains - on one device, one lane's at a time.
        self.pending: Dict[Tuple[int, int], List[tuple]] = {}
        #: ``(owner stream, lane) ->`` the receiver set Combine returned.
        self.touched: Dict[Tuple[int, int], np.ndarray] = {}
        #: ``lane ->`` metadata entries its applies changed this superstep.
        self.applied: Dict[int, int] = {}
        self.received = [0] * len(driver.streams)
        self.active: Dict[int, np.ndarray] = {}
        self.active_unions: Dict[Tuple[int, ...], np.ndarray] = {}
        #: Lanes whose next frontier is a ballot scan's own worklist.
        self.scanned: Dict[int, np.ndarray] = {}


class SuperstepDriver:
    """Runs one lane set over one stream plan (see the module docstring).

    ``records`` is the run's ledger: pricing reads it, and ``_extra``
    folds the counts it reports (edges walked, split iterations, boundary
    updates) from it after the loop."""

    def __init__(self, engine, streams: List[Stream], sharding=None):
        self.engine = engine
        self.graph = engine.graph
        self.streams = streams
        #: The :class:`~repro.shard.executor.ShardedExecutor` behind a
        #: multi-stream plan (owner lookup, boundary receive buffers, shard
        #: ``extra`` keys); ``None`` on a single device.
        self.sharding = sharding
        #: Each stream's resident bytes, once its static footprint fits.
        self.static: List[int] = []
        name = engine.spec.name
        self.device_name = name if sharding is None else f"{name}x{len(streams)}"
        self.lanes: Optional[LaneSet] = None
        self.sanitizer: Optional[RuntimeSanitizer] = None
        self.side: Optional[Stream] = None
        #: Every controller that ran: the streams' own plus side forks.
        self.jits: List[JITTaskManager] = [s.jit for s in streams]
        self.records: List[IterationRecord] = []
        self.lane_iterations: List[int] = []
        self.iteration = 0
        self.stopped_at_cap = False

    # ------------------------------------------------------------------
    # Entry points: two result constructors over the same driver state
    # ------------------------------------------------------------------
    def run(self, algorithm: ACCAlgorithm, params) -> RunResult:
        engine, graph = self.engine, self.graph

        def body() -> RunResult:
            lanes = LaneSet.single(algorithm, graph, params, self.sanitizer)
            self._loop(lanes)
            return RunResult(
                values=lanes.clones[0].vertex_value(lanes.metadata[0]),
                **self._priced(algorithm),
            )

        return self._guarded(body, None, lambda reason: RunResult.failure(
            engine.SYSTEM_NAME, algorithm.name, graph.name, reason,
            device=self.device_name,
        ))

    def run_batch(
        self, algorithm: ACCAlgorithm, sources: List[int], lane_params, params
    ) -> BatchRunResult:
        engine, graph = self.engine, self.graph

        def body() -> BatchRunResult:
            lanes = LaneSet.batch(
                algorithm, graph, sources, lane_params, params, self.sanitizer
            )
            self._loop(lanes)
            fields = self._priced(algorithm)
            return BatchRunResult(
                sources=sources,
                metadata=lanes.metadata,
                values=np.stack([
                    clone.vertex_value(row)
                    for clone, row in zip(lanes.clones, lanes.metadata)
                ]),
                lane_iterations=self.lane_iterations,
                **fields,
            )

        return self._guarded(
            body, len(sources), lambda reason: BatchRunResult.failure(
                engine.SYSTEM_NAME, algorithm.name, graph.name, reason,
                device=self.device_name, sources=list(sources),
            ),
        )

    def _guarded(self, body, num_lanes: Optional[int], failure):
        """Place the static footprint, run ``body``, map the two failure
        modes to a result."""
        if self.engine.config.sanitize:
            self.sanitizer = RuntimeSanitizer(self.graph)
        try:
            self.static = place_static(
                self.engine.spec, self.graph, num_lanes,
                None if self.sharding is None else self.sharding.plan,
            )
            return body()
        except DeviceOutOfMemory as exc:
            return failure(f"OOM: {exc}")
        except FilterOverflowError as exc:
            return failure(f"online filter overflow: {exc}")
        finally:
            if self.sanitizer is not None:
                # Unfreeze the CSR arrays on every exit path, including a
                # raised SanitizerError - the graph outlives the run.
                self.sanitizer.release()

    def _priced(self, algorithm: ACCAlgorithm) -> dict:
        """Price the finished run's records on the engine's spec; returns
        the result fields ``run`` and ``run_batch`` share."""
        engine = self.engine
        elapsed_us, self.records, launches, breakdown = price(
            self.records, engine.spec, engine.config.fusion, self.static
        )
        if self.sanitizer is not None:
            for record in self.records:
                self.sanitizer.observe_record(record)
        return dict(
            system=engine.SYSTEM_NAME,
            algorithm=algorithm.name,
            graph=self.graph.name,
            elapsed_us=elapsed_us,
            iterations=self.iteration,
            device=self.device_name,
            kernel_launches=launches,
            iteration_records=self.records,
            extra=self._extra(breakdown),
        )

    def _extra(self, breakdown: dict) -> dict:
        """The result's ``extra``; every count of the run's work in it is
        a fold over ``records`` - each attributed to the unit that paid
        for it."""
        cfg, records = self.engine.config, self.records
        # Every unit's CSR walk expands its worklist's frontier_edges.
        walked = sum(r.frontier_edges for r in records)
        # Iterations whose ballot was pre-armed at a pull->push switch
        # (empty for non-JIT filter modes), over every stream that ran.
        pre_armed = set()
        for jit in self.jits:
            pre_armed.update(jit.pre_armed_iterations())
        extra = {
            extra_keys.FUSION: cfg.fusion.value,
            extra_keys.FILTER_MODE: cfg.filter_mode.value,
            extra_keys.DIRECTION_SWITCHES: sum(
                s.selector.switches() for s in self.streams
            ),
            extra_keys.BREAKDOWN: breakdown,
            extra_keys.JIT_PRE_ARMED_ITERATIONS: sorted(pre_armed),
            extra_keys.KERNEL_EDGES_WALKED: walked,
            extra_keys.STOPPED_AT_CAP: self.stopped_at_cap,
        }
        if self.lanes.batched:
            # A one-device iteration that ran as more than one unit was
            # split into lane groups; sharded runs never split (per-shard
            # direction selection replaces it, EngineConfig.num_shards).
            units = Counter(r.iteration for r in records)
            split = [] if self.sharding is not None else [
                iteration for iteration, count in units.items() if count > 1
            ]
            extra.update({
                # Amortization bookkeeping: edges the union walks touched
                # vs the (edge, lane) pairs a serial execution would have
                # walked, plus the gather share (the quantity lane-aware
                # splitting shrinks on road-style graphs).
                extra_keys.UNION_EDGES_WALKED: walked,
                extra_keys.LANE_EDGE_PAIRS: sum(r.lane_edge_pairs for r in records),
                extra_keys.PULL_EDGES_SCANNED: sum(
                    r.frontier_edges for r in records
                    if r.direction == Direction.PULL.value
                ),
                extra_keys.SPLIT_ITERATIONS: split,
                extra_keys.LANE_SPLITS: len(split),
            })
        if self.sharding is not None:
            extra.update(self.sharding.shard_extra(records, self.static))
        if self.sanitizer is not None:
            self.sanitizer.validate_extra(extra)
            extra[extra_keys.SANITIZER] = self.sanitizer.report()
        return extra

    # ------------------------------------------------------------------
    # The superstep loop
    # ------------------------------------------------------------------
    def _loop(self, lanes: LaneSet) -> None:
        engine, cfg, sanitizer = self.engine, self.engine.config, self.sanitizer
        self.lanes = lanes
        frontiers, metadata, clones = lanes.frontiers, lanes.metadata, lanes.clones
        sharded = self.sharding is not None
        self.lane_iterations = [0] * len(clones)
        policy: Optional[BatchDirectionPolicy] = None
        if (
            lanes.batched and not sharded
            and cfg.forced_direction is None and cfg.lane_aware_split
        ):
            policy = BatchDirectionPolicy(
                total_edges=self.graph.num_edges,
                num_lanes=len(clones),
                start_direction=self.streams[0].selector.start_direction,
            )
        max_iterations = lanes.prototype.max_iterations
        unconverged = False

        while any(f.size for f in frontiers) and self.iteration < max_iterations:
            self.iteration = iteration = self.iteration + 1
            live = tuple(k for k, f in enumerate(frontiers) if f.size)
            for lane in live:
                self.lane_iterations[lane] = iteration
            step = _Step(self, iteration, live)
            if sanitizer is not None:
                sanitizer.begin_superstep(iteration, metadata)

            # ---------------- compute + per-lane drain ------------------
            # A lane drains once its last unit computed it: in the lane
            # loop, else at the end of that unit, else here.
            units = self._plan(step, policy)
            step.last_unit = {lane: u for u in units for lane in u.lanes}
            for unit in units:
                if unit.direction is Direction.PUSH:
                    self._expand_push(unit, step)
                else:
                    self._expand_pull(unit, step)
                for lane in unit.lanes:
                    if step.last_unit[lane] is unit:
                        self._drain(step, lane)
            for lane in live:
                self._drain(step, lane)

            # ---------------- task management, records -----------------
            for unit in units:
                self._finish_unit(unit, step)
            if sharded:
                # Each shard drains its boundary updates after its units;
                # the superstep's last record carries what each received
                # and the receive buffer that took it.
                last = self.records[-1]
                last.received = tuple(step.received)
                last.boundary_bytes = tuple(
                    map(self.sharding.boundary_buffer_bytes, step.received)
                )

            # ---------------- next frontiers ----------------------------
            # The one next-frontier rule: a lane continues from a ballot
            # scan's worklist when the scan covered exactly that lane over
            # the whole vertex range (it may hold active vertices that
            # received nothing, e.g. delta-stepping's pending set); every
            # other lane takes its ``received ∩ active`` from Combine's
            # receiver sets - O(|received|), and the set any thread-bin
            # worklist holds.
            unconverged = False
            for lane in live:
                active = step.active[lane]
                frontier = step.scanned.get(lane)
                if frontier is None:
                    received = _concat([
                        step.touched.get((owner, lane), _EMPTY)
                        for owner in range(len(self.streams))
                    ])
                    frontier = _take(received, active.take(received).nonzero()[0])
                if frontier.size == 0 and not clones[lane].converged(
                    metadata[lane], step.prev[lane], iteration
                ):
                    # The algorithm wants more iterations despite an empty
                    # worklist (delta-stepping advancing its bucket).
                    unconverged = True
                    frontier = np.flatnonzero(active)
                frontiers[lane] = frontier
            if sanitizer is not None:
                sanitizer.end_superstep(iteration, metadata, frontiers)
        # Reported, not failed: the capped values are still the answer.
        self.stopped_at_cap = self.iteration >= max_iterations and (
            unconverged or any(f.size for f in frontiers)
        )

    def _drain(self, step: _Step, lane: int) -> None:
        """Frontier hook, Combine + apply per owner in ascending stream
        order - each queue in arrival (= source-ascending) order - and the
        lane's active mask; once."""
        if lane in step.active:
            return
        clone, row = self.lanes.clones[lane], self.lanes.metadata[lane]
        clone.on_frontier_expanded(self.lanes.frontiers[lane], row)
        for owner in range(len(self.streams)):
            queue = step.pending.pop((owner, lane), None)
            if queue:
                updates, dst, ids_sorted = queue[0] if len(queue) == 1 else (
                    np.concatenate([u for u, _, _ in queue]),
                    np.concatenate([d for _, d, _ in queue]), False,
                )
                step.touched[owner, lane], applied = self.engine._combine_and_apply(
                    clone, row, updates, dst, ids_sorted
                )
                step.applied[lane] = step.applied.get(lane, 0) + applied
        # A one-lane unit's active union is the lane's own mask.
        step.active[lane] = step.active_unions[(lane,)] = np.asarray(
            clone.active_mask(row, step.prev[lane]), dtype=bool
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self, step: _Step, policy) -> List[_Unit]:
        """Directions and work units of one superstep, in execution order."""
        engine, lanes = self.engine, self.lanes
        frontiers, live, streams = lanes.frontiers, step.live, self.streams
        sharded = self.sharding is not None

        union = self._union([frontiers[lane] for lane in live])
        if sharded:
            slices = [
                union[slice(*_range_rows(union, s.start, s.stop))]
                for s in streams
            ]
        else:
            slices = [union]
        # The Beamer-style test prices each stream's frontier slice by its
        # out-edges (the would-be push cost); a push unit over the slice
        # reuses the classification, a pull unit reclassifies its gather
        # worklist by in-degree.
        classified = [engine.classifier.classify(s) for s in slices]
        forced = engine._forced_direction(step.iteration)
        directions = [
            stream.selector.decide(sized.total_edges) if forced is None
            else stream.selector.force(forced)
            for stream, sized in zip(streams, classified)
        ]
        if len(live) == 1:
            step.lane_out_edges = {live[0]: sum(c.total_edges for c in classified)}
        else:
            step.lane_out_edges = {
                lane: engine.classifier.edge_count(frontiers[lane])
                for lane in live
            }

        units: List[_Unit] = []
        if sharded:
            any_push = Direction.PUSH in directions
            if any_push and Direction.PULL in directions:
                # Mixed superstep: scatters keep only the edges whose
                # destination owner is push-mode; pull-mode owners gather
                # theirs. (Needed only then - the mask is n-sized.)
                step.dst_is_push = np.zeros(self.graph.num_vertices, dtype=bool)
                for stream, direction in zip(streams, directions):
                    if direction is Direction.PUSH:
                        step.dst_is_push[stream.start:stream.stop] = True
            for t, stream in enumerate(streams):
                in_range = [
                    lane for lane in live
                    if _reaches(frontiers[lane], stream.start, stream.stop)
                ] if slices[t].size else []
                if any_push and slices[t].size:
                    units.append(_Unit(
                        Direction.PUSH, live, stream, slices[t],
                        range_lanes=in_range, classified=classified[t],
                    ))
                if directions[t] is Direction.PULL:
                    unit = _Unit(
                        Direction.PULL, live, stream, slices[t],
                        range_lanes=in_range,
                    )
                    self._gather_worklist(unit, step)
                    if unit.worklist.size or unit.frontier.size:
                        units.append(unit)
            return units

        main = streams[0]
        if lanes.batched:
            groups = self._lane_groups(step, policy, directions[0])
        else:
            groups = [SubBatchPlan(directions[0], (live[0],))]
        for index, group in enumerate(groups):
            # A split group's frontier is the union of its own lanes'.
            unit = _Unit(
                group.direction, group.lanes,
                main if index == 0 else self.side,
                union if len(groups) == 1
                else self._union([frontiers[lane] for lane in group.lanes]),
            )
            if group.direction is Direction.PULL:
                self._gather_worklist(unit, step)
            elif len(groups) == 1:
                unit.classified = classified[0]
            units.append(unit)
        return units

    def _lane_groups(self, step: _Step, policy, union_direction) -> List[SubBatchPlan]:
        """Lane groups of a single-device batched superstep + their streams.

        The main stream serves single-group supersteps and the first group
        of a split; a split forks a side stream from it (same ballot/online
        mode, same last direction - what every lane experienced up to the
        split), which persists across consecutive split supersteps and
        retires on re-merge.
        """
        engine, lanes = self.engine, self.lanes
        in_degrees = engine.in_degrees

        def pull_estimate(lane: int) -> Tuple[int, int]:
            candidates = self._candidates(step, lane)
            return int(in_degrees[candidates].sum()), int(candidates.size)

        groups = engine._plan_groups(
            step.iteration, step.live, step.lane_out_edges, lanes.frontiers,
            pull_estimate, union_direction, policy,
            DEFAULT_TRAFFIC_MODEL.voting_pull_scan_fraction
            if lanes.prototype.combine_kind is CombineKind.VOTING else 1.0,
        )
        if self.sanitizer is not None:
            self.sanitizer.check_groups(step.iteration, step.live, groups)
        main = self.streams[0]
        if len(groups) > 1:
            if self.side is None:
                self.side = copy.copy(main)
                self.side.jit, self.side.sortedness = None, 1.0
            if self.side.jit is None:
                self.side.jit = main.jit.fork()
                self.jits.append(self.side.jit)
        elif self.side is not None:
            # Decisions reconverged: the side stream retires, the main
            # stream carries on for the merged batch.
            self.side.jit = None
        return groups

    def _candidates(self, step: _Step, lane: int) -> np.ndarray:
        """Destinations lane ``lane`` gathers at this superstep.

        The algorithm's ``gather_mask`` prunes destinations that provably
        cannot receive a valid update - including frontier-dependent bounds
        (only frontier sources contribute, so e.g. SSSP prunes destinations
        already at or below the frontier's best distance); vertices without
        in-edges have nothing to gather either way. Cached per superstep so
        the planner's pull scoring and the pull expansion price the same
        worklist, computed from iteration-start metadata. The membership
        mask it is selected from stays beside it for the pull lane loop.
        """
        if lane not in step.candidates:
            lanes = self.lanes
            mask = np.asarray(
                lanes.clones[lane].gather_mask(
                    lanes.metadata[lane], self.graph, lanes.frontiers[lane]
                ),
                dtype=bool,
            ) & (self.engine.in_degrees > 0)  # a new array: the hook's stays
            step.candidate_masks[lane] = mask
            step.candidates[lane] = np.flatnonzero(mask)
        return step.candidates[lane]

    def _gather_worklist(self, unit: _Unit, step: _Step) -> None:
        """A pull unit gathers at its lanes' candidates inside its range."""
        stream = unit.stream
        unit.lane_candidates = []
        for lane in unit.lanes:
            candidates = self._candidates(step, lane)
            if self.sharding is not None:
                lo, hi = _range_rows(candidates, stream.start, stream.stop)
                candidates = candidates[lo:hi]
            unit.lane_candidates.append(candidates)
        unit.worklist = self._union(unit.lane_candidates)

    def _union(self, parts: List[np.ndarray]) -> np.ndarray:
        """Canonical union of canonical id sets; one part is itself."""
        parts = [p for p in parts if p.size]
        if len(parts) <= 1:
            return parts[0] if parts else _EMPTY
        return self.engine.kernel.union_sorted(parts, self.graph.num_vertices)

    def _bitmap(self, step: _Step, lane: int) -> np.ndarray:
        """Lane ``lane``'s frontier as an n-sized membership mask - the one
        answer push and pull units read to "is this walked edge's source in
        the lane's frontier?"; built at most once per superstep."""
        bitmap = step.bitmaps.get(lane)
        if bitmap is None:
            bitmap = step.bitmaps[lane] = self.engine.kernel.membership_mask(
                self.lanes.frontiers[lane], self.graph.num_vertices
            )
        return bitmap

    # ------------------------------------------------------------------
    # Expansion: one scatter, one gather
    # ------------------------------------------------------------------
    def _expand_push(self, unit: _Unit, step: _Step) -> None:
        """Scatter: walk the unit's frontier out-edges once and expand each
        edge into the lanes whose frontier contains its source.

        Pairs are assembled lane-major with each lane's edges in walk
        order, which is exactly the edge order of that lane's independent
        run - so the per-destination combine order, and therefore the
        metadata, is bit-identical per lane under every grouping.
        """
        csr = self.graph.out_csr
        worklist = unit.frontier
        slot, edge_idx, total = self.engine._walk_edges(csr, worklist)
        kept = 0
        recorded = producers = _EMPTY
        if total:
            dst = csr.targets.take(edge_idx).astype(np.int64)
            if step.dst_is_push is not None:
                keep = step.dst_is_push.take(dst).nonzero()[0]
                if keep.size != dst.size:
                    slot, dst, edge_idx = (
                        slot.take(keep), dst.take(keep), edge_idx.take(keep)
                    )
            kept = int(dst.size)

        def lane_parts(src):
            if len(unit.range_lanes) == 1:
                # Every frontier row belongs to the one lane: no mask.
                yield unit.range_lanes[0], None
                return
            for lane in unit.range_lanes:
                lane_edges = self._bitmap(step, lane).take(src).nonzero()[0]
                if lane_edges.size:
                    yield lane, lane_edges

        if kept:
            weights = None
            if self.lanes.prototype.uses_weights:
                weights = csr.weights.take(edge_idx).astype(np.float64)
            src = worklist.take(slot)
            valid = self._compute_and_route(
                unit, step, lane_parts(src), src, dst, weights
            )
            recorded, producers = _take(dst, valid), _take(slot, valid)
        unit.expansion = _ExpansionResult(
            recorded_destinations=recorded,
            recorded_producers=producers,
            num_workers=int(worklist.size),
            active_edges=kept,
        )

    def _expand_pull(self, unit: _Unit, step: _Step) -> None:
        """Gather: walk the in-edges of the unit's gather worklist once,
        testing the frontier bitmap before any edge array exists; a lane
        keeps a walked in-edge when the source is in its own frontier *and*
        the destination is in its own gather worklist.

        Per lane the kept edge set is the frontier's out-edge set (minus
        edges ``gather_mask`` proved updateless), the per-edge operands
        match the push path, and the in-CSR's (destination, source) sort
        order reproduces the push path's per-destination combine order -
        so push and pull produce bit-identical vertex values.
        """
        kernel, n = self.engine.kernel, self.graph.num_vertices
        csr = self.graph.in_csr
        per_lane = zip(unit.lanes, unit.lane_candidates)
        present = [(lane, c) for lane, c in per_lane if c.size]  # lanes that gather
        bitmaps = [self._bitmap(step, lane) for lane, _ in present]
        # The walk keeps the in-edges whose source some lane's frontier holds.
        sources = bitmaps[0] if len(bitmaps) == 1 else reduce(
            np.logical_or, bitmaps, np.zeros(n, dtype=bool)
        )
        src, dst, edge_idx, _ = kernel.walk_kept(
            csr, unit.worklist, sources, self.lanes.prototype.uses_weights
        )
        active = int(src.size)
        if active:
            weights = None
            if edge_idx is not None:
                weights = csr.weights.take(edge_idx).astype(np.float64)
            kept_any = None
            if len(present) == 1:
                parts = [(present[0][0], None)]
            else:
                kept_any = np.zeros(active, dtype=bool)  # edges some lane kept

                def lane_parts():
                    for (lane, candidates), bitmap in zip(present, bitmaps):
                        keep = bitmap.take(src)
                        if candidates.size != unit.worklist.size:
                            keep &= step.candidate_masks[lane].take(dst)
                        np.logical_or(kept_any, keep, out=kept_any)
                        lane_edges = keep.nonzero()[0]
                        if lane_edges.size == active:
                            yield lane, None
                        elif lane_edges.size:
                            yield lane, lane_edges

                parts = lane_parts()
            self._compute_and_route(unit, step, parts, src, dst, weights)
            if kept_any is not None:
                active = int(np.count_nonzero(kept_any))
        unit.expansion = _ExpansionResult(
            recorded_destinations=_EMPTY, recorded_producers=_EMPTY, num_workers=0,
            active_edges=active,
        )

    def _compute_and_route(self, unit: _Unit, step: _Step, parts, src, dst, weights):
        """Compute every ``(edge, lane)`` pair of ``parts``, one lane at a
        time, and queue each lane's valid updates at their owners.

        ``src``, ``dst`` and the float64 ``weights`` (``None`` unless the
        algorithm ``uses_weights``) are the unit's walked edges, gathered
        once for all its lanes; a lane gathers from its metadata row only
        the operands the algorithm declares it reads (``reads_src_meta`` /
        ``reads_dst_meta``), ``None`` for the rest. ``parts`` yields ``(lane,
        edge positions)`` lazily, ``None`` meaning "every edge" (the walked
        arrays themselves - no gather). A lane is computed, filtered and
        routed before the next lane's edge positions exist, so a unit's
        Compute temporaries are one lane's pairs, whatever K is. Every
        selection is by index (``nonzero`` positions + ``take``): an SSSP
        gather lane's valid updates are sparse (a median 6.5 % of its pairs
        on LJ), where numpy's boolean compress costs several times as much
        (``docs/batching.md``, "What a lane pays"). A push unit gets back
        the ascending positions of the edges that produced a valid update
        in any lane (``None`` for all) - what its task-management pass
        records; a pull unit records receivers instead and gets ``None``.
        """
        lanes, graph = self.lanes, self.graph
        push = unit.direction is Direction.PUSH
        reads_src = lanes.prototype.reads_src_meta
        reads_dst = lanes.prototype.reads_dst_meta
        # Only a sharded gather needs the sources again after Compute, to
        # count its boundary reads.
        remote_reads = self.sharding is not None and not push
        keys = unit.atomic_keys = [] if self.engine.config.atomic_combine else None
        hit = None  # edge positions with a valid update: one lane's, or a mask
        for lane, at in parts:
            alg, row = lanes.clones[lane], lanes.metadata[lane]
            s, d = _take(src, at), _take(dst, at)
            updates = np.asarray(
                alg.compute_edges(
                    row.take(s) if reads_src else None,
                    None if weights is None else _take(weights, at),
                    row.take(d) if reads_dst else None,
                    s, d, graph,
                ),
                dtype=np.float64,
            )
            unit.lane_pairs += int(updates.size)
            valid = (updates == updates).nonzero()[0]  # NaN is no update
            unit.updates_valid += int(valid.size)
            if push:
                lane_hit = valid if at is None else at.take(valid)
                if hit is None:
                    hit = lane_hit  # one lane's positions: no mask yet
                else:
                    if hit.dtype != bool:
                        mask = np.zeros(dst.size, dtype=bool)
                        mask[hit] = True
                        hit = mask
                    hit[lane_hit] = True
            if valid.size != updates.size:
                updates, d = updates.take(valid), d.take(valid)
                if remote_reads:
                    s = s.take(valid)
            if keys is not None:
                keys.append(d + lane * graph.num_vertices)
            if updates.size:
                self._route(
                    unit, step, lane, updates, d, s if remote_reads else None
                )
            if step.last_unit[lane] is unit:
                self._drain(step, lane)
        if hit is None:
            return None
        if hit.dtype == bool:
            hit = hit.nonzero()[0]
        return None if hit.size == dst.size else hit

    def _route(self, unit, step, lane, updates, dst, src) -> None:
        """Queue one lane's valid updates at their destination owners."""
        here = unit.stream.index
        pull = unit.direction is Direction.PULL
        if self.sharding is None:
            step.pending.setdefault((0, lane), []).append((updates, dst, pull))
            return
        if pull:
            # A gather's destinations are its own shard's, non-decreasing;
            # its sources may live on a remote shard - a boundary read.
            step.pending.setdefault((here, lane), []).append((updates, dst, True))
            local = (src >= unit.stream.start) & (src < unit.stream.stop)
            step.received[here] += src.size - int(np.count_nonzero(local))
            return
        owner = self.sharding.plan.owner_of(dst)
        counts = np.bincount(owner, minlength=len(self.streams))
        for t in np.flatnonzero(counts).tolist():
            member = owner == t
            step.pending.setdefault((t, lane), []).append(
                (updates[member], dst[member], False)
            )
            if t != here:
                step.received[t] += int(counts[t])

    # ------------------------------------------------------------------
    # Per-unit tail: task management and the record
    # ------------------------------------------------------------------
    def _offer_success_rate(self, unit_lanes, step: _Step) -> float:
        """Estimated share of scatter offers that can still change a vertex.

        A scatter worker records an entry only when its offer *changes* the
        destination, so the pre-arm bound (max frontier out-degree) is
        pessimistic on mostly-settled graphs. The algorithm's frontier-free
        ``gather_mask`` marks exactly the vertices that can still receive a
        valid update (the unvisited share for BFS, the surviving core for
        k-Core); its population share over the pre-iteration metadata - a
        destination counts if *any* of the unit's lanes can still update
        it - is the global estimate of a hub's per-neighbour success
        probability. The estimate assumes the hub's neighbourhood is not
        systematically less settled than the rest of the graph - if it ever
        is, the generic overflow signal still corrects the filter choice
        within the same iteration, at the cost of the incomplete online
        pass the pre-arm exists to skip.
        """
        n = self.graph.num_vertices
        if n == 0:
            return 1.0
        updatable = np.zeros(n, dtype=bool)
        for lane in unit_lanes:
            updatable |= np.asarray(
                self.lanes.clones[lane].gather_mask(
                    step.prev[lane], self.graph, None
                ),
                dtype=bool,
            )
        return float(updatable.mean())

    def _finish_unit(self, unit: _Unit, step: _Step) -> None:
        """One task-management pass per unit, recorded exactly like a
        single-source iteration over the unit's worklist."""
        engine, lanes, stream = self.engine, self.lanes, unit.stream
        push = unit.direction is Direction.PUSH
        classified = unit.classified
        if classified is None:
            classifier = engine.classifier if push else engine.pull_classifier
            classified = classifier.classify(unit.worklist)
        expansion = unit.expansion
        if not push:
            # A gather worker learns only about its own vertex: it records
            # the destination once, post-combine, not once per incoming
            # edge. Workers whose gather produced nothing own empty bins,
            # so the filter context only sees the receivers (with compacted
            # worker slots).
            receivers = self._union([
                step.touched.get((stream.index, lane), _EMPTY)
                for lane in unit.lanes
            ])
            expansion.recorded_destinations = receivers
            expansion.recorded_producers = np.arange(receivers.size, dtype=np.int64)
            expansion.num_workers = int(receivers.size)
        unit_active = step.active_unions.get(unit.lanes)
        if unit_active is None:
            unit_active = step.active_unions[unit.lanes] = np.logical_or.reduce(
                [step.active[lane] for lane in unit.lanes]
            )
        success_rate = 1.0
        if (
            push and stream.jit.mode is FilterMode.JIT
            and stream.jit.last_direction is Direction.PULL
        ):
            # Pull->push hand-over on this stream: the pre-arm bound folds
            # in the expected offer success rate (only the adaptive
            # controller reads it).
            success_rate = self._offer_success_rate(unit.lanes, step)
        atomic_profile = None
        if engine.config.atomic_combine:
            # A unit that computed nothing issued no atomics.
            keys = unit.atomic_keys
            atomic_profile = profile_atomic_updates(
                _concat(keys) if keys else _EMPTY
            )
        filter_result = engine._finish_iteration(
            classified=classified,
            direction=unit.direction,
            expansion=expansion,
            active_mask=unit_active,
            stream=stream,
            iteration=step.iteration,
            success_rate=success_rate,
        )
        sizes = classified.sizes
        if (
            filter_result.is_sorted and len(unit.lanes) == 1
            and self.sharding is None
        ):
            step.scanned[unit.lanes[0]] = filter_result.worklist
        record = IterationRecord(
            iteration=step.iteration,
            direction=unit.direction.value,
            frontier_vertices=int(unit.frontier.size),
            frontier_edges=int(classified.total_edges),
            filter_used=stream.jit.decisions[-1].filter_used,
            filter_overflowed=filter_result.overflowed,
            active_edges=int(expansion.active_edges),
            lane_edge_pairs=unit.lane_pairs if lanes.batched else 0,
            active_lanes=len(unit.range_lanes) if lanes.batched else 0,
            updates_valid=unit.updates_valid,
            # Each lane's applies count once: in the unit it drained in.
            updates_applied=sum(
                step.applied.get(lane, 0) for lane in unit.lanes
                if step.last_unit[lane] is unit
            ),
            atomic_profile=atomic_profile,
            stream=stream.index,
            sizes=sizes,
            small_divergence=(
                divergence_fraction(classified.small_degrees)
                if sizes.small_vertices else 0.0
            ),
            sortedness=stream.sortedness,
            filter_work=filter_result.work,
            weighted=lanes.prototype.uses_weights,
            voting=lanes.prototype.combine_kind is CombineKind.VOTING,
        )
        stream.sortedness = filter_result.sortedness
        self.records.append(record)
