"""Test seams: engines and servers that take orders from the harness.

The production surface decides everything itself (``EngineConfig`` has no
schedule or backend fields, ``SIMDXServer`` no dispatch callback); the
tests that prove "results are bit-identical under *every* direction
schedule / lane grouping / kernel / cancellation window" impose theirs by
subclassing, at the points the superstep driver and the dispatch loop
already ask a method or an attribute:

* :meth:`SIMDXEngine._forced_direction` - the manual direction of a
  superstep (``None`` = automatic);
* :meth:`SIMDXEngine._plan_groups` - the lane groups of a batched
  superstep;
* ``SIMDXEngine.kernel`` and :meth:`SIMDXEngine._walk_edges` - the kernel
  primitives every path runs, and the scatter walk;
* :meth:`SIMDXServer._dispatch` - every popped batch on its way to the
  engine.

:class:`RecordingEngine`, :class:`FrontierRecordingEngine` and
:class:`UpdateRecordingEngine` only watch: the first logs the order in
which a batched superstep computes, hooks and combines its lanes, the
second what each task-management pass built and the frontier each lane
continued from, the third each superstep's updates as the ACC hooks see
them.
"""

from __future__ import annotations

import copy
import inspect
from collections import Counter, defaultdict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.direction import Direction, SubBatchPlan
from repro.core.engine import SIMDXEngine
from repro.serve import SIMDXServer
from tests.oracles import PythonKernelBackend

#: ``split_schedule(iteration, live_lanes)`` returns the ``(direction,
#: lanes)`` sub-batches of that iteration (a partition of ``live_lanes``),
#: or ``None`` to fall through to the automatic policy.
SplitSchedule = Callable[
    [int, List[int]], Optional[List[Tuple[Direction, List[int]]]]
]


class ScheduledEngine(SIMDXEngine):
    """A :class:`SIMDXEngine` driven by explicit schedules.

    ``direction_schedule``: iteration ``i`` runs
    ``schedule[min(i - 1, len - 1)]`` (the last entry repeats) on every
    stream, and lane-aware splitting is off - as under
    ``EngineConfig.forced_direction``. ``split_schedule`` (batched runs on
    one device): see :data:`SplitSchedule`.
    """

    def __init__(
        self,
        graph,
        device=None,
        config=None,
        *,
        direction_schedule: Optional[Sequence[Direction]] = None,
        split_schedule: Optional[SplitSchedule] = None,
    ):
        super().__init__(graph, device=device, config=config)
        self.direction_schedule = direction_schedule
        self.split_schedule = split_schedule

    def _forced_direction(self, iteration: int) -> Optional[Direction]:
        schedule = self.direction_schedule
        if schedule is None:
            return super()._forced_direction(iteration)
        return schedule[min(iteration - 1, len(schedule) - 1)]

    def _plan_groups(
        self, iteration, live, lane_out_edges, lane_frontiers, pull_estimate,
        union_direction, policy, pull_scan_fraction,
    ) -> List[SubBatchPlan]:
        if self.direction_schedule is not None:
            policy = None  # a manual direction plans no lane groups
        forced = None
        if self.split_schedule is not None:
            forced = self.split_schedule(iteration, list(live))
        if forced is None:
            return super()._plan_groups(
                iteration, live, lane_out_edges, lane_frontiers,
                pull_estimate, union_direction, policy, pull_scan_fraction,
            )
        seen: List[int] = []
        groups = []
        for direction, lanes in forced:
            lanes = [int(lane) for lane in lanes]
            seen.extend(lanes)
            if lanes:  # an empty group has nothing to execute
                groups.append(SubBatchPlan(direction, tuple(lanes)))
        if sorted(seen) != sorted(live):
            raise ValueError(
                f"split_schedule for iteration {iteration} must partition "
                f"the live lanes {sorted(live)}, got {sorted(seen)}"
            )
        if policy is not None:
            # Keep the per-lane selectors (and split_history) in step with
            # what actually executes, so automatic iterations interleaved
            # with forced ones plan from real hysteresis.
            policy.force(groups)
        return groups


class ReferenceKernelEngine(ScheduledEngine):
    """A :class:`ScheduledEngine` on the loop reference primitives.

    ``kernel`` (default: a :class:`~tests.oracles.PythonKernelBackend`)
    replaces ``SIMDXEngine.kernel``, and :meth:`_walk_edges` calls its
    ``walk_edges``, so single runs, batches and every shard of a sharded
    run execute no vectorized primitive. Results must be bit-identical to
    the plain engine's (``docs/kernels.md``).
    """

    def __init__(self, *args, kernel=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel = kernel if kernel is not None else PythonKernelBackend()

    def _walk_edges(self, csr, worklist):
        return self.kernel.walk_edges(csr, worklist)


#: The reference-kernel axis: the engine class that runs each kernel, the
#: shipped vectorized one and the loop reference (both take the
#: :class:`ScheduledEngine` schedules).
KERNEL_ENGINES = {"numpy": ScheduledEngine, "python": ReferenceKernelEngine}


#: The per-lane ACC hooks :class:`RecordingEngine` logs.
RECORDED_HOOKS = ("compute_edges", "on_frontier_expanded", "active_mask")


class RecordingEngine(ScheduledEngine):
    """A :class:`ScheduledEngine` that logs a batched run's schedule.

    ``events`` receives ``("superstep", iteration)`` as each superstep plans
    (the driver asks :meth:`_forced_direction` once per superstep), then
    ``(hook, lane)`` for every call of a :data:`RECORDED_HOOKS` hook and
    ``("combine", lane)`` for every :meth:`SIMDXEngine._combine_and_apply`,
    in call order. ``run_batch`` runs a recording subclass of the caller's
    algorithm whose per-lane copies carry their lane index, so the driver's
    own clones log themselves.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events: List[Tuple[str, int]] = []

    def _forced_direction(self, iteration: int) -> Optional[Direction]:
        self.events.append(("superstep", iteration))
        return super()._forced_direction(iteration)

    def _combine_and_apply(self, algorithm, *args, **kwargs):
        self.events.append(("combine", algorithm.recorded_lane))
        return super()._combine_and_apply(algorithm, *args, **kwargs)

    def run_batch(self, algorithm, sources, lane_params=None, **params):
        events = self.events

        def logged(hook):
            def call(alg, *args):
                events.append((hook, alg.recorded_lane))
                return getattr(super(recording, alg), hook)(*args)
            return call

        base = type(algorithm)
        recording = type(f"Recording{base.__name__}", (base,), {
            "recorded_lane": None,
            **{hook: logged(hook) for hook in RECORDED_HOOKS},
        })
        algorithm = copy.copy(algorithm)
        algorithm.__class__ = recording
        lane_params = [
            {**(lane_params[lane] if lane_params else {}), "recorded_lane": lane}
            for lane in range(len(sources))
        ]
        return super().run_batch(algorithm, sources, lane_params, **params)


class FrontierRecordingEngine(ScheduledEngine):
    """A :class:`ScheduledEngine` that logs both sides of the
    next-frontier rule.

    ``passes`` receives ``(iteration, lanes, worklist, is_sorted)`` for
    every task-management pass (:meth:`SIMDXEngine._finish_iteration`), in
    unit order; ``lanes`` is the unit's lane group - the planned group of
    a batched superstep on one device, else ``(0,)``, which covers every
    unit of a ``run`` on any number of shards (batched shards are not
    supported). ``frontiers[iteration, lane]`` is the frontier lane
    ``lane`` expanded at superstep ``iteration``, as its
    ``on_frontier_expanded`` hook received it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.passes: List[tuple] = []
        self.frontiers = {}
        self._groups = {}
        self._iteration = 0

    def _forced_direction(self, iteration: int) -> Optional[Direction]:
        self._iteration = iteration  # asked once per superstep, first
        return super()._forced_direction(iteration)

    def _plan_groups(self, iteration, live, *args):
        groups = super()._plan_groups(iteration, live, *args)
        self._groups[iteration] = [group.lanes for group in groups]
        return groups

    def _finish_iteration(self, **kwargs):
        out = super()._finish_iteration(**kwargs)
        iteration, result = kwargs["iteration"], out[0]
        index = sum(1 for p in self.passes if p[0] == iteration)
        groups = self._groups.get(iteration)
        self.passes.append((
            iteration, groups[index] if groups else (0,),
            result.worklist.copy(), result.is_sorted,
        ))
        return out

    def _recording(self, algorithm):
        frontiers, engine = self.frontiers, self
        base = type(algorithm)

        def on_frontier_expanded(alg, frontier, metadata):
            frontiers[engine._iteration, alg.recorded_lane] = frontier.copy()
            return base.on_frontier_expanded(alg, frontier, metadata)

        recording = type(f"FrontierRecording{base.__name__}", (base,), {
            "recorded_lane": 0, "on_frontier_expanded": on_frontier_expanded,
        })
        algorithm = copy.copy(algorithm)
        algorithm.__class__ = recording
        return algorithm

    def run(self, algorithm, **params):
        return super().run(self._recording(algorithm), **params)

    def run_batch(self, algorithm, sources, lane_params=None, **params):
        lane_params = [
            {**(lane_params[lane] if lane_params else {}), "recorded_lane": lane}
            for lane in range(len(sources))
        ]
        return super().run_batch(
            self._recording(algorithm), sources, lane_params, **params
        )


class UpdateRecordingEngine(ScheduledEngine):
    """A :class:`ScheduledEngine` that counts each superstep's updates from
    the ACC hooks' side of the engine, in every lane.

    ``valid[i]`` counts superstep ``i``'s non-NaN ``compute_edges``
    outputs and ``destinations[i]`` holds their destinations (one array
    per call); ``applied[i]`` counts the vertices whose ``apply`` result
    differs from their old metadata - what the iteration records'
    ``updates_valid``, ``atomic_profile`` and ``updates_applied`` report.
    Combine it with another engine of this module by subclassing both.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.valid = Counter()
        self.applied = Counter()
        self.destinations = defaultdict(list)
        self._iteration = 0

    def _forced_direction(self, iteration: int) -> Optional[Direction]:
        self._iteration = iteration  # asked once per superstep, first
        return super()._forced_direction(iteration)

    def _recording(self, algorithm):
        engine, base = self, type(algorithm)

        def compute_edges(alg, *args):
            updates = np.asarray(base.compute_edges(alg, *args), dtype=np.float64)
            valid = ~np.isnan(updates)
            engine.valid[engine._iteration] += int(np.count_nonzero(valid))
            engine.destinations[engine._iteration].append(np.asarray(args[4])[valid])
            return updates

        def apply(alg, old, combined, touched):
            new = base.apply(alg, old, combined, touched)
            engine.applied[engine._iteration] += int(np.count_nonzero(new != old))
            return new

        recording = type(f"UpdateRecording{base.__name__}", (base,), {
            "compute_edges": compute_edges, "apply": apply,
        })
        algorithm = copy.copy(algorithm)
        algorithm.__class__ = recording
        return algorithm

    def run(self, algorithm, **params):
        return super().run(self._recording(algorithm), **params)

    def run_batch(self, algorithm, sources, lane_params=None, **params):
        return super().run_batch(
            self._recording(algorithm), sources, lane_params, **params
        )


def random_split_schedule(seed: int) -> SplitSchedule:
    """Random per-iteration partition into a push and a pull group."""
    rng = np.random.default_rng(seed)

    def schedule(iteration, live):
        if len(live) < 2 or rng.random() < 0.25:
            return None  # fall through to the automatic policy
        cut = int(rng.integers(1, len(live)))
        order = list(rng.permutation(live))
        return [
            (Direction.PUSH, sorted(int(v) for v in order[:cut])),
            (Direction.PULL, sorted(int(v) for v in order[cut:])),
        ]

    return schedule


class InterceptingServer(SIMDXServer):
    """A :class:`SIMDXServer` that hands every popped batch to
    ``before_dispatch`` after it leaves the queue and before the engine
    runs - the only window in which a caller counts as "cancelled after
    dispatch". An awaitable it returns is awaited first, which holds the
    dispatch loop inside the batch (nothing else dispatches or applies
    updates) until it resolves."""

    def __init__(self, *args, before_dispatch, **kwargs):
        super().__init__(*args, **kwargs)
        self.before_dispatch = before_dispatch

    async def _dispatch(self, batch) -> None:
        held = self.before_dispatch(batch)
        if inspect.isawaitable(held):
            await held
        await super()._dispatch(batch)
