"""Push / pull direction selection and the per-direction traffic model.

Graph algorithms on SIMD-X run each iteration either in *push* mode (expand
the out-edges of the active frontier and scatter updates to destinations) or
*pull* mode (every not-yet-converged destination gathers from its in-edges).
Section 5 observes that consecutive iterations cluster into push and pull
phases - BFS/SSSP push at the beginning and end and pull in the middle, when
the frontier covers most of the graph; k-Core pulls first and pushes at the
end; PageRank pulls until most ranks are stable and then pushes. Push-pull
kernel fusion exploits exactly this clustering, and the JIT task manager
(:mod:`repro.core.jit`) keys its filter choice off the same signal: a gather
worker records at most one destination, so pull phases always run the online
filter and the ballot filter is pre-armed only at the pull->push boundary.

Two pieces live here:

* :class:`DirectionSelector` reproduces the switching behaviour with the
  classic direction-optimizing heuristic (Beamer et al.): switch to pull
  when the frontier's outgoing edges exceed ``to_pull_threshold`` (default
  5%) of all edges, switch back to push when the share drops below
  ``to_push_threshold`` (default 1%). Algorithms that inherently start in
  pull mode set ``starts_in_pull`` on their ACC spec.
* :class:`TrafficModel` holds the calibrated per-edge / per-vertex compute
  constants the engine charges for each direction. A push iteration pays
  full per-edge work for every expanded out-edge; a pull iteration pays a
  cheap frontier-bitmap test per *scanned* in-edge and the full per-edge
  work only for the *active* (frontier-sourced) share. The shipped values
  are validated against measured per-phase timings by
  ``repro.bench.experiments.phase_timings`` and recorded in the generated
  EXPERIMENTS.md baseline.

For batched multi-source execution a third piece applies the same machinery
per query lane: :class:`BatchDirectionPolicy` keeps one
:class:`DirectionSelector` per lane, scores each lane's own frontier with
the :class:`TrafficModel`, and decides per iteration whether the batch runs
as one union sub-batch or splits into a push-leaning and a pull-leaning
sub-batch (``docs/batching.md``, "Lane-aware direction selection"). The
policy exists because the union frontier can cross the pull threshold
before any single lane would (road graphs, barely-pruned SSSP gathers):
deciding once on the union then scans more in-edges than a serial loop
walks. Splitting restores the per-lane decision exactly where it diverges,
and re-merges lanes as soon as their decisions reconverge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


class Direction(enum.Enum):
    PUSH = "push"
    PULL = "pull"


@dataclass(frozen=True)
class TrafficModel:
    """Per-direction compute-op constants of the engine's cost model.

    The constants translate "algorithmic events" into compute operations the
    device model prices alongside the memory traffic
    (:func:`repro.gpu.memory.frontier_expansion_traffic` /
    :func:`repro.gpu.memory.pull_expansion_traffic`). They are deliberately
    small integers: the calibration experiment
    (``repro.bench.experiments.phase_timings``) fits the same quantities
    back out of measured per-phase timings and EXPERIMENTS.md records the
    fit next to these shipped values, so a future change to either side
    shows up as a diff against the committed baseline.

    Attributes
    ----------
    push_edge_ops:
        Full per-edge work of a scatter: read source metadata, evaluate
        ``Compute``, stage the update for the combine.
    pull_scan_ops:
        Per *scanned* in-edge work of a gather: one frontier-bitmap test,
        paid whether or not the source is active.
    pull_active_edge_ops:
        Additional per-edge work for in-edges whose source is in the
        frontier (the scattered metadata read plus the ``Compute``
        evaluation) - identical to the push per-edge work by construction.
    vertex_ops:
        Per-worklist-vertex overhead in either direction (worklist read,
        offset fetch, combine/apply tail).
    voting_pull_scan_fraction:
        Share of candidate in-edges a *voting* combine actually scans in
        pull mode: any arriving update finalizes the vertex, so the gather
        terminates early (~half the list on average).
    """

    push_edge_ops: float = 4.0
    pull_scan_ops: float = 1.0
    pull_active_edge_ops: float = 4.0
    vertex_ops: float = 2.0
    voting_pull_scan_fraction: float = 0.5

    def push_cost_ops(self, out_edges: int, vertices: int) -> float:
        """Modelled compute ops of scattering ``out_edges`` from a worklist."""
        return out_edges * self.push_edge_ops + vertices * self.vertex_ops

    def pull_cost_ops(
        self, scanned_edges: int, active_edges: int, vertices: int
    ) -> float:
        """Modelled compute ops of gathering over ``scanned_edges`` in-edges.

        ``active_edges`` is the frontier-sourced share that pays the full
        per-edge work on top of the per-scanned-edge bitmap test.
        """
        return (
            scanned_edges * self.pull_scan_ops
            + active_edges * self.pull_active_edge_ops
            + vertices * self.vertex_ops
        )


#: Shipped calibration (see EXPERIMENTS.md for the measured validation).
DEFAULT_TRAFFIC_MODEL = TrafficModel()


@dataclass
class DirectionSelector:
    """Frontier-size-based push/pull switching.

    Parameters
    ----------
    total_edges:
        Edge count of the graph (denominator of the frontier-share test).
    to_pull_threshold:
        Switch push -> pull when the frontier's out-edges exceed this
        fraction of all edges.
    to_push_threshold:
        Switch pull -> push when the share drops below this fraction.
    start_direction:
        Direction of the first iteration.
    """

    total_edges: int
    to_pull_threshold: float = 0.05
    to_push_threshold: float = 0.01
    start_direction: Direction = Direction.PUSH
    _current: Direction = field(init=False)
    history: List[Direction] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.to_push_threshold <= self.to_pull_threshold <= 1.0):
            raise ValueError(
                "thresholds must satisfy 0 < to_push <= to_pull <= 1"
            )
        self._current = self.start_direction

    def decide(self, frontier_edges: int) -> Direction:
        """Direction for the iteration about to run, given the frontier size."""
        if self.total_edges > 0:
            share = frontier_edges / self.total_edges
            if self._current is Direction.PUSH and share >= self.to_pull_threshold:
                self._current = Direction.PULL
            elif self._current is Direction.PULL and share < self.to_push_threshold:
                self._current = Direction.PUSH
        self.history.append(self._current)
        return self._current

    def force(self, direction: Direction) -> Direction:
        """Record an externally-imposed direction for the next iteration.

        Manual (non-auto) engine configurations pin the direction instead of
        calling :meth:`decide`; going through ``force`` keeps the selector's
        state machine - the current direction, ``history`` and therefore
        :meth:`switches` - consistent with what the engine actually
        executed.
        """
        self._current = direction
        self.history.append(direction)
        return direction

    def switches(self) -> int:
        """Number of direction changes over the recorded history."""
        return sum(
            1 for a, b in zip(self.history, self.history[1:]) if a is not b
        )


# ----------------------------------------------------------------------
# Lane-aware direction selection for batched multi-source execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaneScore:
    """One lane's direction interests for the iteration about to run.

    ``push_cost`` / ``pull_cost`` are :class:`TrafficModel` compute-op
    estimates of running *this lane alone* in each direction;
    ``preferred`` is the lane's own Beamer-style decision (with per-lane
    hysteresis). ``pull_scanned`` is the lane's estimated gather scan - the
    in-edges of its own pruned gather worklist - and ``pull_active`` the
    frontier-sourced share (bounded by the lane frontier's out-edges).
    """

    lane: int
    push_edges: int
    frontier_vertices: int
    pull_scanned: int
    pull_candidates: int
    pull_active: int
    push_cost: float
    pull_cost: float
    preferred: Direction

    def cost(self, direction: Direction) -> float:
        return self.push_cost if direction is Direction.PUSH else self.pull_cost


@dataclass(frozen=True)
class SubBatchPlan:
    """One sub-batch of a split iteration: a direction and its lanes."""

    direction: Direction
    lanes: Tuple[int, ...]


@dataclass(frozen=True)
class SplitDecision:
    """The policy's verdict for one batched iteration.

    ``groups`` always covers every live lane exactly once, push-leaning
    group first when split. ``benefit_ops`` is the modelled compute-op
    saving of the chosen plan over the decide-once union plan (0 when no
    split), and ``reason`` a short trace tag for diagnostics
    (``"agree"``, ``"split"``, ``"margin"``, ``"forced"``).
    """

    groups: Tuple[SubBatchPlan, ...]
    split: bool
    benefit_ops: float
    reason: str


class BatchDirectionPolicy:
    """Per-lane direction scoring and the batch split policy.

    Keeps one :class:`DirectionSelector` per query lane so each lane's
    push/pull preference evolves with the same hysteresis an independent
    run of that lane would have. Per iteration, :meth:`plan` compares the
    lanes' preferences:

    * all live lanes agree -> one sub-batch in the agreed direction (which
      may differ from the union decision: on road graphs the union crosses
      the pull threshold long before any single lane does);
    * lanes disagree -> split into a push-leaning and a pull-leaning
      sub-batch iff the :class:`TrafficModel` saving over running everyone
      in the union direction exceeds ``margin`` (a fraction of the
      decide-once cost). The margin absorbs the per-sub-batch fixed costs
      the ops model does not see - each sub-batch pays its own kernel
      launches, barriers and task-management pass - so small divergences
      stay merged and lanes re-merge as soon as their decisions
      reconverge.

    Pull-side scan estimates are produced lazily through the
    ``pull_estimate`` callback (the engine prices a lane's pruned gather
    worklist), only for iterations where some lane actually leans pull.
    """

    #: Minimum modelled compute-op saving, as a fraction of the decide-once
    #: cost, before a diverging batch splits. A constant of the policy, as
    #: the Beamer thresholds are of :class:`DirectionSelector`: ``0.0``
    #: splits whenever lanes disagree.
    margin: float = 0.5

    def __init__(
        self,
        *,
        total_edges: int,
        num_lanes: int,
        start_direction: Direction = Direction.PUSH,
    ):
        self.lane_selectors = [
            DirectionSelector(
                total_edges=total_edges, start_direction=start_direction
            )
            for _ in range(num_lanes)
        ]

    def plan(
        self,
        live: Sequence[int],
        lane_push_edges: Dict[int, int],
        lane_frontier_sizes: Dict[int, int],
        pull_estimate: Callable[[int], Tuple[int, int]],
        union_direction: Direction,
        *,
        pull_scan_fraction: float = 1.0,
    ) -> SplitDecision:
        """Group the live lanes into direction-homogeneous sub-batches.

        ``pull_estimate(lane)`` returns ``(scanned_in_edges, candidates)``
        for the lane's own gather worklist; ``pull_scan_fraction`` scales
        the scan for voting combines (collaborative early termination).
        """
        preferences: Dict[int, Direction] = {}
        for lane in live:
            preferences[lane] = self.lane_selectors[lane].decide(
                lane_push_edges.get(lane, 0)
            )

        push_lanes = tuple(l for l in live if preferences[l] is Direction.PUSH)
        pull_lanes = tuple(l for l in live if preferences[l] is Direction.PULL)
        if not push_lanes or not pull_lanes:
            agreed = Direction.PULL if pull_lanes else Direction.PUSH
            return SplitDecision(
                groups=(SubBatchPlan(agreed, tuple(live)),),
                split=False,
                benefit_ops=0.0,
                reason="agree",
            )

        # Lanes disagree: score both directions for every lane and weigh
        # the split against running everyone in the union direction.
        scores = {
            lane: self._score(
                lane,
                preferences[lane],
                lane_push_edges.get(lane, 0),
                lane_frontier_sizes.get(lane, 0),
                pull_estimate,
                pull_scan_fraction,
            )
            for lane in live
        }
        union_cost = sum(scores[l].cost(union_direction) for l in live)
        split_cost = sum(scores[l].cost(preferences[l]) for l in live)
        benefit = union_cost - split_cost
        if benefit > self.margin * max(union_cost, 1.0):
            return SplitDecision(
                groups=(
                    SubBatchPlan(Direction.PUSH, push_lanes),
                    SubBatchPlan(Direction.PULL, pull_lanes),
                ),
                split=True,
                benefit_ops=benefit,
                reason="split",
            )
        return SplitDecision(
            groups=(SubBatchPlan(union_direction, tuple(live)),),
            split=False,
            benefit_ops=0.0,
            reason="margin",
        )

    # ------------------------------------------------------------------
    def _score(
        self,
        lane: int,
        preferred: Direction,
        push_edges: int,
        frontier_vertices: int,
        pull_estimate: Callable[[int], Tuple[int, int]],
        pull_scan_fraction: float,
    ) -> LaneScore:
        scanned, candidates = pull_estimate(lane)
        scanned = int(scanned * pull_scan_fraction)
        active = min(push_edges, scanned)
        return LaneScore(
            lane=lane,
            push_edges=push_edges,
            frontier_vertices=frontier_vertices,
            pull_scanned=scanned,
            pull_candidates=candidates,
            pull_active=active,
            push_cost=DEFAULT_TRAFFIC_MODEL.push_cost_ops(
                push_edges, frontier_vertices
            ),
            pull_cost=DEFAULT_TRAFFIC_MODEL.pull_cost_ops(
                scanned, active, candidates
            ),
            preferred=preferred,
        )
