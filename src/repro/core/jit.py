"""Just-in-time, direction-aware filter selection (Section 4, Figure 7).

The JIT controller starts every run on the online filter because its cost is
proportional to the (initially tiny) number of updates. When any thread bin
overflows - meaning the frontier has grown beyond what bounded bins can
capture - the controller switches to the ballot filter, whose O(|V|) scan is
then amortized over a large frontier and whose output is sorted and
duplicate-free.

Two subtleties from the paper are reproduced:

* After switching to the ballot filter, the online filter *keeps running*
  with its bounded bins so the controller can switch back as soon as the
  frontier shrinks below the threshold again (the measured overhead of this
  shadow execution is ~0.02% on average, Figure 9b). The shadow bins are
  capped at the overflow threshold, so the extra work per iteration is tiny
  and off the critical path.
* The overflow threshold (64 by default) is the knob studied in Figure 9(a):
  too low switches to ballot too early (wasted scans on small frontiers),
  too high too late (incomplete online bins force extra ballot iterations).

On top of the overflow signal the controller is *direction-aware*, because
the execution direction (:mod:`repro.core.direction`) changes what the
recording workers can observe:

* **Pull phases force the online filter.** A gather worker learns only about
  its own destination and records it at most once, post-combine, so a thread
  bin holds at most one entry and overflow is structurally impossible. The
  controller therefore drops out of ballot mode on the first pull iteration
  instead of waiting for a non-overflowing shadow run.
* **The pull->push switch pre-arms the ballot filter.** The first scatter
  after a pull phase expands whatever frontier the pull phase built up. A
  thread bin can overflow only when one scatter worker may record more
  entries than the bin holds, and the maximum out-degree of the handed-over
  frontier is a static bound on exactly that
  (``FilterContext.max_producer_records``). The raw degree bound is
  pessimistic, though: a worker records an entry only when its offer
  *changes* the destination, so the controller scales the bound by the
  frontier's expected success rate (``FilterContext.success_rate`` - the
  engine estimates it as the still-updatable vertex share before the
  iteration, e.g. the unvisited share for BFS). When the scaled bound
  exceeds the overflow threshold the controller starts the iteration
  directly in ballot mode rather than discovering the overflow through the
  generic signal and paying an incomplete online pass first; the shadow
  online filter then switches back as soon as the frontier has genuinely
  shrunk. Hub-heavy but mostly-settled frontiers (pull phases typically
  visit most of the graph before handing back to push) and high-diameter
  road graphs - whose frontiers never contain a super-threshold hub - never
  trip the bound, so those runs keep their ballot-free traces (Figure 8).
  Should the estimate ever prove too optimistic, the generic overflow
  signal still catches the real overflow within the same iteration (at the
  cost of the incomplete online pass the pre-arm would have skipped), so
  the bound affects cost, never correctness.

Every :class:`JITDecision` records the direction that drove it (and whether
the ballot was pre-armed), so the Figure 8 traces can be read per phase.

The same controller serves every :class:`~repro.core.filters.FilterMode`:
the Figure 12 ablations pin it to one filter (online or ballot)
instead of choosing per iteration, so a pinned run records its decisions
exactly like an adaptive one. A pinned online filter has nothing to fall
back to: an overflow would silently truncate the worklist, so it raises
:class:`~repro.core.filters.FilterOverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.direction import Direction
from repro.core.filters import (
    BallotFilter,
    FilterContext,
    FilterMode,
    FilterOverflowError,
    FilterResult,
    OnlineFilter,
)

DEFAULT_OVERFLOW_THRESHOLD = 64


@dataclass
class JITDecision:
    """Record of one iteration's filter choice (Figure 8 raw data)."""

    iteration: int
    filter_used: str           # "online" or "ballot"
    overflowed: bool
    worklist_size: int
    #: Execution direction of the iteration whose worklist this built -
    #: the signal behind a forced-online (pull) or pre-armed (push) choice.
    direction: str = Direction.PUSH.value
    #: True when the ballot ran because the previous iteration was a pull
    #: (pull->push switch), not because the online bins overflowed.
    pre_armed: bool = False


class JITTaskManager:
    """The task-management controller: adaptive between the online and
    ballot filters under ``FilterMode.JIT``, pinned to the mode's filter
    under any other mode."""

    def __init__(
        self,
        mode: FilterMode = FilterMode.JIT,
        *,
        overflow_threshold: int = DEFAULT_OVERFLOW_THRESHOLD,
        shadow_online: bool = True,
    ):
        if overflow_threshold <= 0:
            raise ValueError("overflow_threshold must be positive")
        self.mode = mode
        self.overflow_threshold = overflow_threshold
        self.shadow_online = shadow_online
        self.online = OnlineFilter(capacity=overflow_threshold)
        self.ballot = BallotFilter()
        #: The one filter a non-JIT mode runs every iteration.
        self.pinned = {
            FilterMode.JIT: None, FilterMode.ONLINE: self.online,
            FilterMode.BALLOT: self.ballot,
        }[mode]
        self._use_ballot = False
        self._last_direction: Optional[Direction] = None
        self.decisions: List[JITDecision] = []

    # ------------------------------------------------------------------
    @property
    def last_direction(self) -> Optional[Direction]:
        """Direction of the most recent :meth:`build` call (None before any).

        The engine reads it to detect a pull->push hand-over per
        task-management stream - with lane-aware batch splitting each
        sub-batch owns a stream, so the pre-arm trigger follows what *its*
        lanes executed, not the merged batch's trace.
        """
        return self._last_direction

    def fork(self) -> "JITTaskManager":
        """Clone the controller state for a split-off sub-batch.

        Lane-aware batch splitting (``SIMDXEngine.run_batch`` with
        ``EngineConfig.lane_aware_split``) gives each sub-batch its own
        task-management tail: the forked controller starts from the parent's
        ballot/online mode and last executed direction - which is exactly
        what every lane of the sub-batch experienced up to the split - and
        then evolves independently, so a pull-leaning sub-batch that later
        hands back to push pre-arms the ballot from *its own* frontier's
        degree bound, not the merged batch's. Decisions recorded after the
        fork stay private to the fork; the engine aggregates them for
        ``RunResult.extra``. A pinned controller forks pinned to the same
        filter.
        """
        fork = JITTaskManager(
            self.mode,
            overflow_threshold=self.overflow_threshold,
            shadow_online=self.shadow_online,
        )
        fork._use_ballot = self._use_ballot
        fork._last_direction = self._last_direction
        return fork

    def build(
        self,
        ctx: FilterContext,
        iteration: int,
        direction: Direction = Direction.PUSH,
    ) -> FilterResult:
        """Produce the next worklist, adapting the filter choice.

        The decision protocol follows Figure 4(b) lines 16-21: run the online
        filter during compute; after the global barrier, check the overflow
        flag - if set, run the ballot filter to generate the (correct,
        sorted) list, otherwise concatenate the thread bins.

        ``direction`` is the execution direction of the iteration that
        produced ``ctx``. Pull iterations force the online filter (a gather
        worker records at most one destination, so overflow cannot happen);
        the first push iteration after a pull pre-arms the ballot filter
        instead of waiting for the overflow signal whenever a single worker
        could overflow its bin (``ctx.max_producer_records`` exceeds the
        overflow threshold). A pinned controller runs its filter and
        nothing else.
        """
        prev_direction = self._last_direction
        self._last_direction = direction
        if self.pinned is not None:
            return self._build_pinned(ctx, iteration, direction)

        online_result = self.online.build(ctx)

        if direction is Direction.PULL:
            return self._build_pull(ctx, iteration, online_result)

        pre_armed = False
        if prev_direction is Direction.PULL and not self._use_ballot:
            # Pull->push switch: a bin can overflow only when a single
            # scatter worker may record more entries than its capacity - the
            # maximum frontier out-degree is that static bound, scaled by
            # the expected offer success rate (a worker records only offers
            # that change their destination; on a mostly-settled graph even
            # a hub's recordings stay far below its degree). If the pull
            # phase handed over a frontier expected to overflow a bin, start
            # directly in ballot mode instead of paying an incomplete online
            # pass to rediscover it dynamically; an underestimate merely
            # falls back to the overflow protocol below, which still ballots
            # this same iteration after the wasted online pass.
            success = min(1.0, max(0.0, ctx.success_rate))
            if ctx.max_producer_records * success > self.overflow_threshold:
                self._use_ballot = True
                pre_armed = True

        if not self._use_ballot:
            if online_result.overflowed:
                # Online bins are incomplete: fall back to the ballot filter
                # for a correct list and stay in ballot mode.
                return self._fall_back(ctx, iteration, online_result, direction)
            self._record(iteration, "online", False, online_result, direction)
            return online_result

        # Ballot mode: the ballot filter produces the worklist; the shadow
        # online filter's (bounded) work is added as overhead, and a
        # non-overflowing shadow run switches us back for the next iteration.
        ballot_result = self.ballot.build(ctx)
        work = ballot_result.work
        if self.shadow_online:
            work = work.merged_with(online_result.work)
            if not online_result.overflowed:
                self._use_ballot = False
        result = FilterResult(
            ballot_result.worklist, work,
            overflowed=online_result.overflowed, is_sorted=True,
        )
        self._record(
            iteration, "ballot", online_result.overflowed, result, direction,
            pre_armed=pre_armed,
        )
        return result

    def _build_pinned(
        self, ctx: FilterContext, iteration: int, direction: Direction
    ) -> FilterResult:
        """A non-JIT mode: the pinned filter builds every worklist. Only the
        online filter can overflow, and pinned it has no ballot to fall
        back to (the blank cells of Figure 12's online-only row)."""
        result = self.pinned.build(ctx)
        if result.overflowed:
            raise FilterOverflowError(
                f"iteration {iteration}: thread bin exceeded "
                f"{self.overflow_threshold} entries"
            )
        self._record(iteration, self.pinned.name, False, result, direction)
        return result

    def _build_pull(
        self, ctx: FilterContext, iteration: int, online_result: FilterResult
    ) -> FilterResult:
        """Pull phase: force the online filter, leaving ballot mode."""
        if online_result.overflowed:
            # Only reachable if the caller violated the one-record-per-gather-
            # worker invariant; forcing online would silently truncate the
            # worklist, so fall back to the ballot filter for correctness.
            return self._fall_back(ctx, iteration, online_result, Direction.PULL)
        self._use_ballot = False
        self._record(iteration, "online", False, online_result, Direction.PULL)
        return online_result

    def _fall_back(
        self, ctx: FilterContext, iteration: int, online_result: FilterResult,
        direction: Direction,
    ) -> FilterResult:
        """Overflowed bins: the ballot filter builds the (correct, sorted)
        list this iteration, and ballot mode stays on."""
        self._use_ballot = True
        ballot_result = self.ballot.build(ctx)
        result = FilterResult(
            ballot_result.worklist,
            online_result.work.merged_with(ballot_result.work),
            overflowed=True, is_sorted=True,
        )
        self._record(iteration, "ballot", True, result, direction)
        return result

    # ------------------------------------------------------------------
    def _record(
        self,
        iteration: int,
        filter_used: str,
        overflowed: bool,
        result: FilterResult,
        direction: Direction,
        *,
        pre_armed: bool = False,
    ) -> None:
        self.decisions.append(
            JITDecision(
                iteration=iteration,
                filter_used=filter_used,
                overflowed=overflowed,
                worklist_size=int(result.worklist.size),
                direction=direction.value,
                pre_armed=pre_armed,
            )
        )

    # ------------------------------------------------------------------
    def pre_armed_iterations(self) -> List[int]:
        """Iterations whose ballot ran because of a pull->push switch."""
        return [d.iteration for d in self.decisions if d.pre_armed]


def run_length_pattern(trace: List[str]) -> str:
    """Run-length encode a per-iteration trace: ``"online*3, ballot*4"``."""
    if not trace:
        return ""
    segments: List[str] = []
    current = trace[0]
    count = 0
    for name in trace:
        if name == current:
            count += 1
        else:
            segments.append(f"{current}*{count}")
            current, count = name, 1
    segments.append(f"{current}*{count}")
    return ", ".join(segments)
