"""Batch formation: turn a stream of single queries into run_batch batches.

:class:`BatchFormer` is the data structure between ``submit`` and the
engine: per-algorithm FIFO queues of :class:`PendingQuery`, a shared
``max_queue`` depth bound, and the dispatch decision delegated to
:class:`~repro.serve.policy.AdmissionPolicy`. It is asyncio-free - time
is passed in and the caller owns the futures - so the server's event loop
and the deterministic §9 latency simulation form batches through the same
code.

Cancellation contract: a query whose future was cancelled while queued is
*pruned* - it never occupies a lane, and it stops counting against
``max_queue`` from the next ``add``/``next_batch`` call on. A query
cancelled after its batch popped is the server's problem (the lane runs;
its result is discarded on demultiplex).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.serve.policy import AdmissionPolicy, ServerOverloaded


@dataclass
class PendingQuery:
    """One admitted query waiting for its batch to form."""

    algorithm: str
    source: int
    #: Per-lane parameter overrides, passed through ``run_batch``'s
    #: ``lane_params`` entry for this query's lane (e.g. an SSSP delta).
    params: Dict[str, object] = field(default_factory=dict)
    #: Admission instant (event-loop or simulated seconds).
    enqueued_at: float = 0.0
    #: The caller's result future; ``None`` in pure simulations.
    future: Optional[object] = None

    @property
    def cancelled(self) -> bool:
        return self.future is not None and self.future.cancelled()


class BatchFormer:
    """Per-algorithm admission queues + the dispatch decision."""

    def __init__(self, policy: AdmissionPolicy):
        self.policy = policy
        # Insertion-ordered so tie-breaks between algorithms are
        # deterministic (first algorithm to queue a query wins).
        self._queues: "OrderedDict[str, Deque[PendingQuery]]" = OrderedDict()
        #: Queries dropped because their future was cancelled while queued.
        self.pruned = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Live (non-cancelled) queries currently queued, all algorithms."""
        self._prune()
        return sum(len(q) for q in self._queues.values())

    def add(self, query: PendingQuery) -> None:
        """Admit ``query`` or shed it with :class:`ServerOverloaded`."""
        if not self.policy.admits(self.depth):
            raise ServerOverloaded(
                f"admission queue full (max_queue={self.policy.max_queue})"
            )
        self._queues.setdefault(query.algorithm, deque()).append(query)

    def _prune(self) -> None:
        """Drop queries cancelled while queued (the pre-dispatch contract)."""
        for name, queue in list(self._queues.items()):
            if any(q.cancelled for q in queue):
                kept = deque(q for q in queue if not q.cancelled)
                self.pruned += len(queue) - len(kept)
                self._queues[name] = kept
            if not self._queues[name]:
                del self._queues[name]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def next_deadline(self) -> Optional[float]:
        """Earliest instant some queue's head query must dispatch by."""
        self._prune()
        deadlines = [
            self.policy.deadline(queue[0].enqueued_at)
            for queue in self._queues.values()
        ]
        return min(deadlines) if deadlines else None

    def next_batch(
        self, now: float, *, force: bool = False
    ) -> Optional[List[PendingQuery]]:
        """Pop the next dispatchable batch, or ``None`` if nothing is due.

        Among the algorithms whose queue satisfies
        :meth:`AdmissionPolicy.should_dispatch` at ``now``, the one with
        the oldest head query dispatches first; up to ``max_batch``
        queries pop in FIFO order. ``force=True`` (shutdown drain)
        dispatches the oldest non-empty queue regardless of the policy.
        """
        self._prune()
        best: Optional[str] = None
        for name, queue in self._queues.items():
            due = force or self.policy.should_dispatch(
                len(queue), now - queue[0].enqueued_at
            )
            if due and (
                best is None
                or queue[0].enqueued_at < self._queues[best][0].enqueued_at
            ):
                best = name
        if best is None:
            return None
        queue = self._queues[best]
        batch = [
            queue.popleft()
            for _ in range(min(self.policy.max_batch, len(queue)))
        ]
        if not queue:
            del self._queues[best]
        return batch
