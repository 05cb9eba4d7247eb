"""Asyncio serving front-end over ``SIMDXEngine.run_batch``.

:class:`SIMDXServer` is the front door the ROADMAP's "millions of users"
story needs: callers ``await submit(algorithm, source, params)`` single
BFS/SSSP queries; the server accumulates them under an
:class:`~repro.serve.policy.AdmissionPolicy` (dispatch at ``max_batch``
lanes or when the oldest query has waited ``max_wait_ms``), answers each
formed batch with **one** union-frontier ``run_batch`` call, and
demultiplexes the per-lane results back to their awaiting callers.
Served answers are bit-identical to a direct ``run_batch`` call with the
same batch composition (``tests/test_serve.py``, sanitized in CI).
Graph versions, the engine, the result cache and updates belong to one
reuse front-end, :class:`~repro.cache.reuse.CachedQueryEngine`
(``server.front``); the server only schedules around it.

The unhappy paths are part of the contract:

* **cancellation** - a caller that cancels ``submit`` before its batch
  forms is pruned from the queue (never occupies a lane); cancelled
  after dispatch, its lane still runs and the result is discarded;
* **backpressure** - a query arriving with ``max_queue`` live queries
  already queued is shed synchronously with
  :class:`~repro.serve.policy.ServerOverloaded`, and so is an update
  arriving with ``max_queue`` updates pending (counted in
  ``updates_shed``);
* **faults** - an OOM/overflow, a raising hook, or a raise anywhere after
  the engine returned resolves exactly the batch's unresolved lanes with
  :class:`EngineFailure`; a raise in an update fails that update only.
  The dispatch loop keeps serving;
* **shutdown** - ``shutdown(drain=True)`` stops admission, dispatches
  every queued query (ignoring ``max_wait_ms``) and resolves all
  in-flight futures before returning.

Two request types beyond plain queries (docs/dynamic.md, docs/caching.md):

* **updates** - ``await update(inserts=..., deletes=...)`` applies an
  edge batch *between* batches on the dispatch loop (a batch always runs
  against one snapshot) and resolves once it is live; the front-end
  repairs the cache's landmarks and its engine follows the new version.
* **reuse** - with ``cache=True`` (or a
  :class:`~repro.cache.results.ResultCache`), ``submit`` asks the
  front-end to ``reuse`` the query *before* admission: a hit, or a stale
  entry repaired through the update receipts, resolves at once with the
  bits a lane would return and never occupies queue or batch capacity.

``run_batch`` is synchronous and CPU-bound (the GPU is simulated), so by
default it runs inline on the event loop - dispatches serialize, which is
also what one physical device would do. ``use_executor=True`` runs
batches on the default thread pool instead (the TCP demo does, so slow
batches do not stall accepts); repairs run on the event loop.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.analysis import registry as extra_keys
from repro.cache.results import ResultCache
from repro.cache.reuse import CachedAnswer, CachedQueryEngine
from repro.core.engine import EngineConfig
from repro.dyn.overlay import DynamicGraph, EdgeUpdateBatch
from repro.gpu.device import GPUSpec, K40
from repro.serve.batcher import BatchFormer, PendingQuery
from repro.serve.policy import AdmissionPolicy, ServerOverloaded

__all__ = [
    "EngineFailure",
    "ServedResult",
    "SIMDXServer",
    "ServerOverloaded",
]


class EngineFailure(RuntimeError):
    """The engine failed the batch (or repair) this query was answered in.

    Carries the engine's failure reason (OOM, filter overflow, a raising
    algorithm hook). Only the lanes of the failed batch see it.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ServedResult:
    """What one caller gets back for one submitted query."""

    #: This query's metadata values (lane slice of the batch result).
    values: np.ndarray
    #: Lane index the query occupied in its batch; -1 for a hit or a
    #: repair, which never occupy a lane.
    lane: int
    #: The batch's ``batch_index`` (its dispatch count, from 0), which
    #: its :attr:`SIMDXServer.batch_log` entry carries too - with
    #: ``lane``, the exact coordinates to replay this query's answer
    #: through a direct ``run_batch`` call; -1 for a hit or a repair.
    batch_index: int
    #: Number of lanes the batch dispatched with; 0 for a hit, 1 for a
    #: repair (the one single-source run it is).
    batch_size: int
    #: Iterations the batch (or the repair) ran.
    iterations: int
    #: Simulated device time of the whole batch (or the repair), us.
    elapsed_us: float
    #: Seconds this query waited between admission and dispatch.
    queue_wait_s: float
    #: The batch's ``extra`` counters plus the ``serve_*`` keys
    #: (:data:`repro.analysis.registry.SERVE_BATCH_FILL`,
    #: :data:`~repro.analysis.registry.SERVE_QUEUE_WAIT_US`); a hit's or
    #: repair's ``cache_outcome`` and ``dyn_graph_version``. A read-only
    #: view shared between the batch's lanes: a write raises ``TypeError``.
    extra: Mapping[str, object] = field(default_factory=dict)


#: Dispatched batches :attr:`SIMDXServer.batch_log` keeps, newest last:
#: a long-lived server's log stays bounded, and the bound sits far above
#: the few hundred batches a benchmark run dispatches, so the log still
#: reads every batch there.
BATCH_LOG_SIZE = 4096

#: Algorithms the server accepts: the multi-source traversals
#: ``run_batch`` can lane-parallelize. Constructors must accept
#: ``source=`` (the per-lane override ``run_batch`` applies at init).
SERVABLE_ALGORITHMS: Dict[str, Callable] = {
    name: cls
    for name, cls in ALGORITHMS.items()
    if getattr(cls, "supports_multi_source", False)
}


class SIMDXServer:
    """Admission queue + batch former over one reuse front-end."""

    def __init__(
        self,
        graph,
        *,
        policy: Optional[AdmissionPolicy] = None,
        config: Optional[EngineConfig] = None,
        spec: GPUSpec = K40,
        algorithms: Optional[Dict[str, Callable]] = None,
        use_executor: bool = False,
        cache: Optional[object] = None,
    ):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._algorithms = dict(
            algorithms if algorithms is not None else SERVABLE_ALGORITHMS
        )
        #: The reuse front-end: the DynamicGraph behind ``update`` (a plain
        #: CSRGraph is wrapped), one engine per graph version reused across
        #: its batches (``tests/test_engine_reuse.py``), and the cache -
        #: ``cache=True`` builds a default ResultCache, None disables reuse.
        self.front = CachedQueryEngine(
            graph,
            config=config,
            spec=spec,
            cache=False if cache is None else cache,
            algorithms=self._algorithms,
        )
        # Template instances, built once per algorithm: parameter names in
        # ``submit(params=...)`` are validated against these attributes so
        # a typo'd parameter fails its own caller synchronously instead of
        # poisoning the whole batch inside ``run_batch``.
        self._templates: Dict[str, object] = {}
        self._use_executor = use_executor
        self._former = BatchFormer(self.policy)
        self._wake = asyncio.Event()
        self._dispatch_task: Optional[asyncio.Task] = None
        self._closed = False
        self._drain_on_close = True
        #: Composition of the last :data:`BATCH_LOG_SIZE` dispatched
        #: batches (batch_index, algorithm, sources, lane_params, graph
        #: version) - the replay record the differential tests use to
        #: re-run each batch directly through a fresh engine.
        self.batch_log: Deque[Dict[str, object]] = deque(maxlen=BATCH_LOG_SIZE)
        #: Pending (EdgeUpdateBatch, future) pairs the dispatch loop
        #: applies between batches.
        self._updates: Deque[tuple] = deque()
        self._stats: Dict[str, float] = dict.fromkeys((
            "submitted", "served", "shed", "cancelled_before_dispatch",
            "cancelled_after_dispatch", "failed", "batches", "cache_hits",
            "cache_repairs", "updates", "updates_failed", "updates_shed",
        ), 0)
        #: Lanes popped from the queue whose outcome is not counted yet.
        self._unsettled = 0

    @property
    def dyn(self) -> DynamicGraph:
        """The front-end's dynamic graph (read-only view)."""
        return self.front.dyn

    @property
    def graph(self):
        """The current snapshot."""
        return self.front.dyn.snapshot()

    @property
    def cache(self) -> Optional[ResultCache]:
        """The front-end's result cache; None when reuse is off."""
        return self.front.cache

    @property
    def stats(self) -> Dict[str, float]:
        """Serving counters (a snapshot). Each query counts once on entry -
        ``submitted`` (not answered by the cache: admitted, shed, or failed
        on its reuse attempt), ``cache_hits`` or ``cache_repairs`` - and
        once by outcome (a hit or repair is also ``served``; ``in_flight``
        is queued plus popped-but-unresolved), so at any instant::

            submitted + cache_hits + cache_repairs = served + shed
              + cancelled_before_dispatch + cancelled_after_dispatch
              + failed + in_flight
        """
        queued = self._former.depth  # prunes first
        snapshot = dict(self._stats)
        snapshot["cancelled_before_dispatch"] += self._former.pruned
        snapshot["in_flight"] = queued + self._unsettled
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SIMDXServer":
        """Start the dispatch loop (idempotent)."""
        if self._dispatch_task is None:
            self._dispatch_task = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def __aenter__(self) -> "SIMDXServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission; drain (default) or cancel the queued queries."""
        self._closed = True
        self._drain_on_close = drain
        self._wake.set()
        if self._dispatch_task is not None:
            await self._dispatch_task
            self._dispatch_task = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _template(self, algorithm: str):
        if algorithm not in self._algorithms:
            raise KeyError(
                f"unknown or non-batchable algorithm {algorithm!r}; "
                f"servable: {sorted(self._algorithms)}"
            )
        if algorithm not in self._templates:
            self._templates[algorithm] = self._algorithms[algorithm](source=0)
        return self._templates[algorithm]

    async def submit(
        self,
        algorithm: str,
        source: int,
        params: Optional[Mapping[str, object]] = None,
    ) -> ServedResult:
        """Answer one query; resolves when its batch has been served.

        Raises :class:`~repro.serve.policy.ServerOverloaded` when the
        admission queue is full, ``KeyError``/``ValueError`` on an unknown
        algorithm / parameter / source (synchronously - before the query
        occupies queue capacity), :class:`EngineFailure` when the engine
        fails the batch or repair that answers this query.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        template = self._template(algorithm)
        source = int(source)
        if not 0 <= source < self.dyn.num_vertices:
            raise ValueError(
                f"source {source} out of range for "
                f"{self.dyn.num_vertices}-vertex graph"
            )
        params = dict(params or {})
        for key in params:
            if not hasattr(template, key):
                raise ValueError(
                    f"unknown {algorithm} parameter {key!r} in params"
                )
        # Reuse is decided *before* batch admission: a hit or a repair
        # answers here and never consumes queue or batch capacity.
        try:
            answer = self.front.reuse(algorithm, source, params)
        except Exception as exc:  # noqa: BLE001 - a repair fails its caller only
            self._stats["submitted"] += 1
            self._stats["failed"] += 1
            raise EngineFailure(f"{type(exc).__name__}: {exc}") from exc
        if answer is not None:
            return self._reused(answer)
        if self._dispatch_task is None:
            await self.start()
        loop = asyncio.get_event_loop()
        query = PendingQuery(
            algorithm=algorithm,
            source=source,
            params=params,
            enqueued_at=loop.time(),
            future=loop.create_future(),
        )
        self._stats["submitted"] += 1
        try:
            self._former.add(query)
        except ServerOverloaded:
            self._stats["shed"] += 1
            raise
        self._wake.set()
        return await query.future

    def _reused(self, answer: CachedAnswer) -> ServedResult:
        """A hit, or a repair reported as the one single-source run it is."""
        run = answer.result
        self._stats["cache_hits" if run is None else "cache_repairs"] += 1
        self._stats["served"] += 1
        return ServedResult(
            values=answer.values,
            lane=-1,
            batch_index=-1,
            batch_size=0 if run is None else 1,
            iterations=0 if run is None else run.iterations,
            elapsed_us=0.0 if run is None else run.elapsed_us,
            queue_wait_s=0.0,
            extra=MappingProxyType(answer.extra),
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    async def update(
        self,
        *,
        inserts=None,
        insert_weights=None,
        deletes=None,
    ) -> Dict[str, object]:
        """Apply one edge-update batch; resolves once the update is live.

        The batch is validated synchronously (range / self-loop errors
        raise here, before anything is enqueued) and applied on the
        dispatch loop between batches, so every dispatched batch runs
        against one consistent snapshot. The resolved dict reports the
        new graph version, what the batch changed and how many landmark
        cache entries were repaired forward. Raises
        :class:`~repro.serve.policy.ServerOverloaded` when ``max_queue``
        updates are already pending - the bound queries shed at.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        batch = EdgeUpdateBatch.of(
            inserts=inserts, insert_weights=insert_weights, deletes=deletes
        )
        n = self.dyn.num_vertices
        for pairs in (batch.inserts, batch.deletes):
            if pairs.size:
                if pairs.min() < 0 or pairs.max() >= n:
                    raise ValueError(
                        f"update vertex id out of range for {n}-vertex graph"
                    )
                if bool((pairs[:, 0] == pairs[:, 1]).any()):
                    raise ValueError("self-loop updates are not supported")
        if self._dispatch_task is None:
            await self.start()
        if len(self._updates) >= self.policy.max_queue:
            self._stats["updates_shed"] += 1
            raise ServerOverloaded(
                f"update queue full (max_queue={self.policy.max_queue})"
            )
        future = asyncio.get_event_loop().create_future()
        self._updates.append((batch, future))
        self._wake.set()
        return await future

    def _apply_pending_updates(self) -> None:
        """Apply queued updates; runs on the dispatch loop between batches.

        Each update is one ``front.update`` call and one fault boundary: a
        raise anywhere in it fails that update's future and the loop keeps
        serving. The engine follows the front-end's version, so no swap
        can be skipped.
        """
        cache = self.front.cache
        while self._updates:
            batch, future = self._updates.popleft()
            refreshed = 0 if cache is None else cache.stats["landmarks_refreshed"]
            try:
                receipt = self.front.update(
                    inserts=batch.inserts,
                    insert_weights=batch.insert_weights,
                    deletes=batch.deletes,
                )
            except Exception as exc:  # noqa: BLE001 - caller's batch, caller's error
                self._stats["updates_failed"] += 1
                if not future.done():
                    future.set_exception(exc)
                continue
            self._stats["updates"] += 1
            if cache is not None:
                refreshed = cache.stats["landmarks_refreshed"] - refreshed
            if not future.done():
                future.set_result(
                    {
                        "version": self.dyn.version,
                        "inserted": int(receipt.insert_edges.shape[0]),
                        "deleted": int(receipt.delete_edges.shape[0]),
                        "pending_edges": self.dyn.pending_edges,
                        "rebuilds": self.dyn.rebuilds,
                        "landmarks_refreshed": refreshed,
                    }
                )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            self._apply_pending_updates()
            batch = self._former.next_batch(loop.time())
            if batch is not None:
                self._unsettled += len(batch)
                await self._dispatch(batch)
                continue
            if self._closed:
                break
            deadline = self._former.next_deadline()
            timeout = (
                None if deadline is None else max(0.0, deadline - loop.time())
            )
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        # Closed: drain what is still queued, or cancel it. Either way
        # every queued query pops (force=True ignores the dispatch
        # policy) so no caller is left awaiting a forgotten future.
        while True:
            self._apply_pending_updates()
            batch = self._former.next_batch(loop.time(), force=True)
            if batch is None:
                break
            self._unsettled += len(batch)
            if self._drain_on_close:
                await self._dispatch(batch)
            else:
                for query in batch:
                    query.future.cancel()
                    self._settle("cancelled_before_dispatch")
        # Updates that arrived during the drain still resolve.
        self._apply_pending_updates()

    async def _dispatch(self, batch: List[PendingQuery]) -> None:
        loop = asyncio.get_event_loop()
        sources = [query.source for query in batch]
        lane_params: Optional[List[Dict[str, object]]] = [
            query.params for query in batch
        ]
        if not any(lane_params):
            lane_params = None
        algorithm_name = batch[0].algorithm
        batch_index = self._stats["batches"]
        self._stats["batches"] += 1
        self.batch_log.append(
            {
                "batch_index": batch_index,
                "algorithm": algorithm_name,
                "sources": list(sources),
                "lane_params": (
                    [dict(p) for p in lane_params]
                    if lane_params is not None else None
                ),
                # Snapshot version the batch ran against: replaying a log
                # that interleaves updates must rebuild this version.
                "graph_version": self.dyn.version,
            }
        )
        dispatched_at = loop.time()
        waits = [dispatched_at - query.enqueued_at for query in batch]
        resolved = 0  # lanes stored and demultiplexed so far
        try:
            algorithm = self._algorithms[algorithm_name](source=sources[0])
            engine = self.front.engine
            if self._use_executor:
                result = await loop.run_in_executor(
                    None,
                    lambda: engine.run_batch(
                        algorithm, sources, lane_params=lane_params
                    ),
                )
            else:
                result = engine.run_batch(
                    algorithm, sources, lane_params=lane_params
                )
            if result.failed:
                raise EngineFailure(result.failure_reason)
            extra = MappingProxyType({
                **result.extra,
                extra_keys.SERVE_BATCH_FILL: len(batch) / self.policy.max_batch,
                extra_keys.SERVE_QUEUE_WAIT_US: float(1e6 * sum(waits) / len(waits)),
                extra_keys.DYN_GRAPH_VERSION: self.dyn.version,
            })
            for lane, query in enumerate(batch):
                # Updates only apply between dispatches on this same loop,
                # so the front-end stores at the version the batch ran at.
                self.front.store(
                    query.algorithm, query.source, query.params,
                    result.values[lane],
                )
                if query.future.done():
                    # Cancelled between dispatch and demultiplex: the lane
                    # ran with the batch; its result is discarded here.
                    self._settle("cancelled_after_dispatch")
                else:
                    query.future.set_result(
                        ServedResult(
                            values=result.values[lane],
                            lane=lane,
                            batch_index=batch_index,
                            batch_size=len(batch),
                            iterations=result.iterations,
                            elapsed_us=result.elapsed_us,
                            queue_wait_s=waits[lane],
                            extra=extra,
                        )
                    )
                    self._settle("served")
                resolved += 1
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            reason = (
                exc.reason if isinstance(exc, EngineFailure)
                else f"{type(exc).__name__}: {exc}"
            )
            self._fail_batch(batch[resolved:], reason)

    def _fail_batch(self, batch: List[PendingQuery], reason: str) -> None:
        """A batch fault resolves exactly these unresolved lanes."""
        for query in batch:
            if query.future.cancelled():
                self._settle("cancelled_after_dispatch")
            elif not query.future.done():
                query.future.set_exception(EngineFailure(reason))
                self._settle("failed")

    def _settle(self, outcome: str) -> None:
        """Count one popped lane's outcome; it is no longer in flight."""
        self._stats[outcome] += 1
        self._unsettled -= 1
