"""Asyncio serving front-end over ``SIMDXEngine.run_batch``.

:class:`SIMDXServer` is the front door the ROADMAP's "millions of users"
story needs: callers ``await submit(algorithm, source, params)`` single
BFS/SSSP queries; the server accumulates them under an
:class:`~repro.serve.policy.AdmissionPolicy` (dispatch at ``max_batch``
lanes or when the oldest query has waited ``max_wait_ms``), answers each
formed batch with **one** union-frontier ``run_batch`` call on **one
reused engine**, and demultiplexes the per-lane results back to their
awaiting callers. Served answers are bit-identical to a direct
``run_batch`` call with the same batch composition
(``tests/test_serve.py`` enforces it, sanitized in CI).

The unhappy paths are part of the contract:

* **cancellation** - a caller that cancels ``submit`` before its batch
  forms is pruned from the queue (never occupies a lane); cancelled
  after dispatch, its lane still runs and the result is discarded;
* **backpressure** - a query arriving with ``max_queue`` live queries
  already queued is shed synchronously with
  :class:`~repro.serve.policy.ServerOverloaded`;
* **engine failure** - an OOM/overflow (or a raising algorithm hook)
  resolves exactly the affected batch's lanes with
  :class:`EngineFailure`; queued and future batches are untouched;
* **shutdown** - ``shutdown(drain=True)`` stops admission, dispatches
  every queued query (ignoring ``max_wait_ms``) and resolves all
  in-flight futures before returning.

Two request types beyond plain queries (docs/dynamic.md, docs/caching.md):

* **updates** - ``await update(inserts=..., deletes=...)`` enqueues an
  edge-update batch against the server's
  :class:`~repro.dyn.overlay.DynamicGraph`. Updates apply *between*
  batches on the dispatch loop (a dispatched batch always runs against
  one consistent snapshot); the awaited future resolves once the update
  is live, so a caller that awaits it sees every later query answered on
  the new graph version. Applying an update swaps in an engine on the new
  snapshot and eagerly repairs the cache's landmark entries.
* **cache** - constructed with ``cache=True`` (or a
  :class:`~repro.cache.results.ResultCache`), ``submit`` consults the
  cache *before* batch admission: a hit at the current graph version
  resolves immediately with the stored values - bit-identical to what a
  batch lane would return - and never occupies queue or batch capacity
  (``tests/test_serve.py`` pins that). Cache-served results carry
  ``lane=-1, batch_index=-1, batch_size=0``.

The engine's ``run_batch`` is synchronous and CPU-bound (the GPU is
simulated), so by default it runs inline on the event loop - dispatches
serialize, which is also what one physical device would do. Pass
``use_executor=True`` to run batches on the default thread pool instead
(the TCP demo does, so slow batches do not stall accepts).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.analysis import registry as extra_keys
from repro.cache.results import ResultCache
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import BatchRunResult
from repro.dyn.overlay import DynamicGraph, EdgeUpdateBatch
from repro.gpu.device import GPUDevice, K40
from repro.serve.batcher import BatchFormer, PendingQuery
from repro.serve.policy import AdmissionPolicy, ServerOverloaded

__all__ = [
    "EngineFailure",
    "ServedResult",
    "SIMDXServer",
    "ServerOverloaded",
]


class EngineFailure(RuntimeError):
    """The engine failed the batch this query was dispatched in.

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
    #: Lane index the query occupied in its batch; -1 for a result served
    #: from the cache (which never occupied a lane).
    lane: int
    #: Index of the batch in :attr:`SIMDXServer.batch_log` - with
    #: ``lane``, the exact coordinates to replay this query's answer
    #: through a direct ``run_batch`` call.
    batch_index: int
    #: Number of lanes the batch dispatched with.
    batch_size: int
    #: Iterations the batch ran (union convergence).
    iterations: int
    #: Simulated device time of the whole batch, microseconds.
    elapsed_us: float
    #: Seconds this query waited between admission and dispatch.
    queue_wait_s: float
    #: The batch's ``extra`` counters plus the ``serve_*`` keys
    #: (:data:`repro.analysis.registry.SERVE_BATCH_FILL`,
    #: :data:`~repro.analysis.registry.SERVE_QUEUE_WAIT_US`). A read-only
    #: view shared between the batch's lanes: a write raises ``TypeError``.
    extra: Mapping[str, object] = field(default_factory=dict)


#: Algorithms the server accepts: the multi-source traversals
#: ``run_batch`` can lane-parallelize. Constructors must accept
#: ``source=`` (the per-lane override ``run_batch`` applies at init).
SERVABLE_ALGORITHMS: Dict[str, Callable] = {
    name: cls
    for name, cls in ALGORITHMS.items()
    if getattr(cls, "supports_multi_source", False)
}


class SIMDXServer:
    """Admission queue + batch former + one reused engine per device."""

    def __init__(
        self,
        graph,
        *,
        policy: Optional[AdmissionPolicy] = None,
        config: Optional[EngineConfig] = None,
        device: Optional[GPUDevice] = None,
        algorithms: Optional[Dict[str, Callable]] = None,
        use_executor: bool = False,
        cache: Optional[object] = None,
    ):
        #: The dynamic-graph overlay behind ``update``. A plain CSRGraph
        #: is wrapped (its snapshot is the graph itself until the first
        #: update); pass a DynamicGraph to control rebuild_threshold.
        self.dyn = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        self.graph = self.dyn.snapshot()
        self.policy = policy if policy is not None else AdmissionPolicy()
        #: One engine, reused across every dispatched batch - the
        #: engine-reuse contract ``tests/test_engine_reuse.py`` pins
        #: (consecutive runs bit-identical to fresh-engine runs). An
        #: applied update swaps in a fresh engine on the new snapshot
        #: (graph-derived caches - classifiers, in-degrees, transpose -
        #: belong to one immutable graph).
        self.engine = SIMDXEngine(
            self.graph,
            device=device if device is not None else GPUDevice(K40),
            config=config,
        )
        #: Result cache consulted by ``submit`` before batch admission;
        #: None disables reuse. ``cache=True`` builds a default
        #: ResultCache.
        # Not ``cache or None``: an *empty* ResultCache is falsy (len 0).
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self._algorithms = dict(
            algorithms if algorithms is not None else SERVABLE_ALGORITHMS
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
        #: Composition of every dispatched batch (algorithm, sources,
        #: lane_params) - the replay record the differential tests use to
        #: re-run each batch directly through a fresh engine.
        self.batch_log: List[Dict[str, object]] = []
        #: Pending (EdgeUpdateBatch, future) pairs the dispatch loop
        #: applies between batches.
        self._updates: List[tuple] = []
        self._stats: Dict[str, float] = {
            "submitted": 0,
            "served": 0,
            "shed": 0,
            "cancelled_after_dispatch": 0,
            "failed": 0,
            "batches": 0,
            "cache_hits": 0,
            "updates": 0,
        }

    @property
    def stats(self) -> Dict[str, float]:
        """Serving counters (snapshot; includes the former's prune count)."""
        snapshot = dict(self._stats)
        snapshot["cancelled_before_dispatch"] = self._former.pruned
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
        fails the batch this query was dispatched in.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        template = self._template(algorithm)
        source = int(source)
        if not 0 <= source < self.graph.num_vertices:
            raise ValueError(
                f"source {source} out of range for "
                f"{self.graph.num_vertices}-vertex graph"
            )
        params = dict(params or {})
        for key in params:
            if not hasattr(template, key):
                raise ValueError(
                    f"unknown {algorithm} parameter {key!r} in params"
                )
        # Cache consult happens *before* batch admission: a hit at the
        # current graph version is served from the stored values (which
        # came out of an engine run or an exact repair, so they are the
        # bits a batch lane would return) and never consumes queue or
        # batch capacity.
        if self.cache is not None:
            entry = self.cache.lookup(
                algorithm, source, params, version=self.dyn.version
            )
            if entry is not None and entry.version == self.dyn.version:
                self._stats["cache_hits"] += 1
                return ServedResult(
                    values=np.array(entry.values, copy=True),
                    lane=-1,
                    batch_index=-1,
                    batch_size=0,
                    iterations=0,
                    elapsed_us=0.0,
                    queue_wait_s=0.0,
                    extra=MappingProxyType({
                        extra_keys.CACHE_OUTCOME: "hit",
                        extra_keys.DYN_GRAPH_VERSION: self.dyn.version,
                    }),
                )
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
        try:
            self._former.add(query)
        except ServerOverloaded:
            self._stats["shed"] += 1
            raise
        self._stats["submitted"] += 1
        self._wake.set()
        return await query.future

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
        cache entries were repaired forward.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        batch = EdgeUpdateBatch.of(
            inserts=inserts, insert_weights=insert_weights, deletes=deletes
        )
        n = self.graph.num_vertices
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
        loop = asyncio.get_event_loop()
        future = loop.create_future()
        self._updates.append((batch, future))
        self._wake.set()
        return await future

    def _apply_pending_updates(self) -> None:
        """Apply queued updates; runs on the dispatch loop between batches."""
        while self._updates:
            batch, future = self._updates.pop(0)
            try:
                receipt = self.dyn.apply(batch)
            except Exception as exc:  # noqa: BLE001 - caller's batch, caller's error
                if not future.done():
                    future.set_exception(exc)
                continue
            self.graph = self.dyn.snapshot()
            self.engine = SIMDXEngine(
                self.graph,
                device=self.engine.device,
                config=self.engine.config,
            )
            self._stats["updates"] += 1
            refreshed = 0
            if self.cache is not None:
                refreshed = self.cache.refresh_landmarks(
                    receipt,
                    algorithms=self._algorithms,
                    config=self.engine.config,
                )
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
            if self._drain_on_close:
                await self._dispatch(batch)
            else:
                for query in batch:
                    if not query.future.done():
                        query.future.cancel()
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
        algorithm = self._algorithms[algorithm_name](source=sources[0])
        self.batch_log.append(
            {
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
        self._stats["batches"] += 1
        batch_index = len(self.batch_log) - 1
        dispatched_at = loop.time()
        waits = [dispatched_at - query.enqueued_at for query in batch]
        try:
            if self._use_executor:
                result: BatchRunResult = await loop.run_in_executor(
                    None,
                    lambda: self.engine.run_batch(
                        algorithm, sources, lane_params=lane_params
                    ),
                )
            else:
                result = self.engine.run_batch(
                    algorithm, sources, lane_params=lane_params
                )
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self._fail_batch(batch, f"{type(exc).__name__}: {exc}")
            return
        if result.failed:
            self._fail_batch(batch, result.failure_reason)
            return
        extra = MappingProxyType({
            **result.extra,
            extra_keys.SERVE_BATCH_FILL: len(batch) / self.policy.max_batch,
            extra_keys.SERVE_QUEUE_WAIT_US: float(1e6 * sum(waits) / len(waits)),
            extra_keys.DYN_GRAPH_VERSION: self.dyn.version,
        })
        if self.cache is not None:
            # Updates only apply between dispatches on this same loop, so
            # the current version is the version the batch ran against.
            version = self.dyn.version
            for lane, query in enumerate(batch):
                self.cache.store(
                    query.algorithm,
                    query.source,
                    query.params,
                    result.values[lane],
                    version=version,
                )
        for lane, query in enumerate(batch):
            if query.future.done():
                # Cancelled between dispatch and demultiplex: the lane ran
                # with the batch; its result is discarded here.
                self._stats["cancelled_after_dispatch"] += 1
                continue
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
            self._stats["served"] += 1

    def _fail_batch(self, batch: List[PendingQuery], reason: str) -> None:
        """Engine failure propagates to exactly this batch's lanes."""
        self._stats["failed"] += len(batch)
        for query in batch:
            if not query.future.done():
                query.future.set_exception(EngineFailure(reason))
