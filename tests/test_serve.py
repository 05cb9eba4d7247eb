"""Serving-layer tests: admission, unhappy paths, served-vs-direct identity.

Covers the contract of ``src/repro/serve/`` (docs/serving.md):

* batches form at max-K and at max-wait with K < max;
* cancellation before dispatch (pruned, never occupies a lane) and after
  dispatch (lane runs, result discarded);
* queue shedding at ``max_queue`` (``ServerOverloaded``);
* per-lane parameter routing (``lane_params`` passthrough);
* duplicate sources across callers;
* engine failure propagating to exactly the affected batch's lanes;
* shutdown draining everything still queued;
* the TCP front door answering malformed lines (non-object JSON, wrongly
  typed fields, an over-limit line) with one error line each, in request
  order, without dropping or silencing the connection;
* a raising landmark refresh or cache store failing only its own future
  while the dispatch loop keeps serving;
* the differential check: every served answer is bit-identical to a
  direct ``SIMDXEngine.run_batch`` call with the same batch composition,
  and every hit or repair to a direct run at its graph version
  (``REPRO_SANITIZE=1`` re-runs it with the runtime sanitizer armed -
  CI's static-analysis job does).

The tests run the event loop via ``asyncio.run`` (no pytest-asyncio
dependency) on a small R-MAT graph, with generous ``max_wait_ms`` wherever
batch composition must be deterministic.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP
from repro.cache import ResultCache
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn import DynamicGraph, EdgeUpdateBatch
from repro.gpu.device import K40
from repro.graph import generators as gen
from repro.serve import (
    AdmissionPolicy,
    EngineFailure,
    ServerOverloaded,
    SIMDXServer,
)
from repro.serve import __main__ as front_door
from repro.serve import server as server_module
from repro.serve.__main__ import serve_tcp
from tests.engine_seams import InterceptingServer

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"

#: A long wait turns max-wait dispatch off, so batch composition is
#: driven purely by max-K / shutdown / explicit timing in each test.
NEVER_MS = 60_000.0


@pytest.fixture
def graph():
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


def serve_config() -> EngineConfig:
    return EngineConfig(sanitize=True) if SANITIZE else EngineConfig()


def make_server(graph, policy: AdmissionPolicy, **kwargs) -> SIMDXServer:
    kwargs.setdefault("config", serve_config())
    return SIMDXServer(graph, policy=policy, **kwargs)


async def submit_tasks(server, queries):
    """Spawn one task per (algorithm, source, params) and let them enqueue."""
    tasks = [
        asyncio.ensure_future(server.submit(*query)) for query in queries
    ]
    # Each submit needs one scheduling turn to reach its queue.
    for _ in range(2 + len(tasks)):
        await asyncio.sleep(0)
    return tasks


# ----------------------------------------------------------------------
# Admission policy: seeded properties
# ----------------------------------------------------------------------
def test_admission_policy_properties_on_seeded_policies():
    """200 seeded policies: ``admits`` never re-opens as the queue grows,
    ``should_dispatch`` never turns off as depth or wait grows and is never
    true on an empty queue, and ``deadline`` is ``max_wait_s`` after the
    head query's arrival."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        policy = AdmissionPolicy(
            max_batch=int(rng.integers(1, 65)),
            max_wait_ms=float(rng.choice([0.0, rng.uniform(0.0, 50.0)])),
            max_queue=int(rng.integers(1, 257)),
        )
        admitted = [policy.admits(d) for d in range(policy.max_queue + 8)]
        assert admitted == sorted(admitted, reverse=True)
        depths = np.arange(0, 2 * policy.max_batch + 2)
        waits = np.concatenate(
            ([0.0, policy.max_wait_s], rng.uniform(0.0, 3 * policy.max_wait_s + 1e-3, 6))
        )
        waits.sort()
        grid = np.array([
            [policy.should_dispatch(int(d), float(w)) for w in waits]
            for d in depths
        ])
        assert not grid[0].any()
        assert (np.diff(grid.astype(int), axis=0) >= 0).all()  # in depth
        assert (np.diff(grid.astype(int), axis=1) >= 0).all()  # in wait
        for t in rng.uniform(0.0, 1e4, 4):
            assert policy.deadline(t) - t == pytest.approx(policy.max_wait_s, abs=1e-9)


# ----------------------------------------------------------------------
# Batch formation
# ----------------------------------------------------------------------
def test_batch_forms_at_max_k(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=NEVER_MS)
        )
        async with server:
            results = await asyncio.gather(
                *[server.submit("bfs", s) for s in (3, 5, 9, 11)]
            )
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 1
    assert [r.batch_size for r in results] == [4, 4, 4, 4]
    assert [r.lane for r in results] == [0, 1, 2, 3]
    assert results[0].extra["serve_batch_fill"] == 1.0
    assert server.batch_log[0]["sources"] == [3, 5, 9, 11]


def test_batch_log_is_a_bounded_ring_indexed_by_a_counter(graph, monkeypatch):
    """A long-lived server keeps only the newest ``BATCH_LOG_SIZE`` batches
    in its log, while ``batch_index`` keeps counting every dispatch and
    each entry carries its own."""
    monkeypatch.setattr(server_module, "BATCH_LOG_SIZE", 3)

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=1, max_wait_ms=NEVER_MS)
        )
        async with server:
            results = [await server.submit("bfs", source) for source in range(3, 10)]
        return server, results

    server, results = asyncio.run(scenario())
    assert [result.batch_index for result in results] == list(range(7))
    assert server.stats["batches"] == 7
    assert len(server.batch_log) == 3
    assert [entry["batch_index"] for entry in server.batch_log] == [4, 5, 6]
    assert [entry["sources"] for entry in server.batch_log] == [[7], [8], [9]]


def test_batch_forms_at_max_wait_with_fewer_lanes(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=8, max_wait_ms=25.0)
        )
        async with server:
            results = await asyncio.gather(
                server.submit("bfs", 3), server.submit("bfs", 5)
            )
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 1
    assert [r.batch_size for r in results] == [2, 2]
    # The deadline fired, not max-K: the batch is under-full and the
    # oldest query waited at least the policy's max_wait_ms.
    assert results[0].extra["serve_batch_fill"] == 2 / 8
    assert results[0].queue_wait_s >= 0.020


def test_result_extra_is_read_only(graph):
    """One caller annotating its result must not edit a sibling's."""
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=2, max_wait_ms=NEVER_MS),
            cache=True,
        )
        async with server:
            batch = await asyncio.gather(
                server.submit("bfs", 3), server.submit("bfs", 5)
            )
            hit = await server.submit("bfs", 3)
        return batch, hit

    (first, sibling), hit = asyncio.run(scenario())
    assert hit.lane == -1
    before = dict(sibling.extra)
    for result in (first, hit):
        with pytest.raises(TypeError):
            result.extra["cache_outcome"] = "mine"
    assert dict(sibling.extra) == before and hit.extra["cache_outcome"] == "hit"


def test_algorithms_batch_separately(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=2, max_wait_ms=NEVER_MS)
        )
        async with server:
            results = await asyncio.gather(
                server.submit("bfs", 3),
                server.submit("sssp", 5),
                server.submit("bfs", 9),
                server.submit("sssp", 11),
            )
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 2
    assert {log["algorithm"] for log in server.batch_log} == {"bfs", "sssp"}
    assert all(r.batch_size == 2 for r in results)


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancellation_before_dispatch_is_pruned(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=NEVER_MS)
        )
        async with server:
            tasks = await submit_tasks(
                server, [("bfs", 3, None), ("bfs", 5, None), ("bfs", 9, None)]
            )
            tasks[1].cancel()
            await asyncio.sleep(0)
            # Two more fill the batch to max-K without the cancelled one.
            late = await submit_tasks(
                server, [("bfs", 11, None), ("bfs", 13, None)]
            )
            results = await asyncio.gather(
                *(tasks[:1] + tasks[2:] + late), return_exceptions=True
            )
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 1
    assert server.stats["cancelled_before_dispatch"] == 1
    assert server.stats["cancelled_after_dispatch"] == 0
    # The cancelled caller never occupied a lane.
    assert server.batch_log[0]["sources"] == [3, 9, 11, 13]
    assert all(r.batch_size == 4 for r in results)


def test_cancellation_after_dispatch_discards_lane(graph):
    async def scenario():
        # Cancel lane 1's caller in the window between batch pop and
        # engine dispatch: the lane still runs with the batch.
        server = InterceptingServer(
            graph,
            policy=AdmissionPolicy(max_batch=3, max_wait_ms=NEVER_MS),
            config=serve_config(),
            before_dispatch=lambda batch: batch[1].future.cancel(),
        )
        async with server:
            tasks = await submit_tasks(
                server, [("bfs", 3, None), ("bfs", 5, None), ("bfs", 9, None)]
            )
            results = await asyncio.gather(*tasks, return_exceptions=True)
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 1
    assert server.stats["cancelled_after_dispatch"] == 1
    assert server.stats["served"] == 2
    # The batch dispatched with all three lanes - the cancelled caller's
    # lane ran, its result was discarded at demultiplex.
    assert server.batch_log[0]["sources"] == [3, 5, 9]
    assert isinstance(results[1], asyncio.CancelledError)
    assert results[0].batch_size == 3 and results[2].batch_size == 3


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_queue_sheds_at_max_queue(graph):
    async def scenario():
        server = make_server(
            graph,
            AdmissionPolicy(max_batch=8, max_wait_ms=NEVER_MS, max_queue=3),
        )
        async with server:
            tasks = await submit_tasks(
                server, [("bfs", s, None) for s in (3, 5, 9)]
            )
            with pytest.raises(ServerOverloaded):
                await server.submit("bfs", 11)
        # Shedding rejected the 4th query but the queued three are
        # intact: the drain on shutdown answered them.
        results = await asyncio.gather(*tasks)
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["shed"] == 1
    assert server.stats["served"] == 3
    assert [r.batch_size for r in results] == [3, 3, 3]


def test_updates_shed_at_max_queue(graph):
    """Pending updates are bounded like queued queries: with the dispatch
    loop held inside a batch, a third update over ``max_queue=2`` pending
    is shed synchronously and counted; the first two apply once the loop
    is released."""

    async def scenario():
        entered, release = asyncio.Event(), asyncio.Event()

        async def hold(batch):
            entered.set()
            await release.wait()

        server = InterceptingServer(
            graph,
            policy=AdmissionPolicy(max_batch=1, max_wait_ms=NEVER_MS, max_queue=2),
            config=serve_config(),
            before_dispatch=hold,
        )
        async with server:
            query = asyncio.ensure_future(server.submit("bfs", 3))
            await asyncio.wait_for(entered.wait(), 10.0)
            version = server.dyn.version
            updates = [
                asyncio.ensure_future(server.update(inserts=[(3, 100 + i)]))
                for i in range(2)
            ]
            try:
                for _ in range(4):  # each update needs a turn to enqueue
                    await asyncio.sleep(0)
                assert not any(u.done() for u in updates)
                with pytest.raises(ServerOverloaded):
                    await asyncio.wait_for(
                        server.update(inserts=[(3, 200)]), 5.0
                    )
                shed_while_held = server.stats["updates_shed"]
            finally:
                release.set()  # a failed check must not hang the shutdown
            receipts = await asyncio.wait_for(asyncio.gather(*updates), 10.0)
            await query
        return server, version, shed_while_held, receipts

    server, version, shed, receipts = asyncio.run(scenario())
    assert shed == server.stats["updates_shed"] == 1
    assert server.stats["updates"] == 2
    assert server.dyn.version == version + 2
    assert [r["version"] for r in receipts] == [version + 1, version + 2]


def test_submit_after_shutdown_raises(graph):
    async def scenario():
        server = make_server(graph, AdmissionPolicy(max_batch=2))
        async with server:
            await server.submit("bfs", 3)  # lone query, served by drain
        with pytest.raises(RuntimeError):
            await server.submit("bfs", 5)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Lane parameter routing and duplicate sources
# ----------------------------------------------------------------------
def test_per_lane_params_route_to_their_lane(graph):
    deltas = [1.0, 4.0, 16.0]

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=3, max_wait_ms=NEVER_MS)
        )
        async with server:
            results = await asyncio.gather(
                *[
                    server.submit("sssp", 3 + 2 * k, {"delta": deltas[k]})
                    for k in range(3)
                ]
            )
        return server, results

    server, results = asyncio.run(scenario())
    log = server.batch_log[0]
    assert log["lane_params"] == [{"delta": d} for d in deltas]
    direct = SIMDXEngine(
        graph, K40, config=serve_config()
    ).run_batch(
        SSSP(source=log["sources"][0]),
        log["sources"],
        lane_params=log["lane_params"],
    )
    for k, result in enumerate(results):
        assert np.array_equal(result.values, direct.values[k])


def test_unknown_param_fails_only_its_caller(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=2, max_wait_ms=NEVER_MS)
        )
        async with server:
            with pytest.raises(ValueError):
                await server.submit("bfs", 3, {"no_such_param": 1})
            results = await asyncio.gather(
                server.submit("bfs", 3), server.submit("bfs", 5)
            )
        return server, results

    server, results = asyncio.run(scenario())
    # The bad query was rejected synchronously - it never joined a batch.
    assert server.stats["batches"] == 1
    assert all(r.batch_size == 2 for r in results)


def test_duplicate_sources_across_callers(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=3, max_wait_ms=NEVER_MS)
        )
        async with server:
            results = await asyncio.gather(
                server.submit("bfs", 7),
                server.submit("bfs", 7),
                server.submit("bfs", 5),
            )
        return server, results

    server, results = asyncio.run(scenario())
    assert server.batch_log[0]["sources"] == [7, 7, 5]
    assert np.array_equal(results[0].values, results[1].values)
    assert results[0].lane == 0 and results[1].lane == 1


# ----------------------------------------------------------------------
# Engine failure isolation
# ----------------------------------------------------------------------
class _BoomBFS(BFS):
    """A BFS whose init raises - the engine-failure path, honestly taken."""

    name = "boom"

    def init(self, graph, **kwargs):
        raise RuntimeError("injected engine failure")


def test_engine_failure_hits_only_its_lanes(graph):
    async def scenario():
        server = make_server(
            graph,
            AdmissionPolicy(max_batch=2, max_wait_ms=NEVER_MS),
            algorithms={"bfs": BFS, "boom": _BoomBFS},
        )
        async with server:
            outcomes = await asyncio.gather(
                server.submit("boom", 3),
                server.submit("boom", 5),
                server.submit("bfs", 3),
                server.submit("bfs", 5),
                return_exceptions=True,
            )
            # The failure is contained: the server keeps serving.
            after = await asyncio.gather(
                server.submit("bfs", 9), server.submit("bfs", 11)
            )
        return server, outcomes, after

    server, outcomes, after = asyncio.run(scenario())
    assert isinstance(outcomes[0], EngineFailure)
    assert isinstance(outcomes[1], EngineFailure)
    assert "injected engine failure" in outcomes[0].reason
    assert outcomes[2].batch_size == 2 and outcomes[3].batch_size == 2
    assert all(r.batch_size == 2 for r in after)
    assert server.stats["failed"] == 2
    assert server.stats["served"] == 4


# ----------------------------------------------------------------------
# Shutdown drain
# ----------------------------------------------------------------------
def test_shutdown_drains_queued_queries(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=16, max_wait_ms=NEVER_MS)
        )
        async with server:
            tasks = await submit_tasks(
                server, [("bfs", 3 + 2 * k, None) for k in range(5)]
            )
            # Nothing dispatched yet: K < max_batch and the deadline is
            # far away. Exiting the context shuts down with drain=True,
            # which dispatches everything still queued.
            assert server.stats["batches"] == 0
        results = await asyncio.gather(*tasks)
        return server, results

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 1
    assert [r.batch_size for r in results] == [5] * 5
    assert server.stats["served"] == 5


def test_shutdown_without_drain_cancels_queued(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=16, max_wait_ms=NEVER_MS)
        )
        await server.start()
        tasks = await submit_tasks(
            server, [("bfs", 3, None), ("bfs", 5, None)]
        )
        await server.shutdown(drain=False)
        return server, await asyncio.gather(*tasks, return_exceptions=True)

    server, results = asyncio.run(scenario())
    assert server.stats["batches"] == 0
    assert all(isinstance(r, asyncio.CancelledError) for r in results)


# ----------------------------------------------------------------------
# The differential check: served == direct run_batch, bit for bit
# ----------------------------------------------------------------------
def test_served_differential_vs_direct_run_batch(graph):
    """Every served answer replays bit-identically through run_batch.

    A mixed bfs/sssp stream (with per-lane deltas, duplicate sources and
    one mid-stream cancellation) is served - two batches at max-K, the
    leftover by the shutdown drain - then every logged batch composition
    is replayed through a *fresh* engine and each caller's values are
    compared at its recorded (batch, lane) coordinates.
    ``REPRO_SANITIZE=1`` arms the runtime sanitizer on both sides.
    """

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=3, max_wait_ms=NEVER_MS)
        )
        queries = [
            ("bfs", 3, None),
            ("sssp", 5, {"delta": 2.0}),
            ("bfs", 7, None),
            ("bfs", 7, None),          # duplicate source
            ("sssp", 9, {"delta": 8.0}),
            ("bfs", 11, None),
            ("sssp", 5, None),         # duplicate source, default delta
            ("bfs", 13, None),
        ]
        async with server:
            tasks = await submit_tasks(server, queries)
            # bfs 3/7/7 and sssp 5/9/5 dispatched at max-K; bfs 11 and 13
            # are still queued (2 < max_batch, deadline far) - cancelling
            # one here exercises pruning mid-stream.
            tasks[5].cancel()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        return server, results

    server, results = asyncio.run(scenario())
    classes = {"bfs": BFS, "sssp": SSSP}
    replays = {}
    for log in server.batch_log:
        engine = SIMDXEngine(
            graph, K40, config=serve_config()
        )
        replays[log["batch_index"]] = engine.run_batch(
            classes[log["algorithm"]](source=log["sources"][0]),
            log["sources"],
            lane_params=log["lane_params"],
        )
    checked = 0
    for result in results:
        if isinstance(result, BaseException):
            assert isinstance(result, asyncio.CancelledError)
            continue
        replay = replays[result.batch_index]
        assert not replay.failed
        assert np.array_equal(result.values, replay.values[result.lane])
        assert result.iterations == replay.iterations
        assert result.elapsed_us == replay.elapsed_us
        checked += 1
    assert checked == len(results) - 1  # all but the cancelled caller
    assert sum(len(log["sources"]) for log in server.batch_log) == checked


# ----------------------------------------------------------------------
# Dynamic updates and the result cache (docs/dynamic.md, docs/caching.md)
# ----------------------------------------------------------------------
def test_cache_hit_serves_without_a_batch(graph):
    """A repeated query is served from the cache: sentinel lane -1, no
    new batch, and the first answer's exact bits."""

    async def scenario():
        server = make_server(
            graph,
            AdmissionPolicy(max_batch=4, max_wait_ms=1.0),
            cache=True,
        )
        async with server:
            first = await server.submit("bfs", 3)
            batches = server.stats["batches"]
            second = await server.submit("bfs", 3)
        return server, first, batches, second

    server, first, batches, second = asyncio.run(scenario())
    assert first.lane >= 0
    assert second.lane == -1 and second.batch_index == -1
    assert second.batch_size == 0 and second.queue_wait_s == 0.0
    assert second.extra["cache_outcome"] == "hit"
    assert server.stats["batches"] == batches  # no batch dispatched
    assert server.stats["cache_hits"] == 1
    np.testing.assert_array_equal(first.values, second.values)


def test_cache_hit_does_not_consume_batch_capacity(graph):
    """Hits bypass admission entirely: with the queue saturated at
    ``max_queue``, a repeated query still answers instantly, sheds
    nothing, and leaves the pending depth untouched."""

    from repro.cache import ResultCache

    # Prepopulate the cache with a direct run's bits - exactly what a
    # served batch lane would have stored (the bit-identity contract).
    warm = SIMDXEngine(
        graph, K40, config=serve_config()
    ).run(BFS(source=3))
    cache = ResultCache()
    cache.store("bfs", 3, {}, warm.values, version=0)

    async def scenario():
        server = make_server(
            graph,
            AdmissionPolicy(
                max_batch=6, max_wait_ms=NEVER_MS, max_queue=5
            ),
            cache=cache,
        )
        await server.start()
        # Saturate the queue: 5 distinct queries, none dispatching
        # (5 < max_batch, deadline far) - admission is full.
        tasks = await submit_tasks(
            server, [("bfs", 20 + i, None) for i in range(5)]
        )
        depth_before = server._former.depth
        assert depth_before == 5
        hit = await server.submit("bfs", 3)  # queue full, still answers
        assert server._former.depth == depth_before
        with pytest.raises(ServerOverloaded):
            await server.submit("bfs", 50)  # misses still shed
        await server.shutdown()  # drain dispatches the queued 5
        results = await asyncio.gather(*tasks)
        return server, hit, results

    server, hit, results = asyncio.run(scenario())
    assert hit.lane == -1
    assert hit.extra["cache_outcome"] == "hit"
    np.testing.assert_array_equal(warm.values, hit.values)
    assert server.stats["shed"] == 1
    assert len(results) == 5


def test_update_bumps_version_and_serves_new_graph(graph):
    """An update applies between batches; a stale cached query is repaired
    onto the new snapshot and matches a direct engine run on it, bit for
    bit."""

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0), cache=True
        )
        async with server:
            before = await server.submit("bfs", 3)
            receipt = await server.update(
                inserts=[(3, 200), (7, 150)], deletes=[(5, 9)]
            )
            after = await server.submit("bfs", 3)
            hit = await server.submit("bfs", 3)
            snapshot = server.dyn.snapshot()
        return server, before, receipt, after, hit, snapshot

    server, before, receipt, after, hit, snapshot = asyncio.run(scenario())
    assert receipt["version"] == 1 and server.dyn.version == 1
    assert server.stats["updates"] == 1
    # The stale entry was not served as stored: the post-update answer was
    # repaired through the receipt, without taking a lane.
    assert after.lane == -1 and after.batch_index == -1
    assert after.batch_size == 1
    assert after.extra["cache_outcome"] == "repair"
    assert after.extra["dyn_graph_version"] == 1
    assert server.stats["cache_repairs"] == 1
    direct = SIMDXEngine(snapshot, config=serve_config()).run(BFS(source=3))
    np.testing.assert_array_equal(after.values, direct.values)
    # And the repair repopulated the cache at the new version.
    assert hit.lane == -1 and hit.extra["cache_outcome"] == "hit"
    assert hit.extra["dyn_graph_version"] == 1
    np.testing.assert_array_equal(hit.values, direct.values)
    # Only the first query took a batch, at the version it ran at.
    assert [e["graph_version"] for e in server.batch_log] == [0]


def test_update_validation_rejects_bad_edges(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0)
        )
        async with server:
            with pytest.raises(ValueError):
                await server.update(inserts=[(0, 0)])
            with pytest.raises(ValueError):
                await server.update(deletes=[(0, graph.num_vertices)])
        return server

    server = asyncio.run(scenario())
    assert server.dyn.version == 0
    assert server.stats["updates"] == 0


def test_failed_update_is_counted_and_leaves_the_graph_coherent(graph):
    """An update the front-end raises on fails its own future, is counted
    in ``updates_failed``, leaves the graph version alone, and the server
    keeps answering exactly what a server that never saw it answers."""

    def raising_once(update):
        calls = []

        def wrapped(**kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise RuntimeError("injected update failure")
            return update(**kwargs)

        return wrapped

    async def scenario(inject):
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0), cache=True
        )
        async with server:
            await server.submit("bfs", 3)  # cached at version 0
            if inject:
                server.front.update = raising_once(server.front.update)
                with pytest.raises(RuntimeError, match="injected"):
                    await server.update(inserts=[(3, 150)])
                assert server.dyn.version == 0
            at_version_0 = await server.submit("bfs", 3)
            await server.update(inserts=[(3, 200)], deletes=[(5, 9)])
            at_version_1 = await server.submit("bfs", 3)
        return server, at_version_0, at_version_1

    server, failed_v0, failed_v1 = asyncio.run(scenario(inject=True))
    fresh, fresh_v0, fresh_v1 = asyncio.run(scenario(inject=False))
    assert server.stats["updates_failed"] == 1
    assert server.stats["updates"] == 1
    assert fresh.stats["updates_failed"] == 0
    assert server.dyn.version == fresh.dyn.version == 1
    for failed, clean in ((failed_v0, fresh_v0), (failed_v1, fresh_v1)):
        assert failed.extra["dyn_graph_version"] == clean.extra["dyn_graph_version"]
        np.testing.assert_array_equal(failed.values, clean.values)


def test_update_refreshes_landmarks(graph):
    """A hot source stays an exact hit across an update: the server's
    eager landmark refresh repairs the pinned entry to the new version."""
    from repro.cache import ResultCache

    async def scenario():
        cache = ResultCache(landmark_threshold=2)
        server = make_server(
            graph,
            AdmissionPolicy(max_batch=4, max_wait_ms=1.0),
            cache=cache,
        )
        async with server:
            await server.submit("bfs", 3)
            await server.submit("bfs", 3)
            await server.submit("bfs", 3)  # promoted to landmark
            receipt = await server.update(inserts=[(3, 200)])
            answer = await server.submit("bfs", 3)
            snapshot = server.dyn.snapshot()
        return cache, receipt, answer, snapshot

    cache, receipt, answer, snapshot = asyncio.run(scenario())
    assert receipt["landmarks_refreshed"] == 1
    assert answer.lane == -1  # still an exact hit, at the new version
    assert answer.extra["dyn_graph_version"] == 1
    direct = SIMDXEngine(snapshot, config=serve_config()).run(BFS(source=3))
    np.testing.assert_array_equal(answer.values, direct.values)


def test_served_differential_with_repairs(graph):
    """The served differential over every way a cache-on server answers:
    a bfs/sssp stream of repeated sources around two updates (inserts,
    then a delete on the hub's tree). Batch lanes replay through
    ``run_batch`` at their ``graph_version``; hits and repairs match a
    direct run on a graph replayed to their ``dyn_graph_version``; repairs
    never take a lane."""
    hub = int(np.argmax(graph.out_degrees()))
    out = graph.out_csr
    updates = [
        {"inserts": [(3, 180), (hub, 90)]},
        {"deletes": [(hub, int(out.targets[out.offsets[hub]]))]},
    ]
    stream = [
        ("bfs", hub, None),
        ("sssp", 5, {"delta": 2.0}),
        ("bfs", 3, None),
        ("sssp", hub, None),
        ("bfs", hub, None),
    ]

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=3, max_wait_ms=1.0), cache=True
        )
        results = []
        async with server:
            for phase in range(3):
                results += await asyncio.gather(
                    *(server.submit(*query) for query in stream)
                )
                if phase < len(updates):
                    await server.update(**updates[phase])
        return server, results

    server, results = asyncio.run(scenario())
    classes = {"bfs": BFS, "sssp": SSSP}
    snapshots = [graph]
    replay = DynamicGraph(graph)
    for update in updates:
        replay.apply(EdgeUpdateBatch.of(**update))
        snapshots.append(replay.snapshot())
    replays = {
        log["batch_index"]: SIMDXEngine(
            snapshots[log["graph_version"]], config=serve_config()
        ).run_batch(
            classes[log["algorithm"]](source=log["sources"][0]),
            log["sources"], lane_params=log["lane_params"],
        )
        for log in server.batch_log
    }
    outcomes = []
    for (name, source, params), result in zip(stream * 3, results):
        outcome = result.extra.get("cache_outcome", "lane")
        outcomes.append(outcome)
        if outcome == "lane":
            expected = replays[result.batch_index].values[result.lane]
        else:
            assert result.lane == -1 and result.batch_index == -1
            assert result.batch_size == (1 if outcome == "repair" else 0)
            snapshot = snapshots[result.extra["dyn_graph_version"]]
            expected = SIMDXEngine(snapshot, config=serve_config()).run(
                classes[name](source=source, **(params or {}))
            ).values
        assert np.array_equal(result.values, expected), (name, source, outcome)
    assert "repair" in outcomes
    assert server.stats["cache_repairs"] == outcomes.count("repair")
    # Every logged lane is a lane result: no repair took one.
    assert sum(len(log["sources"]) for log in server.batch_log) == (
        outcomes.count("lane")
    )


class _FaultyCache(ResultCache):
    """A ResultCache whose first call of method ``faulty`` raises."""

    def __init__(self, faulty: str):
        super().__init__()
        self.faulty = faulty

    def _call(self, name, *args, **kwargs):
        if name == self.faulty:
            self.faulty = None
            raise RuntimeError(f"injected {name} fault")
        return getattr(super(), name)(*args, **kwargs)

    def lookup(self, *args, **kwargs):
        return self._call("lookup", *args, **kwargs)

    def store(self, *args, **kwargs):
        return self._call("store", *args, **kwargs)

    def refresh_landmarks(self, *args, **kwargs):
        return self._call("refresh_landmarks", *args, **kwargs)


def _survives(graph, faulty, fault, expect, source):
    """Run ``fault`` against a server whose cache's ``faulty`` method
    raises once, bounded: the faulted future raises ``expect``, the next
    query answers bit-identical to a direct run, shutdown returns."""

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=2, max_wait_ms=1.0),
            cache=_FaultyCache(faulty),
        )
        await server.start()
        with pytest.raises(expect, match="injected"):
            await asyncio.wait_for(fault(server), 20.0)
        after = await asyncio.wait_for(server.submit("bfs", source), 20.0)
        await asyncio.wait_for(server.shutdown(), 20.0)
        return server, after

    server, after = asyncio.run(scenario())
    direct = SIMDXEngine(server.dyn.snapshot(), config=serve_config()).run(
        BFS(source=source)
    )
    np.testing.assert_array_equal(after.values, direct.values)
    return server, after


def test_dispatch_loop_survives_a_raising_landmark_refresh(graph):
    async def fault(server):
        await server.submit("bfs", 3)
        await server.update(inserts=[(3, 200)])

    server, after = _survives(
        graph, "refresh_landmarks", fault, RuntimeError, 3
    )
    # The update itself applied; the stale entry is repaired at its version.
    assert server.dyn.version == 1
    assert after.extra["cache_outcome"] == "repair"


def test_dispatch_loop_survives_a_raising_store(graph):
    async def fault(server):
        await server.submit("bfs", 3)

    server, after = _survives(graph, "store", fault, EngineFailure, 3)
    assert server.stats["failed"] == 1 and after.lane == 0


def test_a_raising_reuse_fails_only_its_caller(graph):
    async def fault(server):
        await server.submit("bfs", 3)

    server, after = _survives(graph, "lookup", fault, EngineFailure, 3)
    assert server.stats["failed"] == 1 and server.stats["batches"] == 1


def test_served_differential_after_updates(graph):
    """The served-vs-direct differential across a version change: every
    logged batch replays bit-identically against the snapshot of the
    ``graph_version`` it ran at."""

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=2, max_wait_ms=NEVER_MS)
        )
        snapshots = {}
        async with server:
            snapshots[0] = server.dyn.snapshot()
            tasks = await submit_tasks(
                server, [("bfs", 3, None), ("bfs", 5, None)]
            )
            first = await asyncio.gather(*tasks)
            await server.update(inserts=[(3, 180), (11, 90)])
            snapshots[1] = server.dyn.snapshot()
            tasks = await submit_tasks(
                server, [("sssp", 3, None), ("sssp", 7, None)]
            )
            second = await asyncio.gather(*tasks)
        return server, snapshots, first + second

    server, snapshots, results = asyncio.run(scenario())
    classes = {"bfs": BFS, "sssp": SSSP}
    replays = {}
    for log in server.batch_log:
        engine = SIMDXEngine(
            snapshots[log["graph_version"]], config=serve_config()
        )
        replays[log["batch_index"]] = engine.run_batch(
            classes[log["algorithm"]](source=log["sources"][0]),
            log["sources"],
            lane_params=log["lane_params"],
        )
    for result in results:
        replay = replays[result.batch_index]
        assert not replay.failed
        assert np.array_equal(result.values, replay.values[result.lane])


# ----------------------------------------------------------------------
# TCP front door: well-formed-but-wrong input gets an error line, in
# request order, and the connection keeps serving
# ----------------------------------------------------------------------
def _tcp_replies(graph, lines, count, *rounds, **server_kwargs):
    """Pipeline raw ``lines`` over one ``serve_tcp`` connection and return
    the first ``count`` response objects (each read with a timeout - a
    silent connection is the failure mode under test); each further
    ``(lines, count)`` round is sent once the previous one's replies are
    read."""

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0),
            **server_kwargs,
        )
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        try:
            for batch, expect in ((lines, count),) + rounds:
                writer.write(b"".join(line + b"\n" for line in batch))
                await writer.drain()
                replies += [
                    json.loads(await asyncio.wait_for(reader.readline(), 20.0))
                    for _ in range(expect)
                ]
            return replies
        finally:
            writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.shutdown()

    return asyncio.run(scenario())


def _watch_drains(monkeypatch):
    """Count the ``StreamWriter.drain`` calls now in progress (the server's
    writer is the only caller): ``[n]``, read while the loop runs."""
    draining = [0]
    real_drain = asyncio.StreamWriter.drain

    async def drain(self):
        draining[0] += 1
        try:
            await real_drain(self)
        finally:
            draining[0] -= 1

    monkeypatch.setattr(asyncio.StreamWriter, "drain", drain)
    return draining


async def _stall(port, total, draining):
    """Connect with a tiny receive buffer, pipeline ``total`` lines without
    reading, and return ``(reader, writer)`` once the server's writer is
    blocked in ``drain()``. Each line is answered synchronously with a
    ~1 KB error naming its index - no engine work - so the replies (3 MB
    for 3,000 lines) overflow every socket buffer between the two ends."""
    pad = "x" * 1000
    lines = b"".join(
        json.dumps({"algorithm": "bfs", "source": 3,
                    "params": {f"p{i:05d}{pad}": 1}}).encode() + b"\n"
        for i in range(total)
    )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(("127.0.0.1", port))
    reader, writer = await asyncio.open_connection(sock=sock, limit=4096)
    writer.write(lines)  # never drained: the client pipelines
    loop = asyncio.get_event_loop()
    deadline = loop.time() + 30.0
    while not draining[0]:
        assert loop.time() < deadline, "the server's writer never blocked"
        await asyncio.sleep(0.01)
    return reader, writer


def test_tcp_connection_backpressure_bounds_its_queue(graph, monkeypatch):
    """A client that pipelines far more lines than ``max_queue`` and does
    not read: once the server's writer is stuck in ``drain()`` (the
    replies fill the socket buffers), the connection's response queue
    never holds more than ``max_queue`` entries - the handler stops
    reading instead - and once the client reads, every reply arrives, in
    request order."""
    max_queue, total = 4, 3000
    queues = []

    class RecordingQueue(asyncio.Queue):
        """Notes the deepest it ever got (``put`` ends in ``put_nowait``)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.peak = 0
            queues.append(self)

        def put_nowait(self, item):
            super().put_nowait(item)
            self.peak = max(self.peak, self.qsize())

    monkeypatch.setattr(asyncio, "Queue", RecordingQueue)
    draining = _watch_drains(monkeypatch)

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0,
                                   max_queue=max_queue),
        )
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        writer = None
        try:
            reader, writer = await _stall(
                tcp.sockets[0].getsockname()[1], total, draining
            )
            await asyncio.sleep(0.2)  # writer stuck: the reader must stop too
            stuck_peak = queues[0].peak
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 20.0))
                for _ in range(total)
            ]
            return stuck_peak, replies
        finally:
            if writer is not None:
                writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.shutdown()

    stuck_peak, replies = asyncio.run(scenario())
    assert len(queues) == 1 and queues[0].maxsize == max_queue
    assert stuck_peak <= max_queue
    assert queues[0].peak <= max_queue
    assert [r["error"] for r in replies] == ["bad_request"] * total
    order = [int(r["detail"].split("'p")[1][:5]) for r in replies]
    assert order == list(range(total))


def test_tcp_client_gone_while_its_reader_waits(graph, monkeypatch):
    """The client pipelines, never reads, then resets the connection while
    the handler's reader waits on a full response queue: the writer's
    failed ``drain()`` stops the reader too, and the handler ends instead
    of waiting forever for a slot."""
    draining = _watch_drains(monkeypatch)
    ended = []
    handle = front_door._handle_client

    async def watched(server, reader, writer):
        try:
            await handle(server, reader, writer)
        finally:
            ended.append(True)

    monkeypatch.setattr(front_door, "_handle_client", watched)

    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=4, max_wait_ms=1.0, max_queue=4),
        )
        tcp = await serve_tcp(server, "127.0.0.1", 0)
        try:
            _, writer = await _stall(
                tcp.sockets[0].getsockname()[1], 3000, draining
            )
            sock = writer.get_extra_info("socket")
            sock.setsockopt(  # close = reset, not an orderly shutdown
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()
            loop = asyncio.get_event_loop()
            deadline = loop.time() + 20.0
            while not ended:
                assert loop.time() < deadline, "the handler never ended"
                await asyncio.sleep(0.01)
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.shutdown()

    asyncio.run(scenario())
    assert ended == [True]


@pytest.mark.parametrize(
    "line",
    [
        b"[1]",
        b'{"algorithm": "bfs", "source": null}',
        b'{"algorithm": "bfs", "source": 3, "params": 5}',
        b'{"algorithm": "bfs", "source": 1e999}',
        b'{"algorithm": ["bfs"], "source": 3}',
        b'{"pad": "' + b"x" * (80 * 1024) + b'"}',
    ],
    ids=[
        "non-object", "null-source", "non-mapping-params", "infinite-source",
        "unhashable-algorithm", "over-limit-line",
    ],
)
def test_tcp_malformed_request_gets_one_error_and_connection_survives(
    graph, line
):
    good = b'{"algorithm": "bfs", "source": 3}'
    first, bad, stats, again = _tcp_replies(
        graph, [good, line, b'{"cmd": "stats"}', good], 4
    )
    assert first["ok"] and again["ok"]
    assert first["values_sum"] == again["values_sum"]
    assert bad["ok"] is False and bad["error"] == "bad_request"
    assert stats["ok"] and "submitted" in stats["stats"]


def test_tcp_undecodable_line_gets_bad_json_reply(graph):
    bad, stats = _tcp_replies(graph, [b"\xff\xfe", b'{"cmd": "stats"}'], 2)
    assert bad["ok"] is False and bad["error"].startswith("bad json")
    assert stats["ok"]


def test_tcp_every_non_hit_reply_has_a_batch_size(graph):
    """Lane answers and repairs both report ``batch_size >= 1`` - a
    client that divides ``elapsed_us`` by it never divides by zero."""
    queries = [b'{"algorithm": "bfs", "source": 3}',
               b'{"algorithm": "sssp", "source": 5}']
    update = b'{"cmd": "update", "inserts": [[3, 200], [5, 150]]}'
    replies = _tcp_replies(
        graph, queries, 2, ([update] + queries * 2, 5), cache=True
    )
    answers = [r for r in replies if "cache_outcome" in r]
    assert [r["cache_outcome"] for r in answers] == [
        "miss", "miss", "repair", "repair", "hit", "hit"
    ]
    assert all(
        r["batch_size"] >= 1 for r in answers if r["cache_outcome"] != "hit"
    )


# ----------------------------------------------------------------------
# The query counters close
# ----------------------------------------------------------------------
def assert_counters_close(stats):
    """``SIMDXServer.stats``'s law: every query entered once, left once."""
    entered = stats["submitted"] + stats["cache_hits"] + stats["cache_repairs"]
    left = (
        stats["served"] + stats["shed"] + stats["cancelled_before_dispatch"]
        + stats["cancelled_after_dispatch"] + stats["failed"]
        + stats["in_flight"]
    )
    assert entered == left, stats


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_counters_close_under_a_seeded_mix(graph, seed):
    """Hits, repairs, a shed at ``max_queue``, cancels before and after
    dispatch and a failing batch: the law holds at every checkpoint,
    in-flight lanes included, and nothing is in flight at the end."""
    rng = np.random.default_rng(seed)
    sources = [int(v) for v in rng.choice(graph.num_vertices, 12, replace=False)]
    held = {}

    async def before_dispatch(batch):
        # The first batch is held open: its lanes are popped but unsettled.
        if "release" in held:
            return
        held["release"] = asyncio.Event()
        held["snapshot"] = server.stats
        batch[int(rng.integers(len(batch)))].future.cancel()
        await held["release"].wait()

    server = InterceptingServer(
        graph,
        policy=AdmissionPolicy(max_batch=4, max_wait_ms=NEVER_MS, max_queue=4),
        config=serve_config(),
        cache=True,
        algorithms={"bfs": BFS, "sssp": SSSP, "boom": _BoomBFS},
        before_dispatch=before_dispatch,
    )
    checkpoints = []

    async def scenario():
        async with server:
            first = await submit_tasks(
                server, [("bfs", s, None) for s in sources[:4]]
            )
            checkpoints.append(held["snapshot"])
            assert held["snapshot"]["in_flight"] == 4
            held["release"].set()
            await asyncio.gather(*first, return_exceptions=True)
            checkpoints.append(server.stats)
            # Hits: the served sources again.
            for source in sources[:4]:
                await server.submit("bfs", source)
            # A repair: an update makes a cached entry stale.
            await server.update(inserts=[(sources[0], sources[5])])
            await server.submit("bfs", sources[1])
            checkpoints.append(server.stats)
            # Three queued sssp queries, one cancelled before dispatch, a
            # fourth shed at max_queue=4 while a boom query waits too.
            queued = await submit_tasks(
                server, [("sssp", s, None) for s in sources[6:9]]
            )
            boom = await submit_tasks(server, [("boom", sources[9], None)])
            with pytest.raises(ServerOverloaded):
                await server.submit("sssp", sources[10])
            queued[int(rng.integers(3))].cancel()
            await asyncio.sleep(0)
            checkpoints.append(server.stats)
        # Shutdown drained the rest: the sssp batch and the failing one.
        return await asyncio.gather(*queued, *boom, return_exceptions=True)

    outcomes = asyncio.run(scenario())
    final = server.stats
    checkpoints.append(final)
    for stats in checkpoints:
        assert_counters_close(stats)
    assert final["in_flight"] == 0
    assert final["cache_hits"] == 4 and final["cache_repairs"] == 1
    assert final["shed"] == 1
    assert final["cancelled_before_dispatch"] == 1
    assert final["cancelled_after_dispatch"] == 1
    assert final["failed"] == 1
    assert isinstance(outcomes[-1], EngineFailure)


def test_query_counters_close_after_a_shutdown_that_cancels(graph):
    async def scenario():
        server = make_server(
            graph, AdmissionPolicy(max_batch=8, max_wait_ms=NEVER_MS)
        )
        await server.start()
        tasks = await submit_tasks(server, [("bfs", s, None) for s in (3, 5, 9)])
        assert server.stats["in_flight"] == 3
        await server.shutdown(drain=False)
        await asyncio.gather(*tasks, return_exceptions=True)
        return server

    stats = asyncio.run(scenario()).stats
    assert_counters_close(stats)
    assert stats["cancelled_before_dispatch"] == 3 and stats["in_flight"] == 0
