"""The six workloads: seeded input generators and the code that drives
the program with them.

Every generator is a pure function of ``seed`` and the graph; the
program only ever sees the generated sources, events and requests. A
workload's ``round`` is one unit of timed work whose outputs and exact
counts must repeat; ``served-zipf`` has no repeating round (its cache
fills as it runs) and overrides ``timed`` with one closed-loop stream.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from collections import Counter, deque
from contextlib import nullcontext
from statistics import median
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.algorithms import BFS, SSSP, WCC, PageRank
from repro.baselines import reference
from repro.cache import CachedQueryEngine
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn import DynamicGraph, EdgeUpdateBatch
from repro.graph import datasets
from repro.serve import AdmissionPolicy, SIMDXServer
from repro.serve.__main__ import serve_tcp

from perfbench.layers import ROUND, run_counts
from perfbench.trace import Tracer, by_name, duration

QUICK_SCALE = 0.05


# ----------------------------------------------------------------------
# Generators (pure functions of the seed)
# ----------------------------------------------------------------------
def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _with_out_edges(graph) -> np.ndarray:
    return np.flatnonzero(graph.out_degrees() > 0)


def pick_sources(seed: int, stream: int, graph, count: int) -> List[int]:
    """``count`` distinct vertices that have out-edges."""
    chosen = _rng(seed, stream).choice(_with_out_edges(graph), size=count, replace=False)
    return [int(v) for v in chosen]


def _zipf_ranks(count: int, pool_size: int, exponent: float) -> np.ndarray:
    """Popularity ranks of ``count`` accesses, the same for every seed.

    The seed decides which vertex holds which rank, not how often a rank
    repeats: with a few hundred accesses the hit/miss mix of a freshly
    drawn Zipf sample differs by tens of percent from seed to seed, which
    would drown the run-to-run differences the benchmark exists to show.
    """
    weights = np.arange(1, pool_size + 1, dtype=np.float64) ** -exponent
    pattern = np.random.default_rng(20190710)
    return pattern.choice(pool_size, size=count, p=weights / weights.sum())


def _random_pairs(rng, num_vertices: int, count: int) -> List[List[int]]:
    u = rng.integers(0, num_vertices, size=count)
    v = (u + 1 + rng.integers(0, num_vertices - 1, size=count)) % num_vertices
    return [[int(a), int(b)] for a, b in zip(u, v)]


def dyn_events(seed: int, graph, count: int) -> List[dict]:
    """Every 10th event an update (16 inserts + 16 deletes of existing
    edges); the rest bfs/sssp alternating, every 9th query wcc, sources
    a seeded 32-vertex pool accessed in the fixed Zipf(1.0) rank pattern."""
    rng = _rng(seed, 5)
    pool = rng.permutation(_with_out_edges(graph))[:32]
    sources = pool[_zipf_ranks(count, pool.size, 1.0)]
    edges = graph.to_edge_array()
    events, queries = [], 0
    for index in range(count):
        if index % 10 == 9:
            doomed = edges[rng.choice(edges.shape[0], size=16, replace=False)]
            events.append({
                "op": "update",
                "inserts": _random_pairs(rng, graph.num_vertices, 16),
                "deletes": [[int(a), int(b)] for a, b in doomed],
            })
            continue
        queries += 1
        if queries % 9 == 0:
            events.append({"op": "query", "algorithm": "wcc", "source": None})
        else:
            events.append({
                "op": "query",
                "algorithm": ("bfs", "sssp")[queries % 2],
                "source": int(sources[index]),
            })
    return events


def served_requests(seed: int, graph, count: int) -> List[List[dict]]:
    """One request list per connection. bfs/sssp alternate; sources are a
    seeded permutation of every vertex that has out-edges, accessed in the
    fixed Zipf(1.1) rank pattern; every 40th request is an update of 4
    inserts, always on connection 0 so that updates reach the server in
    one order."""
    rng = _rng(seed, 6)
    pool = rng.permutation(_with_out_edges(graph))
    sources = pool[_zipf_ranks(count, pool.size, 1.1)]
    connections: List[List[dict]] = [[], []]
    for index in range(count):
        if index % 40 == 39:
            connections[0].append({
                "cmd": "update",
                "inserts": _random_pairs(rng, graph.num_vertices, 4),
            })
        else:
            connections[index % 2].append({
                "algorithm": ("bfs", "sssp")[(index // 2) % 2],
                "source": int(sources[index]),
            })
    return connections


# ----------------------------------------------------------------------
# One round's record
# ----------------------------------------------------------------------
class Round:
    """What one round did: outputs, exact counts, per-call latencies."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self.outputs: List[np.ndarray] = []
        self.counts: Counter = Counter()
        self.latencies: List[float] = []
        self.ops = 0
        self.failed = 0
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        """One call into the program, timed as its caller sees it."""
        if self._tracer is not None:
            self._tracer.op += 1
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.latencies.append(perf_counter() - start)
        return result

    def add_run(self, result, queries: int = 1) -> None:
        """Account a ``RunResult``/``BatchRunResult`` answering ``queries``."""
        self.ops += queries
        if result.failed:
            self.failed += queries
            return
        self.counts.update(run_counts(result))
        self.outputs.append(result.values)

    def mismatches(self, other: "Round") -> int:
        """Outputs or exact counts that differ from ``other``'s."""
        wrong = sum(
            not np.array_equal(a, b)
            for a, b in itertools.zip_longest(self.outputs, other.outputs)
        )
        return wrong + (self.counts != other.counts)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    #: Whether two passes with one seed must produce identical exact counts.
    counts_repeat = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.scale = QUICK_SCALE if quick else 1.0
        #: Set by the worker for the traced pass only.
        self.tracer: Optional[Tracer] = None

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def verify(self, warm: Round) -> int:
        """Mismatches of the warm-up round against independent references."""
        raise NotImplementedError

    def controls(self, rounds: Sequence[Round]) -> Dict[str, float]:
        """Extra per-layer metrics that need control runs (traced pass only)."""
        return {}

    def close(self) -> None:
        pass

    def part_seconds(self, seconds: float, index: int, parts: int) -> float:
        """This process's share of ``seconds`` when ``parts`` processes split it."""
        return seconds / parts

    def round_seconds(self, done: Round) -> float:
        """The ``run_s`` sample of one round."""
        return done.seconds

    def waits_ms(self, rounds: Sequence[Round]) -> List[float]:
        """What a client waited for, once per thing it asked for: here the
        round is the job, so this is ``run_s`` in milliseconds."""
        return [1e3 * done.seconds for done in rounds]

    def _root(self):
        return self.tracer.span(ROUND) if self.tracer is not None else nullcontext()

    def timed(self, warm: Round, seconds: float) -> List[Round]:
        """Repeat the round for ``seconds`` of measured time.

        Each round is checked against the warm-up between measurements,
        so a wrong answer is counted without being timed.
        """
        rounds: List[Round] = []
        spent = 0.0
        while spent < seconds and not (self.quick and rounds):
            with self._root():
                start = perf_counter()
                current = self.round()
                current.seconds = perf_counter() - start
            spent += current.seconds
            current.failed += current.mismatches(warm)
            current.outputs = []
            rounds.append(current)
        return rounds

    def _load(self, abbrev: str):
        graph = datasets.load_dataset(abbrev, self.scale)
        graph.in_csr  # force the transpose now, inside set-up
        return graph


def _oracle_mismatches(values, graph, sources, oracle) -> int:
    """Answers (one per source, in order) that differ from ``oracle``'s."""
    return sum(
        not np.array_equal(answer, oracle(graph, source))
        for answer, source in zip(values, sources)
    )


class LJPageRank(Workload):
    name = "lj-pagerank"
    why = ("all-active dense frontiers on LJ: task management, np.unique and "
           "pull expansion do the work, the cost model almost none")

    def setup(self) -> None:
        self.graph = self._load("LJ")
        self.engine = SIMDXEngine(self.graph)

    def round(self) -> Round:
        current = Round(self.tracer)
        current.add_run(current.call(self.engine.run, PageRank(tolerance=1e-3)))
        return current

    def verify(self, warm: Round) -> int:
        # The delta-accumulative run stops at a pending-mass tolerance, so
        # it matches the power iteration in L1, not bit for bit.
        expected = reference.pagerank_scores(self.graph)
        return int(np.abs(warm.outputs[0] - expected).sum() > 0.05)


class RCBfs16(Workload):
    name = "rc-bfs16"
    why = ("16 BFS on the road graph: tiny frontiers x ~90 supersteps each, so "
           "per-superstep fixed cost (engine loop, launches, barriers, bin set-up) dominates")

    def setup(self) -> None:
        self.graph = self._load("RC")
        self.engine = SIMDXEngine(self.graph)
        self.sources = pick_sources(self.seed, 1, self.graph, 16)

    def round(self) -> Round:
        current = Round(self.tracer)
        for source in self.sources:
            current.add_run(current.call(self.engine.run, BFS(source=source)))
        return current

    def verify(self, warm: Round) -> int:
        return _oracle_mismatches(
            warm.outputs, self.graph, self.sources, reference.bfs_levels)


class LJBatch16(Workload):
    name = "lj-batch16"
    why = ("run_batch(bfs,16)+run_batch(sssp,16) on LJ: lane machinery only "
           "(batched frontier, lane bitmasks, per-lane combine); no cache, no server")

    def setup(self) -> None:
        self.graph = self._load("LJ")
        self.engine = SIMDXEngine(self.graph)
        self.bfs_sources = pick_sources(self.seed, 2, self.graph, 16)
        self.sssp_sources = pick_sources(self.seed, 3, self.graph, 16)

    def round(self) -> Round:
        current = Round(self.tracer)
        current.add_run(
            current.call(self.engine.run_batch, BFS(), self.bfs_sources), 16)
        current.add_run(
            current.call(self.engine.run_batch, SSSP(), self.sssp_sources), 16)
        return current

    def verify(self, warm: Round) -> int:
        return (
            _oracle_mismatches(warm.outputs[0], self.graph, self.bfs_sources,
                             reference.bfs_levels)
            + _oracle_mismatches(warm.outputs[1], self.graph, self.sssp_sources,
                               reference.sssp_distances)
        )

    def controls(self, rounds: Sequence[Round]) -> Dict[str, float]:
        """``run_batch`` with one lane over ``run`` from the same source."""
        source = self.bfs_sources[0]
        as_batch, as_run = [], []
        for _ in range(3):
            probe = Round(None)
            probe.call(self.engine.run_batch, BFS(), [source])
            probe.call(self.engine.run_batch, SSSP(), [source])
            as_batch.append(sum(probe.latencies))
            probe = Round(None)
            probe.call(self.engine.run, BFS(source=source))
            probe.call(self.engine.run, SSSP(source=source))
            as_run.append(sum(probe.latencies))
        return {"core.batch.k1_over_run": median(as_batch) / median(as_run)}


class Sharded4(Workload):
    name = "sharded4"
    why = ("LJ pagerank on 4 shards + 4 RC bfs on 4 shards + LJ run_batch(bfs,16) "
           "on 2 shards: both sharded loop copies and the boundary merge")

    def setup(self) -> None:
        self.lj = self._load("LJ")
        self.rc = self._load("RC")
        self.lj4 = SIMDXEngine(self.lj, config=EngineConfig(num_shards=4))
        self.rc4 = SIMDXEngine(self.rc, config=EngineConfig(num_shards=4))
        self.lj2 = SIMDXEngine(self.lj, config=EngineConfig(num_shards=2))
        self.rc_sources = pick_sources(self.seed, 4, self.rc, 4)
        self.bfs_sources = pick_sources(self.seed, 4, self.lj, 16)

    def round(self) -> Round:
        current = Round(self.tracer)
        current.add_run(current.call(self.lj4.run, PageRank(tolerance=1e-3)))
        for source in self.rc_sources:
            current.add_run(current.call(self.rc4.run, BFS(source=source)))
        current.add_run(
            current.call(self.lj2.run_batch, BFS(), self.bfs_sources), 16)
        return current

    def verify(self, warm: Round) -> int:
        """Sharded results equal the unsharded ones, which equal the references."""
        plain = Round(None)
        lj, rc = SIMDXEngine(self.lj), SIMDXEngine(self.rc)
        plain.add_run(lj.run(PageRank(tolerance=1e-3)))
        for source in self.rc_sources:
            plain.add_run(rc.run(BFS(source=source)))
        plain.add_run(lj.run_batch(BFS(), self.bfs_sources))
        wrong = sum(
            not np.array_equal(a, b) for a, b in zip(warm.outputs, plain.outputs)
        )
        wrong += _oracle_mismatches(
            plain.outputs[1:5], self.rc, self.rc_sources, reference.bfs_levels)
        wrong += _oracle_mismatches(
            plain.outputs[5], self.lj, self.bfs_sources, reference.bfs_levels)
        return wrong

    def controls(self, rounds: Sequence[Round]) -> Dict[str, float]:
        """LJ pagerank on 4 shards (as timed in ``rounds``) over one run on 1."""
        plain = Round(None)
        plain.call(SIMDXEngine(self.lj).run, PageRank(tolerance=1e-3))
        sharded = median(done.latencies[0] for done in rounds)
        return {"shard.overhead_ratio": sharded / plain.latencies[0]}


def _make(algorithm: str, source: Optional[int]):
    return WCC() if algorithm == "wcc" else {"bfs": BFS, "sssp": SSSP}[algorithm](source=source)


class DynStream(Workload):
    name = "dyn-stream"
    why = ("queries and edge updates interleaved through CachedQueryEngine on LJ: "
           "hit, repair, miss and landmark refresh share the dyn and cache layers")

    def setup(self) -> None:
        self.graph = self._load("LJ")
        self.events = dyn_events(self.seed, self.graph, 20 if self.quick else 50)

    def round(self) -> Round:
        current = Round(self.tracer)
        front = CachedQueryEngine(self.graph)
        for event in self.events:
            current.ops += 1
            if event["op"] == "update":
                current.call(front.update, inserts=event["inserts"],
                             deletes=event["deletes"])
                continue
            answer = current.call(front.query, event["algorithm"], event["source"])
            current.outputs.append(answer.values)
            current.counts[answer.outcome] += 1
            if answer.result is not None:
                current.counts.update(run_counts(answer.result))
        stats = front.stats
        current.counts.update(
            evictions=stats["evictions"], rebuilds=stats["rebuilds"],
            landmarks_refreshed=stats["landmarks_refreshed"])
        return current

    def verify(self, warm: Round) -> int:
        """Every 10th answer against a from-scratch run on a replayed graph."""
        replay = DynamicGraph(self.graph)
        wrong, answered = 0, 0
        for event in self.events:
            if event["op"] == "update":
                replay.apply(EdgeUpdateBatch.of(
                    inserts=event["inserts"], deletes=event["deletes"]))
                continue
            if answered % 10 == 0:
                scratch = SIMDXEngine(replay.snapshot()).run(
                    _make(event["algorithm"], event["source"]))
                wrong += not np.array_equal(scratch.values, warm.outputs[answered])
            answered += 1
        return wrong

    def controls(self, rounds: Sequence[Round]) -> Dict[str, float]:
        return {"cache.evictions": float(rounds[-1].counts["evictions"])}


class ServedZipf(Workload):
    name = "served-zipf"
    why = ("closed loop of 2 connections x 8 pipelined requests through serve_tcp: "
           "TCP line, queue, batch former, run_batch, demux, cache hits, engine swap on update")

    #: Batches form by wall-clock, so hit and batch counts differ run to run.
    counts_repeat = False
    CONNECTIONS = 2
    PIPELINE = 8
    WARMUP_REQUESTS = 32
    POLICY = AdmissionPolicy(max_batch=16, max_wait_ms=2.0, max_queue=1024)

    def setup(self) -> None:
        self.graph = self._load("LJ")
        self.pending: List[Iterator[dict]] = [
            iter(requests) for requests in served_requests(self.seed, self.graph, 8192)
        ]
        self.sent_updates: List[dict] = []
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._open())

    async def _open(self) -> None:
        # use_executor=False keeps load generator and server on one thread.
        self.server = SIMDXServer(
            self.graph, policy=self.POLICY, cache=True, use_executor=False)
        self.tcp = await serve_tcp(self.server, "127.0.0.1", 0)
        port = self.tcp.sockets[0].getsockname()[1]
        self.connections = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(self.CONNECTIONS)
        ]

    def close(self) -> None:
        self.loop.run_until_complete(self._close())
        self.loop.close()

    async def _close(self) -> None:
        for _, writer in self.connections:
            writer.close()
            await writer.wait_closed()
        self.tcp.close()
        await self.tcp.wait_closed()
        await self.server.shutdown()

    # -- closed loop ------------------------------------------------------
    async def _client(self, connection, requests: Iterator[dict],
                      deadline: float, current: Round, replies: List[dict]) -> None:
        reader, writer = connection
        window: deque = deque()

        def send_next() -> None:
            if perf_counter() >= deadline:
                return
            request = next(requests, None)
            if request is not None:
                writer.write((json.dumps(request) + "\n").encode())
                window.append((request, perf_counter()))

        for _ in range(self.PIPELINE):
            send_next()
        while window:
            await writer.drain()
            line = await reader.readline()
            request, sent = window.popleft()
            elapsed = perf_counter() - sent
            reply = json.loads(line) if line else {"ok": False}
            current.ops += 1
            if not reply.get("ok"):
                current.failed += 1
            elif request.get("cmd") == "update":
                self.sent_updates.append(request)
                current.counts["updates"] += 1
            else:
                current.latencies.append(elapsed)
                replies.append(reply)
            send_next()

    async def _clients(self, streams, deadline, current, replies) -> None:
        await asyncio.gather(*(
            self._client(connection, stream, deadline, current, replies)
            for connection, stream in zip(self.connections, streams)
        ))

    def _drive(self, seconds: float, limit: Optional[int] = None) -> Round:
        current = Round(self.tracer)
        replies: List[dict] = []
        streams = [
            itertools.islice(requests, limit // self.CONNECTIONS) if limit else requests
            for requests in self.pending
        ]
        with self._root():
            start = perf_counter()
            self.loop.run_until_complete(self._clients(
                streams, start + seconds, current, replies))
            current.seconds = perf_counter() - start
        served = [r for r in replies if r["cache_outcome"] != "hit"]
        current.counts["hits"] = len(replies) - len(served)
        current.counts["sim_us"] = sum(r["elapsed_us"] / r["batch_size"] for r in served)
        self.queue_waits_ms = [r["queue_wait_ms"] for r in served]
        return current

    def round(self) -> Round:
        return self._drive(seconds=3600.0, limit=self.WARMUP_REQUESTS)

    def part_seconds(self, seconds: float, index: int, parts: int) -> float:
        """One stream, in the last process: three short ones would each
        start with a cold cache and end in the middle of a batch, and their
        qps differed by 30 % run to run."""
        return seconds if index == parts - 1 else 0.0

    def timed(self, warm: Round, seconds: float) -> List[Round]:
        return [self._drive(0.3 if self.quick else seconds)] if seconds else []

    def round_seconds(self, done: Round) -> float:
        """The stream has no rounds: seconds per 100 completed requests."""
        return 100.0 * done.seconds / done.ops

    def waits_ms(self, rounds: Sequence[Round]) -> List[float]:
        return [1e3 * wait for done in rounds for wait in done.latencies]

    # -- verification -----------------------------------------------------
    def verify(self, warm: Round) -> int:
        """16 fresh queries over TCP against direct runs on a graph that
        replays the updates the server acknowledged."""
        replay = DynamicGraph(self.graph)
        for update in self.sent_updates:
            replay.apply(EdgeUpdateBatch.of(inserts=update["inserts"]))
        direct = SIMDXEngine(replay.snapshot())
        sources = pick_sources(self.seed, 7, self.graph, 16)
        requests = [
            {"algorithm": ("bfs", "sssp")[i % 2], "source": s}
            for i, s in enumerate(sources)
        ]
        replies: List[dict] = []
        self.loop.run_until_complete(self._client(
            self.connections[1], iter(requests), perf_counter() + 3600.0,
            Round(None), replies))
        wrong = len(requests) - len(replies)
        for request, reply in zip(requests, replies):
            values = direct.run(_make(request["algorithm"], request["source"])).values
            finite = np.isfinite(values)
            wrong += (
                reply["reached"] != int(finite.sum())
                or reply["values_sum"] != float(values[finite].sum())
            )
        return wrong

    # -- per-layer --------------------------------------------------------
    def controls(self, rounds: Sequence[Round]) -> Dict[str, float]:
        spans = by_name(self.tracer.spans)
        stats = self.server.stats
        traced = rounds[-1]
        sizes = [len(entry["sources"]) for entry in self.server.batch_log]
        latencies_ms = sorted(1e3 * s for s in traced.latencies)
        submit = [duration(s) for s in spans.get("serve.submit", ())]
        service = [duration(s) for s in spans.get("core.engine.run_batch", ())]
        queries = stats["submitted"] + stats["cache_hits"]

        def percentile(share: float) -> float:
            return latencies_ms[min(len(latencies_ms) - 1, int(share * len(latencies_ms)))]

        return {
            "serve.queue_wait_ms_p50": median(self.queue_waits_ms),
            "serve.batch_service_ms_p50": 1e3 * median(service),
            "serve.batch_size_mean": sum(sizes) / len(sizes),
            "serve.batch_fill_mean": sum(sizes) / len(sizes) / self.POLICY.max_batch,
            "serve.batches": float(stats["batches"]),
            "serve.cache_hit_share": stats["cache_hits"] / queries,
            "serve.front_door_overhead_ms_p50": percentile(0.5) - 1e3 * median(submit),
            "serve.engine_share": sum(service) / traced.seconds,
            "serve.shed": float(stats["shed"]),
            "serve.latency_p90_ms": percentile(0.9),
            "serve.latency_p99_ms": percentile(0.99),
            "cache.evictions": float(self.server.cache.stats["evictions"]),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (LJPageRank, RCBfs16, LJBatch16, Sharded4, DynStream, ServedZipf)
}
