"""Line-delimited JSON-over-TCP front end for :class:`SIMDXServer`.

Demo CLI, not a production protocol: one JSON object per line in, one per
line out, so the server is drivable with ``nc``/``telnet`` or a few lines
of ``asyncio.open_connection``. Requests::

    {"algorithm": "bfs", "source": 3}
    {"algorithm": "sssp", "source": 7, "params": {"delta": 4.0}}
    {"cmd": "update", "inserts": [[3, 9]], "deletes": [[4, 7]]}
    {"cmd": "stats"}

Responses carry a summary instead of the raw per-vertex array (which is
``num_vertices`` floats): the count of reached/finite vertices and the
finite-value checksum, enough to cross-check against a direct
``run_batch`` call. Example::

    {"ok": true, "lane": 1, "batch_size": 4, "iterations": 9,
     "elapsed_us": 1234.5, "queue_wait_ms": 1.9, "reached": 4846,
     "values_sum": 40913.0, "batch_fill": 0.25}

Run ``python -m repro.serve --demo 12`` for a self-contained demo: it
starts the server on an ephemeral port, fires 12 concurrent BFS/SSSP
queries through a TCP client, applies an edge update, repeats the first
query twice, prints the responses and shuts down - the mode the docs job
executes. It exits 1 unless the repeats are answered ``repair`` then
``hit``, each equal to a direct run on the updated snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Optional

import numpy as np

from repro.algorithms import BFS
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph.datasets import load_dataset
from repro.serve.policy import AdmissionPolicy, ServerOverloaded
from repro.serve.server import EngineFailure, SIMDXServer


def _summarize(values: np.ndarray) -> dict:
    finite = np.isfinite(np.asarray(values, dtype=np.float64))
    return {
        "reached": int(finite.sum()),
        "values_sum": float(np.asarray(values)[finite].sum()),
    }


def _bad_request(detail: str) -> dict:
    return {"ok": False, "error": "bad_request", "detail": detail}


async def _process(server: SIMDXServer, request: dict) -> dict:
    """One request -> one response payload (exceptions become errors)."""
    if request.get("cmd") == "stats":
        return {"ok": True, "stats": server.stats}
    if request.get("cmd") == "update":
        try:
            receipt = await server.update(
                inserts=request.get("inserts"),
                insert_weights=request.get("insert_weights"),
                deletes=request.get("deletes"),
            )
        except ServerOverloaded as exc:
            return {"ok": False, "error": "overloaded", "detail": str(exc)}
        except (ValueError, TypeError) as exc:
            return {"ok": False, "error": "bad_update", "detail": str(exc)}
        return {"ok": True, **receipt}
    try:
        result = await server.submit(
            request["algorithm"],
            request["source"],
            request.get("params"),
        )
    except ServerOverloaded as exc:
        return {"ok": False, "error": "overloaded", "detail": str(exc)}
    except EngineFailure as exc:
        return {"ok": False, "error": "engine_failure", "detail": exc.reason}
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        # Well-formed JSON of the wrong shape: a missing or unknown field,
        # ``"source": null`` / ``1e999``, ``"params": 5``. ``submit``
        # validates before the query is queued, so these all raise here.
        return _bad_request(str(exc))
    payload = {
        "ok": True,
        "cache_outcome": result.extra.get("cache_outcome", "miss"),
        "lane": result.lane,
        "batch_size": result.batch_size,
        "iterations": result.iterations,
        "elapsed_us": result.elapsed_us,
        "queue_wait_ms": 1000.0 * result.queue_wait_s,
        "batch_fill": result.extra.get("serve_batch_fill"),
    }
    payload.update(_summarize(result.values))
    return payload


async def _handle_client(
    server: SIMDXServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    # Requests on one connection process *concurrently* (so a pipelined
    # client's queries can share a batch) while responses are written back
    # in request order: the reader enqueues one task per line, the writer
    # loop awaits them FIFO. The queue holds at most ``max_queue`` lines:
    # a client that pipelines without reading stalls the writer on
    # drain(), then the reader on put() - it stops reading, and TCP flow
    # control pushes back on the client. No line is dropped.
    responses: "asyncio.Queue[object]" = asyncio.Queue(
        maxsize=server.policy.max_queue
    )

    async def reply(payload: dict) -> None:
        """Queue an already-known response in this line's slot."""
        ready = asyncio.get_event_loop().create_future()
        ready.set_result(payload)
        await responses.put(ready)

    async def write_responses() -> None:
        while True:
            task = await responses.get()
            if task is None:
                break
            payload = await task
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

    writer_task = asyncio.ensure_future(write_responses())
    reading = asyncio.current_task()

    def writer_done(task: asyncio.Task) -> None:
        # A writer that died (client gone) frees no more slots: stop the
        # reader too, which may be waiting on a full queue.
        if not task.cancelled() and task.exception() is not None:
            reading.cancel()

    writer_task.add_done_callback(writer_done)
    try:
        oversized = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF: what is left, as readline() does
            except asyncio.LimitOverrunError as exc:
                # A line over the StreamReader limit: drop it chunk by
                # chunk (memory stays bounded by the limit) and answer
                # once, in its slot, when its end arrives.
                await reader.readexactly(exc.consumed)
                oversized = True
                continue
            if oversized:
                oversized = False
                await reply(_bad_request("line exceeds the stream reader limit"))
                continue
            if not line:
                break
            try:
                request = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                await reply({"ok": False, "error": f"bad json: {exc}"})
                continue
            if not isinstance(request, dict):
                await reply(_bad_request(
                    "a request is a JSON object, got "
                    f"{type(request).__name__}"
                ))
                continue
            task = asyncio.ensure_future(_process(server, request))
            await responses.put(task)
            if request.get("cmd") == "update":
                # Barrier: later lines on this connection must observe the
                # new graph version (no stale cache hits after the client
                # could have seen the update's acknowledgement).
                await task
        await responses.put(None)
        await writer_task
    except (asyncio.CancelledError, ConnectionResetError):
        # Server closing underneath us (demo teardown) or client gone.
        writer_task.cancel()
    finally:
        writer.close()


async def serve_tcp(
    server: SIMDXServer, host: str, port: int
) -> asyncio.AbstractServer:
    await server.start()
    return await asyncio.start_server(
        lambda r, w: _handle_client(server, r, w), host, port
    )


async def _demo(server: SIMDXServer, host: str, port: int, count: int) -> int:
    tcp = await serve_tcp(server, host, port)
    port = tcp.sockets[0].getsockname()[1]
    print(f"serving {server.graph.name} on {host}:{port}")
    reader, writer = await asyncio.open_connection(host, port)
    degrees = server.graph.out_degrees()
    hubs = np.argsort(-degrees, kind="stable")[: max(count, 1)]
    requests = []
    for index in range(count):
        source = int(hubs[index % len(hubs)])
        if index % 2 == 0:
            requests.append({"algorithm": "bfs", "source": source})
        else:
            requests.append({"algorithm": "sssp", "source": source,
                             "params": {"delta": 2.0 + index % 3}})
    # One writer, many in-flight queries: responses come back in request
    # order per connection (the handler loop is sequential per client),
    # but batches form across whatever is queued when the policy fires.
    for request in requests:
        writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    for request in requests:
        line = await reader.readline()
        response = json.loads(line)
        status = "ok" if response.get("ok") else response.get("error")
        print(f"{request['algorithm']:>5} src={request['source']:<8} "
              f"-> {status}, batch={response.get('batch_size')}, "
              f"reached={response.get('reached')}, "
              f"wait={response.get('queue_wait_ms', 0):.2f}ms")
    # Exercise the dynamic-update path: insert two hub-to-hub edges, then
    # repeat the first query - the cache entry is stale after the update,
    # so the server repairs it through the update receipt.
    update = {"cmd": "update",
              "inserts": [[int(hubs[0]), int(hubs[-1])],
                          [int(hubs[-1]), int(hubs[1 % len(hubs)])]]}
    writer.write((json.dumps(update) + "\n").encode())
    await writer.drain()
    applied = json.loads(await reader.readline())
    print(f"update -> ok={applied.get('ok')}, "
          f"version={applied.get('version')}, "
          f"inserted={applied.get('inserted')}")
    replies = []
    for _ in range(2):  # first is repaired at the new version, second hits
        writer.write((json.dumps(requests[0]) + "\n").encode())
        await writer.drain()
        response = json.loads(await reader.readline())
        print(f"{requests[0]['algorithm']:>5} "
              f"src={requests[0]['source']:<8} "
              f"-> {response.get('cache_outcome')}, "
              f"reached={response.get('reached')}")
        replies.append(response)
    writer.write((json.dumps({"cmd": "stats"}) + "\n").encode())
    await writer.drain()
    stats = json.loads(await reader.readline())["stats"]
    print(f"stats: {stats}")
    writer.close()
    tcp.close()
    await tcp.wait_closed()
    await server.shutdown()
    # End-to-end check of the reuse path (requests[0] is a plain bfs): a
    # repair then a hit, each the bits of a direct run on the new snapshot.
    direct = _summarize(SIMDXEngine(server.dyn.snapshot(), config=server.front.config)
                        .run(BFS(source=requests[0]["source"])).values)
    got = [(r.get("cache_outcome"), r.get("reached"), r.get("values_sum"))
           for r in replies]
    want = [(o, direct["reached"], direct["values_sum"]) for o in ("repair", "hit")]
    if got != want:
        print(f"demo check failed: expected {want}, got {got}")
    return int(got != want)


async def _serve_forever(server: SIMDXServer, host: str, port: int) -> int:
    tcp = await serve_tcp(server, host, port)
    port = tcp.sockets[0].getsockname()[1]
    print(f"serving {server.graph.name} on {host}:{port} (ctrl-C to stop)")
    async with tcp:
        await tcp.serve_forever()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="JSON-over-TCP serving demo for SIMDXServer.",
    )
    parser.add_argument("--dataset", default="LJ",
                        help="dataset abbreviation (default %(default)s)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default %(default)s)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed at start)")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--max-queue", type=int, default=1024)
    parser.add_argument("--demo", type=int, metavar="N", default=None,
                        help="fire N demo queries through a client and exit")
    args = parser.parse_args(argv)
    graph = load_dataset(args.dataset.upper(), args.scale)
    server = SIMDXServer(
        graph,
        policy=AdmissionPolicy(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
        ),
        config=EngineConfig(),
        use_executor=True,
        cache=True,
    )
    if args.demo is not None:
        return asyncio.run(_demo(server, args.host, args.port, args.demo))
    return asyncio.run(_serve_forever(server, args.host, args.port))


if __name__ == "__main__":
    raise SystemExit(main())
