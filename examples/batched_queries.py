#!/usr/bin/env python3
"""Batched multi-source queries: K traversals, one CSR walk per iteration.

A serving workload asks the same graph many nearly-identical questions -
"distance from user A / B / C...", landmark distance sketches, multi-seed
reachability. Running them one at a time (`SIMDXEngine.run`) pays the full
per-edge cost per query; `SIMDXEngine.run_batch` gives each query a *lane*
and walks the union of the K frontiers once per iteration, expanding every
union edge only into the lanes whose frontier contains its source. Results
are bit-identical to the K independent runs; see docs/batching.md.

Run with:  PYTHONPATH=src python examples/batched_queries.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import BFS, SSSP
from repro.core.engine import SIMDXEngine
from repro.gpu.device import K40
from repro.graph.datasets import load_dataset


def main() -> None:
    # A scaled-down LiveJournal analogue: skewed degrees, low diameter -
    # exactly the regime where K frontiers overlap and batching wins.
    graph = load_dataset("LJ", scale=0.5)
    print(f"Graph: {graph}")

    # The 16 highest-degree vertices play the role of 16 user queries.
    sources = [int(v) for v in np.argsort(graph.out_degrees())[::-1][:16]]

    # --- batched: one engine pass answers all 16 BFS queries ------------
    engine = SIMDXEngine(graph, K40)
    batch = engine.run_batch(BFS(), sources)
    print(f"\nBatched BFS over K={batch.num_lanes} sources:")
    print(f"  iterations        = {batch.iterations} "
          f"(per lane: {batch.lane_iterations})")
    print(f"  simulated time    = {batch.elapsed_ms:.3f} ms "
          f"({batch.queries_per_second:,.0f} queries/s)")
    print(f"  direction trace   = {batch.direction_trace}")
    print(f"  union edges walked= {batch.extra['union_edges_walked']:,} "
          f"(serial would walk {batch.extra['lane_edge_pairs']:,})")

    # --- the serial baseline: the same 16 queries, one at a time --------
    serial_us = 0.0
    identical = True
    for lane, source in enumerate(sources):
        single = engine.run(BFS(source=source))
        serial_us += single.elapsed_us
        identical &= bool(np.array_equal(batch.values[lane], single.values))
    print(f"\nSerial loop over the same sources:")
    print(f"  simulated time    = {serial_us / 1000.0:.3f} ms "
          f"({len(sources) / (serial_us / 1e6):,.0f} queries/s)")
    print(f"  batch speedup     = {serial_us / batch.elapsed_us:.2f}x")
    print(f"  bit-identical     = {identical}")

    # --- weighted distances batch the same way --------------------------
    sssp = engine.run_batch(SSSP(), sources[:4])
    print(f"\nBatched SSSP over K={sssp.num_lanes} sources:")
    print(f"  iterations        = {sssp.iterations}")
    print(f"  simulated time    = {sssp.elapsed_ms:.3f} ms")
    for lane, source in enumerate(sssp.sources):
        reached = int(np.isfinite(sssp.values[lane]).sum())
        print(f"  lane {lane} (source {source:>6}): "
              f"reached {reached} / {graph.num_vertices} vertices")


if __name__ == "__main__":
    main()
