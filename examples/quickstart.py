#!/usr/bin/env python3
"""Quickstart: run a few ACC graph algorithms on SIMD-X.

This example builds a scaled-down LiveJournal-like social graph, runs BFS,
SSSP, PageRank and k-Core on the simulated K40 GPU, checks the results
against simple CPU oracles, and prints the per-run statistics SIMD-X exposes
(iterations, filter trace, direction trace, simulated kernel time).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import BFS, KCore, PageRank, SSSP
from repro.baselines import reference
from repro.core.engine import SIMDXEngine
from repro.gpu.device import K40
from repro.graph.datasets import load_dataset


def main() -> None:
    # 1. Load a dataset analogue (Table 3's LiveJournal, scaled to laptop size).
    graph = load_dataset("LJ", scale=0.5)
    print(f"Graph: {graph}")
    print(f"  average degree = {graph.average_degree():.1f}, "
          f"max degree = {graph.max_degree()}")

    # 2. Create the engine: runs priced on a simulated K40, with SIMD-X's
    #    default configuration (JIT task management + push-pull kernel
    #    fusion). One engine serves every run below.
    engine = SIMDXEngine(graph, K40)

    # 3. BFS from the highest-degree vertex.
    source = int(np.argmax(graph.out_degrees()))
    bfs = engine.run(BFS(source=source))
    expected_levels = reference.bfs_levels(graph, source)
    print(f"\nBFS from vertex {source}:")
    print(f"  iterations          = {bfs.iterations}")
    print(f"  simulated time      = {bfs.elapsed_ms:.3f} ms")
    print(f"  kernel launches     = {bfs.kernel_launches}")
    print(f"  filter per iteration= {bfs.filter_trace}")
    print(f"  direction trace     = {bfs.direction_trace}")
    print(f"  matches CPU oracle  = {np.array_equal(bfs.values, expected_levels)}")

    # 4. SSSP (weighted) from the same source.
    sssp = engine.run(SSSP(source=source))
    expected_dist = reference.sssp_distances(graph, source)
    reached = np.isfinite(sssp.values)
    print(f"\nSSSP from vertex {source}:")
    print(f"  iterations     = {sssp.iterations}")
    print(f"  simulated time = {sssp.elapsed_ms:.3f} ms")
    print(f"  reached        = {int(reached.sum())} / {graph.num_vertices} vertices")
    print(f"  matches oracle = {np.allclose(sssp.values[reached], expected_dist[reached])}")

    # 5. PageRank (delta-accumulative, pull then push).
    pagerank = engine.run(PageRank(tolerance=1e-5))
    top = np.argsort(pagerank.values)[::-1][:5]
    print(f"\nPageRank:")
    print(f"  iterations     = {pagerank.iterations}")
    print(f"  simulated time = {pagerank.elapsed_ms:.3f} ms")
    print(f"  top-5 vertices = {top.tolist()}")

    # 6. k-Core decomposition with the paper's default k = 16.
    kcore_algo = KCore(k=16)
    kcore = engine.run(kcore_algo)
    members = kcore_algo.core_membership(kcore.values)
    print(f"\nk-Core (k=16):")
    print(f"  iterations     = {kcore.iterations}")
    print(f"  simulated time = {kcore.elapsed_ms:.3f} ms")
    print(f"  core size      = {int(members.sum())} vertices")


if __name__ == "__main__":
    main()
