#!/usr/bin/env python3
"""Ablation study: how much each SIMD-X technique contributes.

The paper's Sections 7.1-7.3 quantify the contribution of the ACC combine,
JIT task management and push-pull kernel fusion. This example runs a compact
version of those ablations on two structurally opposite graphs - a skewed
social network (Orkut analogue) and a high-diameter road network (RoadCA
analogue) - and prints a side-by-side comparison, including the baseline
systems.

Run with:  python examples/ablation_study.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import BFS, SSSP
from repro.bench.harness import BenchmarkContext, make_algorithm
from repro.core.engine import EngineConfig
from repro.core.filters import FilterMode
from repro.core.fusion import FusionStrategy


def run_matrix(ctx: BenchmarkContext, abbrev: str, algorithm_name: str) -> None:
    print(f"\n=== {algorithm_name.upper()} on {abbrev} "
          f"({ctx.graph(abbrev).num_vertices} vertices, "
          f"{ctx.graph(abbrev).num_edges} edges) ===")

    configurations = {
        "SIMD-X (JIT + push-pull fusion)": EngineConfig(),
        "  ... ballot filter only": EngineConfig(filter_mode=FilterMode.BALLOT),
        "  ... online filter only": EngineConfig(filter_mode=FilterMode.ONLINE),
        "  ... no kernel fusion": EngineConfig(fusion=FusionStrategy.NONE),
        "  ... all-fusion": EngineConfig(fusion=FusionStrategy.ALL),
        "  ... atomic combine (no ACC)": EngineConfig(atomic_combine=True),
    }

    baseline = None
    for label, config in configurations.items():
        result = ctx.run("simdx", abbrev, algorithm_name, config=config)
        if result.failed:
            print(f"{label:40s}  FAILED ({result.failure_reason.split(':')[0]})")
            continue
        if baseline is None:
            baseline = result.elapsed_us
        relative = result.elapsed_us / baseline
        print(f"{label:40s}  {result.elapsed_ms:8.3f} ms   "
              f"({relative:4.2f}x of SIMD-X, {result.iterations} iterations, "
              f"{result.kernel_launches} launches)")

    for system in ("gunrock", "cusha", "galois", "ligra"):
        result = ctx.run(system, abbrev, algorithm_name)
        if result.failed:
            print(f"{result.system:40s}  FAILED ({result.failure_reason.split(':')[0]})")
        else:
            print(f"{result.system:40s}  {result.elapsed_ms:8.3f} ms   "
                  f"({result.elapsed_us / baseline:4.2f}x of SIMD-X)")


def main() -> None:
    ctx = BenchmarkContext(datasets=("OR", "RC"))
    for abbrev in ctx.datasets:
        for algorithm_name in ("bfs", "sssp"):
            run_matrix(ctx, abbrev, algorithm_name)

    print("\nNotes:")
    print(" * The online filter alone fails on the skewed social graph because")
    print("   its bounded per-thread bins overflow (the JIT controller exists")
    print("   precisely to fall back to the ballot filter at that point).")
    print(" * The ballot filter alone wastes a full metadata scan per iteration")
    print("   on the road network, where almost no vertex is active.")
    print(" * Disabling kernel fusion multiplies kernel launches by the")
    print("   iteration count; all-fusion halves occupancy via register pressure.")
    print(" * The atomic-combine variant prices Gunrock's update strategy inside")
    print("   the SIMD-X engine, isolating the benefit of the ACC model itself.")


if __name__ == "__main__":
    main()
