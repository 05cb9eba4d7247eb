"""Figure 13: benefit of push-pull based kernel fusion over no fusion and
aggressive (all) fusion for BFS, BP, k-Core, PageRank and SSSP.

Paper result (shape): push-pull fusion is on average ~43% faster than no
fusion and ~25% faster than all-fusion; the iteration-heavy traversal
algorithms (BFS, k-Core, SSSP) gain the most; all-fusion can be *slower*
than no fusion for PageRank because its register pressure halves occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.bench import experiments
from repro.core.metrics import geometric_mean_speedup


def test_figure13_push_pull_fusion(ctx):
    result = experiments.figure13(ctx)
    print()
    print(experiments.experiment("figure13").render(result))

    averages = result["average_speedups"]

    # Push-pull fusion beats no fusion on average for every algorithm.
    for algorithm, avg in averages.items():
        assert avg["push_pull_vs_none"] > 1.0, (algorithm, avg)

    # Push-pull fusion also beats all-fusion on average overall.
    push_pull_all = geometric_mean_speedup(
        [avg["push_pull_vs_none"] for avg in averages.values()]
    )
    all_fusion_all = geometric_mean_speedup(
        [avg["all_vs_none"] for avg in averages.values()]
    )
    assert push_pull_all > all_fusion_all

    # The iteration-heavy algorithms gain more from fusion than the
    # compute-heavy full-graph ones (BFS/SSSP/k-Core vs PageRank/BP).
    traversal_gain = np.mean(
        [averages[a]["push_pull_vs_none"] for a in ("bfs", "sssp", "kcore")
         if a in averages]
    )
    dense_gain = np.mean(
        [averages[a]["push_pull_vs_none"] for a in ("pagerank", "bp")
         if a in averages]
    )
    assert traversal_gain > dense_gain

    # All-fusion is not universally beneficial: on at least one
    # PageRank/BP configuration it fails to beat no fusion.
    dense_rows = [
        r for r in result["rows"] if r["algorithm"] in ("pagerank", "bp")
    ]
    assert any(
        r["all_fusion_speedup"] is not None and r["all_fusion_speedup"] < 1.05
        for r in dense_rows
    )

    # Push-pull fusion only exists because iterations really alternate
    # between scatter and gather execution: every algorithm runs at least
    # one genuine pull iteration somewhere in the sweep, and the selectively
    # fused kernel relaunches exactly once per executed direction phase
    # (switches + 1, the Table 2 launch rule).
    for algorithm in averages:
        assert any(
            r["pull_iterations"] > 0
            for r in result["rows"] if r["algorithm"] == algorithm
        ), algorithm
    for r in result["rows"]:
        if r["iterations"]:
            assert r["push_pull_launches"] == r["direction_switches"] + 1, r
