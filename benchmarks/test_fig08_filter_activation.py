"""Figure 8: which iterations activate the ballot filter.

Paper result: BFS and SSSP use the ballot filter in the middle of the
computation and the online filter at the beginning and end; high-diameter
road graphs (ER, RC) never activate the ballot filter; k-Core ballots only in
its first iteration(s).
"""

from __future__ import annotations

from repro.bench import experiments
from repro.graph.datasets import HIGH_DIAMETER_GRAPHS


def test_figure8_filter_activation_patterns(ctx):
    result = experiments.figure8(ctx)
    print()
    print(experiments.experiment("figure8").render(result))

    rows = result["rows"]

    def rows_for(algorithm):
        return [r for r in rows if r["algorithm"] == algorithm]

    # High-diameter graphs never need the ballot filter for BFS/SSSP.
    for algorithm in ("bfs", "sssp"):
        for r in rows_for(algorithm):
            if r["graph"] in set(HIGH_DIAMETER_GRAPHS) & set(ctx.datasets):
                assert not r["uses_ballot"], (algorithm, r["graph"])

    # On the skewed social graphs BFS does activate the ballot filter, and
    # the first and last iterations are handled by the online filter.
    skewed = [r for r in rows_for("bfs")
              if r["graph"] in {"FB", "TW", "OR", "LJ"} & set(ctx.datasets)]
    for r in skewed:
        assert r["uses_ballot"], r["graph"]
        assert r["online_iterations"] >= 0

    # k-Core's ballot activations (if any) are confined to the early
    # iterations - the big deletion wave happens at the start.
    for r in rows_for("kcore"):
        for iteration in r["ballot_iterations"]:
            assert iteration <= max(2, r["iterations"] // 2)

    # Road graphs take far more iterations than the social graphs (the
    # iteration counts annotated on Figure 8).
    if {"ER", "FB"} <= set(ctx.datasets):
        bfs_iters = {r["graph"]: r["iterations"] for r in rows_for("bfs")}
        assert bfs_iters["ER"] > 5 * bfs_iters["FB"]
