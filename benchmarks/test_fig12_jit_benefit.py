"""Figure 12: benefit of JIT task management over ballot-only and online-only
filtering for BFS, k-Core and SSSP.

Paper result (shape): JIT is on average 16x / 26x / 4.5x faster than the
ballot filter for BFS / k-Core / SSSP (the largest wins coming from the
high-diameter road graphs, where a ballot-only configuration pays a full
metadata scan per almost-empty iteration); the online filter alone cannot
complete the large skewed graphs because its bins overflow; JIT is never
much worse than the better of the two pure filters.
"""

from __future__ import annotations

from repro.bench import experiments
from repro.graph.datasets import HIGH_DIAMETER_GRAPHS


def test_figure12_jit_task_management(ctx):
    result = experiments.figure12(ctx)
    print()
    print(experiments.experiment("figure12").render(result))

    rows = result["rows"]
    averages = result["jit_speedup_over_ballot"]

    # JIT never loses much to the ballot-only configuration on average. The
    # paper reports 16x/26x/4.5x average wins; at the analogue scale the
    # metadata-scan cost that drives those wins is only microseconds, so the
    # reproduced effect is directional rather than order-of-magnitude (see
    # EXPERIMENTS.md for the discussion).
    for algorithm, ratio in averages.items():
        assert ratio > 0.95, (algorithm, ratio)

    # The win concentrates on the high-diameter road graphs, where the
    # ballot filter pays a full metadata scan per almost-empty iteration.
    road = set(HIGH_DIAMETER_GRAPHS) & set(ctx.datasets)
    for r in rows:
        if r["graph"] in road and r["algorithm"] in ("bfs", "sssp"):
            assert r["jit_speedup_vs_ballot"] > 1.0, r

    # The online-only configuration fails (bin overflow) on at least one of
    # the large skewed graphs, as the paper observes for FB/TW/UK.
    skewed = {"FB", "TW", "UK", "KR"} & set(ctx.datasets)
    if skewed:
        assert any(
            r["online_failed"] for r in rows
            if r["graph"] in skewed and r["algorithm"] == "bfs"
        )

    # Where the online filter does complete, JIT stays within ~20% of it
    # (the paper reports 1-2% overhead; the band is wider here because the
    # simulated runs are microseconds long).
    for r in rows:
        if r["online_ms"] and r["jit_ms"]:
            assert r["jit_ms"] <= 1.25 * r["online_ms"] + 1e-6, r

    # BFS's big-frontier middle phase executes in gather mode on the skewed
    # graphs - the direction machinery the filters cooperate with is real,
    # not a pricing flag.
    assert any(
        r["jit_pull_iterations"] > 0 for r in rows if r["algorithm"] == "bfs"
    )
