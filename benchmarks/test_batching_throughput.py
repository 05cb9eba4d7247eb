"""Batched multi-source query throughput: K lanes versus a serial loop.

Not a paper artifact - this is the repository's first serving-oriented
experiment (ROADMAP "batching"): ``SIMDXEngine.run_batch`` answers K
BFS/SSSP queries through one union-frontier CSR walk per iteration, against
a baseline that runs the same K sources serially. The qualitative claims
checked here back the EXPERIMENTS.md §5 table and docs/batching.md:

* per-lane results are bit-identical to the K independent runs, always;
* the batch beats the serial loop for every K > 1 on every graph, and
  queries/sec improves strictly from K=1 to the largest completed K. The
  marginal cost of an extra ``(edge, lane)`` pair matches what the serial
  loop pays for the same edge minus the CSR walk, so batching can only
  lose per-iteration work to the union-direction approximation
  (docs/batching.md) - which the amortized fixed costs outweigh on every
  measured dataset. Adjacent-K steps are allowed a few percent of sag
  (direction-regime shifts at the union scale can move the peak); the
  committed EXPERIMENTS.md §5 baseline is strictly monotone;
* on the skewed graphs - where the K frontiers overlap heavily - the
  batch also walks strictly fewer edges than the (edge, lane) pairs it
  answers (the union amortization). High-diameter road graphs are exempt
  from the edge-count claim: their union frontier crosses the pull
  threshold earlier than any single lane would, so the batch may scan
  more in-edges while still winning on time through the amortized
  per-iteration fixed costs.
"""

from __future__ import annotations

from repro.bench import experiments
from repro.graph.datasets import HIGH_DIAMETER_GRAPHS


def test_batching_throughput(ctx):
    result = experiments.batching_throughput(ctx)
    all_rows = result["rows"]
    assert all_rows

    # Failed cells may only be Table-4-style OOMs (K metadata arrays no
    # longer fit the modeled device at high lane counts).
    for r in all_rows:
        if r["failed"]:
            assert "OOM" in r["failure_reason"], r
    rows = [r for r in all_rows if not r["failed"]]
    assert rows

    # Every completed cell's per-lane values were verified against
    # independent runs.
    for r in rows:
        assert r["values_identical"], r

    for algorithm in {r["algorithm"] for r in rows}:
        for graph in {r["graph"] for r in rows if r["algorithm"] == algorithm}:
            cells = sorted(
                (r for r in rows
                 if r["algorithm"] == algorithm and r["graph"] == graph),
                key=lambda r: r["lanes"],
            )
            if len(cells) < 2:
                continue
            # Throughput improves with K: strictly end to end, with at
            # most a few percent of adjacent-K sag (see docstring).
            qps = [r["batch_qps"] for r in cells]
            assert qps[-1] > qps[0], (algorithm, graph, qps)
            assert all(b > 0.95 * a for a, b in zip(qps, qps[1:])), (
                algorithm, graph, qps
            )
            # The batch beats the serial loop for every K > 1, and on the
            # skewed graphs the union amortization is visible in the edge
            # counts (fewer edges walked than pairs answered).
            for r in cells:
                if r["lanes"] > 1:
                    assert r["speedup"] > 1.0, r
                    if r["graph"] not in HIGH_DIAMETER_GRAPHS:
                        assert r["union_edges"] < r["lane_edge_pairs"], r
