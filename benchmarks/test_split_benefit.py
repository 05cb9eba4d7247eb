"""Split benefit: lane-aware direction selection vs decide-once batching.

The repository's second serving-oriented experiment (the first is
``test_batching_throughput.py``): ``SIMDXEngine.run_batch`` with lane-aware
direction selection (the default) against the PR-3 decide-once union
approximation, on the graph shapes where the two disagree - the road
analogues (ER, RC), whose union frontier crosses the pull threshold long
before any single lane would, and the RMAT-family synthetics (KR, RM) with
their barely-pruned SSSP gather tails. Claims checked (they back the
EXPERIMENTS.md §6 table and the "When splitting wins" section of
docs/batching.md):

* per-lane values are bit-identical between the two modes, always - the
  direction plan is a pure cost decision;
* on every road-shape SSSP configuration at K >= 16 the lane-aware batch
  scans strictly fewer in-edges than the decide-once batch (the PR-3 known
  limit this feature exists to close), and it never scans more in any
  completed cell;
* failures, if any, are Table-4-style OOMs of the K metadata arrays.
"""

from __future__ import annotations

from repro.bench import experiments
from repro.graph.datasets import HIGH_DIAMETER_GRAPHS


def test_split_benefit(ctx):
    result = experiments.split_benefit(ctx)
    all_rows = result["rows"]
    assert all_rows

    for r in all_rows:
        if r["failed"]:
            assert "OOM" in r["failure_reason"], r
    rows = [r for r in all_rows if not r["failed"]]
    assert rows

    for r in rows:
        # The direction plan must never change results.
        assert r["values_identical"], r
        # Lane-aware selection never scans *more* gather edges than the
        # union approximation: per-lane decisions only remove in-edge
        # scans a lane would not have paid on its own.
        assert r["scanned_lane_aware"] <= r["scanned_decide_once"], r

    # The headline claim: on road shapes, SSSP at K >= 16 scans strictly
    # fewer in-edges under lane-aware selection (the union crosses the
    # pull threshold before any single lane would, so decide-once
    # over-scans there by construction).
    road_sssp = [
        r for r in rows
        if r["graph"] in HIGH_DIAMETER_GRAPHS
        and r["algorithm"] == "sssp" and r["lanes"] >= 16
    ]
    if road_sssp:
        for r in road_sssp:
            assert r["scanned_lane_aware"] < r["scanned_decide_once"], r
