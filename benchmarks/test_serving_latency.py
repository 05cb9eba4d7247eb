"""Serving latency under load: the EXPERIMENTS.md §9 sweep as a bench.

The discrete-event simulation of the serving layer (``src/repro/serve/``,
docs/serving.md) swept over ``max_wait_ms`` and offered load. Claims
checked (they back the §9 table):

* the simulation is deterministic - two runs produce identical rows
  (seeded arrivals, cached compositions, one reused engine);
* every query is accounted for: served + shed = offered, in every cell;
* under-load with the smallest ``max_wait_ms`` dispatches under-full
  batches (the latency knob costs fill), and no sweep cell beats the
  largest-wait setting's fill at the same load;
* the over-loaded column sheds (the bounded queue pushes back) - and
  shedding never happens while under-loaded;
* p99 never beats p50.
"""

from __future__ import annotations

from repro.bench import experiments


def test_serving_latency(ctx):
    result = experiments.serving_latency(ctx)
    rows = result["rows"]
    assert len(rows) == (
        len(experiments.SERVING_WAIT_SWEEP_MS)
        * len(experiments.SERVING_LOAD_SWEEP)
    )

    for r in rows:
        assert r["served"] + r["shed"] == result["num_queries"], r
        assert r["p99_ms"] >= r["p50_ms"] > 0.0, r
        assert 0.0 < r["mean_fill"] <= 1.0, r
        if r["load_multiplier"] < 1.0:
            assert r["shed"] == 0, r

    # Fill is bought with waiting: at every load, no smaller-wait cell
    # fills better than the largest-wait setting.
    max_wait = max(experiments.SERVING_WAIT_SWEEP_MS)
    for load in experiments.SERVING_LOAD_SWEEP:
        at_load = [r for r in rows if r["load_multiplier"] == load]
        best = next(r for r in at_load if r["max_wait_ms"] == max_wait)
        for r in at_load:
            assert r["mean_fill"] <= best["mean_fill"] + 1e-9, (r, best)

    # Determinism: the second run reproduces the first, row for row.
    again = experiments.serving_latency(ctx)
    assert again["rows"] == rows
