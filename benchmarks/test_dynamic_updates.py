"""Dynamic updates and cross-query reuse: the EXPERIMENTS.md §10 sweep.

The repository's fourth serving-oriented experiment (after batching,
split benefit and shard scaling): seeded random edge-update batches and
Zipf-skewed query streams against ``src/repro/dyn/`` and
``src/repro/cache/``. Claims checked (they back EXPERIMENTS.md §10,
docs/dynamic.md and docs/caching.md):

* every incremental repair is bit-identical to the from-scratch run on
  the same snapshot (``values_identical`` - the exactness contract; the
  sweep itself raises if any cell diverges);
* repair touches work proportional to the update, not the graph: the
  seeded/reset frontier grows with the update-batch size, and the mean
  repair time never exceeds the from-scratch mean by more than noise;
* reuse turns on with skew: the most Zipf-skewed source stream has a
  strictly positive cache hit-rate and at least the uniform stream's
  reuse is accounted (hits + repairs + misses == queries in every row);
* the nightly job asserts the headline: at the default scale the
  skewed stream's reuse rate beats pure recomputation (hit_rate > 0)
  and incremental repair achieves a >= 1x mean speedup on the largest
  update batch.
"""

from __future__ import annotations

from repro.bench import experiments


def test_dynamic_updates(ctx):
    result = experiments.dynamic_updates(ctx)

    repair_rows = result["repair_rows"]
    cache_rows = result["cache_rows"]
    assert repair_rows and cache_rows

    for r in repair_rows:
        # The sweep re-checks bit-identity internally and raises on any
        # divergence; the flag records that the check ran.
        assert r["values_identical"], r
        assert r["mean_repair_us"] > 0 and r["mean_scratch_us"] > 0
        assert r["mean_seed_vertices"] >= 0
        assert r["mean_reset_vertices"] >= 0

    # The touched frontier scales with the update batch, not the graph:
    # the largest batch seeds at least as much repair work as the
    # smallest (each row draws its own random batches, so strict
    # monotonicity across adjacent rows is not guaranteed).
    assert (repair_rows[-1]["mean_seed_vertices"]
            >= repair_rows[0]["mean_seed_vertices"]), repair_rows

    # Repair never costs meaningfully more than recomputation (the warm
    # fixed point can only shrink the work), and on the largest batch it
    # still achieves at least parity.
    for r in repair_rows:
        assert r["mean_repair_us"] <= 1.25 * r["mean_scratch_us"], r
    assert repair_rows[-1]["speedup"] >= 1.0, repair_rows[-1]

    for r in cache_rows:
        assert r["hits"] + r["repairs"] + r["misses"] == r["queries"], r
        assert 0.0 <= r["hit_rate"] <= 1.0
        assert r["reuse_rate"] >= r["hit_rate"]

    # Skew turns reuse on: the most skewed stream hits, and at least as
    # often as the uniform stream.
    most_skewed = cache_rows[-1]
    uniform = cache_rows[0]
    assert most_skewed["zipf_exponent"] > uniform["zipf_exponent"]
    assert most_skewed["hit_rate"] > 0.0
    assert most_skewed["hit_rate"] >= uniform["hit_rate"]
