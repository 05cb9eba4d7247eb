"""Shard scaling: batched feasibility versus ``EngineConfig.num_shards``.

The repository's third serving-oriented experiment (after
``test_batching_throughput.py`` and ``test_split_benefit.py``): the same
K-lane batch answered on 1, 2 and 4 simulated devices, on the graph
shapes whose K=16 lane metadata does not fit one modeled K40 (TW and ER,
the EXPERIMENTS.md §5 blank cells). Claims checked (they back the
EXPERIMENTS.md §7 table and docs/sharding.md):

* every failure is a Table-4-style OOM, and feasibility is monotone in
  the shard count - once a batch fits at N shards it fits at every
  larger N in the sweep;
* every completed cell is bit-identical per lane to K independent
  single-source runs - partitioning is an execution plan, not a result
  change - and its reported peak stays within per-device capacity;
* the headline: every cell that OOMs on one device completes on 2 and 4
  shards with the *largest* per-shard peak under the single-device
  budget, so the sharded engine runs configurations one device cannot;
* multi-shard completions report their exchange traffic - at least one
  cell pays a nonzero boundary-update count.
"""

from __future__ import annotations

from repro.bench import experiments


def test_shard_scaling(ctx):
    result = experiments.shard_scaling(ctx)
    all_rows = result["rows"]
    assert all_rows

    for r in all_rows:
        if r["failed"]:
            assert "OOM" in r["failure_reason"], r
    rows = [r for r in all_rows if not r["failed"]]
    assert rows

    capacity = ctx.device_spec.global_memory_bytes
    for r in rows:
        # Sharding must never change results.
        assert r["values_identical"], r
        # The reported peak is the feasibility quantity: it must respect
        # the budget the run was admitted under.
        assert r["max_peak_bytes"] <= capacity, r
        if r["shards"] > 1:
            assert r["device"].endswith(f"x{r['shards']}"), r

    # Feasibility is monotone in the shard count: within one
    # (algorithm, graph, K) cell, everything at or above the smallest
    # completing shard count also completes.
    by_cell = {}
    for r in all_rows:
        key = (r["algorithm"], r["graph"], r["lanes"])
        by_cell.setdefault(key, []).append(r)
    for cell_rows in by_cell.values():
        completed = sorted(r["shards"] for r in cell_rows if not r["failed"])
        failed = sorted(r["shards"] for r in cell_rows if r["failed"])
        if completed and failed:
            assert max(failed) < min(completed), cell_rows

    # The headline claim: a batch the single device cannot hold completes
    # on every multi-shard count in the sweep, largest per-shard peak
    # under the single-device budget. (Vacuous if the dataset selection
    # holds no OOM shape - the default sweep includes TW and ER, whose
    # K=16 cells OOM at N=1 by construction.)
    for key, cell_rows in by_cell.items():
        if not any(r["failed"] and r["shards"] == 1 for r in cell_rows):
            continue
        sharded = [r for r in cell_rows if r["shards"] > 1]
        assert sharded, key
        for r in sharded:
            assert not r["failed"], r
            assert r["max_peak_bytes"] < capacity, r

    # The capacity was not free: some completed multi-shard cell routed
    # updates across a boundary.
    multi = [r for r in rows if r["shards"] > 1]
    if multi:
        assert any(r["boundary_updates"] > 0 for r in multi), multi
