"""Every value contract the extra-key registry declares fires on a bad input.

Each row below is a minimal ``extra`` mapping that breaks exactly one rule
declared in ``repro.analysis.registry``. Every row must raise
``SanitizerError`` through ``RuntimeSanitizer.validate_extra``, the check a
sanitized engine run ends with. The dyn and cache rows must also raise
through the layers that annotate a result after the engine returned:
``IncrementalRecompute.run`` and ``CachedQueryEngine``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.analysis import registry as keys
from repro.analysis.sanitizer import RuntimeSanitizer, SanitizerError
from repro.cache import CachedQueryEngine
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn import DynamicGraph, EdgeUpdateBatch, IncrementalRecompute
from repro.graph import generators as gen

#: A row value meaning "the key is absent from the mapping".
MISSING = object()

#: Rules on the keys the engine itself writes.
ENGINE_RULES = {
    "unregistered-key": {"definitely_not_registered": 1},
    "counter-negative": {keys.UNION_EDGES_WALKED: -3},
    "counter-not-integer": {keys.UNION_EDGES_WALKED: 2.5},
    "walk-vs-records": {keys.KERNEL_EDGES_WALKED: 5},
    "shards-below-one": {
        keys.SHARDS: 0, keys.SHARD_SCANNED_EDGES: [], keys.SHARD_PEAK_BYTES: [],
    },
    "per-shard-missing": {keys.SHARDS: 2, keys.SHARD_SCANNED_EDGES: [0, 0]},
    "per-shard-length": {
        keys.SHARDS: 2, keys.SHARD_SCANNED_EDGES: [0], keys.SHARD_PEAK_BYTES: [0, 0],
    },
    "per-shard-negative": {
        keys.SHARDS: 2, keys.SHARD_SCANNED_EDGES: [0, 0], keys.SHARD_PEAK_BYTES: [8, -1],
    },
    "scanned-vs-records": {
        keys.SHARDS: 2, keys.SHARD_SCANNED_EDGES: [1, 2], keys.SHARD_PEAK_BYTES: [0, 0],
    },
}

#: Rules on the keys the dyn and cache layers add after the engine returns.
DYN_RULES = {
    "version-negative": {keys.DYN_GRAPH_VERSION: -1},
    "version-not-integer": {keys.DYN_GRAPH_VERSION: "3"},
    "repair-mode-vocabulary": {
        keys.DYN_REPAIR_MODE: "partial",
        keys.DYN_REPAIR_RESET_VERTICES: 0, keys.DYN_REPAIR_SEED_VERTICES: 0,
    },
    "repair-without-reset-count": {
        keys.DYN_REPAIR_MODE: "incremental",
        keys.DYN_REPAIR_RESET_VERTICES: MISSING, keys.DYN_REPAIR_SEED_VERTICES: 1,
    },
    "repair-without-seed-count": {
        keys.DYN_REPAIR_MODE: "incremental",
        keys.DYN_REPAIR_RESET_VERTICES: 1, keys.DYN_REPAIR_SEED_VERTICES: MISSING,
    },
    "scratch-with-reset-vertices": {
        keys.DYN_REPAIR_MODE: "from_scratch",
        keys.DYN_REPAIR_RESET_VERTICES: 3, keys.DYN_REPAIR_SEED_VERTICES: 0,
    },
    "scratch-with-seed-vertices": {
        keys.DYN_REPAIR_MODE: "from_scratch",
        keys.DYN_REPAIR_RESET_VERTICES: 0, keys.DYN_REPAIR_SEED_VERTICES: 2,
    },
    "cache-outcome-vocabulary": {keys.CACHE_OUTCOME: "stale"},
}

SANITIZE = EngineConfig(sanitize=True)


@pytest.fixture(scope="module")
def graph():
    return gen.rmat_graph(7, 8, seed=3, name="contracts")


def _present(row):
    return {key: value for key, value in row.items() if value is not MISSING}


class _Pinned(dict):
    """An ``extra`` mapping holding a row's values; later writes to the
    row's keys are dropped, so the bad value outlives the layer's own
    annotation (as a wrong write would)."""

    def __init__(self, extra, row):
        super().__init__(extra)
        for key in row:
            self.pop(key, None)
        self.update(_present(row))
        self._pinned = set(row)

    def __setitem__(self, key, value):
        if key not in self._pinned:
            super().__setitem__(key, value)


@pytest.fixture
def pin_engine_extra(monkeypatch):
    """Make every ``SIMDXEngine.run`` return an ``extra`` pinned to a row."""

    def pin(row):
        run = SIMDXEngine.run

        def pinned_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            result.extra = _Pinned(result.extra, row)
            return result

        monkeypatch.setattr(SIMDXEngine, "run", pinned_run)

    return pin


@pytest.mark.parametrize("rule", sorted({**ENGINE_RULES, **DYN_RULES}))
def test_rule_fires_through_validate_extra(graph, rule):
    extra = _present({**ENGINE_RULES, **DYN_RULES}[rule])
    collecting = RuntimeSanitizer(graph, raise_on_violation=False)
    collecting.validate_extra(extra)
    assert len(collecting.violations) == 1, collecting.violations
    with pytest.raises(SanitizerError):
        RuntimeSanitizer(graph).validate_extra(extra)


def _updated(graph):
    dyn = DynamicGraph(graph)
    receipt = dyn.apply(EdgeUpdateBatch.of(deletes=graph.to_edge_array()[:4]))
    return dyn, receipt


@pytest.mark.parametrize("mode", ["from_scratch", "incremental"])
def test_recompute_paths_are_clean_unpinned(graph, mode):
    _, receipt = _updated(graph)
    # PageRank has no repair plan: it takes the from-scratch fallback.
    make = (lambda: BFS(source=0)) if mode == "incremental" else PageRank
    warm = SIMDXEngine(graph).run(make()).values
    result = IncrementalRecompute(config=SANITIZE).run(receipt, make(), warm)
    assert result.extra[keys.DYN_REPAIR_MODE] == mode


@pytest.mark.parametrize("rule", sorted(DYN_RULES))
def test_dyn_rule_fires_through_incremental_recompute(
    graph, pin_engine_extra, rule
):
    _, receipt = _updated(graph)
    warm = SIMDXEngine(graph).run(BFS(source=0)).values
    pin_engine_extra(DYN_RULES[rule])
    with pytest.raises(SanitizerError) as exc:
        IncrementalRecompute(config=SANITIZE).run(receipt, BFS(source=0), warm)
    assert any(key in str(exc.value) for key in DYN_RULES[rule])


@pytest.mark.parametrize("rule", sorted(DYN_RULES))
def test_dyn_rule_fires_through_a_cached_repair(graph, pin_engine_extra, rule):
    engine = CachedQueryEngine(graph, config=SANITIZE)
    assert engine.query("bfs", 0).outcome == "miss"
    engine.update(deletes=graph.to_edge_array()[:4])
    pin_engine_extra(DYN_RULES[rule])
    with pytest.raises(SanitizerError):
        engine.query("bfs", 0)


@pytest.mark.parametrize("version", [-1, "3"])
def test_bad_version_fires_through_a_cached_answer(graph, monkeypatch, version):
    engine = CachedQueryEngine(graph, config=SANITIZE)
    monkeypatch.setattr(type(engine.dyn), "version", property(lambda self: version))
    with pytest.raises(SanitizerError):
        engine.query("bfs", 0)


def test_bad_outcome_fires_through_a_cached_answer(graph):
    engine = CachedQueryEngine(graph, config=SANITIZE)
    with pytest.raises(SanitizerError):
        engine._answer(np.zeros(graph.num_vertices), "stale")
