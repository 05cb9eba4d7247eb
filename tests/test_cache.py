"""Result-cache tests (``src/repro/cache/``).

Covers the cross-query reuse contract from docs/caching.md:

* exact hits serve the stored bits, stale entries are never served
  directly (repair-or-fallback is the caller's decision);
* LRU eviction respects capacity; landmark-pinned entries are exempt;
* promotion at ``landmark_threshold`` hits, bounded by
  ``landmark_capacity``;
* ``refresh_landmarks`` repairs pinned entries through an update
  receipt, bit-identically to a from-scratch run;
* :class:`CachedQueryEngine` end-to-end: hit / repair / miss outcomes
  all return from-scratch bits; pruned receipt chains and over-long
  chains fall back to the exact miss path; ``reuse`` never runs a miss,
  and a landmark refresh and a ``reuse`` repair are one routine, run off
  the front-end engine's device.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, BFS
from repro.cache import CachedQueryEngine, ResultCache
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn import DynamicGraph, EdgeUpdateBatch
from repro.gpu.device import P100
from repro.graph import generators as gen

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


def _config(**kwargs) -> EngineConfig:
    kwargs.setdefault("sanitize", SANITIZE)
    return EngineConfig(**kwargs)


@pytest.fixture
def graph():
    return gen.random_uniform_graph(160, 1000, seed=17, name="cache-g")


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------
def test_lookup_classifies_hit_stale_miss(graph):
    cache = ResultCache()
    values = np.arange(5.0)
    cache.store("bfs", 3, None, values, version=0)
    assert cache.lookup("bfs", 3, None, version=0).version == 0
    stale = cache.lookup("bfs", 3, None, version=2)
    assert stale is not None and stale.version == 0
    assert cache.lookup("bfs", 4, None, version=0) is None
    assert cache.stats["hits"] == 1
    assert cache.stats["stale_hits"] == 1
    assert cache.stats["misses"] == 1


def test_params_distinguish_entries(graph):
    cache = ResultCache()
    cache.store("sssp", 3, {"delta": 2.0}, np.zeros(3), version=0)
    assert cache.lookup("sssp", 3, {"delta": 4.0}, version=0) is None
    assert cache.lookup("sssp", 3, {"delta": 2.0}, version=0) is not None


def test_lru_eviction_at_capacity():
    cache = ResultCache(capacity=3)
    for source in range(4):
        cache.store("bfs", source, None, np.zeros(2), version=0)
    assert len(cache) == 3
    assert cache.stats["evictions"] == 1
    # Source 0 was the least recently used.
    assert cache.lookup("bfs", 0, None, version=0) is None
    assert cache.lookup("bfs", 3, None, version=0) is not None


def test_pinned_entries_survive_eviction():
    cache = ResultCache(capacity=2, landmark_threshold=1)
    cache.store("bfs", 0, None, np.zeros(2), version=0)
    cache.lookup("bfs", 0, None, version=0)  # 1 hit -> promoted
    assert cache.landmarks == 1
    for source in range(1, 4):
        cache.store("bfs", source, None, np.zeros(2), version=0)
    assert cache.lookup("bfs", 0, None, version=0) is not None


def test_landmark_capacity_bounds_promotion():
    cache = ResultCache(landmark_threshold=1, landmark_capacity=2)
    for source in range(4):
        cache.store("bfs", source, None, np.zeros(2), version=0)
        cache.lookup("bfs", source, None, version=0)
    assert cache.landmarks == 2


def test_refresh_landmarks_matches_scratch(graph):
    cache = ResultCache(landmark_threshold=1)
    config = _config()
    dyn = DynamicGraph(graph)
    values = SIMDXEngine(graph, config=config).run(BFS(source=5)).values
    cache.store("bfs", 5, {}, values, version=0)
    cache.lookup("bfs", 5, {}, version=0)  # promote to landmark
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=[(5, 150), (7, 90)], deletes=[graph.to_edge_array()[0]]
    ))
    refreshed = cache.refresh_landmarks(
        receipt, algorithms=ALGORITHMS, config=config
    )
    assert refreshed == 1
    entry = cache.lookup("bfs", 5, {}, version=1)
    assert entry.version == 1
    scratch = SIMDXEngine(receipt.new_graph, config=config).run(BFS(source=5))
    assert np.array_equal(entry.values, scratch.values)


# ----------------------------------------------------------------------
# CachedQueryEngine end-to-end
# ----------------------------------------------------------------------
def test_query_outcomes_hit_repair_miss(graph):
    qe = CachedQueryEngine(graph, config=_config())
    first = qe.query("bfs", 5)
    assert first.outcome == "miss"
    second = qe.query("bfs", 5)
    assert second.outcome == "hit"
    np.testing.assert_array_equal(first.values, second.values)

    qe.update(inserts=[(5, 150)], refresh_landmarks=False)
    third = qe.query("bfs", 5)
    assert third.outcome == "repair"
    scratch = SIMDXEngine(qe.dyn.snapshot(), config=_config()).run(
        BFS(source=5)
    )
    np.testing.assert_array_equal(third.values, scratch.values)
    # The repair stored the refreshed entry: next lookup is an exact hit.
    assert qe.query("bfs", 5).outcome == "hit"


def test_every_outcome_is_bit_identical_to_scratch(graph):
    qe = CachedQueryEngine(graph, config=_config(sanitize=True))
    rng = np.random.default_rng(23)
    for round_idx in range(3):
        for source in (5, 9):
            for name in ("bfs", "sssp", "wcc"):
                answer = qe.query(name, None if name == "wcc" else source)
                algo = (ALGORITHMS[name]() if name == "wcc"
                        else ALGORITHMS[name](source=source))
                scratch = SIMDXEngine(
                    qe.dyn.snapshot(), config=_config(sanitize=True)
                ).run(algo)
                assert np.array_equal(answer.values, scratch.values), (
                    name, source, round_idx, answer.outcome
                )
        ins = rng.integers(0, graph.num_vertices, size=(4, 2))
        ins = ins[ins[:, 0] != ins[:, 1]]
        edges = qe.dyn.snapshot().to_edge_array()
        qe.update(
            inserts=ins,
            deletes=edges[rng.choice(len(edges), size=2, replace=False)],
        )


def test_unknown_algorithm_raises(graph):
    qe = CachedQueryEngine(graph)
    with pytest.raises(KeyError):
        qe.query("nope", 3)


def test_pruned_receipts_fall_back_to_miss(graph):
    qe = CachedQueryEngine(DynamicGraph(graph, keep_receipts=1))
    qe.query("bfs", 5)
    for i in range(3):  # receipt chain outgrows keep_receipts=1
        qe.update(inserts=[(i, i + 80)], refresh_landmarks=False)
    answer = qe.query("bfs", 5)
    assert answer.outcome == "miss"
    scratch = SIMDXEngine(qe.dyn.snapshot()).run(BFS(source=5))
    np.testing.assert_array_equal(answer.values, scratch.values)


def test_long_repair_chain_falls_back_to_miss(graph):
    qe = CachedQueryEngine(graph, max_repair_chain=2)
    qe.query("bfs", 5)
    for i in range(3):  # 3 receipts > max_repair_chain=2
        qe.update(inserts=[(i, i + 80)], refresh_landmarks=False)
    answer = qe.query("bfs", 5)
    assert answer.outcome == "miss"


def test_update_refreshes_landmarks_eagerly(graph):
    cache = ResultCache(landmark_threshold=2)
    qe = CachedQueryEngine(graph, cache=cache)
    qe.query("bfs", 5)
    qe.query("bfs", 5)
    qe.query("bfs", 5)  # >= 2 hits -> landmark
    assert cache.landmarks == 1
    qe.update(inserts=[(5, 150)])
    # The landmark was repaired during the update: still an exact hit.
    answer = qe.query("bfs", 5)
    assert answer.outcome == "hit"
    scratch = SIMDXEngine(qe.dyn.snapshot()).run(BFS(source=5))
    np.testing.assert_array_equal(answer.values, scratch.values)
    assert cache.stats["landmarks_refreshed"] == 1


def test_reuse_on_a_miss_runs_nothing(graph, monkeypatch):
    qe = CachedQueryEngine(graph, config=_config())
    runs = []
    run = SIMDXEngine.run
    monkeypatch.setattr(
        SIMDXEngine, "run",
        lambda self, *a, **k: runs.append(self) or run(self, *a, **k),
    )
    assert qe.reuse("bfs", 5) is None
    assert runs == []
    assert qe.query("bfs", 5).outcome == "miss"
    assert runs == [qe.engine]  # the miss ran on the front-end's engine


def test_landmark_refresh_and_reuse_repair_are_one_routine(graph, monkeypatch):
    """The same stale entry repaired eagerly (landmark refresh) and lazily
    (``reuse``) gives the same bits, on an engine that is not the one the
    front-end runs batches on, priced on the front-end's spec."""
    warm = SIMDXEngine(graph, config=_config()).run(BFS(source=5)).values
    batch = {
        "inserts": [(5, 150), (7, 90)], "deletes": [graph.to_edge_array()[0]]
    }
    eager = CachedQueryEngine(
        graph, config=_config(), spec=P100,
        cache=ResultCache(landmark_threshold=1),
    )
    lazy = CachedQueryEngine(graph, config=_config(), spec=P100)
    for qe in (eager, lazy):
        qe.cache.store("bfs", 5, {}, warm, version=0)
    eager.cache.lookup("bfs", 5, {}, version=0)  # promote to landmark
    engines = []
    run = SIMDXEngine.run
    monkeypatch.setattr(
        SIMDXEngine, "run",
        lambda self, *a, **k: engines.append(self) or run(self, *a, **k),
    )
    for qe in (eager, lazy):
        qe.update(**batch)
    refreshed, repaired = eager.reuse("bfs", 5), lazy.reuse("bfs", 5)
    assert (refreshed.outcome, repaired.outcome) == ("hit", "repair")
    np.testing.assert_array_equal(refreshed.values, repaired.values)
    scratch = run(SIMDXEngine(lazy.dyn.snapshot(), config=_config()), BFS(source=5))
    np.testing.assert_array_equal(repaired.values, scratch.values)
    assert len(engines) == 2
    for engine in engines:
        assert engine is not eager.engine
        assert engine is not lazy.engine
        assert engine.spec is P100


def test_no_reuse_front_end_still_runs_and_updates(graph):
    qe = CachedQueryEngine(graph, config=_config(), cache=False)
    assert qe.cache is None
    assert qe.query("bfs", 5).outcome == "miss"
    assert qe.reuse("bfs", 5) is None
    qe.update(inserts=[(5, 150)])
    scratch = SIMDXEngine(qe.dyn.snapshot(), config=_config()).run(BFS(source=5))
    np.testing.assert_array_equal(qe.query("bfs", 5).values, scratch.values)


def test_stats_merge_cache_and_dyn(graph):
    qe = CachedQueryEngine(graph)
    qe.query("bfs", 5)
    qe.update(inserts=[(0, 80)], refresh_landmarks=False)
    stats = qe.stats
    assert stats["version"] == 1
    assert stats["stores"] == 1
    assert stats["misses"] == 1
