"""Incremental-recompute tests (``src/repro/dyn/incremental.py``).

The exactness contract (docs/dynamic.md): for the monotone min-combine
algorithms (BFS, SSSP, WCC), repairing the previous fixed point through
an update receipt must produce **bit-identical** values to a from-scratch
engine run on the new snapshot - under the default config, under the
runtime sanitizer, and under ``num_shards > 1``. Cases that the repair
planner cannot prove exact (non-positive SSSP weights, unsupported
algorithms) must fall back to the from-scratch path, never approximate.

``REPRO_SANITIZE=1`` arms the runtime sanitizer across this module (CI's
static-analysis job does).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, BFS, SSSP, WCC, PageRank
from repro.analysis import registry as extra_keys
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.dyn import (
    DynamicGraph,
    EdgeUpdateBatch,
    IncrementalRecompute,
    plan_repair,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


def _config(**kwargs) -> EngineConfig:
    kwargs.setdefault("sanitize", SANITIZE)
    return EngineConfig(**kwargs)


def _random_batch(dyn: DynamicGraph, rng: np.random.Generator,
                  inserts: int = 6, deletes: int = 4) -> EdgeUpdateBatch:
    n = dyn.num_vertices
    ins = rng.integers(0, n, size=(inserts, 2))
    ins = ins[ins[:, 0] != ins[:, 1]]
    weights = rng.uniform(0.5, 3.0, size=len(ins))
    edges = dyn.snapshot().to_edge_array()
    picks = rng.choice(len(edges), size=min(deletes, len(edges)),
                       replace=False)
    return EdgeUpdateBatch.of(
        inserts=ins, insert_weights=weights, deletes=edges[picks]
    )


def _hub(graph) -> int:
    """A deterministic well-connected source (isolated sources make
    delta-stepping spin through empty buckets - not what's under test)."""
    return int(np.argmax(graph.out_degrees()))


def _case(name: str, source: int):
    if name == "bfs":
        return lambda: BFS(source=source)
    if name == "sssp":
        return lambda: SSSP(source=source)
    if name == "sssp-delta":
        return lambda: SSSP(source=source, delta=8.0)
    if name == "wcc":
        return lambda: WCC()
    raise KeyError(name)


REPAIR_CASES = ("bfs", "sssp", "sssp-delta", "wcc")


def _check_rounds(graph, *, rounds, config, seed, cases=REPAIR_CASES):
    """Warm repair vs from-scratch, bit for bit, across update rounds."""
    dyn = DynamicGraph(graph)
    rng = np.random.default_rng(seed)
    recompute = IncrementalRecompute(config=config)
    src = _hub(graph)
    warm = {
        name: SIMDXEngine(dyn.snapshot(), config=config)
        .run(_case(name, src)())
        .values
        for name in cases
    }
    for _ in range(rounds):
        receipt = dyn.apply(_random_batch(dyn, rng))
        scratch_engine = SIMDXEngine(receipt.new_graph, config=config)
        for name in cases:
            repaired = recompute.run(receipt, _case(name, src)(), warm[name])
            assert not repaired.failed, repaired.failure_reason
            scratch = scratch_engine.run(_case(name, src)())
            assert np.array_equal(repaired.values, scratch.values), (
                f"{name} repair diverged from scratch at "
                f"version {receipt.version} on {graph.name}"
            )
            warm[name] = repaired.values
    return dyn


# ----------------------------------------------------------------------
# Bit-identity across update rounds
# ----------------------------------------------------------------------
def test_repair_bit_identical_uniform():
    graph = gen.random_uniform_graph(220, 1500, seed=11, name="inc-uniform")
    _check_rounds(graph, rounds=4, config=_config(), seed=101)


def test_repair_bit_identical_rmat():
    graph = gen.rmat_graph(8, 8, seed=21, name="inc-rmat")
    _check_rounds(graph, rounds=3, config=_config(), seed=202)


def test_repair_bit_identical_sanitized():
    graph = gen.random_uniform_graph(180, 1200, seed=31, name="inc-sane")
    _check_rounds(graph, rounds=3, config=_config(sanitize=True), seed=303)


def test_repair_bit_identical_sharded():
    graph = gen.rmat_graph(8, 8, seed=41, name="inc-shard")
    _check_rounds(graph, rounds=3, config=_config(num_shards=2), seed=404)


def test_repair_bit_identical_directed():
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 150, size=(900, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    weights = rng.uniform(0.5, 4.0, size=len(edges)).astype(np.float32)
    graph = CSRGraph.from_edges(
        150, edges, weights=weights, directed=True, name="inc-directed"
    )
    _check_rounds(graph, rounds=3, config=_config(sanitize=True), seed=505)


def test_repair_bit_identical_road_long():
    graph = gen.road_network_graph(14, 14, seed=51, name="inc-road")
    _check_rounds(graph, rounds=6, config=_config(), seed=606)


def test_repair_bit_identical_sharded_sanitized_long():
    graph = gen.random_uniform_graph(220, 1500, seed=61, name="inc-ss")
    _check_rounds(
        graph, rounds=5, config=_config(num_shards=2, sanitize=True), seed=707
    )


# ----------------------------------------------------------------------
# Repair-mode accounting and fallbacks
# ----------------------------------------------------------------------
def test_incremental_mode_annotated_in_extra():
    graph = gen.random_uniform_graph(150, 900, seed=71)
    dyn = DynamicGraph(graph)
    warm = SIMDXEngine(graph, config=_config()).run(BFS(source=3)).values
    receipt = dyn.apply(EdgeUpdateBatch.of(inserts=[(3, 140), (9, 77)]))
    result = IncrementalRecompute(config=_config()).run(
        receipt, BFS(source=3), warm
    )
    assert result.extra[extra_keys.DYN_REPAIR_MODE] == "incremental"
    assert result.extra[extra_keys.DYN_GRAPH_VERSION] == 1
    assert result.extra[extra_keys.DYN_REPAIR_SEED_VERTICES] >= 1
    assert result.extra[extra_keys.DYN_REPAIR_RESET_VERTICES] >= 0


def test_unsupported_algorithm_falls_back_to_scratch():
    graph = gen.random_uniform_graph(150, 900, seed=81)
    dyn = DynamicGraph(graph)
    config = _config()
    warm = SIMDXEngine(graph, config=config).run(PageRank()).values
    receipt = dyn.apply(EdgeUpdateBatch.of(inserts=[(3, 140)]))
    result = IncrementalRecompute(config=config).run(
        receipt, PageRank(), warm
    )
    assert result.extra[extra_keys.DYN_REPAIR_MODE] == "from_scratch"
    assert result.extra[extra_keys.DYN_REPAIR_SEED_VERTICES] == 0
    scratch = SIMDXEngine(receipt.new_graph, config=config).run(PageRank())
    assert np.array_equal(result.values, scratch.values)


def test_sssp_nonpositive_weight_refuses_repair_plan():
    # plan_repair must return None when min weight <= 0 (support-closure
    # soundness needs strictly positive weights), forcing exact fallback.
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 60, size=(300, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    weights = np.zeros(len(edges), dtype=np.float32)  # zero-weight edges
    graph = CSRGraph.from_edges(60, edges, weights=weights, name="inc-zero")
    dyn = DynamicGraph(graph)
    config = _config()
    warm = SIMDXEngine(graph, config=config).run(SSSP(source=3)).values
    receipt = dyn.apply(EdgeUpdateBatch.of(
        deletes=[graph.to_edge_array()[0]]
    ))
    plan = plan_repair(
        "sssp",
        receipt,
        np.asarray(warm, dtype=np.float64),
        source=3,
    )
    assert plan is None
    result = IncrementalRecompute(config=config).run(
        receipt, SSSP(source=3), warm
    )
    assert result.extra[extra_keys.DYN_REPAIR_MODE] == "from_scratch"
    scratch = SIMDXEngine(receipt.new_graph, config=config).run(
        SSSP(source=3)
    )
    assert np.array_equal(result.values, scratch.values)


def test_noop_update_keeps_values():
    graph = gen.random_uniform_graph(150, 900, seed=95)
    dyn = DynamicGraph(graph)
    config = _config(sanitize=True)
    warm = SIMDXEngine(graph, config=config).run(BFS(source=3)).values
    # Delete a non-existent edge: empty receipt, repair runs with an
    # empty frontier and must return the warm values untouched.
    receipt = dyn.apply(EdgeUpdateBatch.of(deletes=[(0, 149)]))
    assert receipt.delete_edges.shape[0] == 0
    result = IncrementalRecompute(config=config).run(
        receipt, BFS(source=3), warm
    )
    assert np.array_equal(result.values, warm)


def test_all_registered_algorithms_have_exact_answers_after_update():
    # Every algorithm in the registry must stay exact through the dynamic
    # path: repairable ones repair, the rest re-run from scratch.
    graph = gen.rmat_graph(7, 8, seed=13, name="inc-all")
    dyn = DynamicGraph(graph)
    config = _config()
    recompute = IncrementalRecompute(config=config)
    engine = SIMDXEngine(dyn.snapshot(), config=config)
    src = _hub(graph)
    warm = {}
    for name, factory in sorted(ALGORITHMS.items()):
        algo = factory(source=src) if name in ("bfs", "sssp") else factory()
        warm[name] = engine.run(algo).values
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=[(3, 90), (17, 42)], deletes=[graph.to_edge_array()[5]]
    ))
    scratch_engine = SIMDXEngine(receipt.new_graph, config=config)
    for name, factory in sorted(ALGORITHMS.items()):
        make = (lambda f=factory, n=name: f(source=src)
                if n in ("bfs", "sssp") else f())
        repaired = recompute.run(receipt, make(), warm[name])
        assert not repaired.failed, (name, repaired.failure_reason)
        scratch = scratch_engine.run(make())
        assert np.array_equal(repaired.values, scratch.values), name
