"""Differential fuzz harness for the whole engine.

Seeded random graphs × all 7 algorithms × every execution mode the engine
offers must agree:

* the **auto**-direction run is checked against the single-threaded serial
  reference oracle (``repro.baselines.reference``) - exactly for the
  discrete / monotone-min algorithms (BFS, SSSP, WCC, k-Core membership),
  to numeric tolerance for the float-accumulating ones (PageRank, BP,
  SpMV), whose reference implementations sum updates in a different order;
* **forced push**, **forced pull** and **forced per-iteration direction
  schedules** must be bit-identical to the auto run - the engine's core
  push/pull equivalence, fuzzed across graph shapes;
* for the multi-source algorithms (BFS, SSSP), **batched** runs at
  K ∈ {1, 4, 16} with lane-aware splitting forced eagerly on
  (``BatchDirectionPolicy.margin`` patched to 0), forced off (``lane_aware_split=False``) and under
  random forced split schedules must be bit-identical per lane to the K
  serial single-source engine runs (which the auto check ties back to the
  oracle);
* the **reference-kernel axis** (``tests/engine_seams.py``'s
  ``ReferenceKernelEngine``): an engine on the loop-reference ``python``
  primitives must be bit-identical to one on the shipped vectorized
  ``numpy`` primitives in every mode above. The small matrix
  crosses it with auto/push/pull and the batched split modes; the large
  matrix also crosses it with random schedules, K=16 and the sharded
  num_shards ∈ {1, 2, 4} axis;
* **degenerate sources** (a sink, an isolated vertex, a self-loop-only
  vertex) × SSSP ``delta`` ∈ {None, small, large} × push / pull /
  ``run_batch`` / two shards must match the oracle within two supersteps.

Every run in the file must also finish on its own: not failed, and
``extra["stopped_at_cap"]`` False (the loop did not end at
``max_iterations`` with work left).

Both matrices run in tier-1 on every push: the small one (two graphs) and
the large one (more seeds, more graph shapes, K=16, random schedules) -
~47 s together; CI's static-analysis job re-runs the file sanitizer-armed.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    SSSP,
    BeliefPropagation,
    KCore,
    PageRank,
    SpMV,
    WCC,
)
from repro.baselines import reference as ref
from repro.core.direction import BatchDirectionPolicy, Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.conftest import assert_distances_equal
from tests.engine_seams import KERNEL_ENGINES, random_split_schedule
from tests import oracles

#: ``REPRO_SANITIZE=1`` runs the whole matrix with the runtime sanitizer
#: armed (``EngineConfig.sanitize``): any combine bypass, phase-order
#: violation, lane remap, CSR mutation or accounting inconsistency raises
#: instead of silently passing the differential checks. CI sets it on the
#: static-analysis job.
SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


def _config(**kwargs) -> EngineConfig:
    kwargs.setdefault("sanitize", SANITIZE)
    return EngineConfig(**kwargs)


def _finished(result):
    """``result`` after checking it ran to its end: not failed, and not
    stopped by the algorithm's ``max_iterations`` cap."""
    assert not result.failed, result.failure_reason
    assert not result.extra["stopped_at_cap"], "run stopped at max_iterations"
    return result


def _assert_record_folds(result, num_shards=1):
    """The counts ``extra`` reports about a run's work are folds over its
    iteration records: walked edges over ``frontier_edges``, a batch's
    split iterations over the one-device iterations with more than one
    record (none when sharded), boundary updates over ``received``."""
    records, extra = result.iteration_records, result.extra
    assert extra["kernel_edges_walked"] == sum(r.frontier_edges for r in records)
    if "union_edges_walked" in extra:  # a run_batch result
        assert extra["union_edges_walked"] == extra["kernel_edges_walked"]
        units = Counter(r.iteration for r in records)
        split = [] if num_shards > 1 else [i for i, n in units.items() if n > 1]
        assert extra["split_iterations"] == split
        assert extra["lane_splits"] == len(split)
    if num_shards > 1:
        assert extra["shard_boundary_updates"] == sum(
            sum(r.received) for r in records
        )


#: The reference-kernel axis: every differential cell that crosses it must
#: produce bit-identical values on the loop reference primitives and the
#: vectorized ones (docs/kernels.md).
KERNEL_BACKENDS = ("python", "numpy")


# ----------------------------------------------------------------------
# Seeded graph shapes
# ----------------------------------------------------------------------
def _uniform(seed: int) -> CSRGraph:
    return gen.random_uniform_graph(
        220, 1500, seed=seed, name=f"fuzz-uniform-{seed}"
    )


def _rmat(seed: int) -> CSRGraph:
    return gen.rmat_graph(8, 8, seed=seed, name=f"fuzz-rmat-{seed}")


def _road(seed: int) -> CSRGraph:
    return gen.road_network_graph(14, 14, seed=seed, name=f"fuzz-road-{seed}")


GRAPH_SHAPES: Dict[str, Callable[[int], CSRGraph]] = {
    "uniform": _uniform,
    "rmat": _rmat,
    "road": _road,
}

#: (shape, seed) cells of the small matrix - one skewed, one uniform.
SMALL_MATRIX = [("uniform", 101), ("rmat", 202)]
#: The large matrix adds the road shape and more seeds per shape.
LARGE_MATRIX = [
    (shape, seed)
    for shape in ("uniform", "rmat", "road")
    for seed in (11, 23, 47)
]


def _source(graph: CSRGraph, rng: np.random.Generator) -> int:
    """Deterministic random source with at least one out-edge."""
    degrees = graph.out_degrees()
    candidates = np.nonzero(degrees > 0)[0]
    if candidates.size == 0:
        return 0
    return int(candidates[rng.integers(0, candidates.size)])


def _sources(graph: CSRGraph, rng: np.random.Generator, k: int) -> List[int]:
    degrees = graph.out_degrees()
    candidates = np.nonzero(degrees > 0)[0]
    k = min(k, candidates.size)
    picked = rng.choice(candidates, size=k, replace=False)
    return [int(v) for v in picked]


# ----------------------------------------------------------------------
# Algorithm cases: (factory, oracle check) per algorithm
# ----------------------------------------------------------------------
def _bfs_case(graph, rng):
    src = _source(graph, rng)

    def oracle(values, algo):
        assert np.array_equal(values, ref.bfs_levels(graph, src))

    return (lambda: BFS(source=src)), oracle


def _sssp_case(graph, rng):
    src = _source(graph, rng)

    def oracle(values, algo):
        assert_distances_equal(values, ref.sssp_distances(graph, src))

    return (lambda: SSSP(source=src)), oracle


def _sssp_delta_case(graph, rng):
    src = _source(graph, rng)
    delta = float(rng.uniform(2.0, 20.0))

    def oracle(values, algo):
        assert_distances_equal(values, ref.sssp_distances(graph, src))

    return (lambda: SSSP(source=src, delta=delta)), oracle


def _pagerank_case(graph, rng):
    def oracle(values, algo):
        expected = ref.pagerank_scores(graph)
        assert np.abs(values - expected).max() < 1e-4

    return (lambda: PageRank(tolerance=1e-7)), oracle


def _kcore_case(graph, rng):
    k = int(rng.integers(2, 8))

    def oracle(values, algo):
        assert np.array_equal(
            algo.core_membership(values), oracles.kcore_membership(graph, k)
        )

    return (lambda: KCore(k=k)), oracle


def _wcc_case(graph, rng):
    def oracle(values, algo):
        assert np.array_equal(values, oracles.wcc_labels(graph))

    return (lambda: WCC()), oracle


def _spmv_case(graph, rng):
    x = rng.random(graph.num_vertices)

    def oracle(values, algo):
        assert np.allclose(values, oracles.spmv_product(graph, x))

    return (lambda: SpMV(x=x.copy())), oracle


def _bp_case(graph, rng):
    def oracle(values, algo):
        expected = oracles.bp_beliefs(
            graph, algo._prior, damping=0.5, num_iterations=6
        )
        assert np.allclose(values, expected)

    return (lambda: BeliefPropagation(num_iterations=6, damping=0.5)), oracle


#: All 7 algorithms (SSSP also in its delta-stepping configuration).
ALGORITHM_CASES = {
    "bfs": _bfs_case,
    "sssp": _sssp_case,
    "sssp-delta": _sssp_delta_case,
    "pagerank": _pagerank_case,
    "kcore": _kcore_case,
    "wcc": _wcc_case,
    "spmv": _spmv_case,
    "bp": _bp_case,
}

#: Multi-source algorithms exercised through the batched modes.
BATCHED_CASES = ("bfs", "sssp")


def _random_direction_schedule(rng, length=64):
    return [
        Direction.PUSH if rng.random() < 0.5 else Direction.PULL
        for _ in range(length)
    ]


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def _check_single_source_modes(
    graph, case_name, seed, *, with_schedules, backends=("numpy",)
):
    """Oracle + push/pull (+ scheduled) agreement for one (graph, algo).

    The numpy-backend auto run is the anchor (checked against the serial
    oracle); every (mode, backend) cell must be bit-identical to it.
    """
    rng = np.random.default_rng(seed * 7919 + sum(ord(c) for c in case_name))
    make_algo, oracle = ALGORITHM_CASES[case_name](graph, rng)

    auto_algo = make_algo()
    auto = _finished(SIMDXEngine(graph, config=_config()).run(auto_algo))
    oracle(auto.values, auto_algo)
    _assert_record_folds(auto)

    schedule = _random_direction_schedule(rng) if with_schedules else None
    for backend in backends:
        modes = {}
        if backend != "numpy":
            modes["auto"] = _config()
        modes["push"] = _config(forced_direction=Direction.PUSH)
        modes["pull"] = _config(forced_direction=Direction.PULL)
        if schedule is not None:
            modes["schedule"] = _config()
        for mode, config in modes.items():
            result = _finished(KERNEL_ENGINES[backend](
                graph, config=config,
                direction_schedule=schedule if mode == "schedule" else None,
            ).run(make_algo()))
            _assert_record_folds(result)
            assert np.array_equal(result.values, auto.values), (
                f"{case_name} diverged in mode {mode} "
                f"(kernel {backend}) on {graph.name}"
            )
    return make_algo


def _check_batched_modes(graph, case_name, seed, lane_counts,
                         backends=("numpy",)):
    """Batched K lanes × split-mode × backend sweep vs serial runs."""
    rng = np.random.default_rng(seed * 6271 + sum(ord(c) for c in case_name))
    make_algo, _ = ALGORITHM_CASES[case_name](graph, rng)
    single_values: Dict[int, np.ndarray] = {}

    def serial(source: int) -> np.ndarray:
        if source not in single_values:
            algo = make_algo()
            algo.source = source
            single_values[source] = _finished(
                SIMDXEngine(graph, config=_config()).run(algo)
            ).values
        return single_values[source]

    #: mode -> (kernel, config, forced split schedule or None, split margin
    #: or None for the policy's own)
    batch_modes = {}
    for backend in backends:
        batch_modes[f"split-on@{backend}"] = (backend, _config(), None, 0.0)
        batch_modes[f"split-off@{backend}"] = (
            backend, _config(lane_aware_split=False), None, None
        )
        batch_modes[f"split-forced@{backend}"] = (
            backend, _config(), random_split_schedule(seed), None
        )
    for k in lane_counts:
        sources = _sources(graph, rng, k)
        for mode, (backend, config, split_schedule, margin) in batch_modes.items():
            with pytest.MonkeyPatch.context() as patch:
                if margin is not None:
                    patch.setattr(BatchDirectionPolicy, "margin", margin)
                batch = _finished(KERNEL_ENGINES[backend](
                    graph, config=config, split_schedule=split_schedule
                ).run_batch(make_algo(), sources))
            _assert_record_folds(batch)
            for lane, source in enumerate(sources):
                assert np.array_equal(batch.values[lane], serial(source)), (
                    f"{case_name} lane {lane} (source {source}) diverged "
                    f"in mode {mode} at K={len(sources)} on {graph.name}"
                )


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
@pytest.mark.parametrize("case_name", sorted(ALGORITHM_CASES))
def test_small_matrix_single_source(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_single_source_modes(
        graph, case_name, seed, with_schedules=False,
        backends=KERNEL_BACKENDS,
    )


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
@pytest.mark.parametrize("case_name", BATCHED_CASES)
def test_small_matrix_batched(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_batched_modes(
        graph, case_name, seed, lane_counts=(1, 4), backends=KERNEL_BACKENDS
    )


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
@pytest.mark.parametrize("case_name", sorted(ALGORITHM_CASES))
def test_large_matrix_single_source(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_single_source_modes(
        graph, case_name, seed, with_schedules=True, backends=KERNEL_BACKENDS
    )


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
@pytest.mark.parametrize("case_name", BATCHED_CASES)
def test_large_matrix_batched(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_batched_modes(
        graph, case_name, seed, lane_counts=(1, 4, 16),
        backends=KERNEL_BACKENDS,
    )


# ----------------------------------------------------------------------
# Sharded multi-device axis (EngineConfig.num_shards)
# ----------------------------------------------------------------------
#: Shard counts of the sharded axis; 1 is the single-device baseline the
#: sharded runs must match bit-for-bit.
SHARD_COUNTS = (2, 4)


def _assert_shard_extra(result, num_shards):
    """Registered shard accounting must be internally consistent."""
    assert result.extra["shards"] == num_shards
    scanned = result.extra["shard_scanned_edges"]
    assert len(scanned) == num_shards
    assert sum(scanned) == sum(
        r.frontier_edges for r in result.iteration_records
    )
    assert result.extra["kernel_edges_walked"] == sum(scanned)
    assert len(result.extra["shard_peak_bytes"]) == num_shards
    _assert_record_folds(result, num_shards)


def _check_sharded_single_source(
    graph, case_name, seed, *, with_schedules, backends=("numpy",)
):
    """Sharded runs must be bit-identical to the single-device run."""
    rng = np.random.default_rng(seed * 7919 + sum(ord(c) for c in case_name))
    make_algo, oracle = ALGORITHM_CASES[case_name](graph, rng)

    auto_algo = make_algo()
    auto = _finished(SIMDXEngine(graph, config=_config()).run(auto_algo))
    oracle(auto.values, auto_algo)

    configs = {
        "auto": lambda ns: _config(num_shards=ns),
        "push": lambda ns: _config(
            num_shards=ns, forced_direction=Direction.PUSH
        ),
        "pull": lambda ns: _config(
            num_shards=ns, forced_direction=Direction.PULL
        ),
    }
    schedule = None
    if with_schedules:
        schedule = _random_direction_schedule(rng)
        configs["schedule"] = configs["auto"]
    for num_shards in SHARD_COUNTS:
        for backend in backends:
            for mode, make_config in configs.items():
                sharded = _finished(KERNEL_ENGINES[backend](
                    graph, config=make_config(num_shards),
                    direction_schedule=(
                        schedule if mode == "schedule" else None
                    ),
                ).run(make_algo()))
                assert np.array_equal(sharded.values, auto.values), (
                    f"{case_name} diverged on {num_shards} shards ({mode}, "
                    f"kernel {backend}) on {graph.name}"
                )
                _assert_shard_extra(sharded, num_shards)


def _check_sharded_batched(graph, case_name, seed, lane_counts,
                           backends=("numpy",)):
    """Sharded batches must match the K serial single-source runs."""
    rng = np.random.default_rng(seed * 6271 + sum(ord(c) for c in case_name))
    make_algo, _ = ALGORITHM_CASES[case_name](graph, rng)
    single_values: Dict[int, np.ndarray] = {}

    def serial(source: int) -> np.ndarray:
        if source not in single_values:
            algo = make_algo()
            algo.source = source
            single_values[source] = _finished(
                SIMDXEngine(graph, config=_config()).run(algo)
            ).values
        return single_values[source]

    for k in lane_counts:
        sources = _sources(graph, rng, k)
        for num_shards in SHARD_COUNTS:
            for backend in backends:
                # Per-shard direction selection replaces lane-group
                # splitting, so the split knobs are inert on the sharded
                # path; the default config exercises exactly what ships.
                batch = _finished(KERNEL_ENGINES[backend](
                    graph, config=_config(num_shards=num_shards),
                ).run_batch(make_algo(), sources))
                _assert_shard_extra(batch, num_shards)
                for lane, source in enumerate(sources):
                    assert np.array_equal(
                        batch.values[lane], serial(source)
                    ), (
                        f"{case_name} lane {lane} (source {source}) "
                        f"diverged on {num_shards} shards at "
                        f"K={len(sources)} (kernel {backend}) "
                        f"on {graph.name}"
                    )


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
@pytest.mark.parametrize("case_name", sorted(ALGORITHM_CASES))
def test_small_matrix_sharded_single_source(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_sharded_single_source(graph, case_name, seed, with_schedules=False)


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
@pytest.mark.parametrize("case_name", BATCHED_CASES)
def test_small_matrix_sharded_batched(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_sharded_batched(graph, case_name, seed, lane_counts=(1, 4))


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
@pytest.mark.parametrize("case_name", sorted(ALGORITHM_CASES))
def test_large_matrix_sharded_single_source(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_sharded_single_source(
        graph, case_name, seed, with_schedules=True, backends=KERNEL_BACKENDS
    )


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
@pytest.mark.parametrize("case_name", BATCHED_CASES)
def test_large_matrix_sharded_batched(shape, seed, case_name):
    graph = GRAPH_SHAPES[shape](seed)
    _check_sharded_batched(
        graph, case_name, seed, lane_counts=(1, 4, 16),
        backends=KERNEL_BACKENDS,
    )


# ----------------------------------------------------------------------
# Degenerate sources: a sink, an isolated vertex, a self-loop-only vertex
# ----------------------------------------------------------------------
#: SSSP's ``delta`` axis: Bellman-Ford, a bucket narrower than every edge
#: weight, and one wider than every path.
DEGENERATE_DELTAS = {"none": None, "small": 0.5, "large": 1e4}


@pytest.fixture(scope="module")
def degenerate_graph():
    """A directed rmat graph whose three highest in-degree vertices become
    a sink (out-edges dropped), an isolated vertex and a vertex whose only
    edge is a self-loop; returns the graph and those sources by kind."""
    base = gen.rmat_graph(8, 8, seed=303, directed=True)
    edges, weights = base.to_edge_array(), base.out_csr.weights
    sink, isolated, loop = (
        int(v) for v in np.argsort(-base.in_degrees(), kind="stable")[:3]
    )
    keep = (edges[:, 0] != sink) & ~np.isin(edges, [isolated, loop]).any(axis=1)
    graph = CSRGraph.from_edges(
        base.num_vertices,
        np.vstack([edges[keep], [[loop, loop]]]),
        np.append(weights[keep], 1.0),
        directed=True, name="fuzz-degenerate", allow_self_loops=True,
    )
    assert graph.out_degrees()[[sink, isolated]].tolist() == [0, 0]
    assert graph.in_degrees()[sink] > 0 and graph.in_degrees()[isolated] == 0
    return graph, {"sink": sink, "isolated": isolated, "self-loop": loop}


@pytest.mark.parametrize("mode", ("push", "pull", "batch", "shards2"))
@pytest.mark.parametrize("delta", sorted(DEGENERATE_DELTAS))
@pytest.mark.parametrize("kind", ("sink", "isolated", "self-loop"))
def test_degenerate_sssp_sources(degenerate_graph, kind, delta, mode):
    """SSSP from a source with nothing to relax stops after one superstep
    with the oracle's distances, alone and as one lane of a batch."""
    graph, sources = degenerate_graph
    source = sources[kind]
    algo = SSSP(source=source, delta=DEGENERATE_DELTAS[delta])
    if mode == "batch":
        hub = int(np.argmax(graph.out_degrees()))
        batch = _finished(
            SIMDXEngine(graph, config=_config()).run_batch(algo, [source, hub])
        )
        for lane, s in enumerate((source, hub)):
            assert_distances_equal(batch.values[lane], ref.sssp_distances(graph, s))
        return
    config = {
        "push": _config(forced_direction=Direction.PUSH),
        "pull": _config(forced_direction=Direction.PULL),
        "shards2": _config(num_shards=2),
    }[mode]
    result = _finished(SIMDXEngine(graph, config=config).run(algo))
    assert result.iterations <= 2
    assert_distances_equal(result.values, ref.sssp_distances(graph, source))


# ----------------------------------------------------------------------
# Dynamic-graph axis (src/repro/dyn/ + src/repro/cache/)
# ----------------------------------------------------------------------
#: Algorithms queried through the dynamic axis: the repairable monotone
#: trio (exercising incremental repair) plus SSSP's delta-stepping
#: configuration (same repair plan, different scheduler).
DYN_CASES = ("bfs", "sssp", "sssp-delta", "wcc")


def _dyn_make(case_name, source):
    if case_name == "bfs":
        return BFS(source=source)
    if case_name == "sssp":
        return SSSP(source=source)
    if case_name == "sssp-delta":
        return SSSP(source=source, delta=8.0)
    if case_name == "wcc":
        return WCC()
    raise KeyError(case_name)


def _dyn_random_batch(dyn, rng):
    """A seeded random insert+delete batch against the current edge set."""
    n = dyn.num_vertices
    ins = rng.integers(0, n, size=(int(rng.integers(2, 8)), 2))
    ins = ins[ins[:, 0] != ins[:, 1]]
    weights = rng.uniform(0.5, 3.0, size=len(ins))
    edges = dyn.snapshot().to_edge_array()
    picks = rng.choice(
        len(edges), size=min(int(rng.integers(1, 6)), len(edges)),
        replace=False,
    )
    return {"inserts": ins, "insert_weights": weights,
            "deletes": edges[picks]}


def _hub_source(graph, rng):
    """A seeded pick among the top-degree vertices, so that repairs reach
    a large part of the graph (degenerate sources have their own axis)."""
    order = np.argsort(-graph.out_degrees(), kind="stable")
    return int(order[rng.integers(0, max(1, graph.num_vertices // 8))])


def _check_dyn_axis(graph, seed, *, rounds, num_shards=1):
    """Random update batches interleaved with queries: warm incremental
    repair must be bit-identical to a from-scratch run on every snapshot
    (sanitize-clean under REPRO_SANITIZE=1)."""
    from repro.dyn import DynamicGraph, EdgeUpdateBatch, IncrementalRecompute

    config = _config(num_shards=num_shards) if num_shards > 1 else _config()
    dyn = DynamicGraph(graph)
    rng = np.random.default_rng(seed * 4099 + 17)
    recompute = IncrementalRecompute(config=config)
    source = _hub_source(graph, rng)
    warm = {
        case: _finished(
            SIMDXEngine(dyn.snapshot(), config=config).run(_dyn_make(case, source))
        ).values
        for case in DYN_CASES
    }
    for _ in range(rounds):
        receipt = dyn.apply(EdgeUpdateBatch.of(**_dyn_random_batch(dyn, rng)))
        scratch_engine = SIMDXEngine(receipt.new_graph, config=config)
        for case in DYN_CASES:
            repaired = _finished(recompute.run(
                receipt, _dyn_make(case, source), warm[case]
            ))
            scratch = _finished(scratch_engine.run(_dyn_make(case, source)))
            assert np.array_equal(repaired.values, scratch.values), (
                f"{case} incremental repair diverged from scratch at "
                f"version {receipt.version} on {graph.name} "
                f"(num_shards={num_shards})"
            )
            warm[case] = repaired.values


def _check_dyn_cached_axis(graph, seed, *, rounds):
    """The CachedQueryEngine path: every answer (hit / repair / miss)
    must match a fresh from-scratch engine run on the current snapshot."""
    from repro.cache import CachedQueryEngine

    config = _config()
    qe = CachedQueryEngine(graph, config=config)
    rng = np.random.default_rng(seed * 5003 + 29)
    # A small skewed source pool of hubs: repeats drive hits and repairs.
    pool = [_hub_source(graph, rng) for _ in range(3)]
    seen_outcomes = set()
    for _ in range(rounds):
        for _ in range(4):
            case = DYN_CASES[int(rng.integers(0, len(DYN_CASES)))]
            source = pool[int(rng.integers(0, len(pool)))]
            name = "sssp" if case == "sssp-delta" else case
            params = {"delta": 8.0} if case == "sssp-delta" else {}
            answer = qe.query(name, None if name == "wcc" else source,
                              **params)
            seen_outcomes.add(answer.outcome)
            algo = _dyn_make(case, source)
            scratch = _finished(
                SIMDXEngine(qe.dyn.snapshot(), config=config).run(algo)
            )
            if answer.result is not None:
                _finished(answer.result)
            assert np.array_equal(answer.values, scratch.values), (
                f"{case} cached answer ({answer.outcome}) diverged from "
                f"scratch at version {qe.dyn.version} on {graph.name}"
            )
        qe.update(**_dyn_random_batch(qe.dyn, rng))
    assert "hit" in seen_outcomes and "miss" in seen_outcomes


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
def test_small_matrix_dyn(shape, seed):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_axis(graph, seed, rounds=3)


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
def test_small_matrix_dyn_cached(shape, seed):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_cached_axis(graph, seed, rounds=2)


@pytest.mark.parametrize("shape,seed", SMALL_MATRIX)
def test_small_matrix_dyn_sharded(shape, seed):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_axis(graph, seed, rounds=2, num_shards=2)


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
def test_large_matrix_dyn(shape, seed):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_axis(graph, seed, rounds=6)


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
def test_large_matrix_dyn_cached(shape, seed):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_cached_axis(graph, seed, rounds=4)


@pytest.mark.parametrize("shape,seed", LARGE_MATRIX)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_large_matrix_dyn_sharded(shape, seed, num_shards):
    graph = GRAPH_SHAPES[shape](seed)
    _check_dyn_axis(graph, seed, rounds=4, num_shards=num_shards)
