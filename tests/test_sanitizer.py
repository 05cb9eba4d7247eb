"""Tests for the runtime ACC sanitizer (``repro.analysis.sanitizer``).

Two halves mirror the two claims the sanitizer makes:

* **zero findings on correct code** - running representative algorithms
  (single-source and batched, push/pull/auto, split on/off) with
  ``EngineConfig(sanitize=True)`` must report a clean run *and* produce
  bit-identical values to the unsanitized run (the sanitizer is
  shadow-by-recording: it never re-executes hooks);
* **each seeded defect is caught with the expected violation class** -
  engine/algorithm subclasses that re-introduce the bug classes the ACC
  model is supposed to rule out (raw last-write-wins scatter, stray
  metadata writes, impure hooks, CSR mutation through a stale alias,
  overlapping lane groups, broken accounting, unregistered extra keys)
  must raise :class:`SanitizerError` with the matching
  :class:`ViolationKind`.
"""

from __future__ import annotations

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
from repro.analysis import registry as extra_keys
from repro.analysis.sanitizer import (
    RuntimeSanitizer,
    SanitizerError,
    SanitizerViolation,
    ViolationKind,
)
from repro.core.direction import Direction, SubBatchPlan
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import IterationRecord
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph


def _sanitize_config(**kwargs) -> EngineConfig:
    return EngineConfig(sanitize=True, **kwargs)


def _kinds(err: SanitizerError) -> set:
    return {v.kind for v in err.violations}


# ----------------------------------------------------------------------
# Clean runs: zero findings, bit-identical values
# ----------------------------------------------------------------------
CLEAN_CASES = {
    "bfs": lambda: BFS(source=0),
    "sssp": lambda: SSSP(source=0),
    "sssp-delta": lambda: SSSP(source=0, delta=8.0),
    "pagerank": lambda: PageRank(tolerance=1e-6),
    "kcore": lambda: KCore(k=4),
    "wcc": lambda: WCC(),
    "spmv": lambda: SpMV(x_seed=7),
    "bp": lambda: BeliefPropagation(num_iterations=5),
}


@pytest.mark.parametrize("name", sorted(CLEAN_CASES))
@pytest.mark.parametrize("direction", ["auto", "push", "pull"])
def test_sanitized_run_clean_and_bit_identical(name, direction):
    graph = gen.rmat_graph(7, 8, seed=31, name="san-rmat")
    kwargs = (
        {}
        if direction == "auto"
        else {"forced_direction": Direction(direction)}
    )
    make = CLEAN_CASES[name]
    plain = SIMDXEngine(graph, config=EngineConfig(**kwargs)).run(make())
    sanitized = SIMDXEngine(graph, config=_sanitize_config(**kwargs)).run(make())
    assert not sanitized.failed, sanitized.failure_reason
    assert np.array_equal(plain.values, sanitized.values)
    report = sanitized.extra[extra_keys.SANITIZER]
    assert report["clean"]
    assert report["violations"] == []
    assert report["checks"]["metadata_compare"] > 0
    assert report["checks"]["records"] > 0


@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.parametrize(
    "mode_kwargs",
    [{"split_margin": 0.0}, {"lane_aware_split": False}],
    ids=["split-on", "split-off"],
)
def test_sanitized_batch_clean_and_bit_identical(k, mode_kwargs):
    graph = gen.random_uniform_graph(220, 1500, seed=77, name="san-uniform")
    candidates = np.nonzero(graph.out_degrees() > 0)[0]
    sources = [int(v) for v in candidates[:k]]
    plain = SIMDXEngine(graph, config=EngineConfig(**mode_kwargs)).run_batch(
        SSSP(), sources
    )
    sanitized = SIMDXEngine(
        graph, config=_sanitize_config(**mode_kwargs)
    ).run_batch(SSSP(), sources)
    assert not sanitized.failed, sanitized.failure_reason
    for lane in range(len(sources)):
        assert np.array_equal(plain.values[lane], sanitized.values[lane])
    report = sanitized.extra[extra_keys.SANITIZER]
    assert report["clean"]
    assert report["checks"]["group_plans"] > 0


# ----------------------------------------------------------------------
# Seeded defects: each bug class raises with the expected kind
# ----------------------------------------------------------------------
def _diamond_graph() -> CSRGraph:
    """0->{1,2}->3 plus a spur to 4; vertex 5 is isolated (no in-edges),
    so any write to it must come from outside the combine pipeline."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]
    weights = [1.0, 1.0, 1.0, 5.0, 9.0]
    return CSRGraph.from_edges(
        6, edges, weights, directed=True, name="san-diamond"
    )


def _parallel_edge_graph() -> CSRGraph:
    """Two parallel 0->1 edges: the very first frontier expansion sends two
    concurrent offers to vertex 1, so a combine bypass is a write-write
    conflict from iteration 1."""
    edges = [(0, 1), (0, 1), (0, 2)]
    weights = [1.0, 5.0, 2.0]
    return CSRGraph.from_edges(
        3, edges, weights, directed=True, dedup=False, name="san-parallel"
    )


class RawScatterEngine(SIMDXEngine):
    """Applies updates with a raw last-write-wins scatter - the data race
    the CombineOp reduction exists to prevent."""

    def _combine_and_apply(self, algorithm, metadata, updates, dst, ids_sorted=False):
        metadata[dst] = updates
        return np.unique(dst)


def test_raw_scatter_flagged_as_write_write_conflict():
    engine = RawScatterEngine(
        _parallel_edge_graph(),
        config=_sanitize_config(
            forced_direction=Direction.PUSH
        ),
    )
    with pytest.raises(SanitizerError) as exc:
        engine.run(SSSP(source=0))
    assert ViolationKind.WRITE_WRITE_CONFLICT in _kinds(exc.value)


class StrayWriteEngine(SIMDXEngine):
    """Combines correctly, then pokes a vertex no update touched."""

    def _combine_and_apply(self, algorithm, metadata, updates, dst, ids_sorted=False):
        touched = super()._combine_and_apply(
            algorithm, metadata, updates, dst, ids_sorted
        )
        metadata[metadata.shape[0] - 1] = -7.0  # vertex 5 has no in-edges
        return touched


def test_stray_write_flagged_as_non_combined_write():
    engine = StrayWriteEngine(
        _diamond_graph(),
        config=_sanitize_config(
            forced_direction=Direction.PUSH
        ),
    )
    with pytest.raises(SanitizerError) as exc:
        engine.run(SSSP(source=0))
    assert _kinds(exc.value) == {ViolationKind.NON_COMBINED_WRITE}
    (violation,) = exc.value.violations
    assert 5 in violation.vertices


class ImpureGatherMaskBFS(BFS):
    """gather_mask that mutates the metadata it was handed."""

    def gather_mask(self, metadata, graph, frontier=None):
        metadata[0] = 99.0
        return np.ones(metadata.shape[0], dtype=bool)


def test_impure_hook_flagged():
    graph = gen.random_uniform_graph(120, 700, seed=13, name="san-impure")
    src = int(np.nonzero(graph.out_degrees() > 0)[0][0])
    engine = SIMDXEngine(
        graph,
        config=_sanitize_config(
            forced_direction=Direction.PULL
        ),
    )
    with pytest.raises(SanitizerError) as exc:
        engine.run(ImpureGatherMaskBFS(source=src))
    assert ViolationKind.IMPURE_HOOK in _kinds(exc.value)


class AliasMutatingSSSP(SSSP):
    """Stashes a writable CSR view in ``init`` (before the sanitizer
    freezes the graph) and mutates the topology through it mid-run."""

    def init(self, graph, **params):
        state = super().init(graph, **params)
        self._alias = graph.out_csr.targets[:]
        return state

    def on_frontier_expanded(self, frontier, metadata):
        super().on_frontier_expanded(frontier, metadata)
        self._alias[0] = (self._alias[0] + 1) % metadata.shape[0]


def test_csr_mutation_through_stale_alias_flagged():
    graph = gen.random_uniform_graph(120, 700, seed=29, name="san-alias")
    src = int(np.nonzero(graph.out_degrees() > 0)[0][0])
    engine = SIMDXEngine(graph, config=_sanitize_config())
    with pytest.raises(SanitizerError) as exc:
        engine.run(AliasMutatingSSSP(source=src))
    assert ViolationKind.CSR_MUTATION in _kinds(exc.value)


class OverlappingGroupsEngine(SIMDXEngine):
    """Plans sub-batches that assign one lane to two groups."""

    def _plan_groups(self, iteration, live, *args, **kwargs):
        groups = super()._plan_groups(iteration, live, *args, **kwargs)
        if len(live) >= 2:
            return [
                SubBatchPlan(Direction.PUSH, tuple(int(l) for l in live)),
                SubBatchPlan(Direction.PULL, (int(live[0]),)),
            ]
        return groups


def test_overlapping_lane_groups_flagged_as_lane_remap():
    graph = gen.random_uniform_graph(220, 1500, seed=41, name="san-remap")
    candidates = np.nonzero(graph.out_degrees() > 0)[0]
    sources = [int(v) for v in candidates[:4]]
    engine = OverlappingGroupsEngine(graph, config=_sanitize_config())
    with pytest.raises(SanitizerError) as exc:
        engine.run_batch(SSSP(), sources)
    assert ViolationKind.LANE_REMAP in _kinds(exc.value)


class ReversedReceiversEngine(SIMDXEngine):
    """Combines correctly but hands the driver its receiver set backwards -
    the unsorted id set the driver's deleted re-sorts used to paper over."""

    def _combine_and_apply(self, algorithm, metadata, updates, dst, ids_sorted=False):
        touched = super()._combine_and_apply(
            algorithm, metadata, updates, dst, ids_sorted
        )
        return touched[::-1]


def test_non_canonical_frontier_flagged_as_frontier_order():
    graph = gen.random_uniform_graph(220, 1500, seed=41, name="san-order")
    candidates = np.nonzero(graph.out_degrees() > 1)[0]
    sources = [int(v) for v in candidates[:2]]
    engine = ReversedReceiversEngine(graph, config=_sanitize_config())
    with pytest.raises(SanitizerError) as exc:
        engine.run_batch(BFS(), sources)
    assert _kinds(exc.value) == {ViolationKind.FRONTIER_ORDER}
    assert exc.value.violations[0].lane in (0, 1)


@pytest.mark.parametrize(
    "frontier",
    [
        np.array([1, 2, 2], dtype=np.int64),     # duplicate
        np.array([3, 1], dtype=np.int64),        # unsorted
        np.array([1, 2], dtype=np.int32),        # not int64
    ],
    ids=["duplicate", "unsorted", "int32"],
)
def test_end_superstep_checks_every_next_frontier(frontier):
    graph = _diamond_graph()
    sanitizer = RuntimeSanitizer(graph, raise_on_violation=False)
    metadata = np.zeros(graph.num_vertices)
    canonical = np.array([0, 4], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    try:
        sanitizer.freeze_graph()
        sanitizer.begin_superstep(1, metadata)
        sanitizer.end_superstep(1, metadata, [canonical, frontier, empty])
    finally:
        sanitizer.release()
    (violation,) = sanitizer.violations
    assert violation.kind is ViolationKind.FRONTIER_ORDER
    assert violation.lane == 1 and violation.iteration == 1


# ----------------------------------------------------------------------
# Direct-API defects: phase order, accounting, extra keys
# ----------------------------------------------------------------------
def test_stale_operand_flagged_as_phase_order():
    graph = gen.random_uniform_graph(60, 250, seed=3, name="san-phase")
    algo = SSSP(source=0)
    sanitizer = RuntimeSanitizer(graph)
    try:
        wrapped = sanitizer.wrap(algo, lane=0)
        state = algo.init(graph)
        sanitizer.freeze_graph()
        sanitizer.begin_superstep(0, state.metadata)
        src_ids = np.array([0], dtype=np.int64)
        dst_ids = np.array([1], dtype=np.int64)
        stale_src = state.metadata[src_ids] + 1.0  # not the snapshot value
        with pytest.raises(SanitizerError) as exc:
            wrapped.compute_edges(
                stale_src,
                np.ones(1),
                state.metadata[dst_ids],
                src_ids,
                dst_ids,
                graph,
            )
        assert _kinds(exc.value) == {ViolationKind.PHASE_ORDER}
    finally:
        sanitizer.release()


def _record(**overrides) -> IterationRecord:
    base = dict(
        iteration=1,
        direction="push",
        frontier_vertices=2,
        frontier_edges=4,
        filter_used="compact",
        filter_overflowed=False,
        compute_us=1.0,
        filter_us=0.0,
        barrier_us=0.0,
        launch_us=0.0,
        active_edges=4,
    )
    base.update(overrides)
    return IterationRecord(**base)


def test_accounting_violations_collected():
    graph = gen.random_uniform_graph(30, 100, seed=5, name="san-acct")
    sanitizer = RuntimeSanitizer(graph, raise_on_violation=False)
    sanitizer.observe_record(_record())  # clean
    sanitizer.observe_record(_record(iteration=2, active_edges=10))
    sanitizer.observe_record(_record(iteration=3, frontier_vertices=-1))
    sanitizer.observe_record(_record(iteration=1))  # iteration went backwards
    report = sanitizer.report()
    assert not report["clean"]
    assert {v["kind"] for v in report["violations"]} == {
        ViolationKind.ACCOUNTING.value
    }
    assert len(report["violations"]) == 3


def test_unregistered_extra_key_flagged():
    graph = gen.random_uniform_graph(30, 100, seed=5, name="san-extra")
    sanitizer = RuntimeSanitizer(graph)
    with pytest.raises(SanitizerError) as exc:
        sanitizer.validate_extra({"definitely_not_registered": 1})
    assert _kinds(exc.value) == {ViolationKind.EXTRA_KEY}


def test_negative_monotone_counter_flagged():
    graph = gen.random_uniform_graph(30, 100, seed=5, name="san-counter")
    sanitizer = RuntimeSanitizer(graph)
    with pytest.raises(SanitizerError) as exc:
        sanitizer.validate_extra({extra_keys.UNION_EDGES_WALKED: -3})
    assert _kinds(exc.value) == {ViolationKind.ACCOUNTING}


def test_violation_formatting_round_trips():
    violation = SanitizerViolation(
        kind=ViolationKind.ACCOUNTING,
        detail="example",
        iteration=4,
        lane=2,
        vertices=(1, 2),
    )
    as_dict = violation.as_dict()
    assert as_dict["kind"] == "accounting"
    assert "accounting" in str(violation)
    err = SanitizerError([violation])
    assert list(err.violations) == [violation]
    assert "accounting" in str(err)
