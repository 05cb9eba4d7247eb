"""A lane computes exactly what its own run computes: the lane-loop contract.

A batched superstep walks the union of the lane frontiers once and hands
each lane its own pairs, one Compute call per lane per unit. Whatever the
lane loop does to get there (edge selections, shared operand gathers), the
pairs it hands lane k at superstep i - concatenated over lane k's calls in
unit order - must be the operands lane k's single-source ``run`` hands its
one instance at superstep i: the same source and destination ids, the same
float64 weights and the same source/destination metadata, in the same
order. The log comes from a recording subclass of the algorithm (the
:mod:`engine_seams` pattern), not from any hook in ``src/``. Tier-1 runs
every case plain; ``REPRO_SANITIZE=1`` (CI's static-analysis job) runs
them with the runtime sanitizer armed instead.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
import pytest

from engine_seams import ScheduledEngine
from repro.algorithms import BFS, SSSP
from repro.core.direction import Direction
from repro.core.engine import EngineConfig
from repro.graph import generators as gen

#: The Compute operands, in the order the hooks take them.
OPERANDS = ("src_meta", "weights", "dst_meta", "src_ids", "dst_ids")
SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"


class _LoggingEngine(ScheduledEngine):
    """Notes the superstep the driver is planning (asked once per superstep)."""

    iteration = 0

    def _forced_direction(self, iteration):
        self.iteration = iteration
        return super()._forced_direction(iteration)


def _recording(algorithm_cls, engine, log):
    """A subclass of ``algorithm_cls`` whose instances log every outermost
    Compute call as ``log[(superstep, lane)] -> [operands, ...]`` (the
    default ``gather_edges`` calls ``compute_edges``; that inner call is
    the same pair set and is not logged twice)."""

    def logged(hook):
        def call(self, *args):
            if self.contract_depth == 0:
                log[engine.iteration, self.contract_lane].append(
                    tuple(np.array(a, copy=True) for a in args[:5])
                )
            self.contract_depth += 1
            try:
                return getattr(super(recording, self), hook)(*args)
            finally:
                self.contract_depth -= 1
        return call

    recording = type(f"Contract{algorithm_cls.__name__}", (algorithm_cls,), {
        "contract_lane": None,
        "contract_depth": 0,
        "compute_edges": logged("compute_edges"),
        "gather_edges": logged("gather_edges"),
    })
    return recording


def _concatenated(calls):
    """One lane's superstep operands, each concatenated across its calls."""
    if not calls:
        return None
    return [
        np.concatenate([np.asarray(c[i]) for c in calls]) for i in range(5)
    ]


def _check_contract(graph, algorithm_cls, sources, direction, shards):
    config = EngineConfig(num_shards=shards, sanitize=SANITIZE)
    schedule = [direction]

    batch_log = defaultdict(list)
    engine = _LoggingEngine(graph, config=config, direction_schedule=schedule)
    recording = _recording(algorithm_cls, engine, batch_log)
    result = engine.run_batch(
        recording(), sources,
        lane_params=[{"contract_lane": k} for k in range(len(sources))],
    )
    assert not result.failed, result.failure_reason

    for lane, source in enumerate(sources):
        solo_log = defaultdict(list)
        solo_engine = _LoggingEngine(
            graph, config=config, direction_schedule=schedule
        )
        solo = _recording(algorithm_cls, solo_engine, solo_log)()
        solo.contract_lane = lane
        assert not solo_engine.run(solo, source=source).failed
        steps = sorted(
            {i for i, k in batch_log if k == lane} | {i for i, _ in solo_log}
        )
        assert steps, "the lane computed nothing"
        for i in steps:
            got = _concatenated(batch_log.get((i, lane), []))
            want = _concatenated(solo_log.get((i, lane), []))
            where = f"lane {lane} (source {source}), superstep {i}"
            assert (got is None) == (want is None), where
            if got is None:
                continue
            for name, g, w in zip(OPERANDS, got, want):
                assert g.dtype == w.dtype, f"{where}: {name} dtype"
                np.testing.assert_array_equal(g, w, err_msg=f"{where}: {name}")
            assert got[1].dtype == np.float64, f"{where}: weights dtype"


def _graph(seed: int, directed: bool, scale: int = 7):
    if seed % 2:
        return gen.rmat_graph(scale, 6, seed=seed, directed=directed)
    return gen.random_uniform_graph(
        2 ** scale, 6 * 2 ** scale, seed=seed, directed=directed
    )


def _sources(graph, k: int, seed: int):
    """``k`` distinct seeded sources, each with an out-edge to compute."""
    rng = np.random.default_rng(seed)
    reach = np.flatnonzero(graph.out_degrees() > 0)
    return [int(v) for v in rng.choice(reach, size=k, replace=False)]


CASES = [
    pytest.param(direction, shards, id=f"{direction.value}-{shards}dev")
    for direction in (Direction.PUSH, Direction.PULL)
    for shards in (1, 2)
]


@pytest.mark.parametrize("direction,shards", CASES)
def test_three_lanes_on_thirty_graphs(direction, shards):
    for seed in range(30):
        directed = seed % 3 == 0
        graph = _graph(seed, directed, scale=6)
        algorithm = SSSP if seed % 4 < 2 else BFS
        _check_contract(
            graph, algorithm, _sources(graph, 3, seed), direction, shards
        )


@pytest.mark.parametrize("direction,shards", CASES)
def test_sixty_five_lanes(direction, shards):
    for seed, directed in ((101, False), (102, True), (103, False)):
        graph = _graph(seed, directed, scale=7)
        _check_contract(
            graph, SSSP, _sources(graph, 65, seed), direction, shards
        )
