"""A lane is combined when it is computed: the drain order of a superstep.

A superstep drains a lane - frontier hook, Combine per owner, active mask -
as soon as the last unit carrying it has computed it. On one device every
lane is in exactly one unit, so no other lane's Compute falls between a
lane's Compute and its Combine and the host queue holds one lane's updates.
Sharded, every unit carries every lane, so a lane's Combine follows its
Computes on every unit. :class:`~engine_seams.RecordingEngine` logs the
order; values must not notice it. Every case runs plain and sanitized;
``REPRO_SANITIZE=1`` (CI's static-analysis job) runs the sanitized half only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from engine_seams import RecordingEngine, random_split_schedule
from repro.algorithms import BFS, SSSP
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph

COMPUTE = ("compute_edges",)
SANITIZE = pytest.mark.parametrize(
    "sanitize",
    [True] if os.environ.get("REPRO_SANITIZE", "") == "1" else [False, True],
    ids=lambda armed: "sanitized" if armed else "plain",
)


def _supersteps(events):
    """Per-superstep event lists of a :class:`RecordingEngine` log."""
    steps = []
    for kind, value in events:
        if kind == "superstep":
            steps.append([])
        else:
            steps[-1].append((kind, value))
    return steps


def _at(step, lane, *kinds):
    """Positions of ``lane``'s events of ``kinds`` in one superstep."""
    return [i for i, (kind, k) in enumerate(step) if k == lane and kind in kinds]


def _run(config, algorithm, **seams):
    """Per-superstep log of ``run_batch(algorithm, 4 hubs)`` on R-MAT,
    checked bit-identical to the plain engine's run."""
    graph = gen.rmat_graph(9, 8, seed=7, name="rmat9")
    hubs = np.argsort(-graph.out_degrees(), kind="stable")[:4]
    sources = [int(v) for v in hubs]
    engine = RecordingEngine(graph, config=config, **seams)
    result = engine.run_batch(algorithm, sources)
    assert not result.failed, result.failure_reason
    plain = SIMDXEngine(graph, config=config).run_batch(algorithm, sources)
    np.testing.assert_array_equal(result.metadata, plain.metadata)
    return _supersteps(engine.events)


ALGORITHMS = [
    pytest.param(BFS(), id="bfs"),
    pytest.param(SSSP(), id="sssp"),
    pytest.param(SSSP(delta=2.0), id="sssp-delta2"),
]
ONE_DEVICE = [
    pytest.param(dict(lane_aware_split=True), {}, id="split"),
    pytest.param(dict(lane_aware_split=False), {}, id="nosplit"),
    pytest.param(
        {}, dict(split_schedule=random_split_schedule(3)), id="forced-split"
    ),
    pytest.param(dict(forced_direction=Direction.PUSH), {}, id="push"),
    pytest.param(dict(forced_direction=Direction.PULL), {}, id="pull"),
]


@SANITIZE
@pytest.mark.parametrize("fields, seams", ONE_DEVICE)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_device_combines_each_lane_before_the_next_computes(
    algorithm, fields, seams, sanitize
):
    steps = _run(EngineConfig(sanitize=sanitize, **fields), algorithm, **seams)
    interleaved = 0
    for step in steps:
        for lane in range(4):
            computes = _at(step, lane, *COMPUTE)
            combines = _at(step, lane, "combine")
            if not combines:
                continue
            hooks = _at(step, lane, "on_frontier_expanded")
            active = _at(step, lane, "active_mask")
            assert computes and hooks and len(active) == 1, step
            assert computes[-1] < hooks[0] < combines[0], step
            assert combines[-1] < active[0], step
            others = [
                i for other in range(4) if other != lane
                for i in _at(step, other, *COMPUTE)
            ]
            assert not [i for i in others if computes[0] < i < combines[-1]], step
            interleaved += any(i > combines[-1] for i in others)
    # The pin has teeth: some lane combined before another lane computed.
    assert interleaved


@SANITIZE
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sharded_lanes_combine_after_their_computes_on_every_unit(
    algorithm, sanitize
):
    steps = _run(EngineConfig(num_shards=2, sanitize=sanitize), algorithm)
    combined = 0
    for step in steps:
        for lane in range(4):
            computes = _at(step, lane, *COMPUTE)
            combines = _at(step, lane, "combine")
            hooks = _at(step, lane, "on_frontier_expanded")
            active = _at(step, lane, "active_mask")
            assert len(active) <= 1, step
            if combines:
                combined += 1
                assert computes and hooks, step
                assert computes[-1] < hooks[0] < combines[0], step
                assert combines[-1] < active[0], step
    assert combined


@SANITIZE
@pytest.mark.parametrize("sources", [[0], [0, 2]], ids=["k1", "k2"])
def test_a_lane_whose_gather_keeps_no_edge_still_drains(sources, sanitize):
    # Lane 0's second frontier {1} has an out-edge (1->0), but its only
    # gather candidate, 3, hears only from 2: the gather keeps no edge of
    # lane 0, yet its frontier hook and active mask must still run.
    graph = CSRGraph.from_edges(
        4, np.array([(0, 1), (1, 0), (2, 3)]), directed=True, name="drain"
    )
    config = EngineConfig(forced_direction=Direction.PULL, sanitize=sanitize)
    engine = RecordingEngine(graph, config=config)
    result = engine.run_batch(BFS(), sources)
    assert not result.failed, result.failure_reason
    second = _supersteps(engine.events)[1]
    assert not _at(second, 0, *COMPUTE, "combine"), second
    hooks = _at(second, 0, "on_frontier_expanded")
    active = _at(second, 0, "active_mask")
    assert len(hooks) == 1 and len(active) == 1 and hooks[0] < active[0], second
    np.testing.assert_array_equal(result.values[0], [0, 1, -1, -1])
