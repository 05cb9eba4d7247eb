"""The one next-frontier rule, observed from outside the driver.

A lane continues from a filter pass's own worklist only when that pass is
a ballot scan over exactly that lane on one device; every other lane takes
``received ∩ active`` from Combine's receiver sets. An online or batch
filter's worklist (thread bins: unsorted, duplicates) holds that same set,
so wherever a lane's passes were all unsorted its next frontier must be
``sorted_unique`` of their worklists - checked here over every filter mode
x {push, pull, split ``run_batch``, 2 shards} x {BFS, delta-stepping SSSP}
with :class:`~tests.engine_seams.FrontierRecordingEngine`, which records
both sides through seams the driver already calls. Values must equal a
plain engine's.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.filters import FilterMode
from repro.core.kernels import DEFAULT_KERNEL
from tests.engine_seams import FrontierRecordingEngine

pytestmark = pytest.mark.usefixtures("armed_by_env")

_EMPTY = np.zeros(0, dtype=np.int64)


def _split_each_lane(iteration, live):
    """Two live lanes run as two one-lane groups, one per direction."""
    if len(live) != 2:
        return None
    return [(Direction.PUSH, [live[0]]), (Direction.PULL, [live[1]])]


PATHS = {
    "push": (dict(forced_direction=Direction.PUSH), "run"),
    "pull": (dict(forced_direction=Direction.PULL), "run"),
    "split-batch": (dict(), "run_batch"),
    "shards=2": (dict(num_shards=2), "run"),
}

ALGORITHMS = {
    "bfs": lambda source: BFS(source=source),
    "sssp-delta": lambda source: SSSP(source=source, delta=0.5),
}


def _execute(engine, path, make, sources):
    if PATHS[path][1] == "run":
        return engine.run(make(sources[0]))
    return engine.run_batch(make(sources[0]), sources)


def _check_rule(engine, graph, single_device):
    """Compare every lane's next frontier with what its passes built;
    returns the (thread-bin, ballot) lane-supersteps checked."""
    by_step = defaultdict(lambda: defaultdict(list))
    for iteration, lanes, worklist, is_sorted in engine.passes:
        assert len(lanes) == 1  # every unit of these paths serves one lane
        by_step[iteration][lanes[0]].append((worklist, is_sorted))
    binned = scanned = 0
    for iteration, per_lane in by_step.items():
        for lane, passes in per_lane.items():
            got = engine.frontiers.get((iteration + 1, lane), _EMPTY)
            if any(is_sorted for _, is_sorted in passes):
                if single_device:
                    # A ballot scan's worklist is the frontier, as is.
                    assert np.array_equal(got, passes[0][0])
                    scanned += 1
                continue
            expected = DEFAULT_KERNEL.sorted_unique(
                np.concatenate([worklist for worklist, _ in passes]),
                graph.num_vertices,
            )
            if expected.size == 0 and got.size:
                continue  # delta-stepping re-seeded from its next bucket
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (iteration, lane)
            binned += 1
    return binned, scanned


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("mode", list(FilterMode), ids=lambda m: m.value)
def test_next_frontier_is_the_set_of_the_filter_worklist(
    road_graph, mode, path, algorithm
):
    options, _ = PATHS[path]
    config = EngineConfig(filter_mode=mode, **options)
    make = ALGORITHMS[algorithm]
    sources = [0, road_graph.num_vertices - 1]
    engine = FrontierRecordingEngine(
        road_graph, config=config, split_schedule=_split_each_lane,
    )
    result = _execute(engine, path, make, sources)
    assert not result.failed, result.failure_reason
    plain = _execute(SIMDXEngine(road_graph, config=config), path, make, sources)
    assert np.array_equal(result.values, plain.values)

    binned, scanned = _check_rule(
        engine, road_graph, single_device=path != "shards=2"
    )
    if mode in (FilterMode.ONLINE, FilterMode.JIT):
        assert binned > 0
    elif path != "shards=2":
        assert scanned > 0
    if path == "split-batch":
        assert result.extra["lane_splits"] > 0
