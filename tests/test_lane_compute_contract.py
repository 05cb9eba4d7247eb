"""A lane computes exactly what its own run computes: the lane-loop contract.

A batched superstep walks the union of the lane frontiers once and hands
each lane its own pairs, one Compute call per lane per unit. Whatever the
lane loop does to get there (edge selections, shared operand gathers), the
pairs it hands lane k at superstep i - concatenated over lane k's calls in
unit order - must be the operands lane k's single-source ``run`` hands its
one instance at superstep i: the same source and destination ids, the same
float64 weights and the same source/destination metadata, in the same
order. An operand the algorithm does not read (``uses_weights``,
``reads_src_meta``, ``reads_dst_meta``) is ``None`` in both logs, on every
call. The log comes from a recording subclass of the algorithm (the
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
    """A subclass of ``algorithm_cls`` whose instances log every Compute
    call (push or pull) as ``log[(superstep, lane)] -> [operands, ...]``."""

    def compute_edges(self, *args):
        log[engine.iteration, self.contract_lane].append(tuple(
            None if a is None else np.array(a, copy=True) for a in args[:5]
        ))
        return super(recording, self).compute_edges(*args)

    recording = type(f"Contract{algorithm_cls.__name__}", (algorithm_cls,), {
        "contract_lane": None,
        "compute_edges": compute_edges,
    })
    return recording


def _concatenated(calls):
    """One lane's superstep operands, each concatenated across its calls;
    an operand is ``None`` only if every call passed ``None``."""
    if not calls:
        return None
    operands = []
    for i in range(5):
        parts = [c[i] for c in calls]
        unread = [p is None for p in parts]
        assert all(unread) or not any(unread), f"{OPERANDS[i]} passed mixed"
        operands.append(None if unread[0] else np.concatenate(parts))
    return operands


def _declared(algorithm_cls):
    """Which operands ``algorithm_cls`` declares it reads, by position."""
    return (
        algorithm_cls.reads_src_meta, algorithm_cls.uses_weights,
        algorithm_cls.reads_dst_meta, True, True,
    )


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
            for name, read, g, w in zip(
                OPERANDS, _declared(algorithm_cls), got, want
            ):
                # An unread operand is never built, on either side.
                assert (g is None) == (w is None) == (not read), f"{where}: {name}"
                if g is None:
                    continue
                assert g.dtype == w.dtype, f"{where}: {name} dtype"
                np.testing.assert_array_equal(g, w, err_msg=f"{where}: {name}")
            if got[1] is not None:
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


class _Reach(BFS):
    """BFS without the visited test: every frontier edge offers its source's
    level + 1 and Combine's min keeps the smallest. It reads no destination
    metadata and no weights, so both arrive as ``None``."""

    reads_dst_meta = False

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        return src_meta + 1.0


@pytest.mark.parametrize("direction,shards", CASES)
def test_unread_operands_are_never_built(direction, shards):
    for seed in (7, 8, 9):
        graph = _graph(seed, directed=seed % 3 == 0, scale=6)
        _check_contract(
            graph, _Reach, _sources(graph, 5, seed), direction, shards
        )
