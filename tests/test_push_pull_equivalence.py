"""Push/pull functional equivalence: the gather path must be bit-identical.

The engine promises that a pull (gather) iteration walks exactly the
frontier's out-edge set from the destination side, feeds ``compute`` the
same operands, and combines per destination in the same order as the push
(scatter) path - so forced-push, forced-pull and auto-direction runs return
bit-identical vertex values for every algorithm. These tests pin that
invariant, plus the trace fidelity that the recorded direction is the
expansion path that actually executed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, SSSP
from repro.baselines import reference as ref
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph

ALGORITHM_NAMES = ("bfs", "sssp", "pagerank", "wcc", "kcore", "spmv", "bp")


def _graphs():
    rng = np.random.default_rng(5)
    edges = np.stack(
        [rng.integers(0, 300, size=2400), rng.integers(0, 300, size=2400)],
        axis=1,
    )
    return {
        "rmat": gen.rmat_graph(9, 8, seed=7, name="rmat9"),
        "road": gen.road_network_graph(16, 16, seed=11, name="road"),
        "directed": CSRGraph.from_edges(300, edges, directed=True, name="directed"),
    }


GRAPHS = _graphs()


def _make(name: str, graph: CSRGraph):
    kwargs = {}
    if name in ("bfs", "sssp"):
        kwargs["source"] = int(np.argmax(graph.out_degrees()))
    if name == "kcore":
        kwargs["k"] = 8
    return ALGORITHMS[name](**kwargs)


def _run(graph, algorithm, **config_kwargs):
    result = SIMDXEngine(graph, config=EngineConfig(**config_kwargs)).run(algorithm)
    assert not result.failed, result.failure_reason
    return result


class TestBitIdenticalValues:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
    def test_forced_pull_matches_forced_push(self, graph_name, algorithm_name):
        graph = GRAPHS[graph_name]
        push = _run(
            graph, _make(algorithm_name, graph),
            forced_direction=Direction.PUSH,
        )
        pull = _run(
            graph, _make(algorithm_name, graph),
            forced_direction=Direction.PULL,
        )
        assert np.array_equal(push.values, pull.values)

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("algorithm_name", ALGORITHM_NAMES)
    def test_auto_direction_matches_forced_runs(self, graph_name, algorithm_name):
        graph = GRAPHS[graph_name]
        auto = _run(graph, _make(algorithm_name, graph))
        for forced in (Direction.PUSH, Direction.PULL):
            forced_result = _run(
                graph, _make(algorithm_name, graph),
                forced_direction=forced,
            )
            assert np.array_equal(auto.values, forced_result.values)

    @pytest.mark.parametrize("delta", [8.0, 32.0])
    def test_delta_stepping_sssp_pull_equivalence(self, delta):
        graph = GRAPHS["rmat"]
        src = int(np.argmax(graph.out_degrees()))
        runs = {
            direction: _run(
                graph, SSSP(source=src, delta=delta),
                forced_direction=direction,
            )
            for direction in Direction
        }
        push_values = runs[Direction.PUSH].values
        assert np.array_equal(push_values, runs[Direction.PULL].values)
        expected = ref.sssp_distances(graph, src)
        both_inf = np.isinf(push_values) & np.isinf(expected)
        assert bool(np.all(both_inf | np.isclose(push_values, expected)))


class TestDirectionTraceFidelity:
    def test_forced_direction_is_what_ran(self):
        graph = GRAPHS["rmat"]
        for direction in Direction:
            result = _run(
                graph, _make("bfs", graph),
                forced_direction=direction,
            )
            assert set(result.direction_trace) == {direction.value}
            assert all(
                record.direction == direction.value
                for record in result.iteration_records
            )
            assert result.extra["direction_switches"] == 0

    def test_auto_bfs_runs_genuine_pull_phase(self):
        graph = GRAPHS["rmat"]
        result = _run(graph, _make("bfs", graph))
        assert "pull" in result.direction_trace
        assert result.direction_trace[0] == "push"

    def test_pull_iterations_size_worklists_by_in_degree(self):
        """On a directed graph, a pull iteration's edge total is an in-edge
        count of the gather worklist - it must match an in-degree sum, and
        (in general) differ from the frontier's out-edge count."""
        graph = GRAPHS["directed"]
        engine = SIMDXEngine(
            graph,
            config=EngineConfig(
                forced_direction=Direction.PULL
            ),
        )
        result = engine.run(_make("pagerank", graph))
        assert not result.failed
        in_total = int(graph.in_degrees().sum())
        first = result.iteration_records[0]
        # First iteration: every vertex is active and every vertex with
        # in-edges gathers, so the worklist covers all in-edges.
        assert first.frontier_edges == in_total
        assert engine.pull_classifier.direction is Direction.PULL
        assert np.array_equal(
            engine.pull_classifier._degrees,
            graph.in_degrees(),
        )

    def test_pull_expansion_walks_in_csr(self):
        """The gather path really reads the transpose: it is built lazily
        only once a pull iteration runs."""
        graph = CSRGraph.from_edges(
            300,
            np.stack(
                [
                    np.random.default_rng(9).integers(0, 300, size=2000),
                    np.random.default_rng(10).integers(0, 300, size=2000),
                ],
                axis=1,
            ),
            directed=True,
            name="lazy",
        )
        assert not graph.in_csr_built
        push = _run(
            graph, _make("bfs", graph),
            forced_direction=Direction.PUSH,
        )
        assert not graph.in_csr_built  # pure push never pays the transpose
        pull = _run(
            graph, _make("bfs", graph),
            forced_direction=Direction.PULL,
        )
        assert graph.in_csr_built
        assert np.array_equal(push.values, pull.values)
