"""Shared fixtures for the test suite.

Graphs used across tests are small (hundreds to a few thousand vertices) so
the whole suite runs in well under a minute; structural variety (chain, star,
grid, skewed R-MAT, two-level clusters) is what matters for exercising the
filters, worklists and algorithms.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core.engine import EngineConfig, SIMDXEngine
from repro.gpu.device import K40
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests import graphs


@pytest.fixture
def armed_by_env(monkeypatch):
    """``REPRO_SANITIZE=1`` (CI's static-analysis job) arms the runtime
    sanitizer in every engine the test builds; otherwise nothing changes.
    A suite whose assertions hold for plain and armed engines alike opts
    in with ``pytestmark = pytest.mark.usefixtures("armed_by_env")``."""
    if os.environ.get("REPRO_SANITIZE", "") != "1":
        return
    plain_init = SIMDXEngine.__init__

    def armed_init(self, graph, spec=K40, config=None):
        config = dataclasses.replace(config or EngineConfig(), sanitize=True)
        plain_init(self, graph, spec, config)

    monkeypatch.setattr(SIMDXEngine, "__init__", armed_init)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The 9-vertex example graph of Figure 1 (a..i -> 0..8)."""
    edges = [
        (0, 1, 5.0),   # a-b
        (0, 3, 1.0),   # a-d
        (1, 2, 1.0),   # b-c
        (1, 4, 1.0),   # b-e
        (2, 5, 2.0),   # c-f
        (3, 4, 2.0),   # d-e
        (4, 5, 1.0),   # e-f
        (4, 6, 3.0),   # e-g
        (4, 7, 4.0),   # e-h
        (4, 8, 6.0),   # e-i
    ]
    arr = np.array([(s, d) for s, d, _ in edges], dtype=np.int64)
    weights = np.array([w for _, _, w in edges], dtype=np.float64)
    return CSRGraph.from_edges(9, arr, weights, directed=False, name="figure1")


@pytest.fixture
def chain_graph() -> CSRGraph:
    return graphs.chain_graph(64, seed=1)


@pytest.fixture
def star_graph() -> CSRGraph:
    return graphs.star_graph(200, seed=2)


@pytest.fixture
def grid_graph() -> CSRGraph:
    return gen.grid_graph(12, 12, seed=3)


@pytest.fixture
def rmat_graph() -> CSRGraph:
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


@pytest.fixture
def road_graph() -> CSRGraph:
    return gen.road_network_graph(24, 24, seed=11, name="road")


@pytest.fixture
def clustered_graph() -> CSRGraph:
    return graphs.two_level_graph(4, 12, 10, seed=13)


@pytest.fixture
def directed_graph() -> CSRGraph:
    rng = np.random.default_rng(5)
    n, m = 300, 2400
    edges = np.stack(
        [rng.integers(0, n, size=m), rng.integers(0, n, size=m)], axis=1
    )
    return CSRGraph.from_edges(n, edges, directed=True, name="directed")


@pytest.fixture
def engine_factory():
    """Factory building an engine for a graph with an optional config."""

    def make(graph: CSRGraph, config: EngineConfig | None = None) -> SIMDXEngine:
        return SIMDXEngine(graph, K40, config)

    return make


def assert_distances_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Compare distance arrays treating +inf (unreachable) as equal."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    both_inf = np.isinf(actual) & np.isinf(expected)
    close = np.isclose(actual, expected)
    assert bool(np.all(both_inf | close)), "distance arrays differ"
