"""Run-matrix utilities for the experiment suite.

The experiments sweep (system x algorithm x graph x device); this module
holds the shared plumbing: deterministic source selection, algorithm
construction, running one configuration, and caching of graphs and
functional traces so an 11-graph sweep does not recompute the same BFS five
times for five systems. It reports simulated time only; host wall-clock is
measured by ``python -m perfbench`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.baselines import CuShaLike, GaloisLike, GunrockLike, LigraLike
from repro.baselines.common import ExecutionTrace, trace_execution
from repro.core.acc import ACCAlgorithm
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import RunResult
from repro.gpu.device import GPUDevice, GPUSpec, K40, get_device_spec
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_ORDER, load_dataset

#: Systems understood by :func:`run_system`.
SYSTEM_NAMES = ("simdx", "gunrock", "cusha", "galois", "ligra")

#: Paper Table 4 evaluates these four algorithms across systems.
TABLE4_ALGORITHMS = ("bfs", "pagerank", "sssp", "kcore")


def default_source(graph: CSRGraph) -> int:
    """Deterministic traversal source: the highest-out-degree vertex.

    The paper averages over 64 random sources; for a deterministic,
    reproducible harness we instead pick the hub vertex, which guarantees the
    traversal reaches the giant component on every dataset analogue.
    """
    degrees = graph.out_degrees()
    if degrees.size == 0:
        return 0
    return int(np.argmax(degrees))


def default_sources(graph: CSRGraph, k: int) -> List[int]:
    """Deterministic K-query source set: the K highest-out-degree vertices.

    Extends :func:`default_source` to the batched experiments
    (``SIMDXEngine.run_batch``): distinct hubs, all inside the giant
    component, stable across runs. ``k`` may not exceed the vertex count.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    degrees = graph.out_degrees()
    if k > degrees.size:
        raise ValueError(f"k={k} exceeds the graph's {degrees.size} vertices")
    # Descending degree with ties broken by *lowest* vertex id, so the
    # first entry is exactly default_source's np.argmax pick.
    order = np.argsort(-degrees, kind="stable")
    return [int(v) for v in order[:k]]


def make_algorithm(name: str, graph: CSRGraph, **kwargs) -> ACCAlgorithm:
    """Instantiate an algorithm with benchmark-default parameters."""
    key = name.lower()
    if key not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    if key in ("bfs", "sssp"):
        kwargs.setdefault("source", default_source(graph))
    if key == "kcore":
        kwargs.setdefault("k", 16)
    if key == "bp":
        kwargs.setdefault("num_iterations", 10)
    if key == "pagerank":
        kwargs.setdefault("tolerance", 1e-3)
    return ALGORITHMS[key](**kwargs)


def run_simdx(
    graph: CSRGraph,
    algorithm: ACCAlgorithm,
    *,
    device_spec: GPUSpec = K40,
    config: Optional[EngineConfig] = None,
    **params,
) -> RunResult:
    """Run SIMD-X with the given configuration on one graph."""
    engine = SIMDXEngine(graph, device=GPUDevice(device_spec), config=config)
    return engine.run(algorithm, **params)


def run_system(
    system: str,
    graph: CSRGraph,
    algorithm: ACCAlgorithm,
    *,
    device_spec: GPUSpec = K40,
    config: Optional[EngineConfig] = None,
    trace: Optional[ExecutionTrace] = None,
    **params,
) -> RunResult:
    """Run one named system (``simdx`` / ``gunrock`` / ``cusha`` / ...)."""
    key = system.lower()
    if key == "simdx":
        return run_simdx(
            graph, algorithm, device_spec=device_spec, config=config, **params
        )
    if key == "gunrock":
        return GunrockLike(GPUDevice(device_spec)).run(
            algorithm, graph, trace=trace, **params
        )
    if key == "cusha":
        return CuShaLike(GPUDevice(device_spec)).run(
            algorithm, graph, trace=trace, **params
        )
    if key == "galois":
        return GaloisLike().run(algorithm, graph, trace=trace, **params)
    if key == "ligra":
        return LigraLike().run(algorithm, graph, trace=trace, **params)
    raise KeyError(f"unknown system {system!r}; known: {SYSTEM_NAMES}")


@dataclass
class BenchmarkContext:
    """Caches graphs and functional traces across an experiment sweep.

    Parameters
    ----------
    scale:
        Dataset scale factor passed to :func:`repro.graph.datasets.load_dataset`.
    datasets:
        Which dataset abbreviations to sweep (defaults to the paper's 11).
    device:
        Device spec name used for the GPU systems (default K40).
    """

    scale: float = 1.0
    datasets: Tuple[str, ...] = tuple(DATASET_ORDER)
    device: str = "K40"
    _graphs: Dict[str, CSRGraph] = field(default_factory=dict, repr=False)
    _traces: Dict[Tuple[str, str], ExecutionTrace] = field(default_factory=dict, repr=False)

    @property
    def device_spec(self) -> GPUSpec:
        return get_device_spec(self.device)

    def graph(self, abbrev: str) -> CSRGraph:
        key = abbrev.upper()
        if key not in self._graphs:
            self._graphs[key] = load_dataset(key, self.scale)
        return self._graphs[key]

    def trace(self, abbrev: str, algorithm_name: str) -> ExecutionTrace:
        """Functional trace shared across baseline cost models."""
        key = (abbrev.upper(), algorithm_name.lower())
        if key not in self._traces:
            graph = self.graph(abbrev)
            algorithm = make_algorithm(algorithm_name, graph)
            self._traces[key] = trace_execution(algorithm, graph)
        return self._traces[key]

    def run(
        self,
        system: str,
        abbrev: str,
        algorithm_name: str,
        *,
        config: Optional[EngineConfig] = None,
        device_spec: Optional[GPUSpec] = None,
    ) -> RunResult:
        """Run one (system, graph, algorithm) cell of the matrix."""
        graph = self.graph(abbrev)
        algorithm = make_algorithm(algorithm_name, graph)
        trace = None
        if system.lower() not in ("simdx",):
            trace = self.trace(abbrev, algorithm_name)
        return run_system(
            system,
            graph,
            algorithm,
            device_spec=device_spec or self.device_spec,
            config=config,
            trace=trace,
        )
