"""Run-matrix utilities for the experiment suite.

The experiments sweep (system x algorithm x graph x device); this module
holds the shared plumbing: deterministic source selection, algorithm
construction, running one configuration, and caching of graphs and of
executions. Every system prices a cached SIMD-X execution - SIMD-X its
own configuration's, the four baselines the forced-push run of
:func:`repro.baselines.common.execute` - so a sweep over fusion
strategies, devices, baselines or repeated default cells executes each
run once.
It reports simulated time only; host wall-clock is measured by
``python -m perfbench`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.baselines import SYSTEMS
from repro.baselines.common import PRICED_CONFIG
from repro.core.acc import ACCAlgorithm
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import RunResult
from repro.core.pricing import priced_result
from repro.core.superstep import place_static
from repro.gpu.device import (
    DeviceOutOfMemory, GPUSpec, K40, get_device_spec,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_ORDER, load_dataset
from repro.shard.partition import ShardPlan

#: Paper Table 4 evaluates these four algorithms across systems.
TABLE4_ALGORITHMS = ("bfs", "pagerank", "sssp", "kcore")

#: The board cached executions run on: a run executes the same on every
#: device, and each cell checks memory on the spec it is priced on.
EXECUTION_SPEC = replace(K40, global_memory_bytes=sys.maxsize)


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


@dataclass
class BenchmarkContext:
    """Caches graphs and the executions every cell of a sweep prices.

    An execution is keyed by (graph, algorithm, ``EngineConfig`` without
    ``fusion``): what a run executes depends on neither the fusion strategy
    nor the device. A SIMD-X cell first places the run's static footprint
    on its own device - a cell that cannot hold it fails as an OOM without
    executing - then prices the execution on that device under its own
    fusion, transient buffers included. A baseline cell prices the
    forced-push run every baseline shares
    (:data:`~repro.baselines.common.PRICED_CONFIG`).

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
    _executions: Dict[tuple, RunResult] = field(default_factory=dict, repr=False)

    @property
    def device_spec(self) -> GPUSpec:
        return get_device_spec(self.device)

    def graph(self, abbrev: str) -> CSRGraph:
        key = abbrev.upper()
        if key not in self._graphs:
            self._graphs[key] = load_dataset(key, self.scale)
        return self._graphs[key]

    def execution(
        self, abbrev: str, algorithm_name: str, config: EngineConfig
    ) -> RunResult:
        """The SIMD-X run of one cell, executed once per session on
        :data:`EXECUTION_SPEC` and kept without its ``values``."""
        key = (
            abbrev.upper(), algorithm_name.lower(),
            *(value for name, value in vars(config).items() if name != "fusion"),
        )
        if key not in self._executions:
            graph = self.graph(abbrev)
            engine = SIMDXEngine(graph, EXECUTION_SPEC, config)
            # Cells price the records; none reads the values, so the
            # session keeps none (one n-sized array per cached execution).
            self._executions[key] = replace(
                engine.run(make_algorithm(algorithm_name, graph)), values=None
            )
        return self._executions[key]

    def run(
        self,
        system: str,
        abbrev: str,
        algorithm_name: str,
        *,
        config: Optional[EngineConfig] = None,
        device_spec: Optional[GPUSpec] = None,
    ) -> RunResult:
        """Run one (system, graph, algorithm) cell of the matrix: ``simdx``
        or a :data:`~repro.baselines.SYSTEMS` key (``config`` is SIMD-X's)."""
        spec = device_spec or self.device_spec
        key = system.lower()
        graph = self.graph(abbrev)
        if key == "simdx":
            config = config or EngineConfig()
            shards = config.num_shards
            plan = ShardPlan.build(graph, shards) if shards > 1 else None
            try:
                static = place_static(spec, graph, None, plan)
            except DeviceOutOfMemory:
                # A run there fails the same way, before it executes.
                return SIMDXEngine(graph, spec, config).run(
                    make_algorithm(algorithm_name, graph)
                )
            execution = self.execution(abbrev, algorithm_name, config)
            return priced_result(execution, spec, config.fusion, static)
        if key not in SYSTEMS:
            raise KeyError(f"unknown system {system!r}; known: simdx, {list(SYSTEMS)}")
        cls = SYSTEMS[key]
        baseline = cls(spec) if key in ("gunrock", "cusha") else cls()
        return baseline.run(
            make_algorithm(algorithm_name, graph), graph,
            execution=self.execution(abbrev, algorithm_name, PRICED_CONFIG),
        )
