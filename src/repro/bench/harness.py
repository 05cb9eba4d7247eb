"""Run-matrix utilities for the experiment suite.

The experiments sweep (system x algorithm x graph x device); this module
holds the shared plumbing: deterministic source selection, algorithm
construction, running one configuration, and caching of graphs and
functional traces so an 11-graph sweep does not recompute the same BFS five
times for five systems.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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


# ----------------------------------------------------------------------
# Wall-clock kernel-backend benchmark (``python -m repro.bench.harness``)
# ----------------------------------------------------------------------
#: Schema version of the emitted BENCH_*.json records.
BENCH_SCHEMA_VERSION = 1

#: Algorithms of the wall-clock backend benchmark. Chosen so the pure-loop
#: python backend stays tractable while still covering a traversal (bfs),
#: a weighted traversal (sssp) and an all-active iterative kernel
#: (pagerank) - the three workloads the acceptance gate pins.
BENCH_ALGORITHMS = ("bfs", "sssp", "pagerank")

#: Default datasets for the wall-clock benchmark; override with the
#: ``REPRO_BENCH_DATASETS`` environment variable (comma-separated).
BENCH_DATASETS = ("LJ", "RC")

#: Default dataset scale for the wall-clock benchmark. Deliberately small:
#: the python backend walks every edge in an interpreter loop and the CI
#: regression job re-runs the full matrix on every push.
BENCH_SCALE = 0.25


class BenchSelfCheckError(RuntimeError):
    """Two same-seed benchmark runs disagreed - the run is not deterministic."""


def host_fingerprint() -> Dict[str, str]:
    """Platform/interpreter identity stored alongside wall-clock numbers.

    Wall-clock seconds are only comparable on similar hosts; the
    regression gate therefore compares backend *ratios* and uses this
    record purely to document where the committed baseline was measured.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: Target duration of one timed sample; cells faster than this run in an
#: auto-calibrated inner loop (timeit-style) so interpreter noise cannot
#: swamp the measurement.
_SAMPLE_TARGET_S = 0.2
_MAX_INNER_RUNS = 64


def _run_cell(context: BenchmarkContext, abbrev: str, algorithm_name: str,
              backend: str) -> RunResult:
    graph = context.graph(abbrev)  # cached: loading stays outside the clock
    algorithm = make_algorithm(algorithm_name, graph)
    result = run_simdx(graph, algorithm, device_spec=context.device_spec,
                       config=EngineConfig(kernel_backend=backend))
    if result.failed:
        raise RuntimeError(
            f"benchmark run failed: {abbrev}/{algorithm_name}/{backend}"
        )
    return result


def _timed_sample(context: BenchmarkContext, abbrev: str, algorithm_name: str,
                  backend: str, inner: int) -> float:
    """Wall-clock of one sample: ``inner`` back-to-back runs, per-run mean."""
    start = time.perf_counter()
    for _ in range(inner):
        _run_cell(context, abbrev, algorithm_name, backend)
    return (time.perf_counter() - start) / inner


def _deterministic_fields(result: RunResult) -> Dict[str, object]:
    """The exactly-reproducible slice of a run (everything but wall-clock)."""
    return {
        "iterations": int(result.iterations),
        "simulated_us": float(result.elapsed_us),
        "kernel_launches": int(result.kernel_launches),
        "kernel_edges_walked": int(result.extra["kernel_edges_walked"]),
        "frontier_edges_total": int(
            sum(r.frontier_edges for r in result.iteration_records)
        ),
    }


def run_wallclock_benchmark(
    *,
    scale: float = BENCH_SCALE,
    datasets: Iterable[str] = BENCH_DATASETS,
    algorithms: Iterable[str] = BENCH_ALGORITHMS,
    repeats: int = 5,
    device: str = "K40",
    bench_id: str = "BENCH_0000",
) -> Dict[str, object]:
    """Measure both kernel backends and return a BENCH_*.json record.

    ``bench_id`` names the emitted record (``BENCH_<pr>``): each PR
    commits its own record so the wall-clock trajectory accumulates;
    ``tools/bench_compare.py`` gates consecutive records against each
    other.

    Protocol, per (dataset, algorithm, backend) cell:

    * the graph cache is primed (untimed) before anything starts a
      clock - graph loading stays outside every measurement, including
      the calibration estimate below;
    * two untimed same-seed runs first; their deterministic fields
      (simulated time, iteration count, scanned-edge counters) and result
      values must agree exactly - a mismatch raises
      :class:`BenchSelfCheckError`. The two backends must additionally be
      bit-identical to each other on values and deterministic fields.
    * the untimed runs also calibrate a timeit-style inner loop so every
      timed sample lasts at least ~0.2s - sub-50ms cells would otherwise
      drown a 15% CI gate in interpreter/scheduler noise.
    * ``repeats`` timed samples per backend, interleaved across backends
      so machine-wide slowdowns hit both backends alike; the reported
      wall-clock is the minimum sample (per-run mean within a sample).
    """
    if repeats < 2:
        raise ValueError("repeats must be >= 2 for the same-seed self-check")
    context = BenchmarkContext(scale=scale, datasets=tuple(datasets),
                               device=device)
    benchmarks: List[Dict[str, object]] = []
    for abbrev in context.datasets:
        # Prime the graph cache so the first cell's calibration estimate
        # never times the cold dataset build: an inflated estimate would
        # under-calibrate inner_runs and leave that cell's samples short
        # of _SAMPLE_TARGET_S (extra noise under the 15% CI gate).
        context.graph(abbrev)
        for algorithm_name in algorithms:
            per_backend: Dict[str, Dict[str, object]] = {}
            inner_runs: Dict[str, int] = {}
            reference: Optional[RunResult] = None
            shared: Optional[Dict[str, object]] = None
            for backend in ("python", "numpy"):
                # Untimed warmup pair: same-seed determinism self-check
                # plus the duration estimate for inner-loop calibration.
                start = time.perf_counter()
                first = _run_cell(context, abbrev, algorithm_name, backend)
                estimate = time.perf_counter() - start
                second = _run_cell(context, abbrev, algorithm_name, backend)
                fields = _deterministic_fields(first)
                if _deterministic_fields(second) != fields:
                    raise BenchSelfCheckError(
                        f"{abbrev}/{algorithm_name}/{backend}: same-seed "
                        f"repeats disagree on deterministic fields"
                    )
                if not np.array_equal(second.values, first.values):
                    raise BenchSelfCheckError(
                        f"{abbrev}/{algorithm_name}/{backend}: same-seed "
                        f"repeats disagree on result values"
                    )
                if reference is None:
                    reference, shared = first, fields
                else:
                    if fields != shared:
                        raise BenchSelfCheckError(
                            f"{abbrev}/{algorithm_name}: backends disagree on "
                            f"deterministic fields: {shared} vs {fields}"
                        )
                    if not np.array_equal(first.values, reference.values):
                        raise BenchSelfCheckError(
                            f"{abbrev}/{algorithm_name}: backends disagree on "
                            f"result values"
                        )
                inner_runs[backend] = min(
                    _MAX_INNER_RUNS,
                    max(1, int(_SAMPLE_TARGET_S / max(estimate, 1e-6)) + 1),
                )
            samples: Dict[str, List[float]] = {"python": [], "numpy": []}
            for _ in range(repeats):
                for backend in ("python", "numpy"):
                    samples[backend].append(_timed_sample(
                        context, abbrev, algorithm_name, backend,
                        inner_runs[backend],
                    ))
            for backend in ("python", "numpy"):
                per_backend[backend] = {
                    "wall_clock_s": min(samples[backend]),
                    "inner_runs": inner_runs[backend],
                }
            speedup = (
                per_backend["python"]["wall_clock_s"]
                / per_backend["numpy"]["wall_clock_s"]
            )
            entry: Dict[str, object] = {
                "dataset": abbrev,
                "algorithm": algorithm_name,
                "backends": per_backend,
                "speedup_numpy_over_python": speedup,
            }
            entry.update(shared or {})
            benchmarks.append(entry)
    return {
        "bench_id": bench_id,
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "scale": scale,
            "datasets": list(context.datasets),
            "algorithms": list(algorithms),
            "repeats": repeats,
            "device": device,
        },
        "host": host_fingerprint(),
        "benchmarks": benchmarks,
    }


def bench_datasets_from_env(default: Iterable[str] = BENCH_DATASETS) -> List[str]:
    """Dataset list from ``REPRO_BENCH_DATASETS`` (comma-separated) or default."""
    raw = os.environ.get("REPRO_BENCH_DATASETS", "")
    names = [part.strip().upper() for part in raw.split(",") if part.strip()]
    return names or list(default)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: measure the kernel backends and optionally emit BENCH JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="Wall-clock benchmark of the kernel backends "
                    "(python loop reference vs numpy vectorized).",
    )
    parser.add_argument("--emit-bench-json", metavar="PATH", default=None,
                        help="write the benchmark record to PATH as JSON")
    parser.add_argument("--bench-id", default="BENCH_0000",
                        help="record id of the emitted JSON, BENCH_<pr> "
                             "(default %(default)s)")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE,
                        help="dataset scale factor (default %(default)s)")
    parser.add_argument("--datasets", default=None,
                        help="comma-separated dataset abbreviations "
                             "(default: $REPRO_BENCH_DATASETS or LJ,RC)")
    parser.add_argument("--algorithms", default=",".join(BENCH_ALGORITHMS),
                        help="comma-separated algorithms (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed samples per cell (default %(default)s)")
    args = parser.parse_args(argv)
    if args.datasets is not None:
        datasets = [p.strip().upper() for p in args.datasets.split(",")
                    if p.strip()]
    else:
        datasets = bench_datasets_from_env()
    algorithms = [p.strip().lower() for p in args.algorithms.split(",")
                  if p.strip()]
    record = run_wallclock_benchmark(
        scale=args.scale, datasets=datasets, algorithms=algorithms,
        repeats=args.repeats, bench_id=args.bench_id,
    )
    header = f"{'dataset':>8} {'algorithm':>10} {'python_s':>10} " \
             f"{'numpy_s':>10} {'speedup':>8}"
    print(header)
    for entry in record["benchmarks"]:
        backends = entry["backends"]
        print(f"{entry['dataset']:>8} {entry['algorithm']:>10} "
              f"{backends['python']['wall_clock_s']:>10.4f} "
              f"{backends['numpy']['wall_clock_s']:>10.4f} "
              f"{entry['speedup_numpy_over_python']:>8.2f}")
    if args.emit_bench_json:
        with open(args.emit_bench_json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote {args.emit_bench_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI in CI
    raise SystemExit(main())
