"""One entry point per table / figure of the paper's evaluation (Section 7).

Every function takes a :class:`~repro.bench.harness.BenchmarkContext` (which
controls the dataset scale and selection) and returns plain dictionaries /
lists of rows so that the pytest benchmarks, the reporting module and the
examples can all consume them. EXPERIMENTS.md records the observed outputs
next to the paper's numbers; running ``python -m repro.bench.experiments``
regenerates it from :func:`phase_timings` (the per-algorithm, per-phase
timing baseline plus the traffic-model calibration),
:func:`gather_refinement`, :func:`batching_throughput` (the batched
multi-source serving sweep, which is this repository's own experiment
rather than a paper artifact), :func:`shard_scaling` (the sharded
multi-device feasibility sweep, likewise beyond the paper) and
:func:`dynamic_updates` (the dynamic-graph repair and cross-query reuse
sweep - EXPERIMENTS.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.analysis import registry as extra_keys
from repro.bench.harness import (
    BenchmarkContext,
    TABLE4_ALGORITHMS,
    default_sources,
    make_algorithm,
    run_simdx,
)
from repro.core.engine import SIMDXEngine
from repro.core import metrics as core_metrics
from repro.core.direction import DEFAULT_TRAFFIC_MODEL, Direction
from repro.core.engine import EngineConfig
from repro.core.filters import FilterMode
from repro.core.fusion import FusionPlan, FusionStrategy, REGISTERS_TABLE
from repro.core.jit import run_length_pattern
from repro.core.metrics import RunResult, geometric_mean_speedup
from repro.gpu.device import GPUDevice, KNOWN_DEVICES, get_device_spec
from repro.graph.datasets import DATASETS
from repro.graph.properties import summarize


# ----------------------------------------------------------------------
# Figure 5: ACC (atomic-free combine) versus atomic updates
# ----------------------------------------------------------------------
def figure5(ctx: BenchmarkContext, algorithms: Sequence[str] = ("bfs", "sssp")) -> Dict:
    """Speedup of the ACC combine over Gunrock-style atomic updates.

    The paper materializes the *vote* operation with BFS and *aggregation*
    with SSSP and reports ~12% / ~9% average speedup (Figure 5). Here the two
    configurations differ only in how Combine is priced (``atomic_combine``),
    so the measured ratio isolates exactly that design decision.
    """
    rows = []
    for algorithm_name in algorithms:
        kind = "vote" if algorithm_name == "bfs" else "aggregation"
        for abbrev in ctx.datasets:
            acc = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(atomic_combine=False),
            )
            atomic = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(atomic_combine=True),
            )
            speedup = atomic.elapsed_us / acc.elapsed_us if acc.elapsed_us else float("nan")
            rows.append(
                {
                    "graph": abbrev,
                    "algorithm": algorithm_name,
                    "operation": kind,
                    "acc_ms": acc.elapsed_ms,
                    "atomic_ms": atomic.elapsed_ms,
                    "speedup": speedup,
                }
            )
    by_kind = {}
    for kind in ("vote", "aggregation"):
        vals = [r["speedup"] for r in rows if r["operation"] == kind]
        by_kind[kind] = geometric_mean_speedup(vals)
    return {"rows": rows, "average_speedup": by_kind}


# ----------------------------------------------------------------------
# Figure 8: JIT filter activation patterns
# ----------------------------------------------------------------------
def figure8(
    ctx: BenchmarkContext, algorithms: Sequence[str] = ("bfs", "kcore", "sssp")
) -> Dict:
    """Which filter (online / ballot) each iteration used, per graph."""
    rows = []
    for algorithm_name in algorithms:
        for abbrev in ctx.datasets:
            result = ctx.run("simdx", abbrev, algorithm_name)
            trace = result.filter_trace
            ballot_iters = [i + 1 for i, f in enumerate(trace) if f == "ballot"]
            rows.append(
                {
                    "algorithm": algorithm_name,
                    "graph": abbrev,
                    "iterations": result.iterations,
                    "ballot_iterations": ballot_iters,
                    "online_iterations": result.iterations - len(ballot_iters),
                    "pattern": run_length_pattern(trace),
                    "uses_ballot": bool(ballot_iters),
                }
            )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Figure 9(a): overflow-threshold sweep, (b): shadow-online overhead
# ----------------------------------------------------------------------
def figure9a(
    ctx: BenchmarkContext,
    thresholds: Sequence[int] = (1, 4, 16, 64, 256, 1024, 4096, 16384),
    algorithm_name: str = "bfs",
) -> Dict:
    """Relative JIT performance versus the online-filter overflow threshold."""
    per_threshold: Dict[int, List[float]] = {t: [] for t in thresholds}
    for abbrev in ctx.datasets:
        times = {}
        for threshold in thresholds:
            result = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(overflow_threshold=threshold),
            )
            times[threshold] = result.elapsed_us
        best = min(times.values())
        for threshold in thresholds:
            per_threshold[threshold].append(best / times[threshold] if times[threshold] else 0.0)
    rows = [
        {
            "threshold": threshold,
            "relative_performance": float(np.mean(values)) if values else float("nan"),
        }
        for threshold, values in per_threshold.items()
    ]
    best_row = max(rows, key=lambda r: r["relative_performance"])
    return {"rows": rows, "best_threshold": best_row["threshold"]}


def figure9b(ctx: BenchmarkContext, algorithm_name: str = "sssp") -> Dict:
    """Overhead of keeping the online filter running in ballot mode."""
    rows = []
    for abbrev in ctx.datasets:
        with_shadow = ctx.run(
            "simdx", abbrev, algorithm_name,
            config=EngineConfig(shadow_online=True),
        )
        without_shadow = ctx.run(
            "simdx", abbrev, algorithm_name,
            config=EngineConfig(shadow_online=False),
        )
        if without_shadow.elapsed_us:
            overhead = (with_shadow.elapsed_us - without_shadow.elapsed_us) / without_shadow.elapsed_us
        else:
            overhead = 0.0
        rows.append(
            {
                "graph": abbrev,
                "with_shadow_ms": with_shadow.elapsed_ms,
                "without_shadow_ms": without_shadow.elapsed_ms,
                "overhead_percent": 100.0 * overhead,
            }
        )
    avg = float(np.mean([r["overhead_percent"] for r in rows])) if rows else 0.0
    worst = max(rows, key=lambda r: r["overhead_percent"]) if rows else None
    return {"rows": rows, "average_overhead_percent": avg, "max_row": worst}


# ----------------------------------------------------------------------
# Table 2: register consumption and kernel-launch counts
# ----------------------------------------------------------------------
def table2(
    ctx: Optional[BenchmarkContext] = None,
    *,
    reference_graph: str = "LJ",
    algorithm_name: str = "bfs",
) -> Dict:
    """Register footprints per kernel and launch counts per fusion strategy."""
    registers = {
        "push_no_fusion": {
            k.replace("push_", ""): v for k, v in REGISTERS_TABLE.items()
            if k.startswith("push_")
        },
        "pull_no_fusion": {
            k.replace("pull_", ""): v for k, v in REGISTERS_TABLE.items()
            if k.startswith("pull_")
        },
        "selective_fusion": {
            "push": REGISTERS_TABLE["fused_push"],
            "pull": REGISTERS_TABLE["fused_pull"],
        },
        "all_fusion": REGISTERS_TABLE["fused_all"],
    }

    launches = {}
    if ctx is not None:
        for strategy in FusionStrategy:
            result = ctx.run(
                "simdx", reference_graph, algorithm_name,
                config=EngineConfig(fusion=strategy),
            )
            launches[strategy.value] = {
                "kernel_launches": result.kernel_launches,
                "iterations": result.iterations,
                "direction_switches": result.extra.get(extra_keys.DIRECTION_SWITCHES, 0),
            }
    return {"registers": registers, "launches": launches}


# ----------------------------------------------------------------------
# Table 3: dataset inventory
# ----------------------------------------------------------------------
def table3(ctx: BenchmarkContext) -> Dict:
    """Paper graph sizes next to the analogue actually generated."""
    rows = []
    for abbrev in ctx.datasets:
        spec = DATASETS[abbrev]
        graph = ctx.graph(abbrev)
        stats = summarize(graph)
        rows.append(
            {
                "abbrev": abbrev,
                "paper_name": spec.paper_name,
                "category": spec.category,
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "analogue_vertices": graph.num_vertices,
                "analogue_edges": graph.num_edges,
                "diameter_class": spec.diameter_class,
                "analogue_diameter_lb": stats["diameter_lb"],
                "max_degree": stats["max_degree"],
                "degree_gini": stats["degree_gini"],
            }
        )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Table 4: runtime of every system on every graph
# ----------------------------------------------------------------------
def table4(
    ctx: BenchmarkContext,
    algorithms: Sequence[str] = TABLE4_ALGORITHMS,
    systems: Sequence[str] = ("simdx", "cusha", "gunrock", "galois", "ligra"),
) -> Dict:
    """The headline comparison: SIMD-X versus CuSha / Gunrock / Galois / Ligra."""
    cells: List[Dict] = []
    for algorithm_name in algorithms:
        # The paper compares k-Core only against Ligra (other systems do not
        # implement it); mirror that restriction.
        algo_systems = ("simdx", "ligra") if algorithm_name == "kcore" else systems
        for system in algo_systems:
            for abbrev in ctx.datasets:
                result = ctx.run(system, abbrev, algorithm_name)
                cells.append(
                    {
                        "algorithm": algorithm_name,
                        "system": result.system,
                        "system_key": system,
                        "graph": abbrev,
                        "ms": None if result.failed else result.elapsed_ms,
                        "failed": result.failed,
                        "failure_reason": result.failure_reason,
                        "iterations": result.iterations,
                    }
                )

    speedups: Dict[str, Dict[str, float]] = {}
    for algorithm_name in algorithms:
        speedups[algorithm_name] = {}
        simdx = {
            c["graph"]: c for c in cells
            if c["algorithm"] == algorithm_name and c["system_key"] == "simdx"
        }
        for system in systems:
            if system == "simdx":
                continue
            ratios = []
            for c in cells:
                if c["algorithm"] != algorithm_name or c["system_key"] != system:
                    continue
                base = simdx.get(c["graph"])
                if base is None or not base["ms"] or c["ms"] is None:
                    continue
                ratios.append(c["ms"] / base["ms"])
            if ratios:
                speedups[algorithm_name][system] = geometric_mean_speedup(ratios)
    return {"cells": cells, "simdx_speedup_over": speedups}


# ----------------------------------------------------------------------
# Figure 12: JIT task management versus ballot-only and online-only
# ----------------------------------------------------------------------
def figure12(
    ctx: BenchmarkContext, algorithms: Sequence[str] = ("bfs", "kcore", "sssp")
) -> Dict:
    """Speedup of each filter configuration, normalized to the ballot filter."""
    rows = []
    for algorithm_name in algorithms:
        for abbrev in ctx.datasets:
            ballot = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(filter_mode=FilterMode.BALLOT),
            )
            online = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(filter_mode=FilterMode.ONLINE),
            )
            jit = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(filter_mode=FilterMode.JIT),
            )
            rows.append(
                {
                    "algorithm": algorithm_name,
                    "graph": abbrev,
                    "ballot_ms": None if ballot.failed else ballot.elapsed_ms,
                    "online_ms": None if online.failed else online.elapsed_ms,
                    "online_failed": online.failed,
                    "jit_ms": None if jit.failed else jit.elapsed_ms,
                    "online_speedup_vs_ballot": _ratio(ballot, online),
                    "jit_speedup_vs_ballot": _ratio(ballot, jit),
                    # Executed directions of the JIT run (the gather
                    # iterations never overflow the online bins - each
                    # worker records its own destination once - so the
                    # filter choice correlates with the direction phase).
                    "jit_pull_iterations": jit.direction_trace.count("pull"),
                }
            )
    averages = {}
    for algorithm_name in algorithms:
        vals = [
            r["jit_speedup_vs_ballot"]
            for r in rows
            if r["algorithm"] == algorithm_name and r["jit_speedup_vs_ballot"] is not None
        ]
        averages[algorithm_name] = geometric_mean_speedup(vals)
    return {"rows": rows, "jit_speedup_over_ballot": averages}


def _ratio(denominator: RunResult, numerator: RunResult) -> Optional[float]:
    """Speedup of ``numerator`` over ``denominator`` (None if either failed)."""
    if numerator.failed or denominator.failed or numerator.elapsed_us == 0:
        return None
    return denominator.elapsed_us / numerator.elapsed_us


# ----------------------------------------------------------------------
# Figure 13: push-pull fusion versus non-fusion and all-fusion
# ----------------------------------------------------------------------
def figure13(
    ctx: BenchmarkContext,
    algorithms: Sequence[str] = ("bfs", "bp", "kcore", "pagerank", "sssp"),
) -> Dict:
    """Speedup of each fusion strategy, normalized to no fusion."""
    rows = []
    for algorithm_name in algorithms:
        for abbrev in ctx.datasets:
            runs = {}
            for strategy in FusionStrategy:
                runs[strategy] = ctx.run(
                    "simdx", abbrev, algorithm_name,
                    config=EngineConfig(fusion=strategy),
                )
            base = runs[FusionStrategy.NONE]
            push_pull = runs[FusionStrategy.PUSH_PULL]
            switches = push_pull.extra.get(extra_keys.DIRECTION_SWITCHES, 0)
            rows.append(
                {
                    "algorithm": algorithm_name,
                    "graph": abbrev,
                    "non_fusion_ms": base.elapsed_ms,
                    "all_fusion_ms": runs[FusionStrategy.ALL].elapsed_ms,
                    "push_pull_ms": push_pull.elapsed_ms,
                    "all_fusion_speedup": _ratio(base, runs[FusionStrategy.ALL]),
                    "push_pull_speedup": _ratio(base, push_pull),
                    "iterations": base.iterations,
                    # Direction fidelity of the selectively-fused run: the
                    # executed gather iterations, the phase switches, and the
                    # launches those switches forced (Table 2's launch rule:
                    # one per direction phase).
                    "pull_iterations": push_pull.direction_trace.count("pull"),
                    "direction_switches": switches,
                    "push_pull_launches": push_pull.kernel_launches,
                }
            )
    averages = {}
    for algorithm_name in algorithms:
        push_pull = [
            r["push_pull_speedup"] for r in rows
            if r["algorithm"] == algorithm_name and r["push_pull_speedup"]
        ]
        all_fusion = [
            r["all_fusion_speedup"] for r in rows
            if r["algorithm"] == algorithm_name and r["all_fusion_speedup"]
        ]
        averages[algorithm_name] = {
            "push_pull_vs_none": geometric_mean_speedup(push_pull),
            "all_vs_none": geometric_mean_speedup(all_fusion),
        }
    return {"rows": rows, "average_speedups": averages}


# ----------------------------------------------------------------------
# Section 7.3: scaling across GPU generations
# ----------------------------------------------------------------------
def section7_3(
    ctx: BenchmarkContext,
    devices: Sequence[str] = ("K20", "K40", "P100"),
    algorithm_name: str = "bfs",
    systems: Sequence[str] = ("simdx", "gunrock", "cusha"),
) -> Dict:
    """Performance of each system across GPU models, normalized to K20."""
    rows = []
    for system in systems:
        per_device = {}
        for device in devices:
            times = []
            for abbrev in ctx.datasets:
                result = ctx.run(
                    system, abbrev, algorithm_name,
                    device_spec=get_device_spec(device),
                )
                if not result.failed:
                    times.append(result.elapsed_us)
            per_device[device] = float(np.mean(times)) if times else float("nan")
        base = per_device.get(devices[0], float("nan"))
        rows.append(
            {
                "system": system,
                "mean_ms": {d: per_device[d] / 1000.0 for d in devices},
                "speedup_vs_first": {
                    d: (base / per_device[d]) if per_device[d] else float("nan")
                    for d in devices
                },
            }
        )

    # Configurable thread count of SIMD-X's fused kernel per device - the
    # mechanism the paper credits for the better scaling.
    plan = FusionPlan(FusionStrategy.PUSH_PULL)
    thread_counts = {
        d: plan.configurable_threads(get_device_spec(d)) for d in devices
    }
    return {"rows": rows, "simdx_configurable_threads": thread_counts}


# ----------------------------------------------------------------------
# Section 4: worklist-separator stability
# ----------------------------------------------------------------------
def worklist_separators(
    ctx: BenchmarkContext,
    small_medium: Sequence[int] = (4, 16, 32, 64, 128, 512),
    medium_large: Sequence[int] = (128, 256, 512, 2048, 4096),
    algorithm_name: str = "bfs",
    graphs: Optional[Sequence[str]] = None,
) -> Dict:
    """Sensitivity of performance to the small/medium/large separators."""
    graphs = list(graphs) if graphs is not None else list(ctx.datasets)[:4]
    sm_rows = []
    for sep in small_medium:
        times = []
        for abbrev in graphs:
            result = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(
                    small_medium_separator=sep,
                    medium_large_separator=max(2048, sep),
                ),
            )
            times.append(result.elapsed_us)
        sm_rows.append({"separator": sep, "mean_ms": float(np.mean(times)) / 1000.0})
    ml_rows = []
    for sep in medium_large:
        times = []
        for abbrev in graphs:
            result = ctx.run(
                "simdx", abbrev, algorithm_name,
                config=EngineConfig(
                    small_medium_separator=32, medium_large_separator=sep
                ),
            )
            times.append(result.elapsed_us)
        ml_rows.append({"separator": sep, "mean_ms": float(np.mean(times)) / 1000.0})
    return {"small_medium": sm_rows, "medium_large": ml_rows}


# ----------------------------------------------------------------------
# EXPERIMENTS.md baseline: per-phase timings + traffic-model calibration
# ----------------------------------------------------------------------
ALL_ALGORITHMS = ("bfs", "sssp", "pagerank", "wcc", "kcore", "spmv", "bp")

_FORCED_PUSH = EngineConfig(forced_direction=Direction.PUSH)
_FORCED_PULL = EngineConfig(forced_direction=Direction.PULL)


def phase_timings(
    ctx: BenchmarkContext,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
    graphs: Optional[Sequence[str]] = None,
) -> Dict:
    """Per-algorithm, per-phase timing baselines + traffic-model calibration.

    For each (algorithm, graph) cell this runs the default auto-direction
    configuration and folds its iteration trace into consecutive push/pull
    phases (``repro.core.metrics.phase_timings``), then runs forced-push and
    forced-pull configurations and fits the pull traffic-model constants
    back out of the measured timings
    (``repro.core.metrics.calibrate_pull_constants``). The fitted ratio
    ``pull_scan_over_push_edge`` is directly comparable to the shipped
    ``TrafficModel.pull_scan_ops / push_edge_ops``; for voting combines the
    gather terminates early, so their fitted scan cost also reflects
    ``voting_pull_scan_fraction``.
    """
    graphs = list(graphs) if graphs is not None else list(ctx.datasets)
    phase_rows: List[Dict] = []
    trace_rows: List[Dict] = []
    per_algorithm_fit: Dict[str, Dict[str, float]] = {}
    pooled_records: Dict[str, Dict[str, List]] = {
        "aggregation": {"push": [], "pull": []},
        "voting": {"push": [], "pull": []},
    }

    for algorithm_name in algorithms:
        push_records: List = []
        pull_records: List = []
        for abbrev in graphs:
            auto = ctx.run("simdx", abbrev, algorithm_name)
            if auto.failed:
                continue
            for index, phase in enumerate(
                core_metrics.phase_timings(auto.iteration_records)
            ):
                phase_rows.append(
                    {
                        "algorithm": algorithm_name,
                        "graph": abbrev,
                        "phase": index,
                        "direction": phase.direction,
                        "iterations": phase.iterations,
                        "edges": phase.frontier_edges,
                        "active_edges": phase.active_edges,
                        "compute_us": phase.compute_us,
                        "filter_us": phase.filter_us,
                        "total_us": phase.total_us,
                        "us_per_edge": phase.compute_us_per_edge,
                    }
                )
            trace_rows.append(_direction_filter_row(auto, algorithm_name, abbrev))

            push = ctx.run("simdx", abbrev, algorithm_name, config=_FORCED_PUSH)
            pull = ctx.run("simdx", abbrev, algorithm_name, config=_FORCED_PULL)
            if not push.failed:
                push_records.extend(push.iteration_records)
            if not pull.failed:
                pull_records.extend(pull.iteration_records)

        if push_records and pull_records:
            fit = core_metrics.calibrate_pull_constants(push_records, pull_records)
            per_algorithm_fit[algorithm_name] = fit
            kind = ALGORITHMS[algorithm_name].combine_kind.value
            pooled_records[kind]["push"].extend(push_records)
            pooled_records[kind]["pull"].extend(pull_records)

    pooled_fit = {
        kind: core_metrics.calibrate_pull_constants(pool["push"], pool["pull"])
        for kind, pool in pooled_records.items()
        if pool["push"] and pool["pull"]
    }
    model = DEFAULT_TRAFFIC_MODEL
    return {
        "phase_rows": phase_rows,
        "trace_rows": trace_rows,
        "calibration": {
            "per_algorithm": per_algorithm_fit,
            "pooled": pooled_fit,
            "shipped": {
                "push_edge_ops": model.push_edge_ops,
                "pull_scan_ops": model.pull_scan_ops,
                "pull_active_edge_ops": model.pull_active_edge_ops,
                "vertex_ops": model.vertex_ops,
                "voting_pull_scan_fraction": model.voting_pull_scan_fraction,
                "pull_scan_over_push_edge": model.pull_scan_ops / model.push_edge_ops,
            },
        },
    }


def _direction_filter_row(result: RunResult, algorithm_name: str, abbrev: str) -> Dict:
    """Direction-aware JIT fidelity of one run (Figure 8 with directions)."""
    pairs = list(zip(result.direction_trace, result.filter_trace))
    pre_armed = len(result.extra.get(extra_keys.JIT_PRE_ARMED_ITERATIONS, []))
    return {
        "algorithm": algorithm_name,
        "graph": abbrev,
        "iterations": result.iterations,
        "pull_iterations": result.direction_trace.count("pull"),
        "pull_ballot_iterations": sum(
            1 for d, f in pairs if d == "pull" and f == "ballot"
        ),
        "pre_armed_ballots": pre_armed,
        "pattern": run_length_pattern(result.filter_trace),
        "direction_pattern": run_length_pattern(result.direction_trace),
    }


def gather_refinement(
    ctx: BenchmarkContext,
    graphs: Optional[Sequence[str]] = None,
) -> Dict:
    """Effect of frontier-dependent gather-candidate pruning (SSSP / WCC).

    Runs each algorithm forced-pull twice - once as shipped, once with the
    frontier-dependent bound disabled - and compares the total scanned
    in-edges. Values must be bit-identical; the scanned-edge shrink is the
    benefit of pruning settled vertices from the gather worklist.
    """
    from repro.algorithms.sssp import SSSP
    from repro.algorithms.wcc import WCC

    class _UnprunedSSSP(SSSP):
        def gather_mask(self, metadata, graph, frontier=None):
            return super().gather_mask(metadata, graph, None)

    class _UnprunedWCC(WCC):
        def gather_mask(self, metadata, graph, frontier=None):
            return super().gather_mask(metadata, graph, None)

    from repro.bench.harness import default_source

    graphs = list(graphs) if graphs is not None else list(ctx.datasets)
    rows = []
    for algorithm_name, pruned_cls, unpruned_cls in (
        ("sssp", SSSP, _UnprunedSSSP),
        ("wcc", WCC, _UnprunedWCC),
    ):
        for abbrev in graphs:
            graph = ctx.graph(abbrev)
            kwargs = (
                {"source": default_source(graph)} if algorithm_name == "sssp" else {}
            )
            pruned = run_simdx(graph, pruned_cls(**kwargs), config=_FORCED_PULL)
            unpruned = run_simdx(graph, unpruned_cls(**kwargs), config=_FORCED_PULL)
            if pruned.failed or unpruned.failed:
                continue
            identical = bool(np.array_equal(pruned.values, unpruned.values))
            scanned_pruned = sum(r.frontier_edges for r in pruned.iteration_records)
            scanned_unpruned = sum(
                r.frontier_edges for r in unpruned.iteration_records
            )
            rows.append(
                {
                    "algorithm": algorithm_name,
                    "graph": abbrev,
                    "scanned_edges_pruned": scanned_pruned,
                    "scanned_edges_unpruned": scanned_unpruned,
                    "shrink_percent": (
                        100.0 * (1.0 - scanned_pruned / scanned_unpruned)
                        if scanned_unpruned else 0.0
                    ),
                    "elapsed_ms_pruned": pruned.elapsed_ms,
                    "elapsed_ms_unpruned": unpruned.elapsed_ms,
                    "values_identical": identical,
                }
            )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Batched multi-source throughput (the serving story, docs/batching.md)
# ----------------------------------------------------------------------
#: Lane counts the batching experiment sweeps (K concurrent queries).
BATCH_LANE_COUNTS = (1, 4, 16, 64)


def batching_throughput(
    ctx: BenchmarkContext,
    lane_counts: Sequence[int] = BATCH_LANE_COUNTS,
    algorithms: Sequence[str] = ("bfs", "sssp"),
    graphs: Optional[Sequence[str]] = None,
) -> Dict:
    """Queries/sec of ``run_batch`` versus a serial loop over the same K.

    For each (algorithm, graph, K) cell this answers the K highest-degree
    sources once through the batched engine and once as K independent
    ``run`` calls, verifies the batched per-lane values are bit-identical
    to the independent runs, and reports simulated throughput plus the
    amortization bookkeeping (union edges walked vs (edge, lane) pairs
    evaluated - the serial loop walks every pair as a full edge).

    A batch that does not fit the device appears as a failed row (Table-4
    style): the K metadata arrays are the dominant batching memory cost,
    so paper-scale graphs whose single run fits the modeled K40 can OOM at
    higher lane counts.
    """
    graphs = list(graphs) if graphs is not None else list(ctx.datasets)
    rows: List[Dict] = []
    for algorithm_name in algorithms:
        for abbrev in graphs:
            graph = ctx.graph(abbrev)
            counts = sorted(k for k in lane_counts if k <= graph.num_vertices)
            if not counts:
                continue
            # The source sets are nested prefixes (top-K by degree), so one
            # serial sweep serves every lane count - grown lazily, because
            # the baselines of an OOM'd batch cell would never be read.
            all_sources = default_sources(graph, max(counts))
            singles: List[RunResult] = []
            for k in counts:
                sources = all_sources[:k]
                engine = SIMDXEngine(graph, device=GPUDevice(ctx.device_spec))
                batch = engine.run_batch(
                    make_algorithm(algorithm_name, graph), sources
                )
                if batch.failed:
                    rows.append(
                        {
                            "algorithm": algorithm_name,
                            "graph": abbrev,
                            "lanes": k,
                            "failed": True,
                            "failure_reason": batch.failure_reason,
                        }
                    )
                    continue
                while len(singles) < k:
                    singles.append(
                        run_simdx(
                            graph,
                            make_algorithm(
                                algorithm_name, graph,
                                source=all_sources[len(singles)],
                            ),
                            device_spec=ctx.device_spec,
                        )
                    )
                serial_us = sum(s.elapsed_us for s in singles[:k])
                identical = all(
                    np.array_equal(batch.values[lane], singles[lane].values)
                    for lane in range(k)
                )
                rows.append(
                    {
                        "algorithm": algorithm_name,
                        "graph": abbrev,
                        "lanes": k,
                        "failed": False,
                        "batch_ms": batch.elapsed_ms,
                        "serial_ms": serial_us / 1000.0,
                        "batch_qps": batch.queries_per_second,
                        "serial_qps": (
                            k / (serial_us / 1e6) if serial_us else float("nan")
                        ),
                        "speedup": (
                            serial_us / batch.elapsed_us
                            if batch.elapsed_us else float("nan")
                        ),
                        "iterations": batch.iterations,
                        "union_edges": batch.extra[extra_keys.UNION_EDGES_WALKED],
                        "lane_edge_pairs": batch.extra[extra_keys.LANE_EDGE_PAIRS],
                        "values_identical": identical,
                    }
                )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Lane-aware direction selection: split benefit vs decide-once batching
# ----------------------------------------------------------------------
#: Graph shapes where union and lane direction interests diverge: the road
#: analogues (high diameter, frontiers that never individually cross the
#: pull threshold) and the RMAT-family synthetics (skewed but with long
#: barely-pruned SSSP gather tails).
SPLIT_BENEFIT_SHAPES = ("ER", "RC", "KR", "RM")


def split_benefit(
    ctx: BenchmarkContext,
    lane_counts: Sequence[int] = (4, 16),
    algorithms: Sequence[str] = ("sssp", "bfs"),
    graphs: Optional[Sequence[str]] = None,
) -> Dict:
    """Lane-aware direction selection vs decide-once (union) batching.

    For each (algorithm, graph, K) cell this answers the same K queries
    twice - once with ``EngineConfig.lane_aware_split`` (the default) and
    once with the PR-3 decide-once union approximation - verifies the two
    are bit-identical, and compares the scanned-in-edge totals
    (``extra["pull_edges_scanned"]``), the overall walked edges and the
    simulated time. The scanned-edge gap is the cost the union
    approximation pays when it crosses the pull threshold before any
    single lane would (road shapes, barely-pruned SSSP gathers); the
    split/agreed per-lane decisions close it. The time column shows the
    other side of the trade: each extra sub-batch pays its own launches,
    barriers and task-management pass, and on voting combines (BFS) the
    union's shared gather scan is cheap per edge - which is exactly what
    ``EngineConfig.split_margin`` arbitrates.
    """
    if graphs is None:
        graphs = [g for g in ctx.datasets if g in SPLIT_BENEFIT_SHAPES]
        if not graphs:
            graphs = list(ctx.datasets)
    rows: List[Dict] = []
    for algorithm_name in algorithms:
        for abbrev in graphs:
            graph = ctx.graph(abbrev)
            for k in lane_counts:
                if k > graph.num_vertices:
                    continue
                sources = default_sources(graph, k)
                results = {}
                for mode, config in (
                    ("lane_aware", EngineConfig()),
                    ("decide_once", EngineConfig(lane_aware_split=False)),
                ):
                    engine = SIMDXEngine(
                        graph, device=GPUDevice(ctx.device_spec), config=config
                    )
                    results[mode] = engine.run_batch(
                        make_algorithm(algorithm_name, graph), sources
                    )
                on, off = results["lane_aware"], results["decide_once"]
                if on.failed or off.failed:
                    rows.append(
                        {
                            "algorithm": algorithm_name,
                            "graph": abbrev,
                            "lanes": k,
                            "failed": True,
                            "failure_reason": (
                                on.failure_reason or off.failure_reason
                            ),
                        }
                    )
                    continue
                rows.append(
                    {
                        "algorithm": algorithm_name,
                        "graph": abbrev,
                        "lanes": k,
                        "failed": False,
                        "scanned_lane_aware": on.extra[extra_keys.PULL_EDGES_SCANNED],
                        "scanned_decide_once": off.extra[extra_keys.PULL_EDGES_SCANNED],
                        "walked_lane_aware": on.extra[extra_keys.UNION_EDGES_WALKED],
                        "walked_decide_once": off.extra[extra_keys.UNION_EDGES_WALKED],
                        "ms_lane_aware": on.elapsed_ms,
                        "ms_decide_once": off.elapsed_ms,
                        "split_iterations": on.extra[extra_keys.LANE_SPLITS],
                        "values_identical": bool(
                            np.array_equal(on.values, off.values)
                        ),
                    }
                )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Sharded multi-device execution: scaling past one device's memory
# ----------------------------------------------------------------------
#: Graph shapes whose K=16 batch OOMs one modeled K40 (the §5 blank
#: cells): TW's lane metadata lands on top of a near-capacity CSR, ER's
#: 50.9M modeled vertices make the lane arrays alone exceed the device.
SHARD_SCALING_SHAPES = ("TW", "ER")

#: The shard-count sweep: single device (the feasibility baseline the
#: other counts are compared against), then 2 and 4 simulated devices.
SHARD_COUNTS_SWEEP = (1, 2, 4)


def shard_scaling(
    ctx: BenchmarkContext,
    lane_counts: Sequence[int] = (4, 16),
    algorithms: Sequence[str] = ("bfs", "sssp"),
    graphs: Optional[Sequence[str]] = None,
    shard_counts: Sequence[int] = SHARD_COUNTS_SWEEP,
) -> Dict:
    """Batched feasibility and cost versus ``EngineConfig.num_shards``.

    For each (algorithm, graph, K) cell this answers the same K
    highest-degree sources once per shard count. The headline rows are
    the ones where the single-device batch OOMs (its K lane-metadata
    arrays do not fit the modeled K40) but the same batch completes on
    2 and 4 shards, every per-shard peak under the single-device
    budget - the multi-device analogue of Table 4's blank cells. Every
    completed sharded batch is verified bit-identical per lane against
    independent single-source runs, and the boundary-update count
    records the exchange traffic the partition paid for the capacity.
    """
    if graphs is None:
        graphs = [g for g in ctx.datasets if g in SHARD_SCALING_SHAPES]
        if not graphs:
            graphs = list(ctx.datasets)
    rows: List[Dict] = []
    for algorithm_name in algorithms:
        for abbrev in graphs:
            graph = ctx.graph(abbrev)
            for k in lane_counts:
                if k > graph.num_vertices:
                    continue
                sources = default_sources(graph, k)
                reference: Optional[List[np.ndarray]] = None
                for num_shards in shard_counts:
                    engine = SIMDXEngine(
                        graph,
                        device=GPUDevice(ctx.device_spec),
                        config=EngineConfig(num_shards=num_shards),
                    )
                    batch = engine.run_batch(
                        make_algorithm(algorithm_name, graph), sources
                    )
                    if batch.failed:
                        rows.append(
                            {
                                "algorithm": algorithm_name,
                                "graph": abbrev,
                                "lanes": k,
                                "shards": num_shards,
                                "failed": True,
                                "failure_reason": batch.failure_reason,
                                "device": batch.device,
                            }
                        )
                        continue
                    # The oracle is K independent single-source runs
                    # (which always fit: single-run metadata is two
                    # arrays, not 2K) - grown once per cell, lazily,
                    # because an all-OOM cell never reads it.
                    if reference is None:
                        reference = [
                            run_simdx(
                                graph,
                                make_algorithm(
                                    algorithm_name, graph, source=source
                                ),
                                device_spec=ctx.device_spec,
                            ).values
                            for source in sources
                        ]
                    identical = all(
                        np.array_equal(batch.values[lane], reference[lane])
                        for lane in range(k)
                    )
                    if num_shards > 1:
                        peak = max(batch.extra[extra_keys.SHARD_PEAK_BYTES])
                        boundary = batch.extra[
                            extra_keys.SHARD_BOUNDARY_UPDATES
                        ]
                    else:
                        peak = engine.device.profiler.peak_allocated_bytes
                        boundary = 0
                    rows.append(
                        {
                            "algorithm": algorithm_name,
                            "graph": abbrev,
                            "lanes": k,
                            "shards": num_shards,
                            "failed": False,
                            "batch_ms": batch.elapsed_ms,
                            "device": batch.device,
                            "boundary_updates": boundary,
                            "max_peak_bytes": peak,
                            "values_identical": identical,
                        }
                    )
    return {"rows": rows}


# ----------------------------------------------------------------------
# Serving latency under load (src/repro/serve/, docs/serving.md)
# ----------------------------------------------------------------------
#: ``max_wait_ms`` settings the serving sweep compares (the latency /
#: throughput knob of the admission policy).
SERVING_WAIT_SWEEP_MS = (0.5, 2.0, 8.0)

#: Offered load as multiples of the base single-query service rate
#: (1e6 / single-run simulated µs): under-loaded, saturating, over-loaded.
SERVING_LOAD_SWEEP = (0.5, 2.0, 8.0)


def serving_latency(
    ctx: BenchmarkContext,
    *,
    algorithm_name: str = "bfs",
    dataset: Optional[str] = None,
    num_queries: int = 96,
    source_pool: int = 24,
    max_batch: int = 8,
    max_queue: int = 32,
    wait_sweep_ms: Sequence[float] = SERVING_WAIT_SWEEP_MS,
    load_sweep: Sequence[float] = SERVING_LOAD_SWEEP,
    seed: int = 7,
) -> Dict:
    """Simulated serving latency vs offered load per ``max_wait_ms``.

    A deterministic discrete-event simulation of the serving layer
    (``src/repro/serve/``): Poisson arrivals (seeded, precomputed once,
    shared by every cell so the cells differ only in policy and load)
    stream single queries into the *real*
    :class:`~repro.serve.policy.AdmissionPolicy` /
    :class:`~repro.serve.batcher.BatchFormer`, batches dispatch exactly
    when the live server would dispatch them (at ``max_batch``, at the
    oldest query's ``max_wait_ms`` deadline, or when the engine frees up
    with a due batch waiting), and each dispatched composition is priced
    by actually running it through **one reused**
    :class:`SIMDXEngine.run_batch` - the serving contract - with results
    cached per composition. Latency is admission to batch completion in
    simulated time.

    The sweep shows the admission policy's trade: a small ``max_wait_ms``
    keeps p50 low when the system is under-loaded but forfeits batch fill
    (each dispatch amortizes fewer lanes), while a large one buys fill -
    and therefore survivable p99 - at saturation. The over-loaded column
    also exercises shedding: arrivals that find ``max_queue`` live
    queries are dropped and counted, not queued.
    """
    from repro.serve.batcher import BatchFormer, PendingQuery
    from repro.serve.policy import AdmissionPolicy, ServerOverloaded

    abbrev = dataset if dataset is not None else ctx.datasets[0]
    graph = ctx.graph(abbrev)
    pool = default_sources(graph, min(source_pool, graph.num_vertices))

    engine = SIMDXEngine(graph, device=GPUDevice(ctx.device_spec))
    service_cache: Dict[Tuple[int, ...], float] = {}

    def service_us(sources: Tuple[int, ...]) -> float:
        if sources not in service_cache:
            batch = engine.run_batch(
                make_algorithm(algorithm_name, graph, source=sources[0]),
                list(sources),
            )
            if batch.failed:
                raise RuntimeError(
                    f"serving simulation batch failed: {batch.failure_reason}"
                )
            service_cache[sources] = float(batch.elapsed_us)
        return service_cache[sources]

    single_us = service_us((pool[0],))
    base_qps = 1e6 / single_us
    # One arrival pattern for every cell: exponential(1) gaps, scaled by
    # the offered rate per cell. Seeded - repro-lint forbids unseeded RNG.
    gaps = np.random.default_rng(seed).exponential(1.0, size=num_queries)

    rows: List[Dict] = []
    for wait_ms in wait_sweep_ms:
        for load in load_sweep:
            policy = AdmissionPolicy(
                max_batch=max_batch, max_wait_ms=wait_ms, max_queue=max_queue
            )
            former = BatchFormer(policy)
            offered_qps = base_qps * load
            arrivals = np.cumsum(gaps) / offered_qps  # seconds
            pending_at: List[float] = []  # admission times, FIFO
            next_arrival = 0
            engine_free = 0.0
            shed = 0
            latencies: List[float] = []
            fills: List[float] = []
            batches = 0
            while next_arrival < num_queries or pending_at:
                if not pending_at:
                    at = float(arrivals[next_arrival])
                    query = PendingQuery(
                        algorithm=algorithm_name,
                        source=pool[next_arrival % len(pool)],
                        enqueued_at=at,
                    )
                    former.add(query)
                    pending_at.append(at)
                    next_arrival += 1
                    continue
                # When would the live server dispatch the current queue?
                # At the instant it filled to max_batch, at the oldest
                # query's deadline, or when the engine frees up -
                # whichever is latest-but-due.
                if len(pending_at) >= policy.max_batch:
                    due_at = pending_at[policy.max_batch - 1]
                else:
                    due_at = former.next_deadline()
                dispatch_at = max(due_at, engine_free)
                if (
                    next_arrival < num_queries
                    and arrivals[next_arrival] <= dispatch_at
                ):
                    # An arrival lands before the dispatch: admit (or
                    # shed) it first - it may fill the batch earlier.
                    at = float(arrivals[next_arrival])
                    query = PendingQuery(
                        algorithm=algorithm_name,
                        source=pool[next_arrival % len(pool)],
                        enqueued_at=at,
                    )
                    try:
                        former.add(query)
                        pending_at.append(at)
                    except ServerOverloaded:
                        shed += 1
                    next_arrival += 1
                    continue
                batch = former.next_batch(dispatch_at)
                if batch is None:
                    # Float rounding: the deadline (oldest + max_wait_s)
                    # can land an ulp before should_dispatch's re-derived
                    # `now - enqueued_at >= max_wait_s`. A picosecond
                    # nudge is far below every reported statistic.
                    dispatch_at += 1e-12
                    batch = former.next_batch(dispatch_at)
                assert batch is not None  # due_at guarantees dispatchability
                del pending_at[: len(batch)]
                composition = tuple(q.source for q in batch)
                done_at = dispatch_at + service_us(composition) / 1e6
                engine_free = done_at
                batches += 1
                fills.append(len(batch) / policy.max_batch)
                latencies.extend(done_at - q.enqueued_at for q in batch)
            lat_ms = 1e3 * np.asarray(latencies)
            rows.append(
                {
                    "max_wait_ms": wait_ms,
                    "load_multiplier": load,
                    "offered_qps": offered_qps,
                    "served": len(latencies),
                    "shed": shed,
                    "batches": batches,
                    "p50_ms": float(np.percentile(lat_ms, 50)),
                    "p99_ms": float(np.percentile(lat_ms, 99)),
                    "mean_fill": float(np.mean(fills)) if fills else 0.0,
                }
            )
    return {
        "rows": rows,
        "dataset": abbrev,
        "algorithm": algorithm_name,
        "num_queries": num_queries,
        "source_pool": len(pool),
        "max_batch": max_batch,
        "max_queue": max_queue,
        "base_qps": base_qps,
        "single_query_ms": single_us / 1000.0,
        "distinct_compositions": len(service_cache),
    }


# ----------------------------------------------------------------------
# Kernel-backend wall-clock comparison (BENCH_0009.json, docs/kernels.md)
# ----------------------------------------------------------------------
def kernel_backend_wallclock(bench_path: Optional[str] = "BENCH_0009.json") -> Dict:
    """The wall-clock backend comparison rendered as EXPERIMENTS.md §8.

    Wall-clock seconds are host-dependent, so regenerating EXPERIMENTS.md
    must not re-measure them (the document is diffed against the committed
    baseline). When ``bench_path`` exists this loads the committed
    BENCH_*.json record - the same file the CI ``bench-regression`` job
    gates on; only when it is absent does it fall back to measuring via
    :func:`repro.bench.harness.run_wallclock_benchmark`.
    """
    import json
    import os

    from repro.bench.harness import run_wallclock_benchmark

    if bench_path is not None and os.path.exists(bench_path):
        with open(bench_path, "r", encoding="utf-8") as handle:
            return {"record": json.load(handle), "source": bench_path}
    return {"record": run_wallclock_benchmark(), "source": "measured"}


# ----------------------------------------------------------------------
# Dynamic updates and cross-query reuse (beyond the paper)
# ----------------------------------------------------------------------
def dynamic_updates(
    ctx: BenchmarkContext,
    *,
    algorithm_name: str = "bfs",
    dataset: Optional[str] = None,
    update_rates: Sequence[int] = (4, 16, 64),
    rounds: int = 4,
    zipf_exponents: Sequence[float] = (0.0, 0.8, 1.6),
    queries_per_round: int = 12,
    update_rounds: int = 3,
    source_pool: int = 16,
    seed: int = 11,
) -> Dict:
    """Update-rate × query-rate sweep over the dynamic-graph subsystem.

    Two sub-experiments against the same base graph (docs/dynamic.md,
    docs/caching.md):

    * **Repair speedup.** For each update-batch size, seeded random
      insert+delete batches are applied and the previous fixed point is
      repaired incrementally (``IncrementalRecompute``) as well as re-run
      from scratch on the new snapshot; both are bit-identical by
      contract (asserted here), and the simulated-time ratio shows how
      repair cost scales with the touched frontier rather than the graph.
    * **Cache hit-rate vs source skew.** A query stream whose sources are
      drawn from a Zipf distribution over the top-degree source pool runs
      through :class:`~repro.cache.reuse.CachedQueryEngine`, interleaved
      with update batches; the hit/repair/miss split shows how reuse pays
      off as the workload skews toward repeated sources.

    Everything is seeded; the returned rows are deterministic for a fixed
    configuration and rendered as EXPERIMENTS.md §10.
    """
    from repro.cache import CachedQueryEngine
    from repro.dyn import DynamicGraph, EdgeUpdateBatch, IncrementalRecompute

    abbrev = dataset if dataset is not None else ctx.datasets[0]
    graph = ctx.graph(abbrev)
    pool = default_sources(graph, min(source_pool, graph.num_vertices))
    source = pool[0]

    def random_batch(dyn: DynamicGraph, rng, size: int) -> EdgeUpdateBatch:
        n = dyn.num_vertices
        ins = rng.integers(0, n, size=(size, 2))
        ins = ins[ins[:, 0] != ins[:, 1]]
        weights = rng.uniform(0.5, 3.0, size=len(ins))
        edges = dyn.snapshot().to_edge_array()
        picks = rng.choice(
            len(edges), size=min(size, len(edges)), replace=False
        )
        return EdgeUpdateBatch.of(
            inserts=ins, insert_weights=weights, deletes=edges[picks]
        )

    repair_rows: List[Dict] = []
    for batch_size in update_rates:
        rng = np.random.default_rng(seed * 31 + batch_size)
        dyn = DynamicGraph(graph)
        recompute = IncrementalRecompute()
        warm = (
            SIMDXEngine(dyn.snapshot())
            .run(make_algorithm(algorithm_name, graph, source=source))
            .values
        )
        repair_us: List[float] = []
        scratch_us: List[float] = []
        resets: List[int] = []
        seeds: List[int] = []
        for _ in range(rounds):
            receipt = dyn.apply(random_batch(dyn, rng, batch_size))
            repaired = recompute.run(
                receipt,
                make_algorithm(algorithm_name, graph, source=source),
                warm,
            )
            scratch = SIMDXEngine(receipt.new_graph).run(
                make_algorithm(algorithm_name, graph, source=source)
            )
            if repaired.failed or scratch.failed:
                raise RuntimeError("dynamic-updates benchmark run failed")
            if not np.array_equal(repaired.values, scratch.values):
                raise RuntimeError(
                    "incremental repair diverged from scratch - the "
                    "exactness contract is broken"
                )
            repair_us.append(float(repaired.elapsed_us))
            scratch_us.append(float(scratch.elapsed_us))
            resets.append(
                int(repaired.extra[extra_keys.DYN_REPAIR_RESET_VERTICES])
            )
            seeds.append(
                int(repaired.extra[extra_keys.DYN_REPAIR_SEED_VERTICES])
            )
            warm = repaired.values
        mean_repair = sum(repair_us) / len(repair_us)
        mean_scratch = sum(scratch_us) / len(scratch_us)
        repair_rows.append(
            {
                "updates_per_batch": batch_size,
                "rounds": rounds,
                "mean_repair_us": mean_repair,
                "mean_scratch_us": mean_scratch,
                "speedup": (
                    mean_scratch / mean_repair if mean_repair > 0 else None
                ),
                "mean_reset_vertices": sum(resets) / len(resets),
                "mean_seed_vertices": sum(seeds) / len(seeds),
                "values_identical": True,
            }
        )

    cache_rows: List[Dict] = []
    for exponent in zipf_exponents:
        rng = np.random.default_rng(seed * 97 + int(exponent * 10))
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        probs = ranks ** -exponent
        probs /= probs.sum()
        qe = CachedQueryEngine(graph)
        for _ in range(update_rounds):
            for _ in range(queries_per_round):
                picked = int(rng.choice(len(pool), p=probs))
                qe.query(algorithm_name, pool[picked])
            update = random_batch(qe.dyn, rng, 4)
            qe.update(
                inserts=update.inserts,
                insert_weights=update.insert_weights,
                deletes=update.deletes,
                refresh_landmarks=True,
            )
        stats = qe.stats
        queries = update_rounds * queries_per_round
        hits = int(stats["hits"])
        repairs = int(stats["stale_hits"])
        cache_rows.append(
            {
                "zipf_exponent": exponent,
                "queries": queries,
                "updates": update_rounds,
                "hits": hits,
                "repairs": repairs,
                "misses": int(stats["misses"]),
                "hit_rate": hits / queries,
                "reuse_rate": (hits + repairs) / queries,
                "landmarks_refreshed": int(stats["landmarks_refreshed"]),
            }
        )

    return {
        "dataset": abbrev,
        "algorithm": algorithm_name,
        "source_pool": len(pool),
        "queries_per_round": queries_per_round,
        "update_rounds": update_rounds,
        "repair_rows": repair_rows,
        "cache_rows": cache_rows,
    }


def generate_experiments_md(
    path: str = "EXPERIMENTS.md",
    *,
    scale: float = 0.5,
    datasets: Sequence[str] = ("LJ", "TW", "ER", "RC"),
) -> str:
    """Run the baseline experiments and write EXPERIMENTS.md.

    The default configuration keeps the run small (two skewed + two
    high-diameter graphs at half scale) so regeneration stays cheap; the
    committed file is the baseline future PRs diff against.
    """
    from repro.bench.reporting import render_experiments_md

    ctx = BenchmarkContext(scale=scale, datasets=tuple(datasets))
    timings = phase_timings(ctx)
    refinement = gather_refinement(ctx)
    batching = batching_throughput(ctx)
    split = split_benefit(ctx)
    shard = shard_scaling(ctx)
    kernel = kernel_backend_wallclock()
    serving = serving_latency(ctx)
    dynamic = dynamic_updates(ctx)
    text = render_experiments_md(
        timings, refinement, batching=batching, split=split, shard=shard,
        kernel=kernel, serving=serving, dynamic=dynamic,
        scale=scale, datasets=datasets,
    )
    with open(path, "w") as handle:
        handle.write(text)
    return text


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate_experiments_md(target)
    print(f"wrote {target}")
