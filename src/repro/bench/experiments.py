"""The evaluation as data: a sweep function and a registry entry per experiment.

Every sweep function takes a :class:`~repro.bench.harness.BenchmarkContext`
(which controls the dataset scale and selection) and returns plain
dictionaries / lists of rows; its sweep axes are literals in its body. The
ordered :data:`EXPERIMENTS` registry at the bottom of this module binds each
function to a key, a title and the :class:`~repro.bench.reporting.Table`
specs (columns, prose, EXPERIMENTS.md section numbers) that
:func:`repro.bench.reporting.render` turns into text or markdown. The
``benchmarks/`` tests, ``examples/reproduce_paper.py`` and
:func:`generate_experiments_md` (``python -m repro.bench.experiments``) are
loops or lookups over that registry, so adding an experiment is one function
plus one entry here and its ``benchmarks/`` test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.analysis import registry as extra_keys
from repro.bench.harness import (
    BenchmarkContext,
    TABLE4_ALGORITHMS,
    default_source,
    default_sources,
    make_algorithm,
)
from repro.bench.reporting import Table, render
from repro.core.engine import SIMDXEngine
from repro.core import metrics as core_metrics
from repro.core.direction import DEFAULT_TRAFFIC_MODEL, Direction
from repro.core.engine import EngineConfig
from repro.core.filters import FilterMode
from repro.core.fusion import FusionPlan, FusionStrategy, REGISTERS_TABLE
from repro.core.jit import run_length_pattern
from repro.core.metrics import BatchRunResult, RunResult, geometric_mean_speedup
from repro.core.superstep import place_static
from repro.gpu.device import get_device_spec
from repro.graph.datasets import DATASETS
from repro.graph.properties import summarize


# ----------------------------------------------------------------------
# Figure 5: ACC (atomic-free combine) versus atomic updates
# ----------------------------------------------------------------------
def figure5(ctx: BenchmarkContext) -> Dict:
    """Speedup of the ACC combine over Gunrock-style atomic updates.

    The paper materializes the *vote* operation with BFS and *aggregation*
    with SSSP and reports ~12% / ~9% average speedup (Figure 5). Here the two
    configurations differ only in how Combine is priced (``atomic_combine``),
    so the measured ratio isolates exactly that design decision.
    """
    rows = []
    for algorithm_name in ("bfs", "sssp"):
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
def figure8(ctx: BenchmarkContext) -> Dict:
    """Which filter (online / ballot) each iteration used, per graph."""
    rows = []
    for algorithm_name in ("bfs", "kcore", "sssp"):
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
def figure9a(ctx: BenchmarkContext) -> Dict:
    """Relative JIT (BFS) performance versus the online-filter overflow threshold."""
    thresholds = (1, 4, 16, 64, 256, 1024, 4096, 16384)
    per_threshold: Dict[int, List[float]] = {t: [] for t in thresholds}
    for abbrev in ctx.datasets:
        times = {}
        for threshold in thresholds:
            result = ctx.run(
                "simdx", abbrev, "bfs",
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


def figure9b(ctx: BenchmarkContext) -> Dict:
    """Overhead (SSSP) of keeping the online filter running in ballot mode."""
    rows = []
    for abbrev in ctx.datasets:
        with_shadow = ctx.run(
            "simdx", abbrev, "sssp",
            config=EngineConfig(shadow_online=True),
        )
        without_shadow = ctx.run(
            "simdx", abbrev, "sssp",
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
def table2(ctx: BenchmarkContext) -> Dict:
    """Register footprints per kernel and launch counts per fusion strategy.

    The launches are measured with BFS on the first selected dataset.
    ``listing`` is the paper-shaped rendering of both halves.
    """
    def unfused(prefix: str) -> Dict[str, int]:
        return {
            k.replace(prefix, ""): v for k, v in REGISTERS_TABLE.items()
            if k.startswith(prefix)
        }

    registers = {
        "push_no_fusion": unfused("push_"),
        "pull_no_fusion": unfused("pull_"),
        "selective_fusion": {
            "push": REGISTERS_TABLE["fused_push"],
            "pull": REGISTERS_TABLE["fused_pull"],
        },
        "all_fusion": REGISTERS_TABLE["fused_all"],
    }

    launches = {}
    for strategy in FusionStrategy:
        result = ctx.run(
            "simdx", ctx.datasets[0], "bfs",
            config=EngineConfig(fusion=strategy),
        )
        launches[strategy.value] = {
            "kernel_launches": result.kernel_launches,
            "iterations": result.iterations,
            "direction_switches": result.extra.get(extra_keys.DIRECTION_SWITCHES, 0),
        }

    listing = [
        f"  {group}: " + ", ".join(f"{k}={v}" for k, v in registers[group].items())
        for group in ("push_no_fusion", "pull_no_fusion")
    ]
    selective = registers["selective_fusion"]
    listing.append(
        f"  selective_fusion: push={selective['push']}, pull={selective['pull']}"
    )
    listing.append(f"  all_fusion: {registers['all_fusion']}")
    listing.append("  kernel launches (measured):")
    for strategy, info in launches.items():
        listing.append(
            f"    {strategy:>10}: {info['kernel_launches']} launches over "
            f"{info['iterations']} iterations "
            f"({info['direction_switches']} direction switches)"
        )
    return {"registers": registers, "launches": launches, "listing": listing}


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
def table4(ctx: BenchmarkContext) -> Dict:
    """The headline comparison: SIMD-X versus CuSha / Gunrock / Galois / Ligra.

    ``tables`` holds one ready ``(title, headers, rows)`` block per algorithm
    (system x graph, simulated ms) - the columns are the swept graphs.
    """
    algorithms = TABLE4_ALGORITHMS
    systems = ("simdx", "cusha", "gunrock", "galois", "ligra")
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

    tables = []
    for algorithm_name in sorted(algorithms):
        by_system: Dict[str, List[Optional[float]]] = {}
        for c in cells:
            if c["algorithm"] == algorithm_name:
                by_system.setdefault(c["system"], []).append(
                    None if c["ms"] is None else round(c["ms"], 2)
                )
        tables.append((
            f"Table 4 [{algorithm_name}]: runtime (simulated ms; '-' = failed/OOM)",
            ["system", *ctx.datasets],
            [[system, *ms] for system, ms in by_system.items()],
        ))
    return {"cells": cells, "simdx_speedup_over": speedups, "tables": tables}


# ----------------------------------------------------------------------
# Figure 12: JIT task management versus ballot-only and online-only
# ----------------------------------------------------------------------
def figure12(ctx: BenchmarkContext) -> Dict:
    """Speedup of each filter configuration, normalized to the ballot filter."""
    algorithms = ("bfs", "kcore", "sssp")
    rows = []
    for algorithm_name in algorithms:
        for abbrev in ctx.datasets:
            ballot, online, jit = (
                ctx.run(
                    "simdx", abbrev, algorithm_name,
                    config=EngineConfig(filter_mode=mode),
                )
                for mode in (FilterMode.BALLOT, FilterMode.ONLINE, FilterMode.JIT)
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
def figure13(ctx: BenchmarkContext) -> Dict:
    """Speedup of each fusion strategy, normalized to no fusion."""
    algorithms = ("bfs", "bp", "kcore", "pagerank", "sssp")
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
def section7_3(ctx: BenchmarkContext) -> Dict:
    """BFS performance of each system across GPU models, normalized to K20.

    Every system's mean per device covers the same graphs: those all
    systems completed on every device (``graphs``), so the rows compare
    systems as well as devices. ``tables`` holds the ready ``(title,
    headers, rows)`` block - one ms and one speedup column per swept device.
    """
    devices = ("K20", "K40", "P100")
    systems = ("simdx", "gunrock", "cusha")
    times = {
        (system, abbrev): [
            ctx.run(system, abbrev, "bfs", device_spec=get_device_spec(d))
            for d in devices
        ]
        for system in systems
        for abbrev in ctx.datasets
    }
    graphs = [
        g for g in ctx.datasets
        if not any(r.failed for system in systems for r in times[system, g])
    ]
    rows = []
    for system in systems:
        per_device = {
            d: float(np.mean([times[system, g][i].elapsed_us for g in graphs]))
            if graphs else float("nan")
            for i, d in enumerate(devices)
        }
        base = per_device[devices[0]]
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
    table = (
        "Section 7.3: scaling across GPU generations (BFS mean)",
        ["system"] + [f"{d} ms" for d in devices] + [f"{d} speedup" for d in devices],
        [
            [r["system"]]
            + [round(r["mean_ms"][d], 3) for d in devices]
            + [round(r["speedup_vs_first"][d], 2) for d in devices]
            for r in rows
        ],
    )
    return {
        "rows": rows,
        "graphs": graphs,
        "simdx_configurable_threads": thread_counts,
        "tables": [table],
    }


# ----------------------------------------------------------------------
# Section 4: worklist-separator stability
# ----------------------------------------------------------------------
def worklist_separators(ctx: BenchmarkContext) -> Dict:
    """Sensitivity of (BFS) performance to the small/medium/large separators."""

    def mean_ms(small_medium: int, medium_large: int) -> float:
        config = EngineConfig(
            small_medium_separator=small_medium,
            medium_large_separator=medium_large,
        )
        times = [
            ctx.run("simdx", abbrev, "bfs", config=config).elapsed_us
            for abbrev in ctx.datasets[:4]
        ]
        return float(np.mean(times)) / 1000.0

    return {
        "small_medium": [
            {"separator": sep, "mean_ms": mean_ms(sep, max(2048, sep))}
            for sep in (4, 16, 32, 64, 128, 512)
        ],
        "medium_large": [
            {"separator": sep, "mean_ms": mean_ms(32, sep)}
            for sep in (128, 256, 512, 2048, 4096)
        ],
    }


# ----------------------------------------------------------------------
# EXPERIMENTS.md baseline: per-phase timings + traffic-model calibration
# ----------------------------------------------------------------------
_FORCED_PUSH = EngineConfig(forced_direction=Direction.PUSH)
_FORCED_PULL = EngineConfig(forced_direction=Direction.PULL)


def phase_timings(ctx: BenchmarkContext) -> Dict:
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
    phase_rows: List[Dict] = []
    trace_rows: List[Dict] = []
    fit_rows: List[Dict] = []
    pooled_records: Dict[str, Dict[str, List]] = {
        "aggregation": {"push": [], "pull": []},
        "voting": {"push": [], "pull": []},
    }

    for algorithm_name in ("bfs", "sssp", "pagerank", "wcc", "kcore", "spmv", "bp"):
        push_records: List = []
        pull_records: List = []
        for abbrev in ctx.datasets:
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
            fit_rows.append({"algorithm": algorithm_name, **fit})
            kind = ALGORITHMS[algorithm_name].combine_kind.value
            pooled_records[kind]["push"].extend(push_records)
            pooled_records[kind]["pull"].extend(pull_records)

    pooled_rows = [
        {
            "kind": kind,
            **core_metrics.calibrate_pull_constants(pool["push"], pool["pull"]),
        }
        for kind, pool in pooled_records.items()
        if pool["push"] and pool["pull"]
    ]
    model = DEFAULT_TRAFFIC_MODEL
    shipped = {
        "push_edge_ops": model.push_edge_ops,
        "pull_scan_ops": model.pull_scan_ops,
        "pull_active_edge_ops": model.pull_active_edge_ops,
        "vertex_ops": model.vertex_ops,
        "voting_pull_scan_fraction": model.voting_pull_scan_fraction,
        "pull_scan_over_push_edge": model.pull_scan_ops / model.push_edge_ops,
    }
    return {
        "phase_rows": phase_rows,
        "trace_rows": trace_rows,
        "fit_rows": fit_rows,
        "pooled_rows": pooled_rows,
        "shipped": shipped,
        "shipped_rows": [{"constant": k, "value": v} for k, v in shipped.items()],
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


def gather_refinement(ctx: BenchmarkContext) -> Dict:
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

    rows = []
    for algorithm_name, pruned_cls, unpruned_cls in (
        ("sssp", SSSP, _UnprunedSSSP),
        ("wcc", WCC, _UnprunedWCC),
    ):
        for abbrev in ctx.datasets:
            graph = ctx.graph(abbrev)
            kwargs = (
                {"source": default_source(graph)} if algorithm_name == "sssp" else {}
            )
            pruned = SIMDXEngine(graph, config=_FORCED_PULL).run(pruned_cls(**kwargs))
            unpruned = SIMDXEngine(graph, config=_FORCED_PULL).run(
                unpruned_cls(**kwargs)
            )
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
# Batched sweeps (docs/batching.md, docs/sharding.md): the shared K-lane cell
# ----------------------------------------------------------------------
class _LaneCell:
    """One (algorithm, graph, K) cell of a batched sweep.

    The K queries are the K highest-degree sources. ``serial()`` is the
    cell's oracle - K independent single-source runs, which always fit
    (single-run metadata is two arrays, not 2K) - grown lazily, because an
    OOM'd cell never reads it, and shared by every K of one (algorithm,
    graph): the source sets are nested prefixes.
    """

    def __init__(self, ctx: BenchmarkContext, algorithm: str, abbrev: str,
                 lanes: int, serial: List[RunResult]) -> None:
        self.ctx, self.algorithm, self.lanes, self._serial = ctx, algorithm, lanes, serial
        self.graph = ctx.graph(abbrev)
        self.sources = default_sources(self.graph, lanes)
        #: The identity columns every row of this cell starts with.
        self.key = {"algorithm": algorithm, "graph": abbrev, "lanes": lanes}

    def run_batch(self, config: Optional[EngineConfig] = None) -> BatchRunResult:
        """Answer the K sources as one batch on a fresh engine."""
        engine = SIMDXEngine(self.graph, self.ctx.device_spec, config)
        algorithm = make_algorithm(self.algorithm, self.graph)
        return engine.run_batch(algorithm, self.sources)

    def serial(self) -> List[RunResult]:
        """The K independent single-source runs of this cell's sources."""
        for source in self.sources[len(self._serial):]:
            algorithm = make_algorithm(self.algorithm, self.graph, source=source)
            engine = SIMDXEngine(self.graph, self.ctx.device_spec)
            self._serial.append(engine.run(algorithm))
        return self._serial[: self.lanes]

    def identical(self, batch: BatchRunResult) -> bool:
        """Whether every lane is bit-identical to its independent run."""
        return all(
            np.array_equal(batch.values[lane], single.values)
            for lane, single in enumerate(self.serial())
        )


def _lane_cells(
    ctx: BenchmarkContext,
    algorithms: Tuple[str, ...],
    graphs: Tuple[str, ...],
    lane_counts: Tuple[int, ...],
) -> Iterator[_LaneCell]:
    """Every (algorithm, graph, K) cell whose K (ascending) fits the graph."""
    for algorithm_name in algorithms:
        for abbrev in graphs:
            serial: List[RunResult] = []
            for k in lane_counts:
                if k <= ctx.graph(abbrev).num_vertices:
                    yield _LaneCell(ctx, algorithm_name, abbrev, k, serial)


def _shapes_or_all(ctx: BenchmarkContext, shapes: Tuple[str, ...]) -> Tuple[str, ...]:
    """The selected datasets among ``shapes``, or all of them if none is."""
    return tuple(g for g in ctx.datasets if g in shapes) or tuple(ctx.datasets)


def batching_throughput(ctx: BenchmarkContext) -> Dict:
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
    rows: List[Dict] = []
    for cell in _lane_cells(ctx, ("bfs", "sssp"), ctx.datasets, (1, 4, 16, 64)):
        batch = cell.run_batch()
        if batch.failed:
            rows.append(
                {**cell.key, "failed": True, "failure_reason": batch.failure_reason}
            )
            continue
        serial_us = sum(single.elapsed_us for single in cell.serial())
        rows.append(
            {
                **cell.key,
                "failed": False,
                "batch_ms": batch.elapsed_ms,
                "serial_ms": serial_us / 1000.0,
                "batch_qps": batch.queries_per_second,
                "serial_qps": (
                    cell.lanes / (serial_us / 1e6) if serial_us else float("nan")
                ),
                "speedup": (
                    serial_us / batch.elapsed_us
                    if batch.elapsed_us else float("nan")
                ),
                "iterations": batch.iterations,
                "union_edges": batch.extra[extra_keys.UNION_EDGES_WALKED],
                "lane_edge_pairs": batch.extra[extra_keys.LANE_EDGE_PAIRS],
                "values_identical": cell.identical(batch),
            }
        )
    return {"rows": rows}


#: Graph shapes where union and lane direction interests diverge: the road
#: analogues (high diameter, frontiers that never individually cross the
#: pull threshold) and the RMAT-family synthetics (skewed but with long
#: barely-pruned SSSP gather tails).
SPLIT_BENEFIT_SHAPES = ("ER", "RC", "KR", "RM")


def split_benefit(ctx: BenchmarkContext) -> Dict:
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
    ``BatchDirectionPolicy.margin`` arbitrates.
    """
    graphs = _shapes_or_all(ctx, SPLIT_BENEFIT_SHAPES)
    rows: List[Dict] = []
    for cell in _lane_cells(ctx, ("sssp", "bfs"), graphs, (4, 16)):
        on = cell.run_batch(EngineConfig())
        off = cell.run_batch(EngineConfig(lane_aware_split=False))
        if on.failed or off.failed:
            reason = on.failure_reason or off.failure_reason
            rows.append({**cell.key, "failed": True, "failure_reason": reason})
            continue
        rows.append(
            {
                **cell.key,
                "failed": False,
                "scanned_lane_aware": on.extra[extra_keys.PULL_EDGES_SCANNED],
                "scanned_decide_once": off.extra[extra_keys.PULL_EDGES_SCANNED],
                "walked_lane_aware": on.extra[extra_keys.UNION_EDGES_WALKED],
                "walked_decide_once": off.extra[extra_keys.UNION_EDGES_WALKED],
                "ms_lane_aware": on.elapsed_ms,
                "ms_decide_once": off.elapsed_ms,
                "split_iterations": on.extra[extra_keys.LANE_SPLITS],
                "values_identical": bool(np.array_equal(on.values, off.values)),
            }
        )
    return {"rows": rows}


#: Graph shapes whose K=16 batch OOMs one modeled K40 (the §5 blank
#: cells): TW's lane metadata lands on top of a near-capacity CSR, ER's
#: 50.9M modeled vertices make the lane arrays alone exceed the device.
SHARD_SCALING_SHAPES = ("TW", "ER")


def shard_scaling(ctx: BenchmarkContext) -> Dict:
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
    graphs = _shapes_or_all(ctx, SHARD_SCALING_SHAPES)
    rows: List[Dict] = []
    for cell in _lane_cells(ctx, ("bfs", "sssp"), graphs, (4, 16)):
        # One device (the feasibility baseline), then 2 and 4 shards.
        for num_shards in (1, 2, 4):
            batch = cell.run_batch(EngineConfig(num_shards=num_shards))
            row = {**cell.key, "shards": num_shards, "device": batch.device}
            if batch.failed:
                rows.append(
                    {**row, "failed": True, "failure_reason": batch.failure_reason}
                )
                continue
            if num_shards > 1:
                peak = max(batch.extra[extra_keys.SHARD_PEAK_BYTES])
                boundary = batch.extra[extra_keys.SHARD_BOUNDARY_UPDATES]
            else:
                # Resident bytes: one device has no transient buffer.
                peak = place_static(ctx.device_spec, cell.graph, cell.lanes)[0]
                boundary = 0
            rows.append(
                {
                    **row,
                    "failed": False,
                    "batch_ms": batch.elapsed_ms,
                    "boundary_updates": boundary,
                    "max_peak_bytes": peak,
                    "values_identical": cell.identical(batch),
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


def serving_latency(ctx: BenchmarkContext) -> Dict:
    """Simulated BFS serving latency vs offered load per ``max_wait_ms``.

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

    algorithm_name, num_queries, max_batch, max_queue = "bfs", 96, 8, 32
    abbrev = ctx.datasets[0]
    graph = ctx.graph(abbrev)
    pool = default_sources(graph, min(24, graph.num_vertices))

    engine = SIMDXEngine(graph, ctx.device_spec)
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
    gaps = np.random.default_rng(7).exponential(1.0, size=num_queries)

    rows: List[Dict] = []
    for wait_ms in SERVING_WAIT_SWEEP_MS:
        for load in SERVING_LOAD_SWEEP:
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
                # When would the live server dispatch the current queue?
                # At the instant it filled to max_batch, at the oldest
                # query's deadline, or when the engine frees up -
                # whichever is latest-but-due (never, while it is empty).
                if len(pending_at) >= policy.max_batch:
                    due_at = pending_at[policy.max_batch - 1]
                elif pending_at:
                    due_at = former.next_deadline()
                else:
                    due_at = float("inf")
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
# Host wall-clock per workload (BENCH_<pr>.json, perfbench/README.md)
# ----------------------------------------------------------------------
#: The checkout root, where the ``BENCH_<pr>.json`` trajectory is committed
#: and EXPERIMENTS.md is written by default - resolved from this file, so
#: neither depends on the current directory.
RECORDS_DIR = Path(__file__).resolve().parents[3]

#: The committed wall-clock records; zero-padded ids sort by name, so the
#: newest is the last.
BENCH_RECORD_GLOB = "BENCH_[0-9]*.json"


def host_wallclock(ctx: BenchmarkContext) -> Dict:
    """The newest committed ``perfbench --out`` record, as EXPERIMENTS.md §8.

    Wall-clock seconds are host-dependent, so regenerating EXPERIMENTS.md
    never measures them (the document is diffed against the committed
    copy): this loads the newest ``BENCH_<pr>.json`` in :data:`RECORDS_DIR`
    whatever ``ctx`` selects, and raises when there is none. One row per
    workload: the end-to-end metrics of its untraced pass.
    """
    paths = sorted(RECORDS_DIR.glob(BENCH_RECORD_GLOB))
    if not paths:
        raise FileNotFoundError(
            f"no committed benchmark record matches {RECORDS_DIR / BENCH_RECORD_GLOB}"
        )
    record = json.loads(paths[-1].read_text(encoding="utf-8"))
    rows = []
    for name, passes in record["results"].items():
        untraced = passes["end_to_end"]
        rows.append({
            "workload": name, "ops_attempted": untraced["ops_attempted"],
            "ops_failed": untraced["ops_failed"], **untraced["metrics"],
        })
    return {"rows": rows, "meta": record["meta"], "source": paths[-1].name}


# ----------------------------------------------------------------------
# Dynamic updates and cross-query reuse (beyond the paper)
# ----------------------------------------------------------------------
def dynamic_updates(ctx: BenchmarkContext) -> Dict:
    """Update-rate × query-rate sweep (BFS) over the dynamic-graph subsystem.

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

    algorithm_name, seed = "bfs", 11
    rounds, update_rounds, queries_per_round = 4, 3, 12
    abbrev = ctx.datasets[0]
    graph = ctx.graph(abbrev)
    pool = default_sources(graph, min(16, graph.num_vertices))
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
    for batch_size in (4, 16, 64):
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
    for exponent in (0.0, 0.8, 1.6):
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


# ----------------------------------------------------------------------
# The registry: every experiment as one entry, in presentation order
# ----------------------------------------------------------------------
class Experiment:
    """One entry of :data:`EXPERIMENTS`: what to run and how to show it.

    ``key`` is what ``reproduce_paper.py --only/--skip`` matches and
    ``title`` the banner, leading with the paper anchor. ``sweep`` is the
    sweep function - or a tuple of them for a multi-panel figure, whose
    result is then ``{function name: its result}`` and whose ``tables``
    each name one by ``of``.
    """

    def __init__(
        self, key: str, title: str, sweep: Union[Callable, Tuple[Callable, ...]],
        *tables: Table,
    ) -> None:
        self.key, self.title, self.sweep, self.tables = key, title, sweep, tables

    def run(self, ctx: BenchmarkContext) -> Dict:
        if callable(self.sweep):
            return self.sweep(ctx)
        return {sweep.__name__: sweep(ctx) for sweep in self.sweep}

    def render(self, result: Dict, style: str = "text") -> str:
        return render(self.tables, result, style)

    @property
    def documented(self) -> bool:
        """Whether this entry is a section (or several) of EXPERIMENTS.md."""
        return any(table.section for table in self.tables)


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("table3", "Table 3 - graph datasets", table3,
        Table("Table 3: graph datasets (paper originals vs generated analogues)",
            (("abbrev", "abbrev"), ("paper graph", "paper_name"), ("class", "category"),
             ("paper |V|", "paper_vertices"), ("paper |E|", "paper_edges"),
             ("analogue |V|", "analogue_vertices"), ("analogue |E|", "analogue_edges"),
             ("diam class", "diameter_class"),
             ("analogue diam>=", "analogue_diameter_lb")),
        ),
    ),
    Experiment("figure5", "Figure 5 - ACC combine vs atomic updates", figure5,
        Table("Figure 5: ACC combine vs atomic updates",
            (("graph", "graph"), ("operation", "operation"), ("ACC ms", "acc_ms", 3),
             ("atomic ms", "atomic_ms", 3), ("speedup", "speedup", 3)),
            footer="Average speedup -- vote: {average_speedup[vote]:.3f}x, "
                "aggregation: {average_speedup[aggregation]:.3f}x (paper: "
                "~1.12x / ~1.09x)",
        ),
    ),
    Experiment("figure8", "Figure 8 - filter activation patterns", figure8,
        Table("Figure 8: ballot-filter activation patterns",
            (("algorithm", "algorithm"), ("graph", "graph"),
             ("iterations", "iterations"),
             ("ballot iters", lambda r: len(r["ballot_iterations"])),
             ("pattern", "pattern")),
        ),
    ),
    Experiment(
        "figure9", "Figure 9 - JIT threshold sweep and overhead", (figure9a, figure9b),
        Table("Figure 9(a): JIT performance vs online-filter overflow threshold",
            (("overflow threshold", "threshold"),
             ("relative performance", "relative_performance", 3)),
            of="figure9a",
            footer="Best threshold: {best_threshold} (paper selects 64)",
        ),
        Table("Figure 9(b): overhead of the always-on online filter (SSSP)",
            (("graph", "graph"), ("shadow-online overhead %", "overhead_percent", 3)),
            of="figure9b",
            footer="Average overhead: {average_overhead_percent:.3f}% (paper: "
                "~0.02%, max 2.1%)",
        ),
    ),
    Experiment("table2", "Table 2 - registers and kernel launches", table2,
        Table("Table 2: register consumption and kernel launches",
            rows="",
            footer=lambda r: "\n".join(r["listing"]),
        ),
    ),
    Experiment("table4", "Table 4 - runtime vs CuSha/Gunrock/Galois/Ligra", table4,
        Table(
            rows="tables",
            footer=lambda r: "\n".join(
                ["", "SIMD-X geometric-mean speedup over each system:"]
                + [
                    f"  {algorithm}: "
                    + ", ".join(f"{s}: {v:.2f}x" for s, v in per_system.items())
                    for algorithm, per_system in r["simdx_speedup_over"].items()
                ]
            ),
        ),
    ),
    Experiment("figure12", "Figure 12 - JIT task management benefit", figure12,
        Table("Figure 12: benefit of JIT task management (normalized to ballot)",
            (("algorithm", "algorithm"), ("graph", "graph"),
             ("ballot ms", "ballot_ms", 3),
             ("online ms", lambda r: "FAIL" if r["online_failed"] else r["online_ms"], 3),
             ("JIT ms", "jit_ms", 3), ("JIT/ballot", "jit_speedup_vs_ballot", 2)),
            footer=lambda r: "Average JIT speedup over ballot -- " + ", ".join(
                f"{alg}: {v:.1f}x" for alg, v in r["jit_speedup_over_ballot"].items()
            ),
        ),
    ),
    Experiment("figure13", "Figure 13 - push-pull kernel fusion benefit", figure13,
        Table("Figure 13: benefit of push-pull based kernel fusion",
            (("algorithm", "algorithm"), ("graph", "graph"),
             ("no fusion ms", "non_fusion_ms", 3),
             ("all fusion ms", "all_fusion_ms", 3), ("push-pull ms", "push_pull_ms", 3),
             ("push-pull speedup", lambda r: r["push_pull_speedup"] or None, 2)),
            footer=lambda r: "Average speedups:\n" + "\n".join(
                f"  {alg}: push-pull {avg['push_pull_vs_none']:.2f}x, "
                f"all-fusion {avg['all_vs_none']:.2f}x (vs no fusion)"
                for alg, avg in r["average_speedups"].items()
            ),
        ),
    ),
    Experiment("section7_3", "Section 7.3 - scaling across GPU generations", section7_3,
        Table(
            rows="tables",
            footer=lambda r: "SIMD-X fused-kernel configurable threads -- " + ", ".join(
                f"{d}: {v}" for d, v in r["simdx_configurable_threads"].items()
            ) + "\n  every system averages the graphs all completed on every "
            f"device: {','.join(r['graphs']) or 'none'}",
        ),
    ),
    Experiment(
        "separators", "Section 4 - worklist separator sweep", worklist_separators,
        Table("Worklist separators: small/medium sweep",
            (("small/medium separator", "separator"), ("mean ms", "mean_ms", 3)),
            rows="small_medium",
        ),
        Table("Worklist separators: medium/large sweep",
            (("medium/large separator", "separator"), ("mean ms", "mean_ms", 3)),
            rows="medium_large",
        ),
    ),
    Experiment(
        "phase_timings", "EXPERIMENTS.md §1-3 - phase timings, JIT traces, traffic-model fit",
        phase_timings,
        Table("Per-algorithm, per-phase timing baseline",
            (("algorithm", "algorithm"), ("graph", "graph"), ("phase", "phase"),
             ("dir", "direction"), ("iters", "iterations"), ("edges", "edges"),
             ("active", "active_edges"), ("compute µs", "compute_us", 1),
             ("filter µs", "filter_us", 1), ("total µs", "total_us", 1)),
            rows="phase_rows", section=1,
            lead="Auto-direction runs folded into consecutive same-direction "
                "phases (Section 5 clustering). `edges` counts the walked "
                "worklist edges (out-edges in push, scanned in-edges in "
                "pull); `active` is the frontier-sourced share that pays full "
                "per-edge work in pull mode.",
        ),
        Table("Direction-aware JIT filter traces",
            (("algorithm", "algorithm"), ("graph", "graph"), ("iters", "iterations"),
             ("pull iters", "pull_iterations"),
             ("pull ballots", "pull_ballot_iterations"),
             ("pre-armed", "pre_armed_ballots"),
             ("filter pattern", lambda r: f"`{r['pattern']}`" if r["pattern"] else None)),
            rows="trace_rows", section=2,
            lead="Per run: executed filter pattern, pull iterations (all must "
                "be online — a gather worker records at most one destination, "
                "so its bin cannot overflow), and pre-armed ballots (ballot "
                "fired on the first push iteration after a pull phase because "
                "the handed-over frontier's max out-degree, scaled by the "
                "expected offer success rate, exceeded the overflow "
                "threshold).",
        ),
        Table("Calibrated traffic-model constants",
            (("algorithm", "algorithm"), ("push µs/edge", "push_us_per_edge", 6),
             ("pull µs/scanned edge", "pull_us_per_scanned_edge", 6),
             ("active fraction", "pull_active_edge_fraction", 3),
             ("fitted scan µs", "fitted_scan_us_per_edge", 6),
             ("fitted active µs", "fitted_active_us_per_edge", 6),
             ("scan/push", "pull_scan_over_push_edge", 3),
             ("active/push", "pull_active_over_push_edge", 3),
             ("fit rank", lambda r: int(r["fit_rank"])),
             ("fit cond", "fit_condition", 1)),
            rows="fit_rows", section=3,
            lead="The engine charges push compute at `push_edge_ops` per "
                "expanded edge and pull compute at `pull_scan_ops` per "
                "scanned in-edge plus `pull_active_edge_ops` per "
                "frontier-sourced in-edge "
                "(`repro.core.direction.TrafficModel`). The fit below "
                "recovers both constants by least squares over the measured "
                "forced-pull iterations (`compute_us ~ c_scan * scanned + "
                "c_active * active`), with the forced-push runs pinning the "
                "reference per-edge cost. The ratios compare against the "
                "shipped `pull_scan_ops / push_edge_ops = "
                "{shipped[pull_scan_over_push_edge]:.2f}` and "
                "`pull_active_edge_ops / push_edge_ops = 1` - up to the "
                "memory-traffic share of iteration time the ops constants do "
                "not cover. `fit rank` 1 flags (near-)collinear regressors - "
                "every pull iteration gathered (almost) all in-edges, e.g. "
                "SpMV/BP exactly and WCC-style runs within the "
                "condition-number bound (`fit cond`, capped at "
                "`repro.core.metrics.COLLINEARITY_LIMIT`): there the scan "
                "column holds the combined per-scanned-edge cost. Voting "
                "combines terminate gathers early, so their measured scan "
                "cost also folds in `voting_pull_scan_fraction = "
                "{shipped[voting_pull_scan_fraction]}`.",
        ),
        Table(
            columns=(
                ("combine kind", "kind"), ("push µs/edge", "push_us_per_edge", 6),
                ("fitted scan µs", "fitted_scan_us_per_edge", 6),
                ("fitted active µs", "fitted_active_us_per_edge", 6),
                ("scan/push", "pull_scan_over_push_edge", 3),
                ("active/push", "pull_active_over_push_edge", 3)
            ),
            rows="pooled_rows",
            lead="Pooled by combine kind:",
        ),
        Table(
            columns=(("constant", "constant"), ("value", "value")),
            rows="shipped_rows",
            lead="Shipped constants (`DEFAULT_TRAFFIC_MODEL`):",
        ),
    ),
    Experiment(
        "gather_refinement", "EXPERIMENTS.md §4 - gather-candidate refinement",
        gather_refinement,
        Table("Gather-candidate refinement (SSSP / WCC)",
            (("algorithm", "algorithm"), ("graph", "graph"),
             ("scanned edges (pruned)", "scanned_edges_pruned"),
             ("scanned edges (unpruned)", "scanned_edges_unpruned"),
             ("shrink %", "shrink_percent", 1), ("pruned ms", "elapsed_ms_pruned", 3),
             ("unpruned ms", "elapsed_ms_unpruned", 3),
             ("values identical", "values_identical")),
            section=4,
            lead="Forced-pull runs with and without the frontier-dependent "
                "settled-vertex bound in `gather_mask`. Values are "
                "bit-identical by construction; the scanned-edge shrink is "
                "the worklist reduction from pruning settled vertices. "
                "Simulated time does not always follow the shrink: on "
                "uniform-degree road graphs the pruned worklist is less "
                "degree-homogeneous, so the thread-kernel divergence penalty "
                "can outweigh the saved traffic — the paper's motivation for "
                "pruning is the skewed graphs, where both move together.",
        ),
    ),
    Experiment(
        "batching_throughput", "EXPERIMENTS.md §5 - batched multi-source throughput",
        batching_throughput,
        Table("Batched multi-source throughput",
            (("algorithm", "algorithm"), ("graph", "graph"), ("K", "lanes"),
             ("batch ms", "batch_ms", 3), ("serial ms", "serial_ms", 3),
             ("batch q/s", "batch_qps", 0), ("serial q/s", "serial_qps", 0),
             ("speedup", "speedup", 2), ("union edges", "union_edges"),
             ("lane pairs", "lane_edge_pairs"), ("identical", "values_identical")),
            cell=3, section=5,
            lead="`SIMDXEngine.run_batch` answers K queries (the K "
                "highest-degree sources) in one execution: every iteration "
                "walks the CSR once over the union of the K lane frontiers "
                "and expands each union edge only into the lanes whose "
                "frontier contains its source, against a serial baseline that "
                "loops `run` over the same sources. Per-lane results are "
                "verified bit-identical to the independent runs in every "
                "cell. `union edges` vs `lane pairs` is the amortization: the "
                "serial loop walks every pair as a full edge, the batch pays "
                "the CSR walk once per union edge. On high-diameter graphs "
                "the union frontier can cross the pull threshold earlier than "
                "any single lane would, so the batch may scan more in-edges "
                "than it answers pairs - the speedup there comes from "
                "amortizing the per-iteration fixed costs (launches, "
                "barriers, task management) instead. `OOM` cells are "
                "Table-4-style memory failures: batching keeps K metadata "
                "arrays resident, so a paper-scale graph whose single query "
                "fits the modeled device can stop fitting at higher lane "
                "counts. See docs/batching.md for the lane model and when "
                "batching wins.",
        ),
    ),
    Experiment(
        "split_benefit", "EXPERIMENTS.md §6 - lane-aware split benefit", split_benefit,
        Table("Lane-aware direction selection: split benefit",
            (("algorithm", "algorithm"), ("graph", "graph"), ("K", "lanes"),
             ("scanned (lane-aware)", "scanned_lane_aware"),
             ("scanned (decide-once)", "scanned_decide_once"),
             ("walked (lane-aware)", "walked_lane_aware"),
             ("walked (decide-once)", "walked_decide_once"),
             ("lane-aware ms", "ms_lane_aware", 3),
             ("decide-once ms", "ms_decide_once", 3), ("splits", "split_iterations"),
             ("identical", "values_identical")),
            cell=3, section=6,
            lead="The same K queries answered with lane-aware direction "
                "selection (`EngineConfig.lane_aware_split`, the default - "
                "every lane's own frontier is scored with the traffic model "
                "and the batch splits into push-leaning and pull-leaning "
                "sub-batches when lane interests diverge past the policy's split "
                "margin, `BatchDirectionPolicy.margin` = 0.5) "
                "versus the decide-once union approximation of PR 3. Values "
                "are bit-identical in every cell. `scanned` counts gather "
                "(in-CSR) edges - the quantity the union approximation "
                "over-pays when it crosses the pull threshold before any "
                "single lane would. The `ms` columns show the other side of "
                "the trade: per-sub-batch fixed costs, and the cheap shared "
                "scan of voting gathers, can make the decide-once batch "
                "faster in simulated time even while it scans more - "
                "that margin, a constant of the policy, is what arbitrates (see "
                "docs/batching.md, \"When splitting wins\").",
        ),
    ),
    Experiment(
        "shard_scaling", "EXPERIMENTS.md §7 - sharded multi-device scaling",
        shard_scaling,
        Table("Sharded multi-device scaling",
            (("algorithm", "algorithm"), ("graph", "graph"), ("K", "lanes"),
             ("shards", "shards"), ("device", "device"), ("batch ms", "batch_ms", 3),
             ("boundary", "boundary_updates"),
             ("peak GB", lambda r: r["max_peak_bytes"] / 1024 ** 3, 2),
             ("identical", "values_identical")),
            cell=5, section=7,
            lead="The same K queries answered at `EngineConfig(num_shards=N)` "
                "for N in {{1, 2, 4}}: the graph is partitioned into "
                "contiguous vertex ranges balanced by out-edges, each range "
                "owning its metadata (and lane-metadata) slice on its own "
                "simulated device (see docs/sharding.md). `OOM` rows at N=1 "
                "are the §5 blank cells - the K lane-metadata arrays exceed "
                "one K40 - and the same batch completing at N=2/4 with `peak` "
                "(the largest per-shard simulated high-water mark) under the "
                "12 GiB single-device budget is the capacity claim. "
                "`boundary` counts valid updates that crossed a shard "
                "boundary - the exchange traffic the partition pays. Every "
                "completed cell is verified bit-identical per lane against K "
                "independent single-source runs.",
        ),
    ),
    Experiment(
        "host_wallclock", "EXPERIMENTS.md §8 - host wall-clock per workload",
        host_wallclock,
        Table("Host wall-clock per workload",
            (("workload", "workload"), ("ops", "ops_attempted"),
             ("failed", "ops_failed"),
             ("setup_s", "setup_s", 3), ("run_s", "run_s", 3), ("qps", "qps", 1),
             ("latency_p50_ms", "latency_p50_ms", 1),
             ("peak_rss_mb", "peak_rss_mb", 1)),
            section=8,
            lead="Every other section is simulated device time; this one is "
                "real seconds on the host that ran the engine, per workload "
                "of `BENCHMARK.json`: the end-to-end metrics of the untraced "
                "pass. `run_s` is the median round (on `served-zipf`, seconds "
                "per 100 completed requests), `qps` the queries answered per "
                "measured second, `latency_p50_ms` a client's median wait - "
                "on the five offline workloads, the round. Numbers are from "
                "the committed `{source}`, the unmodified output of `python "
                "-m perfbench "
                "--seed {meta[seed]} --seconds {meta[seconds]:g} --out`, "
                "measured on {meta[host][cpu]} x{meta[host][nproc]} / "
                "{meta[host][platform]} / python {meta[host][python]} / numpy "
                "{meta[host][numpy]}. Seconds are host-specific: the record "
                "is one point of the per-PR trajectory, not a threshold - the "
                "CI `bench-regression` job measures base and head on one "
                "runner and gates on `python -m perfbench --compare`. The "
                "per-layer metrics of the traced pass are in the record; see "
                "perfbench/README.md.",
        ),
    ),
    Experiment(
        "serving_latency", "EXPERIMENTS.md §9 - serving latency under load",
        serving_latency,
        Table("Serving latency under load",
            (("max_wait ms", "max_wait_ms"), ("load ×base", "load_multiplier"),
             ("offered q/s", "offered_qps", 0), ("served", "served"), ("shed", "shed"),
             ("batches", "batches"), ("mean fill", "mean_fill", 2),
             ("p50 ms", "p50_ms", 2), ("p99 ms", "p99_ms", 2)),
            section=9,
            lead="A deterministic discrete-event simulation of the serving "
                "layer (`src/repro/serve/`, docs/serving.md): seeded Poisson "
                "arrivals ({num_queries} single `{algorithm}` queries over "
                "the {source_pool} highest-degree sources of {dataset}) "
                "stream into the real `AdmissionPolicy`/`BatchFormer` "
                "(`max_batch={max_batch}`, `max_queue={max_queue}`), and "
                "every dispatched composition is priced by running it through "
                "one reused `SIMDXEngine.run_batch` - the serving contract. "
                "Latency is admission to batch completion in simulated time; "
                "offered load is a multiple of the base single-query rate "
                "({base_qps:.0f} q/s, one query = {single_query_ms:.2f} "
                "simulated ms). The sweep shows the admission trade: small "
                "`max_wait_ms` minimizes p50 while under-loaded but "
                "dispatches under-full batches; large `max_wait_ms` buys fill "
                "- and survivable p99 at saturation - by taxing every lonely "
                "query. Over-loaded cells shed arrivals that find `max_queue` "
                "queries queued (`shed`), the serving layer's explicit "
                "backpressure.",
        ),
    ),
    Experiment(
        "dynamic_updates", "EXPERIMENTS.md §10 - dynamic updates and reuse",
        dynamic_updates,
        Table("Dynamic updates and cross-query reuse",
            (("updates/batch", "updates_per_batch"), ("repair µs", "mean_repair_us", 2),
             ("scratch µs", "mean_scratch_us", 2),
             ("speedup", lambda r: f"{r['speedup']:.2f}x" if r["speedup"] else None),
             ("reset", "mean_reset_vertices", 1), ("seed", "mean_seed_vertices", 1),
             ("identical", "values_identical")),
            rows="repair_rows", section=10,
            lead="The dynamic-graph subsystem (`src/repro/dyn/`, "
                "`src/repro/cache/`; docs/dynamic.md, docs/caching.md) under "
                "a seeded update-rate × query-rate sweep on {dataset}. "
                "**Repair speedup:** each row applies "
                "`{repair_rows[0][rounds]}` random insert+delete batches of "
                "the given size and repairs the previous `{algorithm}` fixed "
                "point incrementally (`IncrementalRecompute`) as well as "
                "re-running it from scratch on the new snapshot; the two are "
                "bit-identical by the exactness contract (`identical`, "
                "asserted at generation time), and the simulated-time ratio "
                "shows repair cost tracking the touched frontier (`seed` / "
                "`reset` vertices), not the graph size.",
        ),
        Table(
            columns=(
                ("zipf s", "zipf_exponent"), ("queries", "queries"),
                ("updates", "updates"), ("hits", "hits"), ("repairs", "repairs"),
                ("misses", "misses"), ("hit rate", "hit_rate", 2),
                ("reuse rate", "reuse_rate", 2), ("landmarks", "landmarks_refreshed")
            ),
            rows="cache_rows",
            lead="**Cache hit-rate vs source skew:** a `{algorithm}` query "
                "stream ({update_rounds} rounds × {queries_per_round} "
                "queries, one 4-edge update batch between rounds) whose "
                "sources are Zipf-drawn from the {source_pool} highest-degree "
                "vertices, served through `CachedQueryEngine`. `hits` are "
                "exact-version cache answers, `repairs` are stale entries "
                "repaired forward through the retained update receipts, "
                "`misses` fall back to a from-scratch run - every path "
                "returning identical bits. Skewed sources (larger Zipf "
                "exponent) turn reuse on.",
        ),
    ),
)


def experiment(key: str) -> Experiment:
    """The :data:`EXPERIMENTS` entry registered under ``key``."""
    for entry in EXPERIMENTS:
        if entry.key == key:
            return entry
    raise KeyError(f"unknown experiment {key!r}; known: {[e.key for e in EXPERIMENTS]}")


#: Where EXPERIMENTS.md is committed: next to the benchmark records.
DOCUMENT_PATH = RECORDS_DIR / "EXPERIMENTS.md"

#: Opening of EXPERIMENTS.md, a format string over (scale, datasets).
DOCUMENT_HEAD = (
    "# EXPERIMENTS — measured baselines\n\n"
    "Generated by `PYTHONPATH=src python -m repro.bench.experiments` with "
    "`scale={scale}`, `datasets={datasets}` on the simulated K40. All times "
    "are simulated microseconds/milliseconds from the device cost model; the "
    "document is deterministic for a fixed configuration, so regenerate and "
    "diff it when touching the engine's cost accounting, the direction "
    "machinery, the JIT controller or the batched multi-source path."
)


def generate_experiments_md(
    path: Union[str, Path] = DOCUMENT_PATH,
    *,
    scale: float = 0.5,
    datasets: Tuple[str, ...] = ("LJ", "TW", "ER", "RC"),
) -> str:
    """Run every documented experiment and write EXPERIMENTS.md.

    The default configuration keeps the run small (two skewed + two
    high-diameter graphs at half scale) so regeneration stays cheap; the
    committed file is the baseline future PRs diff against. The document
    is deterministic for a fixed configuration: §8's wall-clock columns
    come from the committed benchmark record, not a fresh measurement, and
    the serving and dynamic sweeps are seeded.
    """
    ctx = BenchmarkContext(scale=scale, datasets=tuple(datasets))
    pieces = [DOCUMENT_HEAD.format(scale=scale, datasets=",".join(datasets))]
    for entry in EXPERIMENTS:
        if entry.documented:
            pieces.append(entry.render(entry.run(ctx), "markdown"))
    text = "\n\n".join(pieces) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return text


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else DOCUMENT_PATH
    generate_experiments_md(target)
    print(f"wrote {target}")
