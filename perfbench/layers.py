"""Which callables of ``src/repro`` the traced pass wraps, and how their
spans turn into the per-layer metrics of ``BENCHMARK.json``.

Only seams that already exist are wrapped. Two of them carry an
underscore because the layer has no public one on the default path:
``SIMDXEngine._walk_edges`` (the numpy backend's CSR walk - the engine
calls it in place of ``KernelBackend.walk_edges``) and the dataclass
hook ``ThreadBins.__post_init__`` (the bins' constructor).
``np.unique`` calls the engine makes inline cannot be wrapped from
outside; they stay in ``core.engine.self_s``.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence

from repro.algorithms import BFS, SSSP, WCC, PageRank
from repro.core.acc import ACCAlgorithm
from repro.dyn.incremental import WarmStartAlgorithm

from perfbench.trace import (
    NAME,
    TAG,
    Target,
    by_name,
    duration,
    outermost_seconds,
    root_seconds,
    self_times,
)

ROUND = "round"
SETUP = "setup"


# ----------------------------------------------------------------------
# Taggers: what a span keeps from the call's result
# ----------------------------------------------------------------------
def run_counts(result) -> Dict[str, float]:
    """Exact counts of one successful ``run``/``run_batch`` result."""
    extra, records = result.extra, result.iteration_records
    return {
        "supersteps": result.iterations,
        "sim_us": result.elapsed_us,
        "edges_walked": extra.get("kernel_edges_walked", 0),
        "records": len(records),
        "pull_records": sum(1 for r in records if r.direction == "pull"),
        "lane_pairs": extra.get("lane_edge_pairs", 0),
        "union_edges": extra.get("union_edges_walked", 0),
        "splits": extra.get("lane_splits", 0),
        "boundary_updates": extra.get("shard_boundary_updates", 0),
    }


def _tag_run(args, kwargs, result):
    return None if result.failed else run_counts(result)


def _tag_jit(args, kwargs, result):
    return args[0].decisions[-1].filter_used


def _tag_lookup(args, kwargs, result):
    if result is None:
        return "miss"
    return "hit" if result.version == kwargs["version"] else "stale"


def _tag_query(args, kwargs, result):
    return result.outcome


def _tag_repair(args, kwargs, result):
    return result.extra.get("dyn_repair_mode")


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
_HOOKS = (
    "init", "active_mask", "compute_edges", "apply", "converged",
    "on_frontier_expanded", "scatter_edges", "gather_edges", "gather_mask",
    "vertex_value",
)
_KERNELS = (
    "walk_edges", "membership_mask", "rows_in_sorted", "sorted_unique",
    "union_sorted", "build_lane_bits", "lane_mask", "segment_reduce",
)


def _hook_targets() -> List[Target]:
    found = []
    for cls in (ACCAlgorithm, BFS, SSSP, PageRank, WCC, WarmStartAlgorithm):
        for hook in _HOOKS:
            raw = vars(cls).get(hook)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                found.append(
                    (cls.__module__, cls.__name__, hook, "algorithms." + hook, None)
                )
    return found


TARGETS: List[Target] = [
    ("repro.graph.datasets", None, "load_dataset", "graph.load_dataset", None),
    ("repro.graph.csr", None, "transpose_csr", "graph.transpose", None),
    ("repro.core.engine", "SIMDXEngine", "run", "core.engine.run", _tag_run),
    ("repro.core.engine", "SIMDXEngine", "run_batch", "core.engine.run_batch", _tag_run),
    ("repro.core.engine", "SIMDXEngine", "_walk_edges", "core.kernels.walk_edges", None),
    *[
        ("repro.core.kernels", "NumpyKernelBackend", k, "core.kernels." + k, None)
        for k in _KERNELS
    ],
    ("repro.core.acc", "CombineOp", "segment_reduce", "core.acc.combine", None),
    ("repro.core.jit", "JITTaskManager", "build", "core.jit.build", _tag_jit),
    ("repro.core.filters", "OnlineFilter", "build", "core.filters.build", None),
    ("repro.core.filters", "BallotFilter", "build", "core.filters.build", None),
    ("repro.core.filters", None, "concatenate_bins", "gpu.primitives.concat", None),
    *[
        ("repro.core.frontier", "ThreadBins", m, "core.frontier.bins", None)
        for m in ("__post_init__", "scatter", "occupancy", "concatenated")
    ],
    ("repro.core.frontier", "WorklistClassifier", "classify", "core.frontier.classify", None),
    ("repro.core.frontier", "WorklistClassifier", "edge_count", "core.frontier.classify", None),
    ("repro.core.direction", "DirectionSelector", "decide", "core.direction.decide", None),
    ("repro.core.direction", "DirectionSelector", "force", "core.direction.decide", None),
    ("repro.core.direction", "BatchDirectionPolicy", "plan", "core.direction.decide", None),
    ("repro.gpu.device", "GPUDevice", "launch", "gpu.device.launch", None),
    ("repro.gpu.barrier", "SoftwareGlobalBarrier", "synchronize", "gpu.barrier.sync", None),
    ("repro.shard.executor", "ShardedExecutor", "run", "shard.run", None),
    ("repro.shard.executor", "ShardedExecutor", "run_batch", "shard.run", None),
    ("repro.shard.partition", "ShardPlan", "build", "shard.plan_build", None),
    ("repro.dyn.overlay", "DynamicGraph", "apply", "dyn.apply", None),
    ("repro.dyn.overlay", "DynamicGraph", "snapshot", "dyn.snapshot", None),
    ("repro.dyn.overlay", "DynamicGraph", "rebuild", "dyn.rebuild", None),
    ("repro.dyn.incremental", "IncrementalRecompute", "run", "dyn.repair", _tag_repair),
    ("repro.cache.results", "ResultCache", "lookup", "cache.lookup", _tag_lookup),
    ("repro.cache.results", "ResultCache", "store", "cache.store", None),
    ("repro.cache.results", "ResultCache", "refresh_landmarks", "cache.refresh_landmarks", None),
    ("repro.cache.reuse", "CachedQueryEngine", "query", "cache.query", _tag_query),
    ("repro.serve.server", "SIMDXServer", "submit", "serve.submit", None),
    ("repro.serve.server", "SIMDXServer", "update", "serve.update", None),
    *_hook_targets(),
]

#: Per-layer metrics a workload's ``controls`` supplies; 0.0 on the
#: workloads that do not cross that layer.
FROM_CONTROLS = (
    "core.batch.k1_over_run", "shard.overhead_ratio", "cache.evictions",
    "serve.queue_wait_ms_p50", "serve.batch_service_ms_p50",
    "serve.batch_size_mean", "serve.batch_fill_mean", "serve.batches",
    "serve.cache_hit_share", "serve.front_door_overhead_ms_p50",
    "serve.engine_share", "serve.shed", "serve.latency_p90_ms",
    "serve.latency_p99_ms",
)

_ENGINE = ("core.engine.run", "core.engine.run_batch")
_KERNEL_SPANS = tuple("core.kernels." + k for k in _KERNELS)
_HOOK_SPANS = tuple("algorithms." + h for h in _HOOKS)


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(spans: Sequence[Sequence]) -> float:
    return 1e3 * median(duration(s) for s in spans) if spans else 0.0


def layer_metrics(
    setup_spans: Sequence[Sequence], spans: Sequence[Sequence], rounds: int
) -> Dict[str, float]:
    """Per-layer metrics of the traced pass, per traced round.

    ``spans`` are those of the traced rounds: ``_s`` values are their
    seconds summed and divided by ``rounds``, and counts are divided the
    same way (every round does the same work, so the quotient is exact).
    ``graph.*`` are totals over ``setup_spans``, the one traced set-up.
    """
    named = by_name(spans)
    own = self_times(spans)

    def total(*names: str) -> float:
        return sum(duration(s) for n in names for s in named.get(n, ())) / rounds

    def count(*names: str) -> float:
        return sum(len(named.get(n, ())) for n in names) / rounds

    def self_total(*names: str) -> float:
        return sum(own[i] for i, s in enumerate(spans) if s[NAME] in names) / rounds

    def tagged(name: str, tag: str) -> List[Sequence]:
        return [s for s in named.get(name, ()) if s[TAG] == tag]

    def share(name: str, tag: str) -> float:
        return _ratio(len(tagged(name, tag)), len(named.get(name, ())))

    def mean_seconds(group: List[Sequence]) -> float:
        return _ratio(sum(map(duration, group)), len(group))

    runs = [s[TAG] for n in _ENGINE for s in named.get(n, ()) if s[TAG]]

    def run_sum(key: str) -> float:
        return sum(t.get(key, 0) for t in runs) / rounds

    in_setup = by_name(setup_spans)
    engine_self = self_total(*_ENGINE)
    return {
        **dict.fromkeys(FROM_CONTROLS, 0.0),
        "graph.load_dataset_s": sum(map(duration, in_setup.get("graph.load_dataset", ()))),
        "graph.transpose_s": sum(map(duration, in_setup.get("graph.transpose", ()))),
        "core.engine.run_s": outermost_seconds(spans, _ENGINE) / rounds,
        "core.engine.self_s": engine_self,
        "core.engine.supersteps": run_sum("supersteps"),
        "core.engine.us_per_superstep": _ratio(1e6 * engine_self, run_sum("supersteps")),
        "core.jit.build_s": total("core.jit.build"),
        "core.jit.build_calls": count("core.jit.build"),
        "core.jit.ballot_share": share("core.jit.build", "ballot"),
        "core.filters.build_s": total("core.filters.build"),
        "core.frontier.bins_s": total("core.frontier.bins"),
        "core.frontier.classify_s": total("core.frontier.classify"),
        "gpu.primitives.concat_s": total("gpu.primitives.concat"),
        "core.kernels.busy_s": total(*_KERNEL_SPANS),
        "core.kernels.calls": count(*_KERNEL_SPANS),
        "core.kernels.walk_s": total("core.kernels.walk_edges"),
        "core.kernels.unique_s": total(
            "core.kernels.sorted_unique", "core.kernels.union_sorted"),
        "core.kernels.segment_reduce_s": total("core.kernels.segment_reduce"),
        "core.kernels.edges_walked": run_sum("edges_walked"),
        "core.acc.combine_s": total("core.acc.combine"),
        "algorithms.hooks_s": outermost_seconds(spans, _HOOK_SPANS) / rounds,
        "algorithms.hooks_calls": count(*_HOOK_SPANS),
        "core.direction.decide_s": total("core.direction.decide"),
        "core.direction.pull_share": _ratio(run_sum("pull_records"), run_sum("records")),
        "core.direction.splits": run_sum("splits"),
        "core.batch.lane_pairs": run_sum("lane_pairs"),
        "core.batch.union_edges": run_sum("union_edges"),
        "core.batch.amortization": _ratio(run_sum("lane_pairs"), run_sum("union_edges")),
        "gpu.device.launch_s": total("gpu.device.launch"),
        "gpu.device.launches": count("gpu.device.launch"),
        "gpu.barrier.sync_s": total("gpu.barrier.sync"),
        "gpu.barrier.syncs": count("gpu.barrier.sync"),
        "shard.run_s": total("shard.run"),
        "shard.self_s": self_total("shard.run"),
        "shard.plan_build_s": total("shard.plan_build"),
        "shard.boundary_updates": run_sum("boundary_updates"),
        "dyn.apply_s": total("dyn.apply"),
        "dyn.apply_calls": count("dyn.apply"),
        "dyn.snapshot_s": total("dyn.snapshot"),
        "dyn.snapshot_calls": count("dyn.snapshot"),
        "dyn.rebuilds": count("dyn.rebuild"),
        "dyn.repair_s": total("dyn.repair"),
        "dyn.repair_calls": count("dyn.repair"),
        "dyn.repair_scratch_fallbacks": len(tagged("dyn.repair", "from_scratch")) / rounds,
        "dyn.repair_over_scratch": _ratio(
            mean_seconds(tagged("dyn.repair", "incremental")),
            mean_seconds(tagged("cache.query", "miss"))),
        "cache.lookup_s": total("cache.lookup"),
        "cache.lookups": count("cache.lookup"),
        "cache.hit_share": share("cache.lookup", "hit"),
        "cache.repair_share": share("cache.lookup", "stale"),
        "cache.miss_share": share("cache.lookup", "miss"),
        "cache.store_s": total("cache.store"),
        "cache.refresh_landmarks_s": total("cache.refresh_landmarks"),
        "cache.hit_latency_us": 1e3 * _median_ms(tagged("cache.query", "hit")),
        "serve.submit_ms_p50": _median_ms(named.get("serve.submit", ())),
        "serve.update_ms_p50": _median_ms(named.get("serve.update", ())),
        "trace.self_sum_ratio": _ratio(sum(own), root_seconds(spans, ROUND)),
    }
