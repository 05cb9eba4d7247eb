"""Central registry of every ``RunResult.extra`` key in the repository.

``RunResult.extra`` / ``BatchRunResult.extra`` are stringly-typed mappings,
which makes them the one result surface the type system cannot protect: a
typo'd key on the write side produces a silently-missing metric, a typo'd
key on the read side a ``KeyError`` only on the code path a test happens to
execute. Every key is therefore declared here, once, with a description and
the producers that write it:

* **writers** in ``src/`` reference the module-level constants
  (``registry.FUSION`` etc.) instead of repeating string literals;
* **readers** (tests, benchmarks, experiment scripts) may keep literal
  keys, but the AST lint pass (:mod:`repro.analysis.lint`, rule
  ``extra-key``) checks every literal read or written against this
  registry - an unregistered literal is a lint failure;
* the **runtime sanitizer** (:mod:`repro.analysis.sanitizer`) validates
  the keys of a finished run's ``extra`` mapping against the registry, so
  even dynamically-built keys are caught when a sanitized run ships them.

Adding a key is one :func:`register` call; removing one is deleting it and
letting the linter point at every stale reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple


@dataclass(frozen=True)
class ExtraKey:
    """Declaration of one ``RunResult.extra`` key."""

    name: str
    description: str
    #: Which code produces the key ("engine", "batch", "baseline",
    #: "sanitizer", ...). Informational - shown by the lint CLI's
    #: ``--list-keys``.
    producers: Tuple[str, ...] = ()
    #: True for cumulative accounting counters: the value is a
    #: non-negative total that a run may only ever grow. The sanitizer
    #: cross-checks these against the iteration records.
    monotone_counter: bool = False


_REGISTRY: Dict[str, ExtraKey] = {}


def register(key: ExtraKey) -> str:
    """Register ``key`` and return its name (for constant definitions)."""
    if key.name in _REGISTRY:
        raise ValueError(f"extra key {key.name!r} registered twice")
    _REGISTRY[key.name] = key
    return key.name


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def registered_keys() -> Mapping[str, ExtraKey]:
    """Read-only view of the full registry."""
    return dict(_REGISTRY)


def monotone_counter_keys() -> List[str]:
    """Names of the registered cumulative accounting counters."""
    return [k.name for k in _REGISTRY.values() if k.monotone_counter]


def unknown_keys(extra: Mapping[str, object]) -> List[str]:
    """The keys of ``extra`` that are not registered (sorted)."""
    return sorted(k for k in extra if not is_registered(k))


# ----------------------------------------------------------------------
# Engine keys (single-source and batched runs)
# ----------------------------------------------------------------------
FUSION = register(ExtraKey(
    "fusion",
    "Kernel-fusion strategy the run executed (FusionStrategy.value).",
    producers=("engine", "batch"),
))
FILTER_MODE = register(ExtraKey(
    "filter_mode",
    "Task-management filter mode of the run (FilterMode.value).",
    producers=("engine", "batch"),
))
DIRECTION_SWITCHES = register(ExtraKey(
    "direction_switches",
    "Push<->pull switches of the (union) direction selector.",
    producers=("engine", "batch"),
    monotone_counter=True,
))
BREAKDOWN = register(ExtraKey(
    "breakdown",
    "Per-kernel simulated-time breakdown from the device profiler.",
    producers=("engine", "batch"),
))
JIT_PRE_ARMED_ITERATIONS = register(ExtraKey(
    "jit_pre_armed_iterations",
    "Iterations whose ballot filter was pre-armed at a pull->push switch.",
    producers=("engine", "batch"),
))

KERNEL_BACKEND = register(ExtraKey(
    "kernel_backend",
    "Execution backend of the CSR-walk kernel primitives "
    "(EngineConfig.kernel_backend: 'numpy' vectorized or 'python' "
    "loop reference - bit-identical results, different wall-clock).",
    producers=("engine", "batch", "shard"),
))
KERNEL_EDGES_WALKED = register(ExtraKey(
    "kernel_edges_walked",
    "Edges expanded by the backend's CSR walks across the whole run; "
    "equals the iteration records' frontier_edges total on every path "
    "(single, batched, sharded) - the sanitizer enforces the identity.",
    producers=("engine", "batch", "shard"),
    monotone_counter=True,
))

# ----------------------------------------------------------------------
# Batched-run amortization bookkeeping
# ----------------------------------------------------------------------
UNION_EDGES_WALKED = register(ExtraKey(
    "union_edges_walked",
    "Edges the union CSR walks touched across all iterations.",
    producers=("batch",),
    monotone_counter=True,
))
LANE_EDGE_PAIRS = register(ExtraKey(
    "lane_edge_pairs",
    "(edge, lane) pairs evaluated - what a serial execution would walk.",
    producers=("batch",),
    monotone_counter=True,
))
PULL_EDGES_SCANNED = register(ExtraKey(
    "pull_edges_scanned",
    "In-edges scanned by pull iterations (the quantity splitting shrinks).",
    producers=("batch",),
    monotone_counter=True,
))
SPLIT_ITERATIONS = register(ExtraKey(
    "split_iterations",
    "Iterations on which the batch executed as >1 sub-batch.",
    producers=("batch",),
))
LANE_SPLITS = register(ExtraKey(
    "lane_splits",
    "Number of split iterations (len of split_iterations).",
    producers=("batch",),
    monotone_counter=True,
))

# ----------------------------------------------------------------------
# Sharded multi-device execution (EngineConfig.num_shards > 1)
# ----------------------------------------------------------------------
SHARDS = register(ExtraKey(
    "shards",
    "Number of contiguous vertex-range shards the run executed on "
    "(== EngineConfig.num_shards).",
    producers=("shard",),
))
SHARD_BOUNDARY_UPDATES = register(ExtraKey(
    "shard_boundary_updates",
    "Valid updates that crossed a shard boundary (push updates routed to "
    "a remote owner + pull gathers reading a remote source) - the "
    "exchange traffic of the per-superstep merge.",
    producers=("shard",),
    monotone_counter=True,
))
SHARD_SCANNED_EDGES = register(ExtraKey(
    "shard_scanned_edges",
    "Per-shard scanned-edge totals (list of len shards); sums to the "
    "run's iteration-record frontier_edges total.",
    producers=("shard",),
))
SHARD_PEAK_BYTES = register(ExtraKey(
    "shard_peak_bytes",
    "Per-shard peak simulated device memory (list of len shards) - the "
    "quantity the Table-4 OOM regression bounds against one device.",
    producers=("shard",),
))

# ----------------------------------------------------------------------
# Serving layer (src/repro/serve/)
# ----------------------------------------------------------------------
SERVE_BATCH_FILL = register(ExtraKey(
    "serve_batch_fill",
    "Fill factor of a served batch: dispatched lanes / "
    "AdmissionPolicy.max_batch. 1.0 means the batch formed at max-K; "
    "smaller values mean the max_wait_ms deadline fired first.",
    producers=("serve",),
))
SERVE_QUEUE_WAIT_US = register(ExtraKey(
    "serve_queue_wait_us",
    "Mean queue wait of the batch's lanes in microseconds: time between "
    "a query's admission and its batch's dispatch (wall-clock in the "
    "live server, simulated time in the bench/experiments §9 sweep).",
    producers=("serve",),
))

# ----------------------------------------------------------------------
# Dynamic graphs and result reuse (src/repro/dyn/, src/repro/cache/)
# ----------------------------------------------------------------------
DYN_GRAPH_VERSION = register(ExtraKey(
    "dyn_graph_version",
    "DynamicGraph version the result is valid for (monotone update-batch "
    "counter; 0 is the pristine base graph).",
    producers=("dyn", "cache", "serve"),
))
DYN_REPAIR_MODE = register(ExtraKey(
    "dyn_repair_mode",
    "How IncrementalRecompute produced the result: 'incremental' "
    "(warm-start repair from the affected frontier) or 'from_scratch' "
    "(exact fallback through a normal engine run).",
    producers=("dyn",),
))
DYN_REPAIR_RESET_VERTICES = register(ExtraKey(
    "dyn_repair_reset_vertices",
    "Vertices whose value the repair plan invalidated (support-closure "
    "of the deleted edges for BFS/SSSP, whole touched components for "
    "WCC); 0 on the from-scratch fallback.",
    producers=("dyn",),
    monotone_counter=True,
))
DYN_REPAIR_SEED_VERTICES = register(ExtraKey(
    "dyn_repair_seed_vertices",
    "Size of the repair run's warm-start frontier (reset-set boundary + "
    "insert sources + the query source when reset); 0 on the "
    "from-scratch fallback.",
    producers=("dyn",),
    monotone_counter=True,
))
CACHE_OUTCOME = register(ExtraKey(
    "cache_outcome",
    "How the result cache answered a query: 'hit' (stored values at the "
    "current graph version), 'repair' (stale entry repaired forward "
    "through the update receipts), or 'miss' (normal engine run). Only "
    "the reuse front-end (CachedQueryEngine) writes it; the server "
    "relays its hits and repairs, and its batch lanes carry no key.",
    producers=("cache",),
))

# ----------------------------------------------------------------------
# Baselines and analysis
# ----------------------------------------------------------------------
MODEL = register(ExtraKey(
    "model",
    "One-line description of a baseline's execution model.",
    producers=("baseline",),
))
SANITIZER = register(ExtraKey(
    "sanitizer",
    "Machine-readable report of the runtime sanitizer "
    "(EngineConfig.sanitize=True): violation list + per-check counts.",
    producers=("sanitizer",),
))
