"""Central registry of every ``RunResult.extra`` key in the repository.

``RunResult.extra`` / ``BatchRunResult.extra`` are stringly-typed mappings,
which makes them the one result surface the type system cannot protect: a
typo'd key on the write side produces a silently-missing metric, a typo'd
key on the read side a ``KeyError`` only on the code path a test happens to
execute. Every key is therefore declared here, once, with a description,
the producers that write it and the contract its value keeps:

* **writers** in ``src/`` reference the module-level constants
  (``registry.FUSION`` etc.) instead of repeating string literals;
* **readers** (tests, benchmarks, experiment scripts) may keep literal
  keys, but the AST lint pass (:mod:`repro.analysis.lint`, rule
  ``extra-key``) checks every literal read or written against this
  registry - an unregistered literal is a lint failure;
* :func:`check_extra` walks a finished ``extra`` mapping against the
  declarations - unregistered keys and broken value contracts alike. The
  runtime sanitizer (:mod:`repro.analysis.sanitizer`) runs it on every
  sanitized run, and the dyn / cache layers run it on the keys they add
  after the engine returns.

Adding a key is one :func:`register` call; removing one is deleting it and
letting the linter point at every stale reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Value forms of :attr:`ExtraKey.value`.
COUNTER = "counter"      # a cumulative total: an integer >= 0 a run only grows
INT = "int"              # an integer >= ExtraKey.minimum
PER_SHARD = "per-shard"  # a list of extra["shards"] integers >= 0


@dataclass(frozen=True)
class ExtraKey:
    """Declaration of one ``RunResult.extra`` key and its value contract.

    Every contract field is optional; :meth:`problems` checks the ones a
    key declares, and a key that declares none is free-form.
    """

    name: str
    description: str
    #: Which code produces the key ("engine", "batch", "baseline", ...).
    producers: Tuple[str, ...] = ()
    #: COUNTER, INT or PER_SHARD; None leaves the value's type free.
    value: Optional[str] = None
    minimum: int = 0
    #: Legal values.
    choices: Optional[Tuple[object, ...]] = None
    #: Keys a mapping that carries this key must carry too.
    requires: Tuple[str, ...] = ()
    #: The value (a PER_SHARD list: its sum) is the records' frontier_edges total.
    equals_record_edges: bool = False
    #: ``(value, keys)``: while this key holds ``value``, ``keys`` must be 0.
    zero_when: Optional[Tuple[object, Tuple[str, ...]]] = None

    def contract(self) -> str:
        """The declared contract in one line (``repro_lint --list-keys``)."""
        parts = [f"int >= {self.minimum}" if self.value == INT else self.value]
        if self.choices is not None:
            parts.append(f"one of {self.choices}")
        if self.requires:
            parts.append("requires " + ", ".join(self.requires))
        if self.equals_record_edges:
            parts.append("totals the records' frontier_edges")
        if self.zero_when is not None:
            parts.append(f"{self.zero_when[0]!r} zeroes " + ", ".join(self.zero_when[1]))
        return "; ".join(p for p in parts if p) or "free-form"

    def problems(
        self, value: object, extra: Mapping[str, object], record_edges: int
    ) -> Iterator[str]:
        """What breaks this key's contract when it holds ``value`` in ``extra``."""
        total = value
        if self.value == PER_SHARD:
            shards = extra.get(SHARDS)
            if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
                yield f"must be a list of integers >= 0, got {value!r}"
                return
            if _is_int(shards, 1) and len(value) != shards:
                yield f"has {len(value)} entries for {shards} shards"
                return
            total = sum(int(v) for v in value)
        elif self.value is not None and not _is_int(value, self.minimum):
            yield f"must be an integer >= {self.minimum}, got {value!r}"
            return
        if self.choices is not None and value not in self.choices:
            yield f"= {value!r} is not one of {self.choices}"
        for other in self.requires:
            if other not in extra:
                yield f"requires extra[{other!r}] beside it"
        if self.equals_record_edges and total != record_edges:
            yield f"totals {total}, but the records' frontier_edges total {record_edges}"
        if self.zero_when is not None and value == self.zero_when[0]:
            for other in self.zero_when[1]:
                if extra.get(other, 0) != 0:
                    yield f"= {value!r} requires extra[{other!r}] = 0, got {extra[other]!r}"


def _is_int(value: object, minimum: int = 0) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


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


def check_extra(extra: Mapping[str, object], record_edges: int) -> List[Tuple[str, str]]:
    """``(key, problem)`` pairs of a finished ``extra`` mapping: unregistered
    keys and broken contracts (``record_edges``: the run's records'
    frontier_edges total). Empty when the mapping is clean."""
    problems = []
    for name, value in extra.items():
        key = _REGISTRY.get(name)
        if key is None:
            problems.append((name, f"RunResult.extra key {name!r} is not registered"))
        else:
            problems.extend(
                (name, f"extra[{name!r}] {p}") for p in key.problems(value, extra, record_edges)
            )
    return problems


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
    value=COUNTER,
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

STOPPED_AT_CAP = register(ExtraKey(
    "stopped_at_cap",
    "True when the superstep loop ended at the algorithm's max_iterations "
    "with a live frontier or an unconverged lane (any lane of a batch): "
    "the values are the capped state, not a fixed point. Not a failure.",
    producers=("engine", "batch", "shard"),
    choices=(False, True),
))
KERNEL_EDGES_WALKED = register(ExtraKey(
    "kernel_edges_walked",
    "Edges expanded by the engine's CSR walks across the whole run; "
    "equals the iteration records' frontier_edges total on every path "
    "(single, batched, sharded) - the sanitizer enforces the identity.",
    producers=("engine", "batch", "shard"),
    value=COUNTER,
    equals_record_edges=True,
))

# ----------------------------------------------------------------------
# Batched-run amortization bookkeeping
# ----------------------------------------------------------------------
UNION_EDGES_WALKED = register(ExtraKey(
    "union_edges_walked",
    "Edges the union CSR walks touched across all iterations.",
    producers=("batch",),
    value=COUNTER,
))
LANE_EDGE_PAIRS = register(ExtraKey(
    "lane_edge_pairs",
    "(edge, lane) pairs evaluated - what a serial execution would walk.",
    producers=("batch",),
    value=COUNTER,
))
PULL_EDGES_SCANNED = register(ExtraKey(
    "pull_edges_scanned",
    "In-edges scanned by pull iterations (the quantity splitting shrinks).",
    producers=("batch",),
    value=COUNTER,
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
    value=COUNTER,
))

# ----------------------------------------------------------------------
# Sharded multi-device execution (EngineConfig.num_shards > 1)
# ----------------------------------------------------------------------
SHARD_BOUNDARY_UPDATES = register(ExtraKey(
    "shard_boundary_updates",
    "Valid updates that crossed a shard boundary (push updates routed to "
    "a remote owner + pull gathers reading a remote source) - the "
    "exchange traffic of the per-superstep merge.",
    producers=("shard",),
    value=COUNTER,
))
SHARD_SCANNED_EDGES = register(ExtraKey(
    "shard_scanned_edges",
    "Per-shard scanned-edge totals (list of len shards); sums to the "
    "run's iteration-record frontier_edges total.",
    producers=("shard",),
    value=PER_SHARD,
    equals_record_edges=True,
))
SHARD_PEAK_BYTES = register(ExtraKey(
    "shard_peak_bytes",
    "Per-shard peak simulated device memory (list of len shards) - the "
    "quantity the Table-4 OOM regression bounds against one device.",
    producers=("shard",),
    value=PER_SHARD,
))
SHARDS = register(ExtraKey(
    "shards",
    "Number of contiguous vertex-range shards the run executed on "
    "(== EngineConfig.num_shards).",
    producers=("shard",),
    value=INT,
    minimum=1,
    requires=(SHARD_SCANNED_EDGES, SHARD_PEAK_BYTES),
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
    value=INT,
))
DYN_REPAIR_RESET_VERTICES = register(ExtraKey(
    "dyn_repair_reset_vertices",
    "Vertices whose value the repair plan invalidated (support-closure "
    "of the deleted edges for BFS/SSSP, whole touched components for "
    "WCC); 0 on the from-scratch fallback.",
    producers=("dyn",),
    value=COUNTER,
))
DYN_REPAIR_SEED_VERTICES = register(ExtraKey(
    "dyn_repair_seed_vertices",
    "Size of the repair run's warm-start frontier (reset-set boundary + "
    "insert sources + the query source when reset); 0 on the "
    "from-scratch fallback.",
    producers=("dyn",),
    value=COUNTER,
))
DYN_REPAIR_MODE = register(ExtraKey(
    "dyn_repair_mode",
    "How IncrementalRecompute produced the result: 'incremental' "
    "(warm-start repair from the affected frontier) or 'from_scratch' "
    "(exact fallback through a normal engine run).",
    producers=("dyn",),
    choices=("incremental", "from_scratch"),
    requires=(DYN_REPAIR_RESET_VERTICES, DYN_REPAIR_SEED_VERTICES),
    zero_when=("from_scratch", (DYN_REPAIR_RESET_VERTICES, DYN_REPAIR_SEED_VERTICES)),
))
CACHE_OUTCOME = register(ExtraKey(
    "cache_outcome",
    "How the result cache answered a query: 'hit' (stored values at the "
    "current graph version), 'repair' (stale entry repaired forward "
    "through the update receipts), or 'miss' (normal engine run). Only "
    "the reuse front-end (CachedQueryEngine) writes it; the server "
    "relays its hits and repairs, and its batch lanes carry no key.",
    producers=("cache",),
    choices=("hit", "repair", "miss"),
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
