"""Incremental recompute for the monotone min-combine algorithms.

BFS, SSSP and WCC share one structure: metadata starts at an upper bound
(infinity, or a vertex's own id) and only ever *decreases*, through a MIN
combine over per-edge offers that are monotone in their operands. On a
fixed graph that gives each of them a unique fixed point - the same one
the engine reaches from scratch, bit for bit, regardless of schedule or
direction (for SSSP the offer ``dist + w`` is evaluated in float64 the
same way on every path, so even float results are schedule-independent).

That uniqueness is what makes *repair* exact: seed the engine with any
warm state that is (a) everywhere >= the new fixed point and (b) paired
with a frontier from which every stale vertex is still reachable by
improving offers, and running to convergence lands on the identical bits
a from-scratch run produces. This module constructs such warm states from
an :class:`repro.dyn.overlay.UpdateReceipt`:

* **Inserts** only add offers, so values can only improve: keep the old
  result and seed the frontier with the inserted edges' source endpoints.
* **Deletes** can invalidate values. For BFS/SSSP the *support graph*
  (edges with ``old[v] == old[u] + w``, exact in float64) captures every
  way a value is justified; vertices whose every justification chain
  crossed a deleted support edge form the reset set - computed as the
  support-closure of the deleted support edges' destinations - and go
  back to infinity. For WCC, equal-label support cycles make that closure
  unsound, so repair resets every vertex of the components the deleted
  edges touched back to its own id.
* The seed frontier is the reset set's in-boundary in the *new* graph,
  plus insert sources, plus the query source when it was reset.

One warm-start hazard is handled explicitly: BFS's ``gather_mask`` only
gathers at unvisited (infinite) vertices, which is correct from scratch
but would starve a visited vertex whose level must *decrease* after an
insert. The warm-start wrapper substitutes the frontier-bound mask
(``level > min(frontier levels) + 1``), which never excludes a vertex an
offer could improve. SSSP's and WCC's masks are already frontier-bound
and warm-start safe.

Repair falls back to a from-scratch run (still exact, by definition)
whenever its preconditions do not hold - unsupported algorithm, or
non-positive edge weights, where the support graph may contain cycles.
The differential fuzz harness (`tests/test_differential_fuzz.py`, dyn
axis) checks repaired-vs-scratch bit-identity on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis import registry
from repro.analysis.sanitizer import RuntimeSanitizer
from repro.core.acc import ACCAlgorithm, InitialState
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import RunResult
from repro.dyn.overlay import UpdateReceipt
from repro.graph.csr import CSRGraph

#: Algorithms incremental repair supports (monotone min-combine with a
#: unique fixed point). Everything else takes the from-scratch fallback.
REPAIRABLE_ALGORITHMS = ("bfs", "sssp", "wcc")


@dataclass(frozen=True)
class RepairPlan:
    """Warm state for one repair run: seeded metadata + frontier."""

    metadata: np.ndarray
    frontier: np.ndarray
    reset_vertices: int
    #: Frontier-bound gather-mask increment overriding the inner
    #: algorithm's mask (BFS); None delegates to the inner mask.
    gather_bound: Optional[float] = None

    @property
    def seed_vertices(self) -> int:
        return int(self.frontier.shape[0])


def metadata_from_values(name: str, values: np.ndarray, num_vertices: int) -> np.ndarray:
    """Reconstruct engine metadata from a result's ``values`` array."""
    values = np.asarray(values)
    if values.shape[0] != num_vertices:
        raise ValueError(
            f"result has {values.shape[0]} values for {num_vertices} vertices"
        )
    if name == "bfs":
        out = values.astype(np.float64)
        return np.where(out < 0, np.inf, out)
    if name in ("sssp", "wcc"):
        return values.astype(np.float64)
    raise ValueError(f"algorithm {name!r} is not repairable")


def plan_repair(
    name: str,
    receipt: UpdateReceipt,
    old_values: np.ndarray,
    *,
    source: Optional[int] = None,
) -> Optional[RepairPlan]:
    """Build the warm state for repairing ``old_values`` through ``receipt``.

    Returns ``None`` when repair preconditions fail and the caller must
    fall back to a from-scratch run.
    """
    if name not in REPAIRABLE_ALGORITHMS:
        return None
    n = receipt.num_vertices
    if receipt.old_graph.num_vertices != n:
        return None
    old_meta = metadata_from_values(name, old_values, n)

    if name == "wcc":
        return _plan_wcc(receipt, old_meta)

    if source is None or not (0 <= source < n):
        return None
    if name == "sssp":
        # Support-closure soundness needs strictly positive weights (the
        # support graph is acyclic because values strictly increase along
        # support edges).
        for g in (receipt.old_graph, receipt.new_graph):
            w = g.out_csr.weights
            if w.size and float(w.min()) <= 0.0:
                return None
    return _plan_traversal(name, receipt, old_meta, source)


def _plan_traversal(
    name: str, receipt: UpdateReceipt, old_meta: np.ndarray, source: int
) -> RepairPlan:
    """BFS/SSSP repair: support-closure reset + boundary frontier."""
    n = receipt.num_vertices
    weighted = name == "sssp"

    # Seeds: destinations of deleted edges that supported their old value.
    seeds = np.zeros(n, dtype=bool)
    if receipt.delete_edges.shape[0]:
        ds = receipt.delete_edges[:, 0]
        dd = receipt.delete_edges[:, 1]
        dw = (
            receipt.delete_weights.astype(np.float64)
            if weighted
            else np.ones(ds.shape[0], dtype=np.float64)
        )
        support = np.isfinite(old_meta[ds]) & (old_meta[dd] == old_meta[ds] + dw)
        seeds[dd[support]] = True

    reset = _support_closure(receipt.old_graph, old_meta, seeds, weighted)

    metadata = old_meta.copy()
    metadata[reset] = np.inf
    metadata[source] = 0.0

    frontier_mask = np.zeros(n, dtype=bool)
    _mark_boundary(frontier_mask, receipt.new_graph, reset, metadata)
    ins_src = receipt.insert_edges[:, 0]
    if ins_src.size:
        finite_src = ins_src[np.isfinite(metadata[ins_src])]
        frontier_mask[finite_src] = True
    if reset[source]:
        frontier_mask[source] = True
    reset_count = int(np.count_nonzero(reset))
    return RepairPlan(
        metadata=metadata,
        frontier=np.flatnonzero(frontier_mask).astype(np.int64),
        reset_vertices=reset_count,
        gather_bound=1.0 if name == "bfs" else None,
    )


def _plan_wcc(receipt: UpdateReceipt, old_meta: np.ndarray) -> RepairPlan:
    """WCC repair: reset whole components the deleted edges touched."""
    n = receipt.num_vertices
    reset = np.zeros(n, dtype=bool)
    if receipt.delete_edges.shape[0]:
        endpoints = receipt.delete_edges.reshape(-1)
        affected_labels = np.unique(old_meta[endpoints])
        reset = np.isin(old_meta, affected_labels)

    metadata = old_meta.copy()
    metadata[reset] = np.flatnonzero(reset).astype(np.float64)

    frontier_mask = reset.copy()
    _mark_boundary(frontier_mask, receipt.new_graph, reset, metadata)
    ins_src = receipt.insert_edges[:, 0]
    if ins_src.size:
        frontier_mask[ins_src] = True
    return RepairPlan(
        metadata=metadata,
        frontier=np.flatnonzero(frontier_mask).astype(np.int64),
        reset_vertices=int(np.count_nonzero(reset)),
    )


def _mark_boundary(
    frontier_mask: np.ndarray,
    graph: CSRGraph,
    reset: np.ndarray,
    metadata: np.ndarray,
) -> None:
    """Mark vertices with a finite value and an out-edge into the reset set:
    the reset rows of the in-CSR (the out-CSR itself when undirected)."""
    rows = np.flatnonzero(reset)
    if not rows.size:
        return
    into = graph.in_csr
    cand = into.targets[into.row_slots(rows)[0]]
    frontier_mask[cand[np.isfinite(metadata[cand])]] = True


def _support_closure(
    graph: CSRGraph, old_meta: np.ndarray, seeds: np.ndarray, weighted: bool
) -> np.ndarray:
    """Closure of ``seeds`` over the old graph's support edges.

    A support edge satisfies ``old[v] == old[u] + w`` with ``u`` finite -
    the exact float64 identity the engine's relaxation established. With
    strictly positive weights values strictly increase along support
    edges, so the support graph is a DAG rooted at the query source and
    the closure collects exactly the vertices whose every justification
    chain crossed a seed.
    """
    out = graph.out_csr
    reset = seeds.copy()
    wave = np.flatnonzero(seeds)
    while wave.size:
        # Only the wave's edge slots are read and widened (float32 ->
        # float64 is exact, so the identity below is unchanged).
        pos, degs = out.row_slots(wave)
        src_rep = np.repeat(wave, degs)
        tg = out.targets[pos].astype(np.int64)
        w = out.weights[pos].astype(np.float64) if weighted else 1.0
        support = np.isfinite(old_meta[src_rep]) & (
            old_meta[tg] == old_meta[src_rep] + w
        )
        cand = np.unique(tg[support])
        wave = cand[~reset[cand]]
        reset[wave] = True
    return reset


class WarmStartAlgorithm(ACCAlgorithm):
    """Wrap an ACC algorithm so the engine starts from a repair plan.

    ``init`` first runs the inner algorithm's ``init`` (allocating its
    per-run state - SSSP's pending set and bucket limit - against the new
    graph), then substitutes the plan's warm metadata and frontier and
    re-seeds the pending set from the warm frontier. All other hooks
    delegate, except ``gather_mask`` when the plan carries a
    ``gather_bound`` (the BFS warm-start hazard described in the module
    docstring).
    """

    def __init__(self, inner: ACCAlgorithm, plan: RepairPlan):
        self._inner = inner
        self._plan = plan
        self.name = inner.name
        self.combine_kind = inner.combine_kind
        self.combine_op = inner.combine_op
        self.max_iterations = inner.max_iterations
        self.uses_weights = inner.uses_weights
        self.starts_in_pull = inner.starts_in_pull
        # Warm runs repair one query; the batched path is not used.
        self.supports_multi_source = False

    def init(self, graph: CSRGraph, **params) -> InitialState:
        self._inner.init(graph, **params)
        metadata = self._plan.metadata.copy()
        frontier = self._plan.frontier.copy()
        pending = getattr(self._inner, "_pending", None)
        if pending is not None:
            pending[:] = False
            pending[frontier] = True
        return InitialState(metadata=metadata, frontier=frontier)

    def active_mask(self, curr, prev):
        return self._inner.active_mask(curr, prev)

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        return self._inner.compute_edges(
            src_meta, weights, dst_meta, src_ids, dst_ids, graph
        )

    def apply(self, old, combined, touched):
        return self._inner.apply(old, combined, touched)

    def converged(self, curr, prev, iteration):
        return self._inner.converged(curr, prev, iteration)

    def on_frontier_expanded(self, frontier, metadata):
        self._inner.on_frontier_expanded(frontier, metadata)

    def gather_mask(self, metadata, graph, frontier=None):
        bound = self._plan.gather_bound
        if bound is None:
            return self._inner.gather_mask(metadata, graph, frontier)
        if frontier is None or frontier.size == 0:
            return np.ones(metadata.shape[0], dtype=bool)
        # Frontier-bound form of the inner mask, safe under warm starts:
        # every offer this iteration is at least min(frontier) + bound, so
        # only strictly larger destinations can improve.
        return metadata > float(np.min(metadata[frontier])) + bound

    def vertex_value(self, metadata):
        return self._inner.vertex_value(metadata)


class IncrementalRecompute:
    """Repair previous results through update receipts, exactly.

    ``run`` returns a :class:`RunResult` bit-identical to a from-scratch
    engine run of ``algorithm`` on ``receipt.new_graph`` - via warm-start
    repair when the plan's preconditions hold, via the from-scratch
    fallback otherwise. The ``extra`` mapping is annotated with the
    repair-mode keys registered in :mod:`repro.analysis.registry`; under
    ``config.sanitize`` the annotations are validated against the
    sanitizer's dyn invariants.

    Composes with every engine configuration, including ``num_shards > 1``
    (the warm wrapper is an ordinary ACC algorithm, and repair runs on a
    materialized snapshot like any other run).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        device=None,
    ):
        self.config = config
        self.device = device

    def run(
        self,
        receipt: UpdateReceipt,
        algorithm: ACCAlgorithm,
        old_values: Optional[np.ndarray],
        *,
        force_scratch: bool = False,
    ) -> RunResult:
        plan = None
        if old_values is not None and not force_scratch:
            plan = plan_repair(
                algorithm.name,
                receipt,
                old_values,
                source=getattr(algorithm, "source", None),
            )
        engine = SIMDXEngine(
            receipt.new_graph, device=self.device, config=self.config
        )
        if plan is None:
            result = engine.run(algorithm)
            mode, reset, seeds = "from_scratch", 0, 0
        else:
            result = engine.run(WarmStartAlgorithm(algorithm, plan))
            mode, reset, seeds = "incremental", plan.reset_vertices, plan.seed_vertices
        result.extra[registry.DYN_REPAIR_MODE] = mode
        result.extra[registry.DYN_REPAIR_RESET_VERTICES] = reset
        result.extra[registry.DYN_REPAIR_SEED_VERTICES] = seeds
        result.extra[registry.DYN_GRAPH_VERSION] = int(receipt.version)
        if self.config is not None and self.config.sanitize:
            RuntimeSanitizer(receipt.new_graph).validate_extra(
                result.extra, sum(r.frontier_edges for r in result.iteration_records)
            )
        return result
