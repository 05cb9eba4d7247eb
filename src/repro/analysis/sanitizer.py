"""Runtime sanitizer for the simulated SIMD-X engine.

Enabled with ``EngineConfig.sanitize=True``, the sanitizer shadows each
superstep's functional execution and turns the ACC model's implicit
contracts into checked invariants:

* **non-combined writes / write-write conflicts** - the paper's central
  claim is that ACC eliminates atomics *by construction*: a push update is
  only valid if it flows through the ``CombineOp`` segment reduction
  before touching vertex state. The sanitizer records every update stream
  an ACC hook produces and every ``apply`` the engine commits, rebuilds
  the metadata a faithful Compute->Combine->apply sequence would have
  produced, and compares it to the real metadata at superstep end. A
  mismatch on a ``(lane, vertex)`` that received several concurrent
  updates is a *write-write conflict* (it would have required an atomic
  on real hardware); any other mismatch is a *non-combined write*.
* **phase order** - gathers and scatters must read iteration-start
  metadata: operands are compared bit-for-bit against the superstep's
  snapshot, so a gather that observes metadata mutated earlier in the
  same superstep is flagged.
* **lane remaps** - across a :meth:`BatchedFrontier.sub_batch`
  split/merge, the planned sub-batches must partition the live lanes and
  every view's lane must map back to exactly its own frontier.
* **impure hooks** - ACC hooks receive read-only views of caller-owned
  arrays; an in-place mutation raises inside NumPy and is converted to a
  violation. The graph's CSR arrays are additionally frozen
  (``writeable=False``) and checksummed before/after every superstep, so
  mutation through a stale writable alias is caught too.
* **accounting** - iteration records must be non-negative and
  consistent, and every ``RunResult.extra`` key must be registered in
  :mod:`repro.analysis.registry` and keep the value contract declared
  there.

The sanitizer *records, never re-executes*: ACC hooks may have internal
side effects (delta-SSSP's bucket advance, PageRank's pending reset), so
each hook is invoked exactly once per engine call and all checking happens
on the recorded streams. A violation raises :class:`SanitizerError` - the
engine always runs the sanitizer that way - or, for a sanitizer built
directly with ``RuntimeSanitizer(graph, raise_on_violation=False)``, is
collected into the report; a clean engine run lands the machine-readable
report in ``RunResult.extra["sanitizer"]``.
"""

from __future__ import annotations

import collections
import enum
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import registry


class ViolationKind(enum.Enum):
    """Classes of ACC-contract violations the sanitizer detects."""

    NON_COMBINED_WRITE = "non-combined-write"
    WRITE_WRITE_CONFLICT = "write-write-conflict"
    PHASE_ORDER = "phase-order"
    LANE_REMAP = "lane-remap"
    IMPURE_HOOK = "impure-hook"
    CSR_MUTATION = "csr-mutation"
    ACCOUNTING = "accounting"
    EXTRA_KEY = "extra-key"
    FRONTIER_ORDER = "frontier-order"


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected contract violation."""

    kind: ViolationKind
    detail: str
    iteration: int = 0
    lane: Optional[int] = None
    vertices: Tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "detail": self.detail,
            "iteration": self.iteration,
            "lane": self.lane,
            "vertices": list(self.vertices),
        }

    def __str__(self) -> str:
        where = f"iteration {self.iteration}"
        if self.lane is not None:
            where += f", lane {self.lane}"
        if self.vertices:
            where += f", vertices {list(self.vertices)}"
        return f"[{self.kind.value}] {self.detail} ({where})"


class SanitizerError(RuntimeError):
    """Raised on the first violation unless ``raise_on_violation=False``."""

    def __init__(self, violations: Sequence[SanitizerViolation]):
        self.violations = list(violations)
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(
            f"sanitizer detected {len(self.violations)} ACC-contract "
            f"violation(s):\n{lines}"
        )


def _equal_nan(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit array equality where NaN == NaN."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" and b.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _mismatch_mask(expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    eq = expected == actual
    if expected.dtype.kind == "f" and actual.dtype.kind == "f":
        eq |= np.isnan(expected) & np.isnan(actual)
    return ~eq


class RuntimeSanitizer:
    """Shadow checker for one engine run (single-source or batched).

    The engine drives it through a fixed protocol:

    * :meth:`wrap` every algorithm instance (the single algorithm, or the
      batch prototype plus each lane clone) so every ACC hook call is
      intercepted;
    * :meth:`freeze_graph` once before the loop, :meth:`release` in a
      ``finally``;
    * :meth:`begin_superstep` / :meth:`end_superstep` around each
      iteration's functional work;
    * :meth:`check_groups` / :meth:`check_sub_batch` at the batched
      loop's split points, :meth:`observe_record` per iteration record;
    * :meth:`validate_extra` on the finished ``extra`` mapping, then
      :meth:`report` for ``extra["sanitizer"]``.
    """

    def __init__(self, graph, *, raise_on_violation: bool = True):
        self.graph = graph
        self.raise_on_violation = raise_on_violation
        self.violations: List[SanitizerViolation] = []
        self._checks: collections.Counter = collections.Counter()
        self._supersteps = 0
        self._iteration = 0
        self._last_record_iteration = 0
        # Running frontier_edges total over the observed records - the
        # ground truth the per-shard scanned-edge breakdown must sum to.
        self._record_frontier_edges = 0
        # (array, previous writeable flag) of every frozen CSR array.
        self._frozen: List[Tuple[np.ndarray, bool]] = []
        self._frozen_ids: set = set()
        self._begin_checksums: Optional[List[int]] = None
        # Superstep shadow state, reset by begin_superstep.
        self._snapshot: Optional[np.ndarray] = None
        self._update_dsts: Dict[int, List[np.ndarray]] = {}
        self._combined_full: Dict[int, np.ndarray] = {}
        self._apply_records: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def wrap(self, algorithm, lane: Optional[int]) -> "_SanitizedAlgorithm":
        """Proxy ``algorithm`` so every ACC hook call is intercepted.

        ``lane`` is the metadata row the instance serves: ``0`` for a
        single-source run, the lane index for a batch clone, ``None`` for
        the batch prototype, which computes nothing.
        """
        return _SanitizedAlgorithm(algorithm, self, lane)

    def freeze_graph(self) -> None:
        """Mark the graph's CSR arrays read-only (restored by release)."""
        views = [self.graph.out_csr]
        if getattr(self.graph, "in_csr_built", False):
            views.append(self.graph.in_csr)
        for view in views:
            for arr in (view.offsets, view.targets, view.weights):
                if id(arr) in self._frozen_ids:
                    continue
                self._frozen_ids.add(id(arr))
                self._frozen.append((arr, bool(arr.flags.writeable)))
                arr.flags.writeable = False

    def release(self) -> None:
        """Restore the CSR arrays' original writeable flags."""
        for arr, writeable in self._frozen:
            arr.flags.writeable = writeable
        self._frozen = []
        self._frozen_ids = set()

    # ------------------------------------------------------------------
    # Superstep shadow
    # ------------------------------------------------------------------
    def begin_superstep(self, iteration: int, metadata: np.ndarray) -> None:
        self._supersteps += 1
        self._iteration = iteration
        # The in-CSR is built lazily on the first pull iteration; freeze
        # it the superstep after it appears.
        self.freeze_graph()
        self._begin_checksums = self._graph_checksums()
        self._snapshot = np.array(metadata, dtype=np.float64, copy=True)
        self._update_dsts = {}
        self._combined_full = {}
        self._apply_records = {}
        self._checks["supersteps"] += 1

    def end_superstep(
        self, iteration: int, metadata: np.ndarray, frontiers=()
    ) -> None:
        if self._snapshot is None:
            return
        # The driver never re-sorts an id set: every lane's next frontier
        # must already be canonical (int64, strictly increasing).
        for lane, frontier in enumerate(frontiers):
            self._checks["frontier_order"] += 1
            if frontier.dtype != np.int64 or frontier.ndim != 1 or not bool(
                (frontier[1:] > frontier[:-1]).all()
            ):
                self._violation(
                    ViolationKind.FRONTIER_ORDER,
                    f"next frontier is not a strictly increasing int64 "
                    f"array (dtype {frontier.dtype}, {frontier.size} ids)",
                    lane=lane,
                )
        expected = self._snapshot.copy()
        for lane, recs in self._apply_records.items():
            for touched, new_values in recs:
                if expected.ndim == 2:
                    expected[lane, touched] = new_values
                else:
                    expected[touched] = new_values
        actual = np.asarray(metadata, dtype=np.float64)
        self._checks["metadata_compare"] += 1
        if not _equal_nan(expected, actual):
            self._report_metadata_mismatch(iteration, expected, actual)
        end_checksums = self._graph_checksums()
        if self._begin_checksums is not None and end_checksums != self._begin_checksums:
            self._violation(
                ViolationKind.CSR_MUTATION,
                "graph CSR arrays changed during the superstep (mutation "
                "through a stale writable alias?)",
            )
        self._snapshot = None

    def _report_metadata_mismatch(
        self, iteration: int, expected: np.ndarray, actual: np.ndarray
    ) -> None:
        mism = _mismatch_mask(expected, actual)
        per_lane = (
            [(lane, np.nonzero(mism[lane])[0]) for lane in range(mism.shape[0])]
            if mism.ndim == 2 else [(0, np.nonzero(mism)[0])]
        )
        for lane, vertices in per_lane:
            if vertices.size == 0:
                continue
            dst_streams = self._update_dsts.get(lane, [])
            dsts = (
                np.concatenate(dst_streams) if dst_streams
                else np.zeros(0, dtype=np.int64)
            )
            counts = np.bincount(dsts, minlength=int(actual.shape[-1])) if dsts.size else None
            conflicted = counts is not None and bool((counts[vertices] >= 2).any())
            if conflicted:
                kind = ViolationKind.WRITE_WRITE_CONFLICT
                detail = (
                    "metadata differs from the recorded Compute->Combine->"
                    "apply shadow on vertices that received concurrent "
                    "updates - a write-write conflict that bypassed the "
                    "CombineOp reduction (would-be atomic)"
                )
            else:
                kind = ViolationKind.NON_COMBINED_WRITE
                detail = (
                    "metadata was written outside the recorded "
                    "Compute->Combine->apply sequence"
                )
            self._violation(
                kind, detail, lane=lane, vertices=tuple(vertices[:8].tolist())
            )

    # ------------------------------------------------------------------
    # Batched-run structure checks
    # ------------------------------------------------------------------
    def check_groups(self, iteration: int, live, groups) -> None:
        """The planned sub-batches must partition the live lanes."""
        self._checks["group_plans"] += 1
        seen: List[int] = []
        for group in groups:
            seen.extend(int(l) for l in group.lanes)
        duplicates = sorted({l for l in seen if seen.count(l) > 1})
        if duplicates:
            self._violation(
                ViolationKind.LANE_REMAP,
                f"lanes {duplicates} assigned to more than one sub-batch",
            )
        live_set = {int(l) for l in live}
        if set(seen) != live_set:
            missing = sorted(live_set - set(seen))
            extra = sorted(set(seen) - live_set)
            self._violation(
                ViolationKind.LANE_REMAP,
                f"sub-batches do not partition the live lanes "
                f"(missing {missing}, unexpected {extra})",
            )

    def check_sub_batch(self, view, lanes, lane_frontiers, iteration: int) -> None:
        """A sub-batch view must map each lane to exactly its frontier."""
        self._checks["sub_batch_views"] += 1
        lanes = [int(l) for l in lanes]
        if view.lane_ids is not None:
            if [int(l) for l in view.lane_ids] != lanes:
                self._violation(
                    ViolationKind.LANE_REMAP,
                    f"sub-batch lane_ids {list(view.lane_ids)} do not match "
                    f"the planned lanes {lanes}",
                )
                return
            local_of = {lane: i for i, lane in enumerate(lanes)}
        else:
            local_of = {lane: lane for lane in lanes}
        parts = []
        for lane in lanes:
            frontier = lane_frontiers[lane]
            if frontier.size:
                parts.append(frontier)
            if not np.array_equal(view.lane_vertices(local_of[lane]), frontier):
                self._violation(
                    ViolationKind.LANE_REMAP,
                    "sub-batch view does not reproduce the lane's frontier "
                    "after the split remap",
                    lane=lane,
                )
        expected_union = (
            np.unique(np.concatenate(parts)) if parts
            else np.zeros(0, dtype=np.int64)
        )
        if not np.array_equal(view.vertices, expected_union):
            self._violation(
                ViolationKind.LANE_REMAP,
                "sub-batch union vertices differ from the union of the "
                "group lanes' frontiers",
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def observe_record(self, record) -> None:
        """Sanity-check one IterationRecord as the engine appends it."""
        self._checks["records"] += 1
        for attr in (
            "frontier_vertices", "frontier_edges", "active_edges",
            "lane_edge_pairs", "active_lanes",
            "compute_us", "filter_us", "barrier_us", "launch_us",
        ):
            value = getattr(record, attr)
            if value < 0:
                self._violation(
                    ViolationKind.ACCOUNTING,
                    f"iteration record field {attr} is negative ({value!r})",
                )
        if record.active_edges > record.frontier_edges:
            self._violation(
                ViolationKind.ACCOUNTING,
                f"active_edges ({record.active_edges}) exceeds the "
                f"iteration's walked edges ({record.frontier_edges})",
            )
        if record.iteration < self._last_record_iteration:
            self._violation(
                ViolationKind.ACCOUNTING,
                f"iteration counter went backwards "
                f"({self._last_record_iteration} -> {record.iteration})",
            )
        self._last_record_iteration = max(
            self._last_record_iteration, int(record.iteration)
        )
        self._record_frontier_edges += max(0, int(record.frontier_edges))

    def validate_extra(
        self, extra: Dict[str, object], record_edges: Optional[int] = None
    ) -> None:
        """Walk a finished ``extra`` mapping against the registry
        (:func:`~repro.analysis.registry.check_extra`); ``record_edges``
        defaults to the frontier_edges total of the observed records."""
        self._checks["extra_keys"] += 1
        if record_edges is None:
            record_edges = self._record_frontier_edges
        for key, detail in registry.check_extra(extra, record_edges):
            self._violation(
                ViolationKind.ACCOUNTING if registry.is_registered(key)
                else ViolationKind.EXTRA_KEY,
                detail,
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Machine-readable summary for ``RunResult.extra['sanitizer']``."""
        return {
            "clean": not self.violations,
            "supersteps": self._supersteps,
            "checks": dict(self._checks),
            "violations": [v.as_dict() for v in self.violations],
        }

    # ------------------------------------------------------------------
    # Internals shared with the proxies
    # ------------------------------------------------------------------
    def _violation(
        self,
        kind: ViolationKind,
        detail: str,
        *,
        lane: Optional[int] = None,
        vertices: Tuple[int, ...] = (),
    ) -> None:
        self.violations.append(
            SanitizerViolation(
                kind=kind,
                detail=detail,
                iteration=self._iteration,
                lane=lane,
                vertices=tuple(int(v) for v in vertices),
            )
        )
        if self.raise_on_violation:
            raise SanitizerError(self.violations)

    def _graph_checksums(self) -> List[int]:
        return [zlib.adler32(arr.tobytes()) for arr, _ in self._frozen]

    def _record_updates(
        self,
        lane_key: int,
        updates: np.ndarray,
        dst_ids: np.ndarray,
    ) -> None:
        """Record the destination of every valid (non-NaN) update offered."""
        if self._snapshot is None:
            return
        valid = ~np.isnan(np.asarray(updates, dtype=np.float64))
        self._update_dsts.setdefault(lane_key, []).append(
            np.asarray(dst_ids, dtype=np.int64)[valid]
        )


class _SanitizedCombineOp:
    """Records the segment reductions the engine performs for one lane."""

    def __init__(self, op, sanitizer: RuntimeSanitizer, lane_key: int):
        self._op = op
        self._san = sanitizer
        self._lane_key = lane_key

    def compact_reduce(
        self, values, segment_ids, num_segments, *, ids_sorted=False, backend=None
    ):
        touched, combined = self._op.compact_reduce(
            values, segment_ids, num_segments,
            ids_sorted=ids_sorted, backend=backend,
        )
        if self._san._snapshot is not None:
            full = np.full(num_segments, self._op.identity, dtype=np.float64)
            full[touched] = combined
            self._san._combined_full[self._lane_key] = full
            self._san._checks["combines"] += 1
        return touched, combined

    def __getattr__(self, name):
        return getattr(self._op, name)


class _SanitizedAlgorithm:
    """Recording proxy around one ACC algorithm instance.

    Hooks are invoked exactly once per engine call (never re-executed -
    hooks may carry internal state) on read-only views of every array
    argument; update streams, reductions and applies are recorded for the
    sanitizer's end-of-superstep comparison.
    """

    def __init__(self, inner, sanitizer: RuntimeSanitizer, lane: Optional[int]):
        self._inner = inner
        self._san = sanitizer
        self._lane = lane
        self._lane_key = 0 if lane is None else int(lane)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    # -------------------------- helpers ------------------------------
    @staticmethod
    def _readonly(value):
        if isinstance(value, np.ndarray):
            view = value.view()
            view.flags.writeable = False
            return view
        return value

    def _pure(self, hook: str, fn, *args, **kwargs):
        """Call ``fn`` on read-only views; a write is an impure-hook."""
        ro_args = [self._readonly(a) for a in args]
        ro_kwargs = {k: self._readonly(v) for k, v in kwargs.items()}
        self._san._checks["hook_calls"] += 1
        try:
            return fn(*ro_args, **ro_kwargs)
        except ValueError as exc:
            if "read-only" not in str(exc):
                raise
            self._san._violation(
                ViolationKind.IMPURE_HOOK,
                f"{type(self._inner).__name__}.{hook} mutated a "
                f"caller-owned array in place",
                lane=self._lane,
            )
            # Collect-only mode reaches here: keep the run alive on
            # writable scratch copies (the hook re-runs, so post-violation
            # state is best-effort - the violation is already recorded).
            copies = [
                a.copy() if isinstance(a, np.ndarray) else a for a in args
            ]
            copy_kwargs = {
                k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in kwargs.items()
            }
            return fn(*copies, **copy_kwargs)

    def _check_operands(
        self, hook: str, src_meta, dst_meta, src_ids, dst_ids
    ) -> None:
        """Compute operands must be iteration-start metadata, bit-for-bit."""
        snap = self._san._snapshot
        if snap is None:
            return
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if snap.ndim == 1:
            exp_src, exp_dst = snap[src_ids], snap[dst_ids]
        elif self._lane is not None:
            exp_src = snap[self._lane, src_ids]
            exp_dst = snap[self._lane, dst_ids]
        else:
            return
        self._san._checks["phase_order"] += 1
        for name, got, exp, ids in (
            ("source", np.asarray(src_meta), exp_src, src_ids),
            ("destination", np.asarray(dst_meta), exp_dst, dst_ids),
        ):
            if not _equal_nan(got, exp):
                bad = ids[np.nonzero(_mismatch_mask(exp, got.astype(np.float64)))[0]]
                self._san._violation(
                    ViolationKind.PHASE_ORDER,
                    f"{hook} read {name} metadata mutated earlier in the "
                    f"same superstep (operands differ from the "
                    f"iteration-start snapshot)",
                    lane=self._lane,
                    vertices=tuple(np.unique(bad)[:8].tolist()),
                )

    # ---------------------- intercepted ACC API ----------------------
    @property
    def combine_op(self):
        return _SanitizedCombineOp(
            self._inner.combine_op, self._san, self._lane_key
        )

    def compute_edges(self, src_meta, weights, dst_meta, src_ids, dst_ids, graph):
        self._check_operands("compute_edges", src_meta, dst_meta, src_ids, dst_ids)
        updates = self._pure(
            "compute_edges", self._inner.compute_edges,
            src_meta, weights, dst_meta, src_ids, dst_ids, graph,
        )
        self._san._record_updates(self._lane_key, updates, dst_ids)
        return updates

    def apply(self, old, combined, touched):
        san = self._san
        touched_arr = np.asarray(touched, dtype=np.int64)
        if san._snapshot is not None:
            san._checks["applies"] += 1
            reduced = san._combined_full.get(self._lane_key)
            if reduced is None:
                san._violation(
                    ViolationKind.NON_COMBINED_WRITE,
                    "apply invoked without a CombineOp reduction this "
                    "superstep - updates bypassed Combine",
                    lane=self._lane,
                    vertices=tuple(touched_arr[:8].tolist()),
                )
            elif not _equal_nan(
                np.asarray(combined, dtype=np.float64), reduced[touched_arr]
            ):
                san._violation(
                    ViolationKind.NON_COMBINED_WRITE,
                    "apply received values that were not produced by the "
                    "CombineOp reduction",
                    lane=self._lane,
                    vertices=tuple(touched_arr[:8].tolist()),
                )
        new_values = self._pure("apply", self._inner.apply, old, combined, touched)
        if san._snapshot is not None:
            san._apply_records.setdefault(self._lane_key, []).append(
                (
                    touched_arr.copy(),
                    np.asarray(new_values, dtype=np.float64).copy(),
                )
            )
        return new_values

    def active_mask(self, curr, prev):
        return self._pure("active_mask", self._inner.active_mask, curr, prev)

    def gather_mask(self, metadata, graph, frontier=None):
        return self._pure(
            "gather_mask", self._inner.gather_mask, metadata, graph, frontier
        )

    def on_frontier_expanded(self, frontier, metadata):
        return self._pure(
            "on_frontier_expanded", self._inner.on_frontier_expanded,
            frontier, metadata,
        )

    def converged(self, curr, prev, iteration):
        return self._pure(
            "converged", self._inner.converged, curr, prev, iteration
        )

    def vertex_value(self, metadata):
        return self._pure(
            "vertex_value", self._inner.vertex_value, metadata
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sanitized({self._inner!r}, lane={self._lane})"
