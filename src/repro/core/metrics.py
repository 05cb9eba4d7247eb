"""Per-run metrics, iteration traces and result containers.

Every system in the repository (SIMD-X and the baselines) returns a
:class:`RunResult`, so the benchmark harness can compare them uniformly.
The iteration trace carries everything the paper's figures need: which filter
ran, which direction, how large the frontier was, and the simulated time of
each component.

The trace is also the raw material for the traffic-model calibration:
:func:`phase_timings` folds a run's iterations into consecutive
same-direction phases (the push/pull clustering of Section 5) and
:func:`calibrate_pull_constants` fits the per-edge cost constants of
:class:`repro.core.direction.TrafficModel` back out of the measured
per-phase timings, so EXPERIMENTS.md can record the fit next to the shipped
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.atomics import AtomicProfile
from repro.gpu.kernel import WorkEstimate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.frontier import WorklistSizes


@dataclass(slots=True)
class IterationRecord:
    """One work unit of one BSP iteration.

    A single-device ``run`` emits one record per iteration; a batched
    iteration emits one per lane group and a sharded one one per scatter /
    gather unit of each shard (the run's traces join them with ``+``).

    ``frontier_vertices`` is always the size of the unit's active (push)
    frontier - the lanes' frontier union inside the unit's vertex range,
    never the gather worklist - on every path;
    ``frontier_edges`` counts the edges of the worklist the executed
    ``direction`` actually walked - the frontier's out-edges in push mode,
    the gather worklist's scanned in-edges in pull mode (which can span most
    of the graph, so their ratio is not a frontier degree in pull phases).
    ``active_edges`` is the subset of those edges whose source lay in the
    frontier: equal to ``frontier_edges`` in push mode, and the share that
    paid full per-edge work (rather than just a bitmap test) in pull mode.

    ``updates_valid``, ``updates_applied`` and ``atomic_profile`` are what
    the baseline cost models (:mod:`repro.baselines`) price: the unit's
    Compute outputs that were an update (not NaN), summed over its lanes;
    the metadata entries Combine + apply changed, credited to the unit
    each lane drained in; and, under ``EngineConfig.atomic_combine`` only
    (``None`` otherwise), the :class:`~repro.gpu.atomics.AtomicProfile` of
    the update destinations the unit's Combine was priced with - in a
    batched unit, one atomic per valid update, addressed by its (lane,
    destination) pair (lanes write separate metadata rows), so its
    ``num_ops`` equals ``updates_valid``.

    The four ``*_us`` fields are priced (0.0 until then) from the fields
    after ``atomic_profile``, which the execution fixes:
    :func:`repro.core.pricing.price` returns new records and never writes
    the ones it reads. Slotted, as a run holds one record per unit.
    """

    iteration: int
    direction: str
    frontier_vertices: int
    frontier_edges: int
    filter_used: str
    filter_overflowed: bool
    compute_us: float = 0.0
    filter_us: float = 0.0
    barrier_us: float = 0.0
    launch_us: float = 0.0
    active_edges: int = 0
    #: Batched runs only: total (edge, lane) pairs evaluated this iteration.
    #: ``frontier_edges`` stays the *union* worklist's edge count - the pairs
    #: beyond it are the lane-axis work that reused the single CSR walk. A
    #: serial execution of the same K queries would have walked
    #: ``lane_edge_pairs`` edges; 0 in single-query runs.
    lane_edge_pairs: int = 0
    #: Batched runs only: lanes with a non-empty frontier in the unit (the
    #: group's lanes on one device; on a shard, the lanes holding frontier
    #: vertices inside the shard's range).
    active_lanes: int = 0
    updates_valid: int = 0
    updates_applied: int = 0
    atomic_profile: Optional[AtomicProfile] = None
    #: The stream (shard; 0 on one device) that ran the unit.
    stream: int = 0
    #: Per-stage vertex and edge counts of the classified worklist.
    sizes: Optional["WorklistSizes"] = None
    small_divergence: float = 0.0  # warp divergence of the Thread stage
    #: Sortedness of the worklist the unit loads (its stream's last filter's).
    sortedness: float = 1.0
    filter_work: Optional[WorkEstimate] = None  # task management's work
    #: The algorithm reads edge weights; it combines by voting.
    weighted: bool = False
    voting: bool = False
    #: A sharded superstep's last unit only: each shard's boundary receives.
    received: Tuple[int, ...] = ()
    #: A sharded superstep's last unit only: each shard's transient
    #: boundary receive buffer (paper scale), placed when the run is priced.
    boundary_bytes: Tuple[int, ...] = ()

    @property
    def total_us(self) -> float:
        """The unit's time, added in pricing's order: a single-device run's
        ``elapsed_us`` is its records' ``total_us`` summed in order."""
        return self.compute_us + self.launch_us + self.filter_us + self.barrier_us


@dataclass
class RunResult:
    """Outcome of running one algorithm on one system.

    ``values`` is the user-facing result (distances, ranks, core flags...);
    ``elapsed_us`` the simulated GPU time (or modelled CPU time for the CPU
    baselines); ``failed``/``failure_reason`` record OOM or non-convergence
    the way Table 4's blank cells do. ``iteration_records`` is the run's
    one per-iteration log: the traces are views of it.
    """

    system: str
    algorithm: str
    graph: str
    values: Optional[np.ndarray]
    elapsed_us: float
    iterations: int
    device: str = ""
    failed: bool = False
    failure_reason: str = ""
    kernel_launches: int = 0
    iteration_records: List[IterationRecord] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0

    @property
    def filter_trace(self) -> List[str]:
        """The filter each iteration ran (Figure 8): one entry per
        iteration, its units' ``filter_used`` joined by ``+``."""
        return self._trace("filter_used")

    @property
    def direction_trace(self) -> List[str]:
        """The direction each iteration ran, its units' joined by ``+``."""
        return self._trace("direction")

    def _trace(self, name: str) -> List[str]:
        return [
            "+".join(getattr(r, name) for r in units)
            for _, units in groupby(
                self.iteration_records, key=attrgetter("iteration")
            )
        ]

    @classmethod
    def failure(
        cls,
        system: str,
        algorithm: str,
        graph: str,
        reason: str,
        *,
        device: str = "",
        **fields,
    ) -> "RunResult":
        """Construct the record for a failed run (OOM, non-convergence);
        ``fields`` sets a subclass's own (a batch's ``sources``)."""
        return cls(
            system=system,
            algorithm=algorithm,
            graph=graph,
            values=None,
            elapsed_us=float("inf"),
            iterations=0,
            device=device,
            failed=True,
            failure_reason=reason,
            **fields,
        )


@dataclass
class BatchRunResult(RunResult):
    """Outcome of one batched multi-source execution (``run_batch``).

    One row per query lane: ``metadata[k]`` is lane k's final metadata
    (bit-identical to the single-source run from ``sources[k]``) and
    ``values[k]`` its user-facing result. ``iterations`` counts the batch's
    BSP iterations (the longest lane); ``lane_iterations[k]`` the
    iterations lane k was live.

    For algorithms whose active vertices are always among this iteration's
    *updated* vertices (BFS, default SSSP - every shipped
    ``supports_multi_source`` configuration), lanes evolve in lockstep
    with their independent runs, so ``lane_iterations[k]`` equals the
    single-source iteration count. Delta-stepping SSSP is the exception:
    its active mask can re-admit vertices left pending in earlier buckets,
    which makes even a *single* run's iteration trajectory depend on the
    filter each iteration happens to use (the ballot worklist carries
    those pending vertices, the online worklist only this iteration's
    recordings) - so a batch of several lanes, which makes one filter
    decision per lane group, may reach the same final metadata in a
    different number of iterations.

    The next-frontier rule is the same for ``run`` and ``run_batch``: a
    lane whose filter pass covered exactly that lane over the whole vertex
    range continues from that pass's worklist, every other lane from its
    own ``recorded ∩ active``. A one-lane batch on one device is therefore
    record-for-record identical to the single run, delta-stepping included.
    """

    sources: List[int] = field(default_factory=list)
    metadata: Optional[np.ndarray] = None  # (num_lanes, num_vertices)
    lane_iterations: List[int] = field(default_factory=list)

    @property
    def num_lanes(self) -> int:
        return len(self.sources)

    @property
    def queries_per_second(self) -> float:
        """Simulated throughput: answered queries per simulated second."""
        if self.failed or self.elapsed_us == 0:
            return float("nan")
        return self.num_lanes / (self.elapsed_us / 1e6)


@dataclass
class PhaseTiming:
    """One consecutive same-direction phase of a run (Section 5 clustering)."""

    direction: str
    start_iteration: int
    iterations: int
    frontier_edges: int
    active_edges: int
    compute_us: float
    filter_us: float
    barrier_us: float
    launch_us: float

    @property
    def total_us(self) -> float:
        return self.compute_us + self.filter_us + self.barrier_us + self.launch_us

    @property
    def compute_us_per_edge(self) -> float:
        """Measured compute cost per walked edge (the calibration signal)."""
        if self.frontier_edges == 0:
            return float("nan")
        return self.compute_us / self.frontier_edges


def phase_timings(records: List[IterationRecord]) -> List[PhaseTiming]:
    """Fold an iteration trace into consecutive same-direction phases."""
    phases: List[PhaseTiming] = []
    for r in records:
        if not phases or phases[-1].direction != r.direction:
            phases.append(
                PhaseTiming(
                    direction=r.direction,
                    start_iteration=r.iteration,
                    iterations=0,
                    frontier_edges=0,
                    active_edges=0,
                    compute_us=0.0,
                    filter_us=0.0,
                    barrier_us=0.0,
                    launch_us=0.0,
                )
            )
        phase = phases[-1]
        phase.iterations += 1
        phase.frontier_edges += r.frontier_edges
        phase.active_edges += r.active_edges
        phase.compute_us += r.compute_us
        phase.filter_us += r.filter_us
        phase.barrier_us += r.barrier_us
        phase.launch_us += r.launch_us
    return phases


#: Condition-number bound above which the two-parameter pull fit is treated
#: as collinear (see :func:`calibrate_pull_constants`). For a two-column
#: design normalized to unit columns the condition number is
#: ``sqrt((1 + cos θ) / (1 - cos θ))`` with θ the angle between the
#: regressors: healthy fits (active fraction swinging across iterations,
#: BFS/SSSP-style) land around 5-30, WCC-style matrices whose gathers keep
#: 98-100% of edges active land in the hundreds, and the exactly-singular
#: case at ~1e16. Above 100 the fit amplifies model-mismatch residuals by
#: two orders of magnitude, which is where the recovered constants stop
#: being interpretable as costs.
COLLINEARITY_LIMIT = 100.0


def calibrate_pull_constants(
    push_records: List[IterationRecord],
    pull_records: List[IterationRecord],
) -> Dict[str, float]:
    """Fit the pull traffic-model constants from measured per-phase timings.

    The model prices a pull iteration's compute at ``c_scan`` per scanned
    in-edge (the frontier-bitmap test) plus ``c_active`` per
    frontier-sourced in-edge (the full per-edge work). Both constants are
    recovered by a least-squares fit of ``compute_us ~ c_scan * scanned +
    c_active * active`` over the pull iterations; the push iterations pin
    the reference cost ``c_push`` (measured push compute time per expanded
    edge). The ratios ``c_scan / c_push`` and ``c_active / c_push`` are
    directly comparable to ``TrafficModel.pull_scan_ops / push_edge_ops``
    (1/4 shipped) and ``pull_active_edge_ops / push_edge_ops`` (1 shipped),
    up to the memory-traffic share of iteration time the ops constants do
    not cover.

    When every pull iteration has the same active fraction (e.g. SpMV and
    BP gather all in-edges, so ``active == scanned``), the two regressors
    are collinear: the fit then reports the combined per-scanned-edge cost
    as ``fitted_scan_us_per_edge`` and NaN for the active term, with
    ``fit_rank`` = 1 flagging the degeneracy.

    *Near*-collinear matrices (WCC-style: gathers keep almost every edge
    active, so ``active ≈ scanned`` with only tiny variation) pass the
    exact-rank test but leave the two-parameter fit ill-conditioned - the
    least-squares solution then amplifies timing noise into huge
    positive/negative coefficient pairs that cancel. The fit therefore
    degrades to the same combined-cost fallback whenever the (column-
    normalized) design's condition number exceeds ``COLLINEARITY_LIMIT`` or
    either fitted cost comes out negative (cost constants are physically
    non-negative). ``fit_condition`` reports the measured condition number;
    ``fit_rank`` is 1 whenever the fallback was taken.
    """
    push_edges = sum(r.frontier_edges for r in push_records)
    push_compute = sum(r.compute_us for r in push_records)
    c_push = push_compute / push_edges if push_edges else float("nan")

    pull_rows = [r for r in pull_records if r.frontier_edges > 0]
    scanned = sum(r.frontier_edges for r in pull_rows)
    active = sum(r.active_edges for r in pull_rows)
    pull_compute = sum(r.compute_us for r in pull_rows)

    c_scan = c_active = float("nan")
    rank = 0
    condition = float("nan")
    if pull_rows:
        design = np.array(
            [[r.frontier_edges, r.active_edges] for r in pull_rows],
            dtype=np.float64,
        )
        target = np.array([r.compute_us for r in pull_rows], dtype=np.float64)
        rank = int(np.linalg.matrix_rank(design))
        # Condition number of the column-normalized design: scale-free, so
        # it measures only how close the two regressors are to collinear.
        norms = np.linalg.norm(design, axis=0)
        if np.all(norms > 0):
            singular = np.linalg.svd(design / norms, compute_uv=False)
            condition = (
                float(singular[0] / singular[-1])
                if singular[-1] > 0 else float("inf")
            )
        if rank >= 2 and condition <= COLLINEARITY_LIMIT:
            coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
            c_scan, c_active = float(coeffs[0]), float(coeffs[1])
            if c_scan < 0 or c_active < 0:
                # Noise-amplified cancelling pair: not a usable calibration.
                c_scan = c_active = float("nan")
                rank = 1
        else:
            rank = min(rank, 1)
        if rank < 2:
            # (Near-)collinear regressors: report the combined
            # per-scanned-edge cost instead of a meaningless split.
            c_scan = pull_compute / scanned if scanned else float("nan")
            c_active = float("nan")

    def _ratio(value: float) -> float:
        if not (np.isfinite(value) and np.isfinite(c_push) and c_push):
            return float("nan")
        return value / c_push

    return {
        "push_us_per_edge": c_push,
        "pull_us_per_scanned_edge": (
            pull_compute / scanned if scanned else float("nan")
        ),
        "pull_active_edge_fraction": active / scanned if scanned else float("nan"),
        "fitted_scan_us_per_edge": c_scan,
        "fitted_active_us_per_edge": c_active,
        "pull_scan_over_push_edge": _ratio(c_scan),
        "pull_active_over_push_edge": _ratio(c_active),
        "fit_rank": float(rank),
        "fit_condition": condition,
    }


def geometric_mean_speedup(speedups: List[float]) -> float:
    """Geometric mean ignoring NaNs/inf (failed comparisons)."""
    clean = [s for s in speedups if np.isfinite(s) and s > 0]
    if not clean:
        return float("nan")
    return float(np.exp(np.mean(np.log(clean))))
