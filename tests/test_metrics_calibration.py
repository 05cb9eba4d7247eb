"""Regression coverage for the traffic-model calibration fit.

``calibrate_pull_constants`` recovers the pull cost constants by least
squares over per-iteration (scanned, active) edge counts. Three regimes
must behave (ROADMAP "remaining ideas" - the WCC failure mode):

* well-conditioned matrices (active fraction swinging across iterations)
  recover the true constants at full rank;
* exactly-collinear matrices (SpMV/BP: ``active == scanned`` everywhere)
  fall back to the combined per-scanned-edge cost at rank 1;
* *near*-collinear WCC-style matrices (gathers keep 98-100% of edges
  active) must take the same fallback instead of amplifying model-mismatch
  noise into huge cancelling coefficient pairs - previously they passed the
  exact-rank test and produced garbage fits.

The forced-schedule sweep (``TestForcedScheduleSweep``) closes the loop on
real engine runs: WCC's organic pull phases are near-collinear, but a sweep
of forced direction schedules (``tests/engine_seams.py:ScheduledEngine``)
that place a pull iteration at staggered stages of convergence varies the
active fraction enough to condition the WCC timing matrix at rank 2,
recovering positive per-edge costs from measured timings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import WCC
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import (
    COLLINEARITY_LIMIT,
    IterationRecord,
    calibrate_pull_constants,
)
from repro.graph import generators as gen
from tests.engine_seams import ScheduledEngine
from tests import graphs


def _record(direction, scanned, active, compute_us, iteration=1):
    return IterationRecord(
        iteration=iteration,
        direction=direction,
        frontier_vertices=10,
        frontier_edges=int(scanned),
        filter_used="online",
        filter_overflowed=False,
        compute_us=float(compute_us),
        filter_us=0.0,
        barrier_us=0.0,
        launch_us=0.0,
        active_edges=int(active),
    )


def _push_reference():
    # 2 us per expanded push edge.
    return [_record("push", scanned=1000, active=1000, compute_us=2000.0)]


class TestWellConditionedFit:
    def test_recovers_exact_constants_at_full_rank(self):
        # compute = 1.0 * scanned + 3.0 * active, active fraction 0.2..1.0.
        pull = []
        for i, fraction in enumerate((0.2, 0.5, 0.8, 1.0)):
            scanned = 1000 * (i + 1)
            active = int(scanned * fraction)
            pull.append(
                _record("pull", scanned, active, 1.0 * scanned + 3.0 * active)
            )
        fit = calibrate_pull_constants(_push_reference(), pull)
        assert fit["fit_rank"] == 2
        assert fit["fit_condition"] < COLLINEARITY_LIMIT
        assert fit["fitted_scan_us_per_edge"] == pytest.approx(1.0, abs=1e-6)
        assert fit["fitted_active_us_per_edge"] == pytest.approx(3.0, abs=1e-6)
        assert fit["pull_scan_over_push_edge"] == pytest.approx(0.5, abs=1e-6)


class TestCollinearFallback:
    def test_exactly_collinear_reports_combined_cost(self):
        # SpMV/BP style: every gather keeps every edge active.
        pull = [
            _record("pull", scanned, scanned, 4.0 * scanned)
            for scanned in (1000, 2000, 3000)
        ]
        fit = calibrate_pull_constants(_push_reference(), pull)
        assert fit["fit_rank"] == 1
        assert fit["fitted_scan_us_per_edge"] == pytest.approx(4.0)
        assert np.isnan(fit["fitted_active_us_per_edge"])

    def test_near_collinear_wcc_matrix_takes_the_fallback(self):
        # WCC style: active fraction 98-100% with only tiny variation, and
        # a little model mismatch in the timings. The unconstrained
        # two-parameter fit on this matrix amplifies the mismatch into
        # huge cancelling coefficients; the condition-number guard must
        # route it to the combined-cost fallback instead.
        fractions = (0.995, 0.988, 0.999, 0.981, 0.992)
        mismatch = (1.0, -1.3, 0.8, -0.6, 1.1)  # us, deterministic "noise"
        pull = []
        for i, (fraction, noise) in enumerate(zip(fractions, mismatch)):
            scanned = 900 + 50 * i
            active = int(round(scanned * fraction))
            pull.append(
                _record("pull", scanned, active, 3.0 * scanned + noise)
            )
        design = np.array(
            [[r.frontier_edges, r.active_edges] for r in pull], dtype=float
        )
        norms = np.linalg.norm(design, axis=0)
        singular = np.linalg.svd(design / norms, compute_uv=False)
        assert singular[0] / singular[-1] > COLLINEARITY_LIMIT  # the regime

        fit = calibrate_pull_constants(_push_reference(), pull)
        assert fit["fit_rank"] == 1
        assert fit["fit_condition"] > COLLINEARITY_LIMIT
        # Combined per-scanned-edge cost: sane, positive, near the truth.
        assert fit["fitted_scan_us_per_edge"] == pytest.approx(3.0, rel=0.01)
        assert np.isnan(fit["fitted_active_us_per_edge"])
        assert fit["pull_scan_over_push_edge"] == pytest.approx(1.5, rel=0.01)

    def test_negative_coefficients_take_the_fallback(self):
        # Condition number is fine here, but the least-squares solution has
        # a negative scan cost - physically meaningless, so the fit must
        # degrade to the combined estimate rather than report it.
        pull = [
            _record("pull", 100, 90, 300.0),
            _record("pull", 200, 100, 290.0),
        ]
        fit = calibrate_pull_constants(_push_reference(), pull)
        assert fit["fit_rank"] == 1
        assert fit["fit_condition"] < COLLINEARITY_LIMIT
        assert fit["fitted_scan_us_per_edge"] > 0
        assert np.isnan(fit["fitted_active_us_per_edge"])


class TestForcedScheduleSweep:
    """Condition the WCC fit at rank 2 with a forced-schedule sweep.

    A single WCC run's pull phases keep nearly every scanned in-edge
    active (``active ≈ scanned``), so its timing matrix is near-collinear
    and ``calibrate_pull_constants`` has to take the combined-cost
    fallback. The sweep instead collects pull iterations from several
    forced schedules, each placing the gather at a later stage of
    convergence: once the clusters of a two-level graph have settled
    internally, the frontier is a thin inter-cluster wavefront while the
    gather worklist still spans whole unsettled clusters, which drives
    the active fraction far below 1 and makes the (scanned, active)
    design genuinely two-dimensional.
    """

    #: Push-lead lengths of the sweep: iteration ``lead + 1`` runs the
    #: gather, everything else pushes.
    LEADS = range(0, 12, 2)

    @pytest.fixture(scope="class")
    def sweep_records(self):
        graph = graphs.two_level_graph(8, 14, 3, seed=13)
        push_records, pull_records = [], []
        for lead in self.LEADS:
            schedule = [Direction.PUSH] * lead + [
                Direction.PULL, Direction.PUSH,
            ]
            result = ScheduledEngine(
                graph, direction_schedule=schedule
            ).run(WCC())
            assert not result.failed
            for record in result.iteration_records:
                if record.direction == Direction.PULL.value:
                    pull_records.append(record)
                else:
                    push_records.append(record)
        return graph, push_records, pull_records

    def test_sweep_varies_the_active_fraction(self, sweep_records):
        _, _, pull_records = sweep_records
        fractions = [
            r.active_edges / r.frontier_edges
            for r in pull_records if r.frontier_edges > 0
        ]
        assert min(fractions) < 0.5
        assert max(fractions) > 0.9

    def test_sweep_conditions_the_wcc_fit_at_rank_2(self, sweep_records):
        _, push_records, pull_records = sweep_records
        fit = calibrate_pull_constants(push_records, pull_records)
        assert fit["fit_rank"] == 2
        assert fit["fit_condition"] < COLLINEARITY_LIMIT
        # A usable calibration: positive per-edge costs, and a scan test
        # that is cheaper than the full push per-edge work.
        assert fit["fitted_scan_us_per_edge"] > 0
        assert fit["fitted_active_us_per_edge"] > 0
        assert 0 < fit["pull_scan_over_push_edge"] < 1

    def test_single_schedule_still_takes_the_fallback(self):
        # The contrast that motivated the sweep: WCC forced pure-pull on a
        # road-shaped graph keeps ~every scanned edge active, so without
        # the sweep the same calibration degrades to the combined cost.
        graph = gen.road_network_graph(20, 20, seed=11, name="road")
        config = EngineConfig(forced_direction=Direction.PULL)
        result = SIMDXEngine(graph, config=config).run(WCC())
        pull_records = list(result.iteration_records)
        fit = calibrate_pull_constants([], pull_records)
        assert fit["fit_rank"] <= 1
        assert np.isnan(fit["fitted_active_us_per_edge"])


class TestDegenerateInputs:
    def test_no_pull_rows(self):
        fit = calibrate_pull_constants(_push_reference(), [])
        assert fit["fit_rank"] == 0
        assert np.isnan(fit["fitted_scan_us_per_edge"])
        assert fit["push_us_per_edge"] == pytest.approx(2.0)

    def test_no_push_rows_still_fits_pull(self):
        pull = []
        for i, fraction in enumerate((0.2, 0.6, 1.0)):
            scanned = 1000 * (i + 1)
            active = int(scanned * fraction)
            pull.append(
                _record("pull", scanned, active, 1.0 * scanned + 3.0 * active)
            )
        fit = calibrate_pull_constants([], pull)
        assert np.isnan(fit["push_us_per_edge"])
        assert np.isnan(fit["pull_scan_over_push_edge"])
        assert fit["fitted_scan_us_per_edge"] == pytest.approx(1.0, abs=1e-6)
