"""Property tests for the contiguous vertex-range shard partitioner.

:class:`repro.shard.partition.ShardPlan` underpins the sharded executor's
bit-identity argument: the ranges must exactly tile ``[0, N)`` (so every
vertex has exactly one owner), every out-edge must be classified local or
boundary exactly once (so the exchange accounting is conserved), and the
edge balance must stay within one max-degree row of perfect (the cut
search places boundaries between CSR rows, so one hub is the worst-case
overshoot). Degenerate shapes - empty graphs, more shards than vertices,
a single vertex - must produce valid (possibly empty) ranges rather than
corner-case crashes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.shard.partition import ShardPlan
from tests import graphs

#: Skewed and uniform shapes; rmat is the adversarial case for balance
#: (a few hub rows hold a large share of the edges).
GRAPHS = {
    "uniform": gen.random_uniform_graph(220, 1500, seed=3, name="uniform"),
    "rmat": gen.rmat_graph(9, 8, seed=5, name="rmat"),
    "road": gen.road_network_graph(16, 16, seed=7, name="road"),
}
SHARD_COUNTS = (1, 2, 3, 4, 7)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestPlanProperties:
    def test_ranges_tile_vertex_space(self, name, num_shards):
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        assert plan.num_shards == num_shards
        assert plan.starts[0] == 0
        assert plan.stops[-1] == graph.num_vertices
        # Contiguous, non-overlapping, sorted: each shard starts where the
        # previous one stopped (empty ranges are allowed).
        assert np.array_equal(plan.starts[1:], plan.stops[:-1])
        assert (plan.stops >= plan.starts).all()
        assert (plan.stops - plan.starts).sum() == graph.num_vertices

    def test_every_edge_classified_exactly_once(self, name, num_shards):
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        assert plan.out_edge_counts.sum() == graph.num_edges
        assert (plan.local_edge_counts >= 0).all()
        assert (plan.boundary_edge_counts >= 0).all()
        assert np.array_equal(
            plan.local_edge_counts + plan.boundary_edge_counts,
            plan.out_edge_counts,
        )
        # Cross-check the vectorized classification against a brute-force
        # owner comparison per edge.
        owner = plan.owner_of(np.arange(graph.num_vertices))
        srcs = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            graph.out_degrees(),
        )
        dsts = graph.out_csr.targets.astype(np.int64)
        local = np.bincount(
            owner[srcs][owner[srcs] == owner[dsts]], minlength=num_shards
        )
        assert np.array_equal(local, plan.local_edge_counts)

    def test_owner_lookup_matches_ranges(self, name, num_shards):
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        owner = plan.owner_of(vertices)
        for t in range(num_shards):
            members = vertices[owner == t]
            assert (members >= plan.starts[t]).all()
            assert (members < plan.stops[t]).all()

    def test_split_sorted_partitions_worklist(self, name, num_shards):
        """A sorted worklist splits into one contiguous run per shard at
        ``searchsorted(worklist, starts)``: the cut ``owner_of`` makes."""
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        rng = np.random.default_rng(13)
        worklist = np.unique(
            rng.integers(0, graph.num_vertices, size=graph.num_vertices // 2)
        )
        parts = np.split(worklist, np.searchsorted(worklist, plan.starts[1:]))
        assert len(parts) == num_shards
        assert np.array_equal(np.concatenate(parts), worklist)
        for t, part in enumerate(parts):
            assert np.array_equal(plan.owner_of(part), np.full(part.size, t))

    def test_edge_balance_within_one_hub(self, name, num_shards):
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        max_degree = int(graph.out_degrees().max())
        bound = graph.num_edges / num_shards + max_degree
        assert plan.out_edge_counts.max() <= bound, (
            f"{name}: worst shard holds {plan.out_edge_counts.max()} edges, "
            f"allowed {bound}"
        )

    def test_modeled_sizes_sum_to_graph_totals(self, name, num_shards):
        graph = GRAPHS[name]
        plan = ShardPlan.build(graph, num_shards)
        assert plan.modeled_vertices.sum() == graph.modeled_num_vertices
        assert plan.modeled_edges.sum() == graph.modeled_num_edges
        assert (plan.modeled_vertices >= 0).all()
        assert (plan.modeled_edges >= 0).all()


def test_range_compare_counts_remote_reads_like_owner_of():
    """A gather counts its boundary reads as the sources outside its own
    ``[start, stop)``; that must equal the ``owner_of`` comparison, empty
    ranges included, for any shard count and any source array."""
    rng = np.random.default_rng(2027)
    for trial in range(12):
        n = int(rng.integers(1, 300))
        graph = gen.random_uniform_graph(
            n, int(rng.integers(0, 4 * n)), seed=trial, name="random"
        )
        for num_shards in range(1, 7):
            plan = ShardPlan.build(graph, num_shards)
            src = rng.integers(0, n, size=int(rng.integers(0, 200)))
            for here in range(num_shards):
                start, stop = plan.starts[here], plan.stops[here]
                by_range = src.size - np.count_nonzero((src >= start) & (src < stop))
                assert by_range == np.count_nonzero(plan.owner_of(src) != here)


class TestDegenerateShapes:
    def test_empty_graph(self):
        graph = graphs.empty_graph(6, name="empty")
        plan = ShardPlan.build(graph, 4)
        assert (plan.stops - plan.starts).sum() == 6
        assert plan.out_edge_counts.sum() == 0
        assert plan.modeled_edges.sum() == 0

    def test_more_shards_than_vertices(self):
        graph = gen.random_uniform_graph(3, 4, seed=1, name="tiny")
        plan = ShardPlan.build(graph, 8)
        assert plan.num_shards == 8
        assert (plan.stops - plan.starts).sum() == 3
        assert plan.out_edge_counts.sum() == graph.num_edges
        # Every vertex still has exactly one owner.
        owner = plan.owner_of(np.arange(3))
        assert ((owner >= 0) & (owner < 8)).all()

    def test_single_vertex(self):
        graph = graphs.empty_graph(1, name="one")
        plan = ShardPlan.build(graph, 2)
        assert (plan.stops - plan.starts).sum() == 1
        assert plan.out_edge_counts.sum() == 0

    def test_invalid_shard_count_rejected(self):
        graph = GRAPHS["uniform"]
        with pytest.raises(ValueError):
            ShardPlan.build(graph, 0)

    def test_modeled_sizes_follow_paper_annotation(self):
        # A paper-scale annotation distributes the modeled totals across
        # shards in proportion to the actual split, preserving the sum.
        graph = gen.rmat_graph(8, 8, seed=11, name="annotated")
        graph.meta["paper_vertices"] = 60_000_000
        graph.meta["paper_edges"] = 400_000_000
        plan = ShardPlan.build(graph, 4)
        assert plan.modeled_vertices.sum() == 60_000_000
        assert plan.modeled_edges.sum() == 400_000_000
