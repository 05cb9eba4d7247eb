"""Dynamic-graph overlay tests (``src/repro/dyn/overlay.py``).

Covers the delta-overlay contract from docs/dynamic.md:

* snapshot materialization is bit-identical to ``CSRGraph.from_edges``
  on the logically-current edge set (offsets, targets, weights);
* deletes-before-inserts batch semantics, including re-insert of a
  deleted edge and weight changes recorded as delete+insert receipts;
* undirected logical edges expand to both stored directions;
* ``rebuild()`` (and the automatic threshold rebuild) promotes the
  snapshot to a fresh base whose cached in-CSR transpose is invalidated
  (``in_csr_built`` is False on directed graphs until next use);
* receipts retention: ``receipts_since`` returns the exact chain or
  ``None`` once pruned past ``keep_receipts``;
* update validation (shape, range, self-loops) raises
  ``GraphFormatError`` without mutating the overlay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dyn import DynamicGraph, EdgeUpdateBatch
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph, GraphFormatError
from tests import graphs


@pytest.fixture
def graph():
    return gen.random_uniform_graph(120, 700, seed=31, name="dyn-base")


@pytest.fixture
def directed_graph():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 90, size=(500, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    weights = rng.uniform(0.5, 4.0, size=len(edges)).astype(np.float32)
    return CSRGraph.from_edges(
        90, edges, weights=weights, directed=True, name="dyn-directed"
    )


def assert_csr_equal(a: CSRGraph, b: CSRGraph):
    for field in ("offsets", "targets", "weights"):
        x, y = getattr(a.out_csr, field), getattr(b.out_csr, field)
        assert x.dtype == y.dtype, field
        assert np.array_equal(x, y), field


def rebuilt_from_scratch(dyn: DynamicGraph) -> CSRGraph:
    """The oracle: a cold ``from_edges`` build of the current edge set."""
    snap = dyn.snapshot()
    edges = snap.to_edge_array()
    weights = snap.out_csr.weights
    if not snap.directed:
        # to_edge_array returns stored (symmetrized) edges; from_edges
        # would symmetrize again, so feed it one direction only.
        keep = edges[:, 0] < edges[:, 1]
        edges, weights = edges[keep], weights[keep]
    return CSRGraph.from_edges(
        snap.num_vertices, edges, weights=weights, directed=snap.directed
    )


# ----------------------------------------------------------------------
# Snapshot equivalence
# ----------------------------------------------------------------------
def test_snapshot_of_clean_overlay_is_base(graph):
    dyn = DynamicGraph(graph)
    assert dyn.snapshot() is graph
    assert dyn.version == 0


def test_snapshot_matches_from_edges_after_updates(graph):
    dyn = DynamicGraph(graph)
    rng = np.random.default_rng(77)
    for _ in range(4):
        inserts = rng.integers(0, graph.num_vertices, size=(12, 2))
        inserts = inserts[inserts[:, 0] != inserts[:, 1]]
        weights = rng.uniform(0.5, 3.0, size=len(inserts))
        edges = dyn.snapshot().to_edge_array()
        picks = rng.choice(len(edges), size=6, replace=False)
        dyn.apply(EdgeUpdateBatch.of(
            inserts=inserts, insert_weights=weights, deletes=edges[picks]
        ))
    assert_csr_equal(dyn.snapshot(), rebuilt_from_scratch(dyn))


def _row_pairs(graph: CSRGraph, u: int):
    return [(u, int(v)) for v in graph.out_neighbors(u)]


def _with_isolated_vertex(graph: CSRGraph) -> CSRGraph:
    """``graph`` plus one more vertex, which has no edges."""
    edges = graph.to_edge_array()
    keep = edges[:, 0] < edges[:, 1]
    return CSRGraph.from_edges(
        graph.num_vertices + 1, edges[keep], weights=graph.out_csr.weights[keep]
    )


def _chained_batches(graph: CSRGraph, count: int):
    rng = np.random.default_rng(13)
    edges = graph.to_edge_array()
    batches = []
    for _ in range(count):
        inserts = rng.integers(0, graph.num_vertices, size=(6, 2))
        inserts = inserts[inserts[:, 0] != inserts[:, 1]]
        batches.append(dict(
            inserts=inserts,
            insert_weights=rng.integers(1, 5, size=len(inserts)) + 0.25,
            deletes=edges[rng.choice(len(edges), size=6, replace=False)],
        ))
    return batches


def _first_edge(graph: CSRGraph):
    u, v = (int(x) for x in graph.to_edge_array()[0])
    return u, v, float(graph.out_csr.weights[0])


#: Each case: (undirected graph, directed graph) -> (base, steps, options);
#: a step is an ``EdgeUpdateBatch.of`` keyword dict or "rebuild".
SPLICE_CASES = {
    "insert": lambda g, d: (g, [dict(inserts=[(3, 117), (9, 41)],
                                     insert_weights=[2.0, 0.5])], {}),
    "delete": lambda g, d: (g, [dict(deletes=g.to_edge_array()[[0, 50, 300]])], {}),
    "reweight": lambda g, d: (g, [dict(inserts=[_first_edge(g)[:2]],
                                       insert_weights=[_first_edge(g)[2] + 1.0])], {}),
    "delete-then-insert": lambda g, d: (g, [dict(
        inserts=[_first_edge(g)[:2]], insert_weights=[9.0],
        deletes=[_first_edge(g)[:2]])], {}),
    "row-emptied": lambda g, d: (g, [dict(deletes=_row_pairs(g, 7))], {}),
    "row-created": lambda g, d: (_with_isolated_vertex(g), [dict(
        inserts=[(g.num_vertices, 5), (g.num_vertices, 17)])], {}),
    "undirected-mirroring": lambda g, d: (g, [dict(
        inserts=[(117, 3)], deletes=[_first_edge(g)[1::-1]])], {}),
    "directed": lambda g, d: (d, [dict(
        inserts=[(0, 42), (42, 7)], insert_weights=[1.5, 2.5],
        deletes=d.to_edge_array()[[0, 10]])], {}),
    "across-rebuild": lambda g, d: (d, [
        dict(inserts=[(0, 42)]), "rebuild",
        dict(inserts=[(42, 7)], deletes=[(0, 42)])], {}),
    "auto-rebuild": lambda g, d: (g, [
        dict(inserts=[(0, 50)]), dict(inserts=[(1, 60)], deletes=[(0, 50)]),
        dict(inserts=[(2, 70)])], {"rebuild_threshold": 4}),
    "chained-20": lambda g, d: (g, _chained_batches(g, 20), {}),
}


def _model_apply(model: dict, step: dict, directed: bool) -> None:
    """Deletes-before-inserts on a {(src, dst): weight} model."""
    def stored(u, v):
        return [(int(u), int(v))] if directed else [(int(u), int(v)), (int(v), int(u))]

    for u, v in step.get("deletes", ()):
        for key in stored(u, v):
            model.pop(key, None)
    inserts = step.get("inserts", ())
    weights = step.get("insert_weights")
    if weights is None:
        weights = [1.0] * len(inserts)
    for (u, v), w in zip(inserts, weights):
        for key in stored(u, v):
            model[key] = float(np.float32(w))


@pytest.mark.parametrize("case", list(SPLICE_CASES))
def test_snapshot_matches_from_edges_oracle(graph, directed_graph, case):
    """After every step the snapshot equals ``from_edges`` on a dict model
    of the edge set: offsets, targets and weights, values and dtypes."""
    base, steps, options = SPLICE_CASES[case](graph, directed_graph)
    dyn = DynamicGraph(base, **options)
    model = {(u, v): w for u, v, w in graphs.edge_triples(base)}
    for step in steps:
        if step == "rebuild":
            dyn.rebuild()
        else:
            dyn.apply(EdgeUpdateBatch.of(**step))
            _model_apply(model, step, base.directed)
        oracle = CSRGraph.from_edges(
            base.num_vertices, list(model), weights=list(model.values()),
            directed=True,
        )
        assert_csr_equal(dyn.snapshot(), oracle)
    if case == "auto-rebuild":
        assert dyn.rebuilds == 1
    if case == "row-emptied":
        assert dyn.snapshot().out_degrees()[7] == 0 < graph.out_degrees()[7]


def _replay_sequence(seed: int) -> int:
    """Update algebra across rebuilds: a seeded sequence of batches -
    inserts of new and existing edges (re-weights), deletes of present
    and absent edges, pairs in both lists, explicit ``rebuild()`` calls
    and a small auto-rebuild threshold - leaves, after every batch, the
    snapshot a from-scratch ``from_edges`` build of the replayed edge set
    gives. Returns the automatic rebuilds the sequence crossed."""
    rng = np.random.default_rng(seed)
    directed = bool(seed % 2)
    base = gen.random_uniform_graph(
        40, 120, seed=seed, directed=directed, name=f"algebra-{seed}"
    )
    dyn = DynamicGraph(base, rebuild_threshold=int(rng.integers(6, 40)))
    model = {(u, v): w for u, v, w in graphs.edge_triples(base)}
    rebuilds = 0
    for _ in range(int(rng.integers(3, 9))):
        if rng.random() < 0.2 and dyn.pending_edges:
            dyn.rebuild()
            rebuilds += 1
        present = np.array(list(model) or [(0, 1)], dtype=np.int64)
        fresh = rng.integers(0, base.num_vertices, size=(int(rng.integers(0, 10)), 2))
        inserts = np.concatenate([
            fresh, present[rng.choice(len(present), size=3)],
        ])
        inserts = inserts[inserts[:, 0] != inserts[:, 1]]
        absent = rng.integers(0, base.num_vertices, size=(3, 2))
        deletes = np.concatenate([
            present[rng.choice(len(present), size=int(rng.integers(0, 8)))],
            absent[absent[:, 0] != absent[:, 1]],
            inserts[: int(rng.integers(0, 3))],  # deleted, then re-inserted
        ])
        step = dict(
            inserts=inserts.tolist(),
            insert_weights=(rng.integers(1, 9, size=len(inserts)) + 0.5).tolist(),
            deletes=deletes.tolist(),
        )
        dyn.apply(EdgeUpdateBatch.of(**step))
        _model_apply(model, step, directed)
        oracle = CSRGraph.from_edges(
            base.num_vertices, list(model), weights=list(model.values()),
            directed=True,
        )
        assert_csr_equal(dyn.snapshot(), oracle)
    return dyn.rebuilds - rebuilds  # beyond the explicit ones


@pytest.mark.parametrize("seed", range(50))
def test_multi_batch_sequences_replay_from_scratch(seed):
    _replay_sequence(seed)


def test_multi_batch_sequences_cross_auto_rebuilds():
    # The threshold path is taken, not just the explicit rebuild().
    assert sum(_replay_sequence(seed) > 0 for seed in range(50)) >= 40


@pytest.mark.parametrize("seed", range(50))
def test_batch_then_inverse_restores_snapshot(graph, seed):
    """Update algebra: a batch, then its inverse built from the receipt
    (delete what it inserted, re-insert what it deleted at the receipt's
    weights), gives back the starting snapshot. Insert weights end in .5
    and base weights are integers, so every insert of an existing edge is
    a re-weight the receipt records."""
    rng = np.random.default_rng(seed)
    dyn = DynamicGraph(graph)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(seed % 120, (seed + 1) % 120)]))
    start = dyn.snapshot()
    edges = start.to_edge_array()
    pairs = np.concatenate([
        rng.integers(0, graph.num_vertices, size=(8, 2)),
        edges[rng.choice(len(edges), size=4, replace=False)],
    ])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # One insert per logical edge: a second would overwrite the first.
    pairs = pairs[np.unique(np.sort(pairs, axis=1), axis=0, return_index=True)[1]]
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=pairs,
        insert_weights=rng.integers(1, 9, size=len(pairs)) + 0.5,
        deletes=edges[rng.choice(len(edges), size=8, replace=False)],
    ))
    dyn.apply(EdgeUpdateBatch.of(
        inserts=receipt.delete_edges,
        insert_weights=receipt.delete_weights,
        deletes=receipt.insert_edges,
    ))
    assert_csr_equal(dyn.snapshot(), start)


def test_snapshot_cached_until_next_apply(graph):
    dyn = DynamicGraph(graph)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(1, 5)]))
    first = dyn.snapshot()
    assert dyn.snapshot() is first
    dyn.apply(EdgeUpdateBatch.of(inserts=[(2, 9)]))
    assert dyn.snapshot() is not first


def test_undirected_insert_expands_both_directions(graph):
    dyn = DynamicGraph(graph)
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=[(3, 117)], insert_weights=[2.5]
    ))
    stored = {tuple(e) for e in receipt.insert_edges}
    assert stored == {(3, 117), (117, 3)}
    snap = dyn.snapshot()
    row = snap.out_csr
    for src, dst in ((3, 117), (117, 3)):
        targets = row.targets[row.offsets[src]:row.offsets[src + 1]]
        assert dst in targets


def test_delete_then_reinsert_in_one_batch(graph):
    dyn = DynamicGraph(graph)
    edges = graph.to_edge_array()
    u, v = (int(edges[0, 0]), int(edges[0, 1]))
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=[(u, v)], insert_weights=[9.0], deletes=[(u, v)]
    ))
    # Deletes apply first, so the edge survives with the new weight.
    assert (u, v) in {tuple(e) for e in receipt.insert_edges}
    snap = dyn.snapshot()
    row = snap.out_csr
    span = slice(row.offsets[u], row.offsets[u + 1])
    weights = row.weights[span][row.targets[span] == v]
    assert weights.size == 1 and float(weights[0]) == 9.0


def test_weight_change_recorded_as_delete_plus_insert(graph):
    dyn = DynamicGraph(graph)
    edges = graph.to_edge_array()
    u, v = (int(edges[0, 0]), int(edges[0, 1]))
    old_w = float(graph.out_csr.weights[0])
    receipt = dyn.apply(EdgeUpdateBatch.of(
        inserts=[(u, v)], insert_weights=[old_w + 1.0]
    ))
    deleted = {tuple(e) for e in receipt.delete_edges}
    inserted = {tuple(e) for e in receipt.insert_edges}
    assert (u, v) in deleted and (u, v) in inserted


def test_noop_delete_counts_but_changes_nothing(graph):
    dyn = DynamicGraph(graph)
    before = dyn.snapshot()
    receipt = dyn.apply(EdgeUpdateBatch.of(deletes=[(0, 119)]))
    assert receipt.delete_edges.shape[0] == 0
    assert dyn.stats()["noop_deletes"] >= 1
    assert_csr_equal(dyn.snapshot(), before)


# ----------------------------------------------------------------------
# Rebuild and transpose invalidation
# ----------------------------------------------------------------------
def test_rebuild_invalidates_transpose_cache(directed_graph):
    # Build (and cache) the in-CSR transpose on the base.
    directed_graph.in_csr
    assert directed_graph.in_csr_built
    dyn = DynamicGraph(directed_graph)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(0, 42), (42, 7)]))
    dyn.rebuild()
    promoted = dyn.snapshot()
    # The promoted base is a fresh directed CSR: the stale transpose was
    # dropped with the old object, not carried over.
    assert not promoted.in_csr_built
    # And rebuilding it on demand reflects the inserted edges.
    in_csr = promoted.in_csr
    sources = in_csr.targets[in_csr.offsets[42]:in_csr.offsets[43]]
    assert 0 in sources


def test_auto_rebuild_at_threshold(graph):
    # Undirected: each logical insert is 2 stored overlay entries.
    dyn = DynamicGraph(graph, rebuild_threshold=4)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(0, 50)]))
    assert dyn.rebuilds == 0
    dyn.apply(EdgeUpdateBatch.of(inserts=[(1, 60)]))
    assert dyn.rebuilds == 1
    assert dyn.stats()["pending_edges"] == 0
    assert_csr_equal(dyn.snapshot(), rebuilt_from_scratch(dyn))


def test_rebuild_preserves_versions_and_receipts(graph):
    dyn = DynamicGraph(graph, keep_receipts=8)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(0, 50)]))
    dyn.apply(EdgeUpdateBatch.of(inserts=[(1, 60)]))
    dyn.rebuild()
    assert dyn.version == 2
    chain = dyn.receipts_since(0)
    assert chain is not None and [r.version for r in chain] == [1, 2]


# ----------------------------------------------------------------------
# Receipt retention
# ----------------------------------------------------------------------
def test_receipts_since_returns_exact_chain(graph):
    dyn = DynamicGraph(graph)
    for i in range(5):
        dyn.apply(EdgeUpdateBatch.of(inserts=[(i, i + 40)]))
    chain = dyn.receipts_since(2)
    assert [r.version for r in chain] == [3, 4, 5]
    assert dyn.receipts_since(5) == []


def test_receipts_since_none_once_pruned(graph):
    dyn = DynamicGraph(graph, keep_receipts=2)
    for i in range(5):
        dyn.apply(EdgeUpdateBatch.of(inserts=[(i, i + 40)]))
    assert dyn.receipts_since(0) is None
    assert [r.version for r in dyn.receipts_since(3)] == [4, 5]


def test_receipt_old_and_new_graphs_are_consistent(graph):
    dyn = DynamicGraph(graph)
    old_snap = dyn.snapshot()
    receipt = dyn.apply(EdgeUpdateBatch.of(inserts=[(2, 90)]))
    assert receipt.old_graph is old_snap
    assert receipt.new_graph is dyn.snapshot()
    assert receipt.new_graph.num_edges == old_snap.num_edges + 2


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    {"inserts": [(0, 0)]},                       # self-loop
    {"deletes": [(0, 0)]},
    {"inserts": [(0, 120)]},                     # out of range
    {"deletes": [(-1, 3)]},
    {"inserts": [(0, 1)], "insert_weights": [1.0, 2.0]},  # shape mismatch
])
def test_invalid_updates_raise_and_do_not_mutate(graph, bad):
    dyn = DynamicGraph(graph)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(1, 5)], deletes=[_first_edge(graph)[:2]]))
    snapshot, chain, pending = dyn.snapshot(), dyn.receipts_since(0), dyn.pending_edges
    with pytest.raises(GraphFormatError):
        dyn.apply(EdgeUpdateBatch.of(**bad))
    assert dyn.version == 1
    assert dyn.snapshot() is snapshot
    assert [id(r) for r in dyn.receipts_since(0)] == [id(r) for r in chain]
    assert dyn.pending_edges == pending > 0


def test_batch_without_net_change_keeps_snapshot(graph):
    dyn = DynamicGraph(graph)
    dyn.apply(EdgeUpdateBatch.of(inserts=[(1, 5)]))
    before = dyn.snapshot()
    receipt = dyn.apply(EdgeUpdateBatch.of(deletes=[(0, 119), (2, 118)]))
    assert receipt.delete_edges.shape[0] == 0
    assert dyn.version == 2
    assert receipt.old_graph is receipt.new_graph is dyn.snapshot() is before


def test_empty_batch_is_a_versioned_noop(graph):
    # An empty batch is legal: version bumps, receipt records nothing,
    # the snapshot object is unchanged (overlay still clean -> base).
    dyn = DynamicGraph(graph)
    receipt = dyn.apply(EdgeUpdateBatch.of())
    assert dyn.version == 1
    assert receipt.insert_edges.shape[0] == 0
    assert receipt.delete_edges.shape[0] == 0
    assert dyn.snapshot() is graph
