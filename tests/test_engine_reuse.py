"""Engine-reuse regression: call N on one engine == call 1 on a fresh one.

The serving layer (``src/repro/serve/``) answers every dispatched batch
with **one** long-lived :class:`SIMDXEngine`, so any state leaking from
one ``run``/``run_batch`` into the next silently corrupts served answers.
The :class:`SIMDXEngine` docstring states the contract: an engine holds
its configuration, its device spec and graph-derived, source-independent
caches (the pull classifier, cached in-degrees, the in-CSR transpose);
every controller, counter and device a run uses is built inside it.

These tests pin that contract two ways: no ``run`` or ``run_batch`` changes
the engine's state beyond building those caches, and a mixed sequence of
calls on one engine produces results bit-identical - values, traces and
counters alike - to running each call on a brand-new engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.gpu.device import K40
from repro.graph import generators as gen

#: Engine attributes a run may build (from ``None``); nothing else changes.
LAZY_CACHES = {"_pull_classifier", "_in_degrees"}

#: Result fields that must be bit-identical between a reused engine and a
#: fresh one. ``values``/``metadata`` are compared with array equality;
#: everything else with ``==``.
COMPARED_FIELDS = (
    "values",
    "iterations",
    "elapsed_us",
    "kernel_launches",
    "filter_trace",
    "direction_trace",
    "failed",
    "extra",
)


@pytest.fixture
def graph():
    return gen.rmat_graph(9, 8, seed=7, name="rmat9")


def fresh_engine(graph) -> SIMDXEngine:
    return SIMDXEngine(graph, K40, EngineConfig())


def call_sequence(graph):
    """A mixed run/run_batch workload: what a serving engine sees."""
    hubs = np.argsort(-graph.out_degrees(), kind="stable")
    batch = [int(v) for v in hubs[:4]]
    return [
        ("run", BFS, dict(source=3), {}),
        ("run_batch", SSSP, dict(source=batch[0]), {"sources": batch}),
        ("run", SSSP, dict(source=3, delta=2.0), {}),
        ("run_batch", BFS, dict(source=batch[0]), {"sources": batch}),
        # Same query as call 1: the reused engine must reproduce its own
        # first answer exactly, after batches ran in between.
        ("run", BFS, dict(source=3), {}),
        (
            "run_batch",
            SSSP,
            dict(source=batch[0]),
            {
                "sources": batch,
                "lane_params": [{"delta": float(1 + k)} for k in range(4)],
            },
        ),
    ]


def execute(engine, call):
    kind, cls, init_kwargs, run_kwargs = call
    if kind == "run":
        return engine.run(cls(**init_kwargs))
    sources = run_kwargs["sources"]
    return engine.run_batch(
        cls(**init_kwargs),
        sources,
        lane_params=run_kwargs.get("lane_params"),
    )


def assert_results_identical(reused, fresh, label):
    for name in COMPARED_FIELDS:
        got, want = getattr(reused, name), getattr(fresh, name)
        if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
            assert np.array_equal(got, want), f"{label}: {name} diverged"
        else:
            assert got == want, (
                f"{label}: {name} diverged (reused={got!r}, fresh={want!r})"
            )
    if hasattr(fresh, "lane_iterations"):
        assert reused.lane_iterations == fresh.lane_iterations, (
            f"{label}: lane_iterations diverged"
        )
        assert np.array_equal(reused.metadata, fresh.metadata), (
            f"{label}: metadata diverged"
        )


def test_reused_engine_matches_fresh_engine_per_call(graph):
    """Call N on one engine is bit-identical to a fresh-engine call."""
    reused = fresh_engine(graph)
    for index, call in enumerate(call_sequence(graph)):
        got = execute(reused, call)
        want = execute(fresh_engine(graph), call)
        assert not want.failed
        assert_results_identical(got, want, f"call {index} ({call[0]})")


def test_repeated_identical_run_is_stable(graph):
    """The same query twice on one engine returns the same everything."""
    engine = fresh_engine(graph)
    first = engine.run(BFS(source=5))
    second = engine.run(BFS(source=5))
    assert_results_identical(second, first, "repeat run")


def test_repeated_identical_run_batch_is_stable(graph):
    engine = fresh_engine(graph)
    sources = [3, 5, 9, 11]
    first = engine.run_batch(BFS(source=3), sources)
    second = engine.run_batch(BFS(source=3), sources)
    assert_results_identical(second, first, "repeat run_batch")


def test_profiler_counters_reset_between_calls(graph):
    """Per-run counters restart at zero: no accumulation across calls.

    ``kernel_launches`` is counted on the devices pricing builds and the
    ``kernel_edges_walked`` extra is folded from the run's own records;
    were either kept on the engine, call 2 would report call 1's work on
    top of its own.
    """
    engine = fresh_engine(graph)
    first = engine.run(BFS(source=3))
    second = engine.run(BFS(source=3))
    assert second.kernel_launches == first.kernel_launches
    assert (
        second.extra["kernel_edges_walked"]
        == first.extra["kernel_edges_walked"]
    )


def _state(obj, seen=None):
    """A comparable snapshot of everything reachable from ``obj``'s
    attributes: arrays by content, containers and objects recursively."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if obj is None or isinstance(obj, (bool, int, float, str, type)):
        return obj
    if id(obj) in seen:
        return ("seen", type(obj).__name__)
    seen.add(id(obj))
    if isinstance(obj, dict):
        return {key: _state(value, seen) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_state(value, seen) for value in obj]
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return repr(obj)
    return (type(obj).__name__, _state(fields, seen))


def _engine_state(engine):
    """``vars(engine)`` as a snapshot, the graph's lazy in-CSR left out."""
    graph = {k: v for k, v in vars(engine.graph).items() if k != "_in_csr"}
    return {
        name: _state(graph if value is engine.graph else value)
        for name, value in vars(engine).items()
    }


@pytest.mark.parametrize("num_shards", [1, 2])
def test_engine_carries_no_per_run_state(graph, num_shards):
    """A run changes nothing on its engine but the lazy graph caches, which
    go from unbuilt to built once; every later run changes nothing."""
    engine = SIMDXEngine(graph, K40, EngineConfig(num_shards=num_shards))
    before = _engine_state(engine)
    engine.run(BFS(source=3))
    engine.run_batch(SSSP(source=3), [3, 5, 9, 11])
    after = _engine_state(engine)
    changed = {name for name in before if before[name] != after[name]}
    assert set(after) == set(before)
    assert changed <= LAZY_CACHES, changed
    assert all(before[name] is None for name in changed)
    assert graph.in_csr_built
    engine.run_batch(BFS(source=3), [3, 5])
    engine.run(SSSP(source=5))
    assert _engine_state(engine) == after
