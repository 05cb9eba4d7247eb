"""Execute once, price many: pricing one execution under a (device, fusion)
pair equals a fresh run under that pair.

Nothing a run executes depends on the device model or the fusion strategy;
the device decides memory feasibility, and that is priced too. So for
every case of the differential fuzz matrix - single-source and
``run_batch``, on one device and on two shards - one execution on the
default K40 / push-pull configuration is priced with
:func:`repro.core.pricing.price` under each of the nine
(K20 / K40 / P100) x (none / all / push-pull) pairs and held to a fresh
full run under that pair:

* every record, field for field, and its four priced fields as
  ``float.hex``;
* ``elapsed_us`` as ``float.hex`` (it accumulates unit by unit, in the
  order the units ran - on one device, the records' ``total_us`` summed in
  order, to the bit);
* ``kernel_launches`` and ``extra["breakdown"]``;
* every charge the devices took, in order (each ``LaunchResult`` logged
  at ``GPUDevice._charge``, the device's one charge point, with its
  device by first use).

The fuzz graphs carry no paper-scale sizes, so none of them runs out of
memory; :class:`TestOutOfMemory` covers the cells that do - a static
footprint that does not fit (one device and shards), the batch filter's
active edge list and a shard's boundary receive buffer - with one
execution on a board without a memory ceiling, placed and priced on each
device the way a benchmark cell is, failing with a fresh run's
``failure_reason`` byte for byte.

``REPRO_SANITIZE=1`` arms the runtime sanitizer on every run, as CI's
static-analysis job does.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List

import numpy as np
import pytest

from repro.algorithms import BFS
from repro.bench.harness import EXECUTION_SPEC
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.fusion import FusionStrategy
from repro.core.pricing import price, priced_result
from repro.core.superstep import place_static
from repro.gpu.device import K20, K40, P100, DeviceOutOfMemory, GPUDevice
from repro.graph import generators as gen
from repro.shard.partition import ShardPlan
from tests.test_differential_fuzz import (
    ALGORITHM_CASES,
    BATCHED_CASES,
    GRAPH_SHAPES,
    LARGE_MATRIX,
    SMALL_MATRIX,
    _sources,
)

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"
PAIRS = [(spec, fusion) for spec in (K20, K40, P100) for fusion in FusionStrategy]
MATRIX = SMALL_MATRIX + LARGE_MATRIX
SHARDS = (1, 2)


@pytest.fixture
def launches(monkeypatch):
    """Every charge a device took, as ``(device index, LaunchResult)`` in
    order; a device's index is its order of first launch."""
    log: List[tuple] = []
    devices = {}
    charge = GPUDevice._charge

    def logged(self, result):
        log.append((devices.setdefault(id(self), len(devices)), result))
        return charge(self, result)

    monkeypatch.setattr(GPUDevice, "_charge", logged)

    def take():
        out = list(log)
        log.clear()
        devices.clear()
        return out

    return take


def _priced_fields(records):
    return [
        (r.compute_us.hex(), r.launch_us.hex(), r.filter_us.hex(), r.barrier_us.hex())
        for r in records
    ]


def _place(graph, spec, num_shards, num_lanes=None):
    """Each stream's resident bytes on ``spec`` (raises on an OOM)."""
    plan = ShardPlan.build(graph, num_shards) if num_shards > 1 else None
    return place_static(spec, graph, num_lanes, plan)


def _check_pricing(graph, num_shards, execute, launches, num_lanes=None):
    """``execute(engine)`` runs the case; its default-configuration
    execution, priced under each pair, must equal a fresh run there."""
    config = EngineConfig(num_shards=num_shards, sanitize=SANITIZE)
    execution = execute(SIMDXEngine(graph, config=config))
    assert not execution.failed, execution.failure_reason
    own = _priced_fields(execution.iteration_records)
    own_launches = launches()
    for spec, fusion in PAIRS:
        if (spec, fusion) == (K40, config.fusion):
            # The execution is itself the fresh run under its own pair.
            fresh, fresh_launches = execution, own_launches
        else:
            fresh = execute(SIMDXEngine(
                graph, spec, config=replace(config, fusion=fusion)
            ))
            assert not fresh.failed, fresh.failure_reason
            fresh_launches = launches()
        elapsed_us, records, kernel_launches, breakdown = price(
            execution.iteration_records, spec, fusion,
            _place(graph, spec, num_shards, num_lanes),
        )
        where = f"{graph.name} x{num_shards} priced on {spec.name}/{fusion.value}"
        assert np.array_equal(execution.values, fresh.values), where
        assert records == fresh.iteration_records, where
        assert _priced_fields(records) == _priced_fields(fresh.iteration_records), where
        assert elapsed_us.hex() == fresh.elapsed_us.hex(), where
        assert kernel_launches == fresh.kernel_launches, where
        assert breakdown == fresh.extra["breakdown"], where
        assert launches() == fresh_launches, where
        if num_shards == 1:
            # One device adds its units back to back.
            total = 0.0
            for record in records:
                total += record.total_us
            assert total.hex() == elapsed_us.hex(), where
    # Pricing reads the records; it never writes them.
    assert _priced_fields(execution.iteration_records) == own


@pytest.mark.parametrize("num_shards", SHARDS)
def test_price_returns_new_records_and_writes_none(num_shards):
    """``price`` builds a new record per record and leaves the four
    ``*_us`` fields of the (unpriced) records it reads at 0.0."""
    graph = gen.rmat_graph(9, 8, seed=7, name="rmat9")
    run = SIMDXEngine(graph, config=EngineConfig(num_shards=num_shards)).run(
        BFS(source=3)
    )
    unpriced = [
        replace(r, compute_us=0.0, launch_us=0.0, filter_us=0.0, barrier_us=0.0)
        for r in run.iteration_records
    ]
    _, priced, _, _ = price(
        unpriced, K40, FusionStrategy.PUSH_PULL, _place(graph, K40, num_shards)
    )
    assert priced == run.iteration_records
    assert all(p is not u for p, u in zip(priced, unpriced))
    assert _priced_fields(unpriced) == [("0x0.0p+0",) * 4] * len(unpriced)
    assert any(r.total_us for r in priced)


@pytest.mark.parametrize("num_shards", SHARDS)
@pytest.mark.parametrize("shape,seed", MATRIX)
@pytest.mark.parametrize("case_name", sorted(ALGORITHM_CASES))
def test_single_run_prices_like_a_fresh_run(
    case_name, shape, seed, num_shards, launches
):
    graph = GRAPH_SHAPES[shape](seed)
    rng = np.random.default_rng(seed * 7919 + sum(ord(c) for c in case_name))
    make_algo, _ = ALGORITHM_CASES[case_name](graph, rng)
    _check_pricing(graph, num_shards, lambda e: e.run(make_algo()), launches)


@pytest.mark.parametrize("num_shards", SHARDS)
@pytest.mark.parametrize("shape,seed", MATRIX)
@pytest.mark.parametrize("case_name", BATCHED_CASES)
def test_batch_prices_like_a_fresh_batch(
    case_name, shape, seed, num_shards, launches
):
    graph = GRAPH_SHAPES[shape](seed)
    rng = np.random.default_rng(seed * 104729 + sum(ord(c) for c in case_name))
    make_algo, _ = ALGORITHM_CASES[case_name](graph, rng)
    sources = _sources(graph, rng, 4)
    _check_pricing(
        graph, num_shards, lambda e: e.run_batch(make_algo(), sources), launches,
        num_lanes=len(sources),
    )


#: ``case -> (paper_edges, EngineConfig fields, lanes, capacity)``, on rmat9
#: with 1e7 modeled vertices; ``capacity`` replaces every device's global
#: memory (``None``: the device's own).
OOM_CASES = {
    # K20 cannot hold the CSR; K40 and P100 complete.
    "static": (14 * 10**8, {}, None, None),
    # Per shard, K20 cannot hold the CSR; K40 and P100 complete.
    "static-shards": (2 * 10**9, {"num_shards": 2}, None, None),
    # Every shard's static footprint fits (the larger one with 1 MiB to
    # spare); the first superstep's boundary receive buffer does not.
    "boundary-buffer": (10**8, {"num_shards": 2}, None, 591_454_756),
}


class TestOutOfMemory:
    @pytest.mark.parametrize("case", sorted(OOM_CASES))
    def test_priced_failure_is_a_fresh_runs(self, case):
        paper_edges, fields, lanes, capacity = OOM_CASES[case]
        graph = gen.rmat_graph(9, 8, seed=7, name="rmat9")
        graph.meta["paper_vertices"] = 10**7
        graph.meta["paper_edges"] = paper_edges
        config = EngineConfig(sanitize=SANITIZE, **fields)
        hub = int(np.argmax(graph.out_degrees()))
        sources = None if lanes is None else _sources(
            graph, np.random.default_rng(lanes), lanes
        )

        def execute(spec):
            engine = SIMDXEngine(graph, spec, config)
            if sources is None:
                return engine.run(BFS(source=hub))
            return engine.run_batch(BFS(source=hub), sources)

        execution = execute(EXECUTION_SPEC)
        assert not execution.failed, execution.failure_reason
        reasons = []
        for spec in (K20, K40, P100):
            if capacity is not None:
                spec = replace(spec, global_memory_bytes=capacity)
            fresh = execute(spec)
            try:
                static = _place(graph, spec, config.num_shards, lanes)
            except DeviceOutOfMemory as exc:
                assert fresh.failure_reason == f"OOM: {exc}", spec.name
                reasons.append(fresh.failure_reason)
                continue
            priced = priced_result(execution, spec, config.fusion, static)
            assert priced.failed == fresh.failed, spec.name
            assert priced.failure_reason == fresh.failure_reason, spec.name
            assert priced.device == fresh.device, spec.name
            assert priced.elapsed_us.hex() == fresh.elapsed_us.hex(), spec.name
            assert type(priced) is type(fresh), spec.name
            if fresh.failed:
                # The whole failure record, a batch's ``sources`` included.
                assert priced == fresh, spec.name
            reasons.append(fresh.failure_reason)
        # Every case fails somewhere, and is an OOM where it does.
        assert any(reasons), case
        assert all(r.startswith("OOM: ") for r in reasons if r), reasons
