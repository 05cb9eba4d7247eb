"""Execute once, price many: pricing one execution under a (device, fusion)
pair equals a fresh run under that pair.

Nothing a run executes depends on the device model or the fusion strategy
(the device decides only memory feasibility, and these fuzz graphs carry
no paper-scale sizes, so nothing here runs out of memory). So for every
case of the differential fuzz matrix - single-source and ``run_batch``,
on one device and on two shards - one execution on the default K40 /
push-pull configuration is priced with :func:`repro.core.pricing.price`
under each of the nine (K20 / K40 / P100) x (none / all / push-pull)
pairs and held to a fresh full run under that pair:

* every record, field for field, and its four priced fields as
  ``float.hex``;
* ``elapsed_us`` as ``float.hex`` (it accumulates unit by unit, in the
  order the units ran - on one device, the records' ``total_us`` summed in
  order, to the bit);
* ``kernel_launches`` and ``extra["breakdown"]``;
* the devices' profiler launch records, in order (logged through
  ``DeviceProfiler.record_launch``, device by first use).

``REPRO_SANITIZE=1`` arms the runtime sanitizer on every run, as CI's
static-analysis job does.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List

import numpy as np
import pytest

from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.fusion import FusionStrategy
from repro.core.pricing import price
from repro.gpu.device import K20, K40, P100, GPUDevice
from repro.gpu.profiler import DeviceProfiler
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
    """Every profiler launch record, as ``(device index, record)`` in
    order; a device's index is its order of first launch."""
    log: List[tuple] = []
    devices = {}
    record_launch = DeviceProfiler.record_launch

    def logged(self, result):
        log.append((devices.setdefault(id(self), len(devices)), result))
        record_launch(self, result)

    monkeypatch.setattr(DeviceProfiler, "record_launch", logged)

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


def _check_pricing(graph, num_shards, execute, launches):
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
                graph, device=GPUDevice(spec), config=replace(config, fusion=fusion)
            ))
            assert not fresh.failed, fresh.failure_reason
            fresh_launches = launches()
        devices = [GPUDevice(spec) for _ in range(num_shards)]
        elapsed_us, records, kernel_launches, breakdown = price(
            execution.iteration_records, spec, fusion, devices
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
        graph, num_shards, lambda e: e.run_batch(make_algo(), sources), launches
    )
