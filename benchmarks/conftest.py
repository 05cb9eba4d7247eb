"""Shared fixtures for the benchmark suite.

A single session-scoped :class:`BenchmarkContext` is shared by every bench so
graphs, and the forced-push SIMD-X runs the baselines price, are generated
once. The ``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_DATASETS`` environment
variables shrink the sweep for quick smoke runs (e.g. ``REPRO_BENCH_DATASETS=LJ,RC pytest benchmarks/``).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import BenchmarkContext
from repro.graph.datasets import DATASET_ORDER


def _configured_context() -> BenchmarkContext:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    datasets_env = os.environ.get("REPRO_BENCH_DATASETS", "")
    if datasets_env.strip():
        datasets = tuple(
            d.strip().upper() for d in datasets_env.split(",") if d.strip()
        )
    else:
        datasets = tuple(DATASET_ORDER)
    device = os.environ.get("REPRO_BENCH_DEVICE", "K40")
    return BenchmarkContext(scale=scale, datasets=datasets, device=device)


@pytest.fixture(scope="session")
def ctx() -> BenchmarkContext:
    return _configured_context()
