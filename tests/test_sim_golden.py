"""Simulated time pinned across commits.

The fuzz matrix compares execution paths within one commit and
EXPERIMENTS.md is rounded, so neither notices a host-side change that
moves a simulated microsecond by one ulp. This module pins the cost model
bit for bit: ``tests/data/sim_golden.json`` holds, for every case below,
``elapsed_us.hex()``, the iteration / launch counts, every
``IterationRecord``'s four cost components as hex, the filter and
direction traces and the integer ``extra`` keys, as produced by the commit
that last *meant* to change simulated time. A host-only change must leave
the file untouched; a deliberate cost-model change regenerates it:

    PYTHONPATH=src:. python tests/test_sim_golden.py --write

``REPRO_SANITIZE=1`` arms the runtime sanitizer on every case (the CI
static-analysis job), holding a sanitized engine to the same pins.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, KCore, PageRank
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.filters import FilterMode
from repro.core.fusion import FusionStrategy
from repro.graph.datasets import load_dataset
from tests.engine_seams import ReferenceKernelEngine

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"
SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"
DATASETS = ("RC", "LJ")
SCALE = 0.25

ALGORITHMS: Dict[str, Callable[[int], object]] = {
    "bfs": lambda source: BFS(source=source),
    "sssp": lambda source: SSSP(source=source),
    "pagerank": lambda source: PageRank(),
    "kcore": lambda source: KCore(),
}
FILTER_MODES = (FilterMode.JIT, FilterMode.ONLINE, FilterMode.BALLOT)
#: One-axis variations of the default configuration; ``engine`` names the
#: engine class (``backend=python``: the loop reference primitives, through
#: the kernel seam), every other key is an ``EngineConfig`` field.
VARIANTS: Dict[str, Dict[str, object]] = {
    "forced=push": {"forced_direction": Direction.PUSH},
    "forced=pull": {"forced_direction": Direction.PULL},
    "atomic_combine": {"atomic_combine": True},
    "shards=2": {"num_shards": 2},
    "backend=python": {"engine": ReferenceKernelEngine},
}
#: ``run_batch`` over the four hubs: the batched default, every single-run
#: variant and the two pinned non-default filters. Hub lanes agree on
#: every direction, so the ``-spread`` batch (one hub and the vertices at
#: the out-degree quartiles) is the one whose lanes diverge and split; its
#: variants turn splitting off and route it through the loop primitives.
BATCH_ALGORITHMS: Dict[str, Callable[[], object]] = {"bfs": BFS, "sssp": SSSP}
BATCH_VARIANTS: Dict[str, Dict[str, object]] = {
    **VARIANTS,
    "filter=online": {"filter_mode": FilterMode.ONLINE},
    "filter=ballot": {"filter_mode": FilterMode.BALLOT},
}
SPREAD_VARIANTS: Dict[str, Dict[str, object]] = {
    "split=off": {"lane_aware_split": False},
    "backend=python": {"engine": ReferenceKernelEngine},
}


def _cases() -> Iterator[Tuple[str, str, str, Dict[str, object]]]:
    """``(case id, dataset, algorithm | "batch-<algorithm>", kwargs)``:
    EngineConfig fields plus an optional ``engine`` class and, for a batch,
    an optional ``sources`` choice."""
    for dataset in DATASETS:
        for algo in ALGORITHMS:
            for fusion in FusionStrategy:
                for mode in FILTER_MODES:
                    yield (
                        f"{dataset}/{algo}/fusion={fusion.value}/filter={mode.value}",
                        dataset, algo, {"fusion": fusion, "filter_mode": mode},
                    )
            for name, kwargs in VARIANTS.items():
                yield f"{dataset}/{algo}/{name}", dataset, algo, kwargs
        for algo in BATCH_ALGORITHMS:
            batch = f"batch-{algo}"
            yield f"{dataset}/{batch}4", dataset, batch, {}
            for name, kwargs in BATCH_VARIANTS.items():
                yield f"{dataset}/{batch}4/{name}", dataset, batch, kwargs
            spread = {"sources": "spread"}
            yield f"{dataset}/{batch}4-spread", dataset, batch, spread
            for name, kwargs in SPREAD_VARIANTS.items():
                yield (
                    f"{dataset}/{batch}4-spread/{name}", dataset, batch,
                    {**spread, **kwargs},
                )


CASES = {case[0]: case[1:] for case in _cases()}


def _observe(dataset: str, algo: str, kwargs: Dict[str, object]) -> Dict[str, object]:
    """Run one case and keep everything the cost model decided."""
    graph = load_dataset(dataset, SCALE)
    by_degree = np.argsort(-graph.out_degrees(), kind="stable")
    hubs = [int(v) for v in by_degree[:4]]
    kwargs = dict(kwargs)
    engine_cls = kwargs.pop("engine", SIMDXEngine)
    if kwargs.pop("sources", "hubs") == "spread":
        n = graph.num_vertices
        hubs = [int(by_degree[i]) for i in (0, n // 4, n // 2, 3 * n // 4)]
    engine = engine_cls(graph, config=EngineConfig(sanitize=SANITIZE, **kwargs))
    if algo.startswith("batch-"):
        result = engine.run_batch(BATCH_ALGORITHMS[algo[len("batch-"):]](), hubs)
    else:
        result = engine.run(ALGORITHMS[algo](hubs[0]))
    if result.failed:
        # "Where valid": a forced online filter that overflows is pinned
        # as the failure it is.
        return {"failed": result.failure_reason}
    return {
        "elapsed_us": result.elapsed_us.hex(),
        "iterations": result.iterations,
        "kernel_launches": result.kernel_launches,
        "records": [
            [r.compute_us.hex(), r.filter_us.hex(), r.barrier_us.hex(),
             r.launch_us.hex()]
            for r in result.iteration_records
        ],
        "filter_trace": list(result.filter_trace),
        "direction_trace": list(result.direction_trace),
        "extra": {
            key: value for key, value in sorted(result.extra.items())
            if isinstance(value, int) and not isinstance(value, bool)
        },
        "breakdown": result.extra.get("breakdown"),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_time_is_bit_identical_to_golden(golden, case):
    expected = golden[case]
    # Every float, ``extra["breakdown"]`` included, is a plain ``+`` fold
    # in charge order, so it is the same on every Python version.
    assert _observe(*CASES[case]) == expected


def _write() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {case: _observe(*spec) for case, spec in CASES.items()}
    lines = [
        f"{json.dumps(case)}: {json.dumps(data[case], separators=(',', ':'))}"
        for case in sorted(data)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_sim_golden.py --write")
    _write()
